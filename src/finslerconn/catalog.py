"""Built-in metric catalog and reference oracles.

Each entry bundles a metric, a deterministic admissible-point sampler and
the facts known about it in closed form (expected rank and degeneracy
count, printed spray/constraint expressions, an independent Riemannian
route where one exists).  The oracles below are implemented straight from
raw formulas and share no code with the solver pipeline, so agreement
between the two routes is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dsl import MetricSpec, check_guard, eval_values, parse
from .errors import DomainError

__all__ = [
    "Sampler",
    "CatalogEntry",
    "catalog",
    "catalog_entry",
    "christoffel_oracle",
    "christoffel_symbols",
    "riemann_tensor",
    "oscillator_oracle",
    "frenkel_oracle",
    "levi_civita_transport",
]


@dataclass(frozen=True)
class Sampler:
    """Deterministic rejection sampler for admissible points.

    ``min_abs_L`` filters out near-null directions, required wherever the
    flow-normalized frame (and hence the connection) is evaluated.
    """

    x_low: tuple
    x_high: tuple
    dx_low: tuple
    dx_high: tuple
    min_abs_L: float = 0.0
    predicate: Callable[[np.ndarray, np.ndarray], bool] | None = None

    def sample(self, rng: np.random.Generator, count: int, spec: MetricSpec,
               for_connection: bool = True) -> tuple[np.ndarray, np.ndarray]:
        xs_out, dxs_out = [], []
        attempts = 0
        while len(xs_out) < count:
            attempts += 1
            if attempts > 200:
                raise RuntimeError("sampler failed to find admissible points")
            batch = max(4 * (count - len(xs_out)), 16)
            xs = rng.uniform(self.x_low, self.x_high, size=(batch, len(self.x_low)))
            dxs = rng.uniform(self.dx_low, self.dx_high, size=(batch, len(self.dx_low)))
            ok = check_guard(spec, xs, dxs)
            if for_connection and self.min_abs_L > 0:
                vals = np.full(batch, np.nan)
                idx = np.flatnonzero(ok)
                if idx.size:
                    try:
                        vals[idx] = eval_values(spec.expr, spec.params, xs[idx], dxs[idx])
                    except DomainError:
                        for i in idx:  # fall back to per-point evaluation
                            try:
                                vals[i] = eval_values(
                                    spec.expr, spec.params, xs[i : i + 1], dxs[i : i + 1]
                                )[0]
                            except DomainError:
                                vals[i] = np.nan
                ok &= np.abs(vals) >= self.min_abs_L
            if self.predicate is not None:
                for i in np.flatnonzero(ok):
                    if not self.predicate(xs[i], dxs[i]):
                        ok[i] = False
            for i in np.flatnonzero(ok):
                if len(xs_out) < count:
                    xs_out.append(xs[i])
                    dxs_out.append(dxs[i])
        return np.array(xs_out), np.array(dxs_out)


@dataclass(frozen=True)
class CatalogEntry:
    """A cataloged metric plus everything known about it in closed form."""

    name: str
    classification: str  # regular | singular-2nd-class | singular-1st-class
    spec: MetricSpec
    sampler: Sampler
    expected_rank: int
    expected_D: int
    description: str = ""
    riemann_g: Callable[[np.ndarray], np.ndarray] | None = None
    analytic_christoffel: Callable[[np.ndarray], np.ndarray] | None = None
    closed_form_2G: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    constraint_forms: tuple[Callable[[np.ndarray, np.ndarray], float], ...] = ()
    mroot: dict | None = None
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# independent oracles (raw formulas, no solver code)
# ---------------------------------------------------------------------------


# complex-step size: Im g(x + i h e_c) / h is exact to rounding for any h
# this small, with no subtractive cancellation
COMPLEX_STEP = 1e-30


def _metric_derivatives(g_fn, x: np.ndarray) -> np.ndarray:
    """dg[c, i, j] = d g_ij / d x^c by the complex step; ``g_fn`` must
    accept complex ``x``."""
    n1 = x.shape[0]
    dg = np.empty((n1, n1, n1))
    for c in range(n1):
        e = np.zeros(n1)
        e[c] = COMPLEX_STEP
        dg[c] = np.imag(g_fn(x + 1j * e)) / COMPLEX_STEP
    return dg


def christoffel_symbols(g_fn, x: np.ndarray) -> np.ndarray:
    """Gamma[mu, a, b] of the metric-compatible torsion-free connection."""
    g = g_fn(x)
    w = np.linalg.eigvalsh(g)
    if w[0] <= 0:
        raise DomainError(f"metric matrix is not positive definite at {x.tolist()}")
    ginv = np.linalg.inv(g)
    dg = _metric_derivatives(g_fn, x)
    # Gamma^m_ab = 1/2 g^{mc} (d_b g_ca + d_a g_cb - d_c g_ab)
    term = np.einsum("bca->cab", dg) + np.einsum("acb->cab", dg) - dg
    return 0.5 * np.einsum("mc,cab->mab", ginv, term)


def christoffel_oracle(g_fn, x, dx) -> np.ndarray:
    """2G of a Riemannian metric: the geodesic quadratic form Gamma dx dx.

    Entirely independent of the connection solver; ``g_fn`` maps x, real
    or complex, to the symmetric positive-definite matrix.
    """
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float)
    gamma = christoffel_symbols(g_fn, x)
    return np.einsum("mab,a,b->m", gamma, dx, dx)


def riemann_tensor(g_fn, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """R[m, n, b, c] = d_b Gamma^m_cn - d_c Gamma^m_bn + Gamma^m_bl Gamma^l_cn
    - Gamma^m_cl Gamma^l_bn, with the x-derivatives by central FD."""
    n1 = x.shape[0]
    dGamma = np.empty((n1, n1, n1, n1))  # [b, m, a, c]
    for b in range(n1):
        e = np.zeros(n1)
        e[b] = 1.0
        h = step * (1.0 + abs(x[b]))
        d1 = (christoffel_symbols(g_fn, x + h * e) - christoffel_symbols(g_fn, x - h * e)) / (2 * h)
        d2 = (christoffel_symbols(g_fn, x + 0.5 * h * e) - christoffel_symbols(g_fn, x - 0.5 * h * e)) / h
        dGamma[b] = (4.0 * d2 - d1) / 3.0
    gamma = christoffel_symbols(g_fn, x)
    term1 = np.einsum("bmcn->mnbc", dGamma)
    term2 = np.einsum("cmbn->mnbc", dGamma)
    term3 = np.einsum("mbl,lcn->mnbc", gamma, gamma)
    term4 = np.einsum("mcl,lbn->mnbc", gamma, gamma)
    return term1 - term2 + term3 - term4


def levi_civita_transport(g_fn, xs: np.ndarray, dxs: np.ndarray, Z0, h: float) -> np.ndarray:
    """Linear metric-compatible transport along a discretized curve.

    Integrates dZ/dt = -Gamma(x) [Z, xdot] with RK4, re-deriving the curve
    stages from its own geodesic equation (independent of the main solver).
    """
    Z = np.asarray(Z0, dtype=float).copy()
    x = xs[0].copy()
    dx = dxs[0].copy()
    out = [Z.copy()]
    for _ in range(xs.shape[0] - 1):
        def f(x_s, dx_s, Z_s):
            gamma = christoffel_symbols(g_fn, x_s)
            acc = -np.einsum("mab,a,b->m", gamma, dx_s, dx_s)
            zdot = -np.einsum("mab,a,b->m", gamma, dx_s, Z_s)
            return acc, zdot

        a1, z1 = f(x, dx, Z)
        a2, z2 = f(x + 0.5 * h * dx, dx + 0.5 * h * a1, Z + 0.5 * h * z1)
        a3, z3 = f(x + 0.5 * h * (dx + 0.5 * h * a1), dx + 0.5 * h * a2, Z + 0.5 * h * z2)
        a4, z4 = f(x + h * (dx + 0.5 * h * a2), dx + h * a3, Z + h * z3)
        k1x, k2x, k3x, k4x = dx, dx + 0.5 * h * a1, dx + 0.5 * h * a2, dx + h * a3
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        dx = dx + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
        Z = Z + (h / 6.0) * (z1 + 2 * z2 + 2 * z3 + z4)
        out.append(Z.copy())
    return np.array(out)


def oscillator_oracle(y0, t: float, x0=(0.0, 0.0, 0.0)) -> dict:
    """Exact solution of dy1/dt = y2, dy2/dt = -y1 and its x-integrals.

    Clockwise rotation of (y1, y2); x1, x2 accumulate the antiderivatives
    and x0 advances with t.
    """
    y1_0, y2_0 = float(y0[0]), float(y0[1])
    c, s = math.cos(t), math.sin(t)
    y1 = y1_0 * c + y2_0 * s
    y2 = -y1_0 * s + y2_0 * c
    x1 = float(x0[1]) + y1_0 * s + y2_0 * (1.0 - c)
    x2 = float(x0[2]) + y1_0 * (c - 1.0) + y2_0 * s
    return {
        "x": np.array([float(x0[0]) + t, x1, x2]),
        "y": np.array([y1, y2]),
        "energy": 0.5 * (y1 * y1 + y2 * y2),
    }


def frenkel_oracle(t: float, xi1: Callable[[float], float], xi2: Callable[[float], float],
                   x0_0: float = 0.0) -> np.ndarray:
    """General solution family of the pathological first-class model:
    x1, x2 follow arbitrary functions of t while x3 stays pinned at 0."""
    return np.array([x0_0 + t, float(xi1(t)), float(xi2(t)), 0.0])


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------


def _euclidean_entry(n1: int) -> CatalogEntry:
    expr = "sqrt(" + " + ".join(f"d{i}^2" for i in range(n1)) + ")"
    eye = np.eye(n1)
    return CatalogEntry(
        name=f"euclidean-{n1}",
        classification="regular",
        spec=parse(expr, dimension=n1),
        sampler=Sampler(
            x_low=(-2.0,) * n1, x_high=(2.0,) * n1,
            dx_low=(-1.0,) * n1, dx_high=(1.0,) * n1,
            min_abs_L=0.3,
        ),
        expected_rank=n1 - 1,
        expected_D=0,
        description="flat Euclidean norm; zero spray, zero curvature",
        riemann_g=lambda x: eye,
        closed_form_2G=lambda x, dx: np.zeros(n1),
    )


def _sphere_entry() -> CatalogEntry:
    def g(x):
        return np.array([[1.0, 0.0], [0.0, np.sin(x[0]) ** 2]])

    def gamma(x):
        th = x[0]
        out = np.zeros((2, 2, 2))
        out[0, 1, 1] = -math.sin(th) * math.cos(th)
        out[1, 0, 1] = out[1, 1, 0] = math.cos(th) / math.sin(th)
        return out

    return CatalogEntry(
        name="riemann-2d-curved",
        classification="regular",
        spec=parse(
            "sqrt(d0^2 + sin(x0)^2*d1^2)",
            dimension=2,
            guard="sin(x0) - 1/100",
        ),
        sampler=Sampler(
            x_low=(0.5, -3.0), x_high=(2.6, 3.0),
            dx_low=(-1.0, -1.0), dx_high=(1.0, 1.0),
            min_abs_L=0.25,
        ),
        expected_rank=1,
        expected_D=0,
        description="round unit 2-sphere in polar angles; constant positive curvature",
        riemann_g=g,
        analytic_christoffel=gamma,
    )


def _riemann3d_entry() -> CatalogEntry:
    # fixed coefficients, diagonally dominant so g stays positive definite
    expr = (
        "sqrt((2 + 1/2*sin(x1))*d0^2 + (2 + 1/2*cos(x2))*d1^2"
        " + (2 + 2/5*sin(x0 + x2))*d2^2"
        " + 2*(3/10*sin(x2))*d0*d1 + 2*(1/5*cos(x1))*d0*d2"
        " + 2*(1/4*sin(x0))*d1*d2)"
    )

    def g(x):
        return np.array([
            [2 + 0.5 * np.sin(x[1]), 0.3 * np.sin(x[2]), 0.2 * np.cos(x[1])],
            [0.3 * np.sin(x[2]), 2 + 0.5 * np.cos(x[2]), 0.25 * np.sin(x[0])],
            [0.2 * np.cos(x[1]), 0.25 * np.sin(x[0]), 2 + 0.4 * np.sin(x[0] + x[2])],
        ])

    return CatalogEntry(
        name="riemann-3d-generic",
        classification="regular",
        spec=parse(expr, dimension=3),
        sampler=Sampler(
            x_low=(-1.0,) * 3, x_high=(1.0,) * 3,
            dx_low=(-1.0,) * 3, dx_high=(1.0,) * 3,
            min_abs_L=0.4,
        ),
        expected_rank=2,
        expected_D=0,
        description="generic curved 3-d Riemannian metric with sinusoidal coefficients",
        riemann_g=g,
    )


def _quartic_entry() -> CatalogEntry:
    c_fns = (
        lambda x: 1.0 + 0.5 * math.sin(x[1]),
        lambda x: 1.0 + 0.5 * math.cos(x[0]),
    )
    dc_fns = (  # dc_mu/dx^a, index [mu][a]
        lambda x: np.array([0.0, 0.5 * math.cos(x[1])]),
        lambda x: np.array([-0.5 * math.sin(x[0]), 0.0]),
    )
    return CatalogEntry(
        name="quartic-root",
        classification="regular",
        spec=parse(
            "((1 + 1/2*sin(x1))*d0^4 + (1 + 1/2*cos(x0))*d1^4)^(1/4)",
            dimension=2,
        ),
        sampler=Sampler(
            x_low=(-1.5, -1.5), x_high=(1.5, 1.5),
            dx_low=(-1.0, -1.0), dx_high=(1.0, 1.0),
            min_abs_L=0.3,
            # the direction Hessian drops rank on the coordinate axes
            predicate=lambda x, dx: min(abs(dx[0]), abs(dx[1])) > 0.25,
        ),
        expected_rank=1,
        expected_D=0,
        description="fourth-root polynomial metric with position-dependent diagonal",
        mroot={"m": 4, "c": c_fns, "dc": dc_fns},
    )


def _potential_entry() -> CatalogEntry:
    m_val, k_val = 1.0, 1.0

    def closed_form_2G(x, dx):
        # printed spray of the potential system with V = k/2 |x|^2
        dV = k_val * x[1:4]
        L = 0.5 * m_val * float(dx[1:] @ dx[1:]) / dx[0] - 0.5 * k_val * float(
            x[1:] @ x[1:]
        ) * dx[0]
        out = np.empty(4)
        out[0] = -2.0 * float(dV @ dx[1:]) * dx[0] ** 2 / L
        for a in range(3):
            out[1 + a] = float(
                dV[a] * dx[0] ** 2 / m_val
                - 2.0 * dx[0] * dx[1 + a] * float(dV @ dx[1:]) / L
            )
        return out

    return CatalogEntry(
        name="potential-system",
        classification="regular",
        spec=parse(
            "m/2*(d1^2 + d2^2 + d3^2)/d0 - k/2*(x1^2 + x2^2 + x3^2)*d0",
            dimension=4,
            parameters={"m": m_val, "k": k_val},
            guard="d0",
        ),
        sampler=Sampler(
            x_low=(-1.0,) * 4, x_high=(1.0,) * 4,
            dx_low=(0.6, -1.0, -1.0, -1.0), dx_high=(1.5, 1.0, 1.0, 1.0),
            min_abs_L=0.08,
        ),
        expected_rank=3,
        expected_D=0,
        description="non-relativistic particle in an isotropic harmonic well, "
        "homogenized with the 0-th coordinate as time",
        closed_form_2G=closed_form_2G,
        extras={"m": m_val, "k": k_val},
    )


def _second_class_entry() -> CatalogEntry:
    return CatalogEntry(
        name="second-class",
        classification="singular-2nd-class",
        spec=parse("x1*d2 - x2*d1 + (x1^2 + x2^2)*d0", dimension=3),
        sampler=Sampler(
            # dominant 0-th velocity keeps the index split at {0} | {1, 2}
            x_low=(-1.0, -1.2, -1.2), x_high=(1.0, 1.2, 1.2),
            dx_low=(0.7, -0.5, -0.5), dx_high=(1.4, 0.5, 0.5),
            min_abs_L=0.05,
            predicate=lambda x, dx: x[1] ** 2 + x[2] ** 2 > 0.1,
        ),
        expected_rank=0,
        expected_D=2,
        description="totally degenerate linear-in-velocity model; two "
        "second-class constraints, reduced dynamics a harmonic oscillator",
        constraint_forms=(
            lambda x, dx: dx[2] + x[1] * dx[0],
            lambda x, dx: dx[1] - x[2] * dx[0],
        ),
        extras={
            # pipeline sign convention: v from +e1/+e2 makes C_1 = -(dx2 + x1 dx0)
            "constraint_signs": (-1.0, 1.0),
        },
    )


def _frenkel_entry() -> CatalogEntry:
    return CatalogEntry(
        name="frenkel",
        classification="singular-1st-class",
        spec=parse("d2*d3^2/d0^2 - 1/2*x1*x3^2*d0", dimension=4, guard="d0"),
        sampler=Sampler(
            # off-surface points: x3 and d3 bounded away from zero; the
            # 0-th velocity dominates d1 so the index split stays {0}|{1}
            x_low=(-1.0, -1.0, -1.0, 0.3), x_high=(1.0, 1.0, 1.0, 1.0),
            dx_low=(0.8, -0.7, 0.3, 0.3), dx_high=(1.4, 0.7, 1.0, 1.0),
            min_abs_L=0.05,
        ),
        expected_rank=2,
        expected_D=1,
        description="pathological first-class model: one constraint off the "
        "surface, rank drops to 1 on it and two multipliers stay free",
        constraint_forms=(lambda x, dx: 0.25 * x[3] ** 2 * dx[0],),
    )


_CATALOG: tuple[CatalogEntry, ...] | None = None


def catalog() -> tuple[CatalogEntry, ...]:
    """All built-in metrics, immutable and lazily constructed once."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = (
            _euclidean_entry(2),
            _euclidean_entry(3),
            _sphere_entry(),
            _riemann3d_entry(),
            _quartic_entry(),
            _potential_entry(),
            _second_class_entry(),
            _frenkel_entry(),
        )
    return _CATALOG


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in catalog())
    raise KeyError(f"no catalog metric named {name!r}; known: {known}")
