"""Second-order jet of a metric at tangent-bundle points.

One batched sweep set evaluates, for each point, the metric value, both
first-derivative vectors, the direction Hessian and the mixed
direction/position second-derivative block.  Sweep ``r`` seeds every
differential plus coordinate ``x^r``; the pure-differential data is read
off sweep 0 (it is bitwise identical across sweeps), which avoids the full
double-size Hessian while keeping a single expression pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import dsl
from .errors import HomogeneityError, InvalidStateError

__all__ = ["TangentPoint", "Jet2", "JetBatch", "compute_jet", "compute_jets", "check_homogeneity",
           "HomogeneityReport"]


@dataclass(frozen=True)
class TangentPoint:
    """An admissible point (x, dx); arrays are copied and frozen."""

    x: np.ndarray
    dx: np.ndarray

    def __post_init__(self):
        for name in ("x", "dx"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Jet2:
    """Full second-order derivative data of L at one point.

    ``L2`` is the direction Hessian, ``mixed[i, r]`` differentiates first
    by the i-th differential then by the r-th coordinate.
    """

    x: np.ndarray
    dx: np.ndarray
    L: float
    dL_dx: np.ndarray
    p: np.ndarray
    L2: np.ndarray
    mixed: np.ndarray

    @property
    def dimension(self) -> int:
        return self.x.shape[0]

    def scale(self) -> float:
        """Characteristic magnitude used to make tolerance checks unit-free."""
        return max(abs(self.L), float(np.linalg.norm(self.p) * np.linalg.norm(self.dx)))

    def to_dict(self) -> dict:
        return {
            "x": self.x.tolist(),
            "dx": self.dx.tolist(),
            "L": self.L,
            "dL_dx": self.dL_dx.tolist(),
            "p": self.p.tolist(),
            "L2": self.L2.tolist(),
            "mixed": self.mixed.tolist(),
        }


@dataclass(frozen=True, eq=False)
class JetBatch(Sequence):
    """The jets of many points as stacked arrays, one row per point.

    The fields are those of :class:`Jet2` with a leading batch axis, laid
    out as the expression pass returns them (``mixed`` is a strided view;
    a contiguous copy would take another matmul kernel and change the
    last bits of ``mixed @ dx``).  Indexing by an integer yields that
    point's :class:`Jet2`, by a slice a sub-batch.
    """

    x: np.ndarray  # (B, n+1)
    dx: np.ndarray
    L: np.ndarray  # (B,)
    dL_dx: np.ndarray
    p: np.ndarray
    L2: np.ndarray  # (B, n+1, n+1)
    mixed: np.ndarray

    @classmethod
    def of(cls, jet: Jet2) -> "JetBatch":
        """The batch of one point, sharing ``jet``'s arrays."""
        return cls(
            x=jet.x[None], dx=jet.dx[None], L=np.array([jet.L]), dL_dx=jet.dL_dx[None],
            p=jet.p[None], L2=jet.L2[None], mixed=jet.mixed[None],
        )

    def __len__(self) -> int:
        return self.L.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return JetBatch(**{f.name: getattr(self, f.name)[i] for f in fields(self)})
        return Jet2(
            x=self.x[i], dx=self.dx[i], L=float(self.L[i]), dL_dx=self.dL_dx[i],
            p=self.p[i], L2=self.L2[i], mixed=self.mixed[i],
        )


def _jet_arrays(spec: dsl.MetricSpec, xs: np.ndarray, dxs: np.ndarray) -> dict:
    """Batched jet computation; xs, dxs of shape (P, n1). Returns stacked arrays."""
    n1 = spec.dimension
    P = xs.shape[0]
    B = P * n1
    x_vals = np.repeat(xs, n1, axis=0)
    dx_vals = np.repeat(dxs, n1, axis=0)
    # slots 0..n1-1 are the differentials, slot n1 the active coordinate
    diff_seeds = np.broadcast_to(np.arange(n1, dtype=int), (B, n1)).copy()
    coord_seeds = -np.ones((B, n1), dtype=int)
    sweep = np.tile(np.arange(n1, dtype=int), P)
    coord_seeds[np.arange(B), sweep] = n1

    out = dsl.eval_taylor(spec.expr, spec.params, x_vals, dx_vals, diff_seeds, coord_seeds)

    base = np.arange(P) * n1
    L = out.val[base]
    p = out.grad[base][:, :n1]
    L2 = out.hess[base][:, :n1, :n1]
    dL_dx = out.grad[:, n1].reshape(P, n1)
    # hess[b, i, n1] with b = point*n1 + sweep gives mixed[point, i, sweep]
    mixed = out.hess[:, :n1, n1].reshape(P, n1, n1).transpose(0, 2, 1)
    return {"L": L, "p": p, "L2": L2, "dL_dx": dL_dx, "mixed": mixed}


def _validate_jet(L, p, L2, dL_dx, mixed, dx, rtol: float, where: str):
    dx_norm = float(np.linalg.norm(dx))
    scale = max(abs(L), float(np.linalg.norm(p)) * dx_norm)
    floor = 1e-12 * (1.0 + dx_norm)

    euler = abs(float(p @ dx) - L)
    if euler > rtol * scale + floor:
        raise HomogeneityError(
            f"Euler identity p.dx = L violated by {euler:.3e} "
            f"(scale {scale:.3e}) {where}; L is not 1-homogeneous in dx",
            violation=euler, scale=scale,
        )
    l2_scale = float(np.linalg.norm(L2)) * dx_norm
    annihilation = float(np.linalg.norm(L2 @ dx))
    if annihilation > rtol * l2_scale + floor:
        raise HomogeneityError(
            f"L2.dx = 0 violated by {annihilation:.3e} (scale {l2_scale:.3e}) {where}",
            violation=annihilation, scale=l2_scale,
        )
    m_scale = float(np.linalg.norm(mixed)) * dx_norm + float(np.linalg.norm(dL_dx))
    contraction = float(np.linalg.norm(dx @ mixed - dL_dx))
    if contraction > rtol * m_scale + floor:
        raise HomogeneityError(
            f"dx-contraction of the mixed block != dL/dx by {contraction:.3e} "
            f"(scale {m_scale:.3e}) {where}",
            violation=contraction, scale=m_scale,
        )


def _require_admissible(spec: dsl.MetricSpec, xs: np.ndarray, dxs: np.ndarray):
    """:func:`dsl.require_admissible` at every point, with one guard
    evaluation for the whole batch (:func:`dsl.check_guard`).

    The batch only locates the first inadmissible point, which is then
    checked on its own, so the error (and the guard value in its message)
    is the one a per-point loop raises.  A batch whose guard evaluation
    itself fails, or whose shape is off, is checked point by point, and
    so is a single point, where the batch's fixed cost does not pay.
    """
    first = 0
    if xs.ndim == 2 and len(xs) > 1 and xs.shape == dxs.shape and xs.shape[1] == spec.dimension:
        with np.errstate(all="ignore"):
            bad = ~dsl.check_guard(spec, xs, dxs)
        first = int(np.argmax(bad)) if bad.any() else len(xs)
    for x, dx in zip(xs[first:], dxs[first:]):
        dsl.require_admissible(spec, x, dx)


def compute_jets(
    spec: dsl.MetricSpec,
    xs: np.ndarray,
    dxs: np.ndarray,
    validate: bool = True,
    rtol: float = 1e-9,
) -> JetBatch:
    """Batched form of :func:`compute_jet`; one expression pass for all points.

    The :class:`JetBatch` yields each point's :class:`Jet2` and holds the
    stacked arrays that the batched structural layer reads.
    """
    if validate and not (np.isfinite(rtol) and rtol >= 0):
        raise InvalidStateError(f"homogeneity tolerance must be finite and >= 0, got {rtol!r}")
    xs = np.asarray(xs, dtype=float)
    dxs = np.asarray(dxs, dtype=float)
    _require_admissible(spec, xs, dxs)
    jets = JetBatch(x=xs, dx=dxs, **_jet_arrays(spec, xs, dxs))
    if validate:
        for i in range(xs.shape[0]):
            _validate_jet(
                jets.L[i], jets.p[i], jets.L2[i], jets.dL_dx[i],
                jets.mixed[i], dxs[i], rtol, f"at point {i}",
            )
    return jets


def compute_jet(
    spec: dsl.MetricSpec,
    pt: TangentPoint | None = None,
    x=None,
    dx=None,
    validate: bool = True,
    rtol: float = 1e-9,
) -> Jet2:
    """Assemble the second-order jet at one admissible point.

    Raises :class:`HomogeneityError` when the derivative identities implied
    by 1-homogeneity fail at relative tolerance ``rtol`` (the expression is
    then not a Finsler metric at this point), and
    :class:`InvalidStateError` when ``rtol`` is not finite and >= 0.
    """
    if pt is not None:
        x, dx = pt.x, pt.dx
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float)
    return compute_jets(spec, x[None, :], dx[None, :], validate=validate, rtol=rtol)[0]


@dataclass
class HomogeneityReport:
    """Report-only result of scaling checks; never raises."""

    scales: tuple[float, ...]
    l_violation: float
    g_violation: float | None = None
    n_violation: float | None = None
    c_violation: float | None = None

    def max_violation(self) -> float:
        vals = [self.l_violation, self.g_violation, self.n_violation, self.c_violation]
        return max(v for v in vals if v is not None)

    def passed(self, tol: float = 1e-9) -> bool:
        return self.max_violation() <= tol


def check_homogeneity(
    spec: dsl.MetricSpec,
    pt: TangentPoint,
    scales,
    with_connection: bool = False,
    rank_tol: float = 1e-9,
) -> HomogeneityReport:
    """Measure the worst relative violation of L(x, s*dx) = s*L(x, dx).

    With ``with_connection`` the spray, connection coefficients and
    constraint residuals are recomputed at each scaled direction and
    checked for their own degrees (2, 1 and 1 respectively).
    """
    scales = tuple(float(s) for s in scales)
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")
    x, dx = pt.x, pt.dx
    L0 = float(dsl.eval_values(spec.expr, spec.params, x[None, :], dx[None, :])[0])

    xs = np.broadcast_to(x, (len(scales), x.shape[0]))
    dxs = np.array([s * dx for s in scales])
    Ls = dsl.eval_values(spec.expr, spec.params, xs, dxs)
    floor = 1e-300
    l_viol = max(
        abs(Ls[i] - s * L0) / (abs(s * L0) + floor) for i, s in enumerate(scales)
    )
    report = HomogeneityReport(scales=scales, l_violation=float(l_viol))

    if with_connection:
        from . import connection

        def conn_at(dx_s):
            res = connection.coefficients_N(spec, TangentPoint(x, dx_s), rank_tol=rank_tol)
            return res.G, res.N, res.C

        G0, N0, C0 = conn_at(dx)
        gv = nv = cv = 0.0
        for s in scales:
            Gs, Ns, Cs = conn_at(s * dx)
            gv = max(gv, np.linalg.norm(Gs - s * s * G0) / (s * s * np.linalg.norm(G0) + floor))
            nv = max(nv, np.linalg.norm(Ns - s * N0) / (s * np.linalg.norm(N0) + floor))
            if C0.size:
                cv = max(cv, np.linalg.norm(Cs - s * C0) / (s * np.linalg.norm(C0) + floor))
        report.g_violation = float(gv)
        report.n_violation = float(nv)
        report.c_violation = float(cv) if C0.size else None
    return report
