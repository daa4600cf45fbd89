"""Auto-parallel (constrained geodesic) integration.

The equation of motion is ``x'' + 2G = lambda0 * ell_0 + sum_I lambda^I v_I``
with the multipliers fixed per step by the gauge condition and by keeping
the constraint residuals C_I at zero along the flow.  Internally the
acceleration is assembled in the flow-parallel form

    accel = eta * dx - 2 * sum_a lambda^a e_a + sum_I lambda^I v_I

where ``eta`` absorbs every term proportional to dx.  Solving for ``eta``
directly (instead of lambda0/L) keeps the stepper finite on constraint
surfaces where the metric value vanishes; lambda0 = eta*L + omega -
2*lambda^a p_a is reported afterwards and never divided by.

Consistency rows are the directional derivatives dC_I/dtau, affine in the
multipliers; a stage takes their coefficients (central differences of C_I
on the frozen structural branch) and its own jet, analysis and C_I from
one jet batch.  Rows that vanish relative to their own gradient scale
classify the corresponding multiplier as a first-class freedom, filled by
the gauge's free-multiplier policy.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import dsl
from .connection import (
    FD_STEP,
    _l_floor,
    _richardson,
    _solve_G_batch,
    _stencil,
    constraint_residuals,
    moment_map,
)
from .degeneracy import DegeneracyData, _ranks, analyze, analyze_frozen
from .errors import (
    ConsistencyError,
    DegeneracyError,
    DomainError,
    InvalidStateError,
)
from .jet import Jet2, JetBatch, TangentPoint, compute_jet, compute_jets

logger = logging.getLogger("finslerconn")

__all__ = [
    "GaugeChoice",
    "NodeDiagnostics",
    "Trajectory",
    "TransportResult",
    "el_residual",
    "resolve_multipliers",
    "MultiplierResolution",
    "integrate",
    "parallel_transport",
]

ROW_ZERO_TOL = 1e-8  # first-class / second-class classifier
CONSISTENCY_TOL = 1e-6
# central-difference step of the constraint gradients, relative to
# 1 + |x_i| in x and to |dx| in dx
C_FD_SCALE = 1e-5


@dataclass(frozen=True)
class GaugeChoice:
    """Parameterization fixing for the dx-parallel multiplier.

    ``time``: the parameter is the 0-th coordinate, enforced via accel0 = 0.
    ``arclength``: L is preserved along the curve (requires L = 1 initially),
    which resolves the dx-parallel multiplier to zero up to solver error.
    ``custom``: lambda0(x, dx) supplied directly.
    ``free_policy(tau, x, dx, index)`` supplies values for multipliers the
    consistency conditions leave free (default zero).
    """

    kind: str
    free_policy: Callable[[float, np.ndarray, np.ndarray, int], float] | None = None
    lambda0_fn: Callable[[np.ndarray, np.ndarray], float] | None = None

    @classmethod
    def time(cls, free_policy=None) -> "GaugeChoice":
        return cls(kind="time", free_policy=free_policy)

    @classmethod
    def arclength(cls, free_policy=None) -> "GaugeChoice":
        return cls(kind="arclength", free_policy=free_policy)

    @classmethod
    def custom(cls, lambda0_fn, free_policy=None) -> "GaugeChoice":
        return cls(kind="custom", free_policy=free_policy, lambda0_fn=lambda0_fn)


@dataclass(frozen=True)
class NodeDiagnostics:
    tau: float
    x: np.ndarray
    dx: np.ndarray
    L: float
    C: np.ndarray
    el: np.ndarray
    el_norm: float
    el_scale: float
    lambda0: float
    lambdaI: np.ndarray
    lambda_a: np.ndarray
    eta: float
    rank: int
    D: int
    gauge_dim_free: int
    accel: np.ndarray
    events: tuple[str, ...] = ()


@dataclass
class Trajectory:
    """Discretized auto-parallel curve with per-node diagnostics."""

    gauge: GaugeChoice
    h: float
    steps_requested: int
    nodes: list[NodeDiagnostics]
    halt_reason: str | None = None
    projected_steps: int = 0
    rank_tol: float = 1e-9
    events: list[tuple[int, str]] = field(default_factory=list)
    # (x, dx) at the four RK4 stages of each step taken, shape (4, 2, n1)
    # per step; parallel_transport integrates Z over them
    _stages: list[np.ndarray] = field(default_factory=list, repr=False, compare=False)

    @property
    def taus(self) -> np.ndarray:
        return np.array([n.tau for n in self.nodes])

    @property
    def xs(self) -> np.ndarray:
        return np.array([n.x for n in self.nodes])

    @property
    def dxs(self) -> np.ndarray:
        return np.array([n.dx for n in self.nodes])

    @property
    def completed(self) -> bool:
        return self.halt_reason is None

    def summary(self) -> dict:
        Ls = np.array([n.L for n in self.nodes])
        maxC = max((float(np.max(np.abs(n.C))) for n in self.nodes if n.C.size), default=0.0)
        return {
            "nodes": len(self.nodes),
            "halt_reason": self.halt_reason,
            "L_initial": float(Ls[0]),
            "L_final": float(Ls[-1]),
            "L_drift": float(np.max(np.abs(Ls - Ls[0]))),
            "max_constraint_residual": maxC,
            "max_el_residual": max(float(n.el_norm) for n in self.nodes),
            "max_abs_lambda0": max(abs(float(n.lambda0)) for n in self.nodes),
            "projected_steps": self.projected_steps,
        }


def el_residual(spec: dsl.MetricSpec, x, dx, accel) -> np.ndarray:
    """Euler-Lagrange residual dL/dx - (mixed . dx) - L2 . accel.

    Vanishes on solutions; adding any multiple of dx to ``accel`` leaves it
    unchanged because L2 annihilates dx.
    """
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float)
    accel = np.asarray(accel, dtype=float)
    jet = compute_jet(spec, x=x, dx=dx, validate=False)
    return _el_residual_jet(jet, accel)


def _el_residual_jet(jet: Jet2, accel: np.ndarray) -> np.ndarray:
    return jet.dL_dx - jet.mixed @ jet.dx - jet.L2 @ accel


def _el_scale(jet: Jet2, accel: np.ndarray) -> float:
    return float(
        np.linalg.norm(jet.dL_dx)
        + np.linalg.norm(jet.mixed) * np.linalg.norm(jet.dx)
        + np.linalg.norm(jet.L2) * np.linalg.norm(accel)
        + 1e-300
    )


def _constraint_scale(jet: Jet2) -> float:
    return 0.5 * float(
        np.linalg.norm(jet.dL_dx) + np.linalg.norm(jet.mixed) * np.linalg.norm(jet.dx)
    )


# ---------------------------------------------------------------------------
# multiplier resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierResolution:
    lambda0: float
    lambdaI: np.ndarray
    lambda_a: np.ndarray
    eta: float
    gauge_dim_free: int
    accel: np.ndarray
    C: np.ndarray
    jet: Jet2
    deg: DegeneracyData


@functools.cache
def _unit_stencil(n1: int) -> np.ndarray:
    """Rows +e_i, -e_i for each coordinate i, shape (2 n1, n1); the zeros
    of a minus row are -0.0, so scaling by a positive step keeps the signed
    zeros of scaling e_i first."""
    unit = np.repeat(np.eye(n1), 2, axis=0) * np.tile([1.0, -1.0], n1)[:, None]
    unit.setflags(write=False)
    return unit


def _c_gradients(
    spec: dsl.MetricSpec,
    x: np.ndarray,
    dx: np.ndarray,
    base: DegeneracyData,
) -> tuple[Jet2, DegeneracyData, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """The stage at (x, dx) on ``base``'s branch from one jet batch whose
    row 0 is (x, dx): that point's jet, DegeneracyData and C, and
    (dC/dx, dC/d(dx)) by central differences.  On a regular branch the
    batch is the point alone and the gradients are None."""
    D = base.D
    xs, dxs = x[None], dx[None]
    if D:
        n1 = x.shape[0]
        hx = C_FD_SCALE * (1.0 + np.abs(x))
        hd = C_FD_SCALE * float(np.linalg.norm(dx))
        unit = _unit_stencil(n1)
        sx, sdx = unit * hx, unit * hd
        xs = np.vstack([xs, x + sx, np.broadcast_to(x, sdx.shape)])
        dxs = np.vstack([dxs, np.broadcast_to(dx, sx.shape), dx + sdx])
    jets = compute_jets(spec, xs, dxs, validate=False)
    degs = analyze_frozen(jets, base)
    if not D:
        return jets[0], degs[0], np.zeros(0), None
    Cs = constraint_residuals(jets, degs)
    diff = Cs[1::2] - Cs[2::2]  # (2 n1, D)
    gx = (diff[:n1] / (2.0 * hx[:, None])).T.copy()
    gdx = (diff[n1:] / (2.0 * hd)).T.copy()
    return jets[0], degs[0], Cs[0], (gx, gdx)


def _own_batch(jet: Jet2, deg: DegeneracyData) -> tuple | None:
    """The :func:`_c_gradients` batch of a regular point, the point alone;
    None on a constrained branch, whose batch needs the stencil."""
    return None if deg.D else (jet, deg, np.zeros(0), None)


def _consistency_rows(grads, dx, vs, accel_base):
    """The D consistency rows dC_J/dtau = 0 over [eta, lambda^I], with
    their right-hand sides and scales, stacked.  ``np.vecdot`` and the
    stacked matmul give the bits of the per-row 1-d dots, norms and
    ``gdx[J] @ vs.T``; ``gdx @ vs.T`` would not."""
    gx, gdx = grads
    D = gx.shape[0]
    velnorm = float(np.linalg.norm(dx))
    accnorm = float(np.linalg.norm(accel_base))
    rows = np.empty((D, 1 + D))
    rows[:, 0] = np.vecdot(gdx, dx)
    rows[:, 1:] = (gdx[:, None, :] @ vs.T[None])[:, 0]
    rhs = -np.vecdot(gx, dx) - np.vecdot(gdx, accel_base)
    row_scales = (
        np.sqrt(np.vecdot(gx, gx)) * velnorm
        + np.sqrt(np.vecdot(gdx, gdx)) * (velnorm + accnorm + D)
    )
    return rows, rhs, row_scales


def _resolve(
    spec: dsl.MetricSpec,
    x: np.ndarray,
    dx: np.ndarray,
    gauge: GaugeChoice,
    tau: float,
    base: DegeneracyData,
    batch: tuple | None = None,
) -> MultiplierResolution:
    """The multipliers at (x, dx) on ``base``'s branch, from row 0 of the
    :func:`_c_gradients` batch of (x, dx), built here unless the caller
    holds it as ``batch``.  When that batch raises, the point is replayed
    alone, so errors come in per-point order: the point's own, its gauge
    row's, then the first failing stencil row's."""
    failure = None
    if batch is None:
        try:
            batch = _c_gradients(spec, x, dx, base)
        except (DomainError, DegeneracyError) as exc:
            jet = compute_jet(spec, x=x, dx=dx, validate=False)
            batch, failure = (jet, analyze_frozen(jet, base), None, None), exc
    jet, deg, C, grads = batch
    M = moment_map(jet)
    a_idx = np.asarray(deg.a_indices, dtype=int)
    lambda_a = deg.Lab_inv @ M[a_idx] if a_idx.size else np.zeros(0)
    omega = float(dx @ jet.dL_dx)
    two_lam_p = 2.0 * float(lambda_a @ jet.p[a_idx]) if a_idx.size else 0.0

    accel_base = np.zeros(jet.dimension)
    accel_base[a_idx] -= 2.0 * lambda_a

    D = deg.D
    vs = deg.v  # (D, n1)
    unknowns = 1 + D  # [eta, lambda^I...]

    # gauge row
    row0 = np.zeros(unknowns)
    if gauge.kind == "time":
        if abs(dx[0]) < 1e-300:
            raise InvalidStateError("time gauge requires a nonzero 0-th velocity component")
        row0[0] = dx[0]
        row0[1:] = vs[:, 0]
        rhs0 = -accel_base[0]
        row0_scale = abs(dx[0]) + (np.max(np.abs(vs[:, 0])) if D else 0.0) + abs(rhs0)
    elif gauge.kind == "arclength":
        row0[0] = float(jet.p @ dx)
        row0[1:] = vs @ jet.p
        rhs0 = -omega - float(jet.p @ accel_base)
        row0_scale = abs(row0[0]) + abs(rhs0)
    elif gauge.kind == "custom":
        if gauge.lambda0_fn is None:
            raise InvalidStateError("custom gauge requires lambda0_fn")
        if abs(jet.L) <= _l_floor(JetBatch.of(jet))[0]:
            raise DegeneracyError("custom gauge needs a nonvanishing metric value")
        row0[0] = jet.L
        rhs0 = float(gauge.lambda0_fn(x, dx)) - omega + two_lam_p
        row0_scale = abs(jet.L) + abs(rhs0)
    else:
        raise ValueError(f"unknown gauge kind {gauge.kind!r}")

    if failure is not None:
        raise failure
    row_scale_max, free_cols = 0.0, []
    if D:
        rows, rhs, row_scales = _consistency_rows(grads, dx, vs, accel_base)
        row_scale_max = float(np.max(row_scales))
        keep = np.maximum(np.max(np.abs(rows), axis=1), np.abs(rhs)) > (
            ROW_ZERO_TOL * row_scales + 1e-300
        )
        A = np.vstack([row0[None, :], rows[keep]])
        b = np.concatenate([[rhs0], rhs[keep]])
        # multiplier columns absent from every kept row, each row relative
        # to its own scale (so units do not matter), are first-class freedoms
        scales = np.concatenate([[row0_scale], row_scales[keep]])
        A_unit = A / (scales[:, None] + 1e-300)
        col_norm_ref = float(np.linalg.norm(A_unit)) + 1e-300
        free_cols = [
            j
            for j in range(1, unknowns)
            if float(np.linalg.norm(A_unit[:, j])) <= ROW_ZERO_TOL * col_norm_ref
        ]
    else:
        A, b = row0[None, :], np.array([rhs0])

    lam_vals = np.zeros(D)
    for j in free_cols:
        slot = j - 1
        if gauge.free_policy is not None:
            lam_vals[slot] = float(
                gauge.free_policy(tau, x, dx, deg.I_indices[slot])
            )
        b = b - A[:, j] * lam_vals[slot]
    solve_cols = [0] + [j for j in range(1, unknowns) if j not in free_cols]
    A_red = A[:, solve_cols]
    sol, _, rank_red, _ = np.linalg.lstsq(A_red, b, rcond=None)
    residual = float(np.linalg.norm(A_red @ sol - b))
    res_scale = float(
        np.linalg.norm(b) + np.linalg.norm(A_red) * np.linalg.norm(sol)
    ) + max(row0_scale, row_scale_max)
    if residual > CONSISTENCY_TOL * (res_scale + 1e-300):
        raise ConsistencyError(
            f"no multiplier choice keeps the constraints consistent "
            f"(residual {residual:.3e} vs scale {res_scale:.3e})",
            residual=residual, scale=res_scale,
        )
    eta = float(sol[0])
    for pos, j in enumerate(solve_cols[1:], start=1):
        lam_vals[j - 1] = float(sol[pos])
    gauge_dim_free = len(free_cols) + (len(solve_cols) - int(rank_red))

    accel = eta * dx + accel_base
    if D:
        accel = accel + lam_vals @ vs
    lambda0 = eta * jet.L + omega - two_lam_p
    return MultiplierResolution(
        lambda0=lambda0,
        lambdaI=lam_vals,
        lambda_a=lambda_a,
        eta=eta,
        gauge_dim_free=gauge_dim_free,
        accel=accel,
        C=C,
        jet=jet,
        deg=deg,
    )


def resolve_multipliers(
    spec: dsl.MetricSpec,
    state: TangentPoint,
    deg: DegeneracyData | None = None,
    gauge: GaugeChoice | None = None,
    tau: float = 0.0,
    rank_tol: float = 1e-9,
) -> MultiplierResolution:
    """Resolve the gauge and consistency multipliers at one state, on the
    structural branch ``deg`` (by default ``analyze`` at the state).

    The consistency conditions dC_I/dtau = 0 are linear in the multipliers;
    rank-deficient rows mark first-class freedoms (counted in
    ``gauge_dim_free``, filled by the gauge policy); an unsolvable system
    raises :class:`ConsistencyError`.
    """
    gauge = gauge or GaugeChoice.time()
    jet = compute_jet(spec, pt=state, validate=False)
    if deg is None:
        deg = analyze(jet, rank_tol=rank_tol)
    return _resolve(spec, jet.x, jet.dx, gauge, tau, deg, _own_batch(jet, deg))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def _reanchor(deg: DegeneracyData, prev_raw: np.ndarray) -> tuple[DegeneracyData, list[str]]:
    """Flip eigenvector signs to follow the previous node; flag jumps.
    ``deg`` itself comes back when no sign flips."""
    events = []
    if deg.D == 0 or prev_raw.shape != deg.v_raw.shape:
        return deg, events
    v = deg.v.copy()
    raw = deg.v_raw.copy()
    flipped = False
    for j in range(deg.D):
        dot = float(raw[j] @ prev_raw[j])
        if dot < 0:
            v[j] = -v[j]
            raw[j] = -raw[j]
            dot = -dot
            flipped = True
        if dot < 0.7 * float(np.linalg.norm(raw[j]) * np.linalg.norm(prev_raw[j])):
            events.append(f"eigenvector-discontinuity[{j}]")
    return (replace(deg, v=v, v_raw=raw) if flipped else deg), events


def _node_from(res: MultiplierResolution, tau: float, events: tuple[str, ...]) -> NodeDiagnostics:
    el = _el_residual_jet(res.jet, res.accel)
    return NodeDiagnostics(
        tau=tau,
        x=res.jet.x,
        dx=res.jet.dx,
        L=res.jet.L,
        C=res.C,
        el=el,
        el_norm=float(np.linalg.norm(el)),
        el_scale=_el_scale(res.jet, res.accel),
        lambda0=res.lambda0,
        lambdaI=res.lambdaI,
        lambda_a=res.lambda_a,
        eta=res.eta,
        rank=res.deg.rank,
        D=res.deg.D,
        gauge_dim_free=res.gauge_dim_free,
        accel=res.accel,
        events=events,
    )


def _project_onto_constraints(
    spec: dsl.MetricSpec,
    x: np.ndarray,
    dx: np.ndarray,
    base: DegeneracyData,
    batch: tuple | None = None,
    iterations: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares pullback of (x, dx) onto C = 0 (Gauss-Newton); the
    first iterate reads ``batch``, the :func:`_c_gradients` batch of
    (x, dx) on ``base``'s branch, when the caller holds it."""
    for _ in range(iterations):
        _, _, C, grads = batch or _c_gradients(spec, x, dx, base)
        batch = None
        if np.max(np.abs(C)) == 0.0:
            break
        J = np.hstack(grads)
        step, *_ = np.linalg.lstsq(J, -C, rcond=None)
        x = x + step[: x.shape[0]]
        dx = dx + step[x.shape[0] :]
    return x, dx


def _rk4(rates, y: tuple, tau: float, h: float, k1: tuple) -> tuple:
    """One classical RK4 step of the state tuple ``y``; ``k1`` holds the
    rates at its start and ``rates(y, tau)`` evaluates the others."""
    k2 = rates(tuple(a + 0.5 * h * k for a, k in zip(y, k1)), tau + 0.5 * h)
    k3 = rates(tuple(a + 0.5 * h * k for a, k in zip(y, k2)), tau + 0.5 * h)
    k4 = rates(tuple(a + h * k for a, k in zip(y, k3)), tau + h)
    return tuple(
        a + (h / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        for a, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4)
    )


def _node(spec: dsl.MetricSpec, x, dx, base: DegeneracyData, rank_tol: float):
    """The new node (x, dx) as row 0 of its :func:`_c_gradients` batch on
    the previous node ``base``'s branch: its jet, DegeneracyData, that
    batch while the rank holds and no sign flips (else None on a
    constrained branch), and its sign events; the halt reason when the
    point leaves the domain.  A rank change analyzes row 0 afresh; a batch
    that raises is replayed for the point alone, which raises first."""
    try:
        batch = _c_gradients(spec, x, dx, base)
        jet, deg = batch[:2]
    except (DomainError, DegeneracyError, np.linalg.LinAlgError):
        batch = None
        try:
            jet = compute_jet(spec, x=x, dx=dx, validate=False)
        except DomainError as exc:
            return f"inadmissible: {exc}"
        try:
            deg = analyze_frozen(jet, base)
        except DegeneracyError:
            deg = None
    # same rank: keep the previous index split and eigenvector signs so
    # labels (and any free-multiplier policy keyed on them) stay stable;
    # analyze afresh when the rank changes or the old block degrades
    if deg is None or _ranks(deg.sing_values[None], rank_tol)[0] != base.rank:
        deg, batch = analyze(jet, rank_tol=rank_tol), None
    anchored, events = _reanchor(deg, base.v_raw)
    if batch is None or anchored is not deg:
        batch = _own_batch(jet, anchored)
    return jet, anchored, batch, events


# runtime failures that end a run with ``halt_reason`` instead of raising
_HALTING_ERRORS = (DomainError, ConsistencyError, DegeneracyError, np.linalg.LinAlgError)


def integrate(
    spec: dsl.MetricSpec,
    x0,
    dx0,
    gauge: GaugeChoice,
    steps: int,
    h: float,
    rank_tol: float = 1e-9,
    constraint_tol: float = 1e-10,
    project: bool = False,
) -> Trajectory:
    """Integrate the auto-parallel equation with classical fixed-step RK4.

    Each stage resolves its multipliers from one jet batch on the
    structural branch of the step's start node; every new node is row 0 of
    such a batch, the next step's first stage (:func:`_node`).  A node
    keeps that branch while the rank of its frozen analysis holds and is
    re-analyzed when the rank changes or the block degrades; structure
    changes are logged and eigenvector signs re-anchored.  Runtime failures
    (leaving the admissible domain, multiplier inconsistency, frame
    degeneration, a linear-algebra routine that does not converge), in a
    step or in a new node's analysis or projection, halt the trajectory
    and return the completed part with ``halt_reason`` set; precondition
    violations, a failure at the initial node included, raise
    :class:`InvalidStateError` instead.

    ``project=True`` enables the logged least-squares pullback onto the
    constraint surface when the drift exceeds 10x ``constraint_tol``.
    """
    if steps < 1:
        raise InvalidStateError("steps must be at least 1")
    if not (np.isfinite(h) and h > 0):
        raise InvalidStateError(f"step size must be a finite positive number, got {h!r}")
    # copies: node 0 must not alias the caller's arrays
    x = np.array(x0, dtype=float)
    dx = np.array(dx0, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(dx))):
        raise InvalidStateError(f"initial state must be finite: x {x.tolist()}, dx {dx.tolist()}")
    traj = Trajectory(gauge=gauge, h=h, steps_requested=steps, nodes=[], rank_tol=rank_tol)
    try:
        jet = compute_jet(spec, x=x, dx=dx)  # validates homogeneity identities
    except DomainError as exc:
        raise InvalidStateError(f"inadmissible initial state: {exc}") from exc
    deg = analyze(jet, rank_tol=rank_tol)

    C0 = constraint_residuals(jet, deg)
    c_scale = max(_constraint_scale(jet), 1e-300)
    if C0.size and float(np.max(np.abs(C0))) > constraint_tol * c_scale:
        raise InvalidStateError(
            f"initial constraint residuals {C0.tolist()} exceed tolerance "
            f"{constraint_tol:g} (scale {c_scale:.3e})"
        )
    if gauge.kind == "arclength" and abs(jet.L - 1.0) > 1e-10:
        raise InvalidStateError(
            f"arc-length gauge requires L = 1 at the initial state, got {jet.L!r}"
        )
    if gauge.kind == "time" and abs(dx[0]) == 0.0:
        raise InvalidStateError("time gauge requires dx0[0] != 0")

    tau = 0.0
    structure = (deg.rank, deg.a_indices, deg.I_indices)
    pending_events: list[str] = []
    held = _own_batch(jet, deg)  # the node's _c_gradients batch, when it holds one

    for k in range(steps + 1):
        stage_states = [(x, dx)]

        def rates(y, tau_s):
            # stages stay on the branch of the step's start node
            stage_states.append(y)
            return y[1], _resolve(spec, y[0], y[1], gauge, tau_s, deg).accel

        try:
            res1 = _resolve(spec, x, dx, gauge, tau, deg, held)
            traj.nodes.append(_node_from(res1, tau, tuple(pending_events)))
            pending_events = []
            if k == steps:
                break
            x_new, dx_new = _rk4(rates, (x, dx), tau, h, (dx, res1.accel))
        except _HALTING_ERRORS as exc:
            if not traj.nodes:
                raise InvalidStateError(f"initial state cannot be resolved: {exc}") from exc
            traj.halt_reason = f"{type(exc).__name__}: {exc}"
            break
        traj._stages.append(np.array(stage_states))
        tau += h

        if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(dx_new))):
            traj.halt_reason = "non-finite state"
            break
        projected = False
        try:
            node = _node(spec, x_new, dx_new, deg, rank_tol)
            if isinstance(node, str):
                traj.halt_reason = node
                break
            jet, deg, held, flips = node
            pending_events.extend(flips)
            if project and deg.D:
                C_now = constraint_residuals(jet, deg) if held is None else held[2]
                if float(np.max(np.abs(C_now))) > 10.0 * constraint_tol * c_scale:
                    x_new, dx_new = _project_onto_constraints(spec, x_new, dx_new, deg, held)
                    jet = compute_jet(spec, x=x_new, dx=dx_new, validate=False)
                    deg, _ = _reanchor(analyze(jet, rank_tol=rank_tol), deg.v_raw)
                    held = _own_batch(jet, deg)
                    traj.projected_steps += 1
                    projected = True
        except _HALTING_ERRORS as exc:
            traj.halt_reason = f"{type(exc).__name__}: {exc}"
            break

        new_structure = (deg.rank, deg.a_indices, deg.I_indices)
        if new_structure != structure:
            event = (
                f"rank-transition {structure[0]} -> {new_structure[0]}"
                if new_structure[0] != structure[0]
                else f"index-split-change {structure[1:]} -> {new_structure[1:]}"
            )
            pending_events.append(event)
            traj.events.append((k + 1, event))
            logger.info("step %d: %s", k + 1, event)
            structure = new_structure
        if projected:
            pending_events.append("projected")
            traj.events.append((k + 1, "projected"))

        x, dx = x_new, dx_new
    return traj


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------


@dataclass
class TransportResult:
    """Vector field transported along a trajectory, with norm diagnostics.

    ``halt_reason`` is set when the transport stopped early; ``Z`` and
    ``L_values`` then end at the last node reached.
    """

    Z: np.ndarray  # (nodes, n+1)
    L_values: np.ndarray
    drift: float
    halt_reason: str | None = None


def _transport_rhs(
    spec: dsl.MetricSpec,
    x: np.ndarray,
    Z: np.ndarray,
    velocity: np.ndarray,
    rank_tol: float,
) -> np.ndarray:
    """-dG/d(dx)(x, Z) contracted with the curve velocity, by directional FD.

    One jet batch holds (x, Z) and the four stencil directions.  When it
    leaves the domain, (x, Z) is analyzed alone first, so its own
    structural error comes before the stencil's domain error.
    """
    vnorm = float(np.linalg.norm(velocity))
    s = FD_STEP * float(np.linalg.norm(Z)) / max(vnorm, 1e-300)
    dirs = np.array([Z, *_stencil(Z, s, velocity)])
    try:
        jets = compute_jets(spec, np.broadcast_to(x, dirs.shape), dirs, validate=False)
    except DomainError:
        analyze(compute_jet(spec, x=x, dx=Z, validate=False), rank_tol=rank_tol)
        raise
    base = analyze(jets[0], rank_tol=rank_tol)
    return -_richardson(_solve_G_batch(jets[1:], base), s)


def parallel_transport(spec: dsl.MetricSpec, curve: Trajectory, Z0) -> TransportResult:
    """Transport Z along a trajectory: dZ + N(x, Z) . dx = 0.

    Z is stepped by RK4 alone over the stage states (x, dx) that
    :func:`integrate` recorded for each of the curve's steps, so it is
    carried exactly through the curve's returned nodes, projected steps
    included, converges at the stepper's order, and costs no curve work.
    The metric value L(x, Z) is recorded per node; its drift is the
    norm-conservation defect.  A runtime failure of the transport (Z
    leaving the admissible cone, a degenerate direction Hessian at Z)
    ends it early with ``halt_reason`` set; a Z0 outside the admissible
    cone raises :class:`DomainError`, and a curve without a stage record
    for each of its steps raises :class:`InvalidStateError`.
    """
    if not curve.nodes:
        raise InvalidStateError("trajectory has no node")
    steps = len(curve.nodes) - 1
    if len(curve._stages) < steps:
        raise InvalidStateError(
            f"trajectory records the RK4 stages of {len(curve._stages)} of its {steps} "
            "steps; transport needs a curve built by integrate"
        )
    Z = np.asarray(Z0, dtype=float)
    try:
        dsl.require_admissible(spec, curve.nodes[0].x, Z)
    except DomainError as exc:
        raise DomainError(f"transported vector leaves the admissible cone: {exc}") from exc

    Zs = [Z]
    halt_reason = None
    for k in range(steps):
        stages = iter(curve._stages[k])

        def rates(y, _tau):
            x_s, dx_s = next(stages)
            return (_transport_rhs(spec, x_s, y[0], dx_s, curve.rank_tol),)

        try:
            (Z_new,) = _rk4(rates, (Z,), 0.0, curve.h, rates((Z,), 0.0))
        except _HALTING_ERRORS as exc:
            halt_reason = f"{type(exc).__name__}: {exc}"
            break
        if not np.all(np.isfinite(Z_new)):
            halt_reason = "non-finite state"
            break
        try:
            dsl.require_admissible(spec, curve.nodes[k + 1].x, Z_new)
        except DomainError as exc:
            halt_reason = f"transported vector leaves the admissible cone: {exc}"
            break
        Z = Z_new
        Zs.append(Z)

    L_arr = np.array([
        float(dsl.eval_values(spec.expr, spec.params, node.x[None, :], Z[None, :])[0])
        for node, Z in zip(curve.nodes, Zs)
    ])
    return TransportResult(
        Z=np.array(Zs), L_values=L_arr, drift=float(np.max(np.abs(L_arr - L_arr[0]))),
        halt_reason=halt_reason,
    )
