"""Nonlinear connection of a (possibly singular) metric.

Builds the adapted frame, solves the metric-preservation equations for the
spray vector G (quadratic in direction), differentiates G numerically for
the connection coefficients N, and assembles formal torsion/curvature.

The spray decomposes as

    G = 1/2 * (dx . dL/dx) * ell_0  +  sum_I lambda^I ell_I  +  sum_a lambda^a ell_a

with ell_0 = dx/L, ell_I the corrected zero eigenvectors, ell_a the
flow-projected coordinate axes of the regular block, and
lambda^a = Lab_inv . M restricted to the regular indices.  The lambda^I
are genuine gauge freedom (default 0); the I-components of the defining
equations that the lambda^a cannot satisfy are reported as constraint
residuals C_I, never silently enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dsl
from .degeneracy import (
    DegeneracyBatch,
    DegeneracyData,
    _assemble,
    _dot,
    _norm,
    _raise_first_failure,
    _with_a_set,
    analyze,
)
from .errors import DegeneracyError, DomainError
from .jet import Jet2, JetBatch, TangentPoint, compute_jets

__all__ = [
    "ConnectionData",
    "CurvatureData",
    "solve_G",
    "coefficients_N",
    "curvature_torsion",
    "moment_map",
    "constraint_residuals",
]

# |lambda^a| * sigma_max / |M| beyond which the regular block is treated as
# effectively blowing up (approach to a rank transition); well-conditioned
# points sit at O(1)..O(100)
LAMBDA_BLOWUP_RATIO = 1e4
# Richardson step relative to the differentiated argument: |dx| for N and
# the direction derivatives of N, 1 + |x_b| for the x-derivatives of N
FD_STEP = 1e-4


@dataclass(frozen=True)
class ConnectionData:
    """Spray, connection coefficients and diagnostics at one point.

    ``N`` is filled by :func:`coefficients_N`; :func:`solve_G` leaves it
    None.  ``C`` holds the constraint residuals; ``omega_residual`` is the
    defect of the contracted preservation identity 2 p.G = dx . dL/dx.
    """

    G: np.ndarray
    N: np.ndarray | None
    ell0: np.ndarray
    ellI: np.ndarray
    ella: np.ndarray
    lambda_a: np.ndarray
    M: np.ndarray
    C: np.ndarray
    gauge_lambdaI: np.ndarray
    omega: float
    omega_residual: float
    basis_det: float
    lambda_blowup: bool
    fd_steps: dict | None = None


@dataclass(frozen=True)
class CurvatureData:
    """Formal curvature R (antisymmetric in its last two slots) and the
    direction-derivative coefficients N2 (symmetric up to FD error)."""

    R: np.ndarray  # (n+1, n+1, n+1) indexed [mu, beta, gamma]
    N2: np.ndarray  # (n+1, n+1, n+1) indexed [mu, alpha, beta]
    x_step: float
    dx_step: float


def moment_map(jet: Jet2 | JetBatch) -> np.ndarray:
    """M = 1/2 (-dL/dx + mixed . dx): the source term of the lambda equations
    (one row per point for a :class:`JetBatch`)."""
    return 0.5 * (-jet.dL_dx + (jet.mixed @ jet.dx[..., None])[..., 0])


def constraint_residuals(jets: JetBatch | Jet2, degs) -> np.ndarray:
    """C_I: the components of the defining equations no multiplier can absorb.

    ``jets`` is a :class:`JetBatch` with its :class:`DegeneracyBatch` (as
    :func:`analyze_frozen` returns it), and the result has one row per
    point; or a single :class:`Jet2` with its ``DegeneracyData``.
    Invariant under shifting v along dx and under the regular-block
    choice, so it is evaluated with the raw (unshifted) vectors, which
    stay smooth across surfaces where the metric value vanishes; no frame
    is needed.
    """
    single = isinstance(jets, Jet2)
    if single:
        jets, degs = JetBatch.of(jets), DegeneracyBatch.of(degs)
    if degs.D == 0:
        C = np.zeros((len(jets), 0))
    else:
        M = moment_map(jets)
        a_idx = np.asarray(degs.a_indices, dtype=int)
        lam = degs.Lab_inv @ M[:, a_idx, None]
        C = ((degs.v_raw @ M[:, :, None]) - (degs.v_raw @ jets.L2)[:, :, a_idx] @ lam)[:, :, 0]
    return C[0] if single else C


def _l_floor(jets: JetBatch) -> np.ndarray:
    return 1e-12 * np.maximum(_norm(jets.p) * _norm(jets.dx), 1e-30)


def _frames(jets: JetBatch, degs: DegeneracyBatch) -> dict:
    """The adapted frames {ell_0, ell_I, ell_a} of a batch on one branch,
    stacked (``ell0``, ``ellI``, ``ella``, ``matrix`` with rows in that
    order, ``det``); p.ell_0 = 1 and p annihilates the other rows.  Raises
    what a per-point loop raises first: a vanishing metric value, then a
    degenerate frame (an ill-chosen regular block)."""
    B, n1 = jets.dx.shape
    a_indices = degs.a_indices
    vanishing = np.abs(jets.L) <= _l_floor(jets)
    L = np.where(vanishing, 1.0, jets.L)[:, None]
    ell0 = jets.dx / L
    ella = np.zeros((B, len(a_indices), n1))
    for row, a in enumerate(a_indices):
        ella[:, row, a] = 1.0
        ella[:, row] -= (jets.p[:, a:a + 1] / L) * jets.dx
    matrix = np.concatenate([ell0[:, None, :], degs.v, ella], axis=1)
    det = np.linalg.det(matrix)
    # np.prod(np.linalg.norm(matrix, axis=2), axis=1) without the wrappers' overhead
    scale = np.multiply.reduce(np.sqrt(np.add.reduce(matrix * matrix, axis=2)), axis=1)
    _raise_first_failure([
        (vanishing, lambda b: DegeneracyError(
            "metric value vanishes at this point; the flow-normalized frame "
            "ell_0 = dx/L is undefined", L=float(jets.L[b]),
        )),
        (np.abs(det) <= 1e-12 * np.maximum(scale, 1e-30), lambda b: DegeneracyError(
            "adapted frame is numerically degenerate; re-pivot the regular block",
            det=float(det[b]), a_indices=a_indices,
        )),
    ])
    return {"ell0": ell0, "ellI": degs.v, "ella": ella, "matrix": matrix, "det": det}


def _spray(jets: JetBatch, degs: DegeneracyBatch, lamI: np.ndarray) -> dict:
    """The spray of a batch on one branch in stacked numpy calls: the
    :func:`_frames` fields plus ``M``, ``lambda_a``, ``omega`` and ``G``,
    one row per point; ``lamI`` holds each point's gauge multipliers."""
    f = _frames(jets, degs)
    M = moment_map(jets)
    a_idx = np.asarray(degs.a_indices, dtype=int)
    lambda_a = (degs.Lab_inv @ M[:, a_idx, None])[:, :, 0]
    omega = _dot(jets.dx, jets.dL_dx)
    G = (0.5 * omega)[:, None] * f["ell0"]
    if degs.D:
        G = G + (lamI[:, None, :] @ f["ellI"])[:, 0]
    if a_idx.size:
        G = G + (lambda_a[:, None, :] @ f["ella"])[:, 0]
    return {**f, "M": M, "lambda_a": lambda_a, "omega": omega, "G": G}


def _connections(jets: JetBatch, degs: DegeneracyBatch, lamI: np.ndarray) -> list[ConnectionData]:
    """:func:`solve_G` at each point of a batch on one branch, without the
    regular-block retry: one stacked :func:`_spray` (which raises what a
    per-point loop raises first) and stacked diagnostics."""
    sp = _spray(jets, degs, lamI)
    C = constraint_residuals(jets, degs)
    omega_residual = _dot(2.0 * jets.p, sp["G"]) - sp["omega"]
    blowup = _norm(sp["lambda_a"]) * degs.sing_values[:, 0] > (
        LAMBDA_BLOWUP_RATIO * np.maximum(_norm(sp["M"]), 1e-300)
    )
    return [
        ConnectionData(
            G=sp["G"][k],
            N=None,
            ell0=sp["ell0"][k],
            ellI=sp["ellI"][k],
            ella=sp["ella"][k],
            lambda_a=sp["lambda_a"][k],
            M=sp["M"][k],
            C=C[k],
            gauge_lambdaI=lamI[k],
            omega=float(sp["omega"][k]),
            omega_residual=float(omega_residual[k]),
            basis_det=float(sp["det"][k]),
            lambda_blowup=bool(blowup[k]),
        )
        for k in range(len(jets))
    ]


def solve_G(
    jet: Jet2,
    deg: DegeneracyData,
    gauge_lambdaI: np.ndarray | None = None,
) -> ConnectionData:
    """Solve the metric-preservation equations for the spray G.

    ``gauge_lambdaI`` fixes the free multipliers along the zero
    eigenvectors (default 0).  Constraint residuals C_I are reported; they
    vanish exactly on the constraint surface of a degenerate metric.
    Retries lower-ranked regular blocks when the frame degenerates.  The
    point is a batch of one of the stacked solver that a Richardson group
    runs over its points.
    """
    lamI = np.zeros(deg.D) if gauge_lambdaI is None else np.asarray(gauge_lambdaI, float)
    if lamI.shape != (deg.D,):
        raise ValueError(f"gauge_lambdaI must have shape ({deg.D},)")

    jets = JetBatch.of(jet)
    last_err: Exception | None = None
    for candidate in deg.a_candidates:
        trial = deg if candidate == deg.a_indices else _with_a_set(jet, deg, candidate)
        try:
            return _connections(jets, DegeneracyBatch.of(trial), lamI[None])[0]
        except DegeneracyError as exc:
            last_err = exc
    raise last_err  # every candidate block failed


def _stencil(base: np.ndarray, h: float, direction: np.ndarray) -> list[np.ndarray]:
    """The points base + c * h * direction, c in (1, -1, 1/2, -1/2), at
    which :func:`_richardson` takes its values."""
    return [base + c * h * direction for c in (1.0, -1.0, 0.5, -0.5)]


def _richardson(values, h: float):
    """Richardson-extrapolated central difference from the values at the
    :func:`_stencil` points: (4 D(h/2) - D(h)) / 3, fourth order in h."""
    fp, fm, fp2, fm2 = values
    return (4.0 * ((fp2 - fm2) / h) - (fp - fm) / (2.0 * h)) / 3.0


def _solve_G_batch(
    jets: JetBatch, base: DegeneracyData, anchors: np.ndarray | None = None
) -> np.ndarray:
    """Spray at the points of ``jets`` on ``base``'s branch, one row each.

    The structure and the spray each take one stacked pass.  ``anchors``,
    one ``v_raw`` per point, fix the null-vector signs (default: ``base``'s
    for every point).  The batch raises what a per-point loop of
    :func:`analyze_frozen` and :func:`solve_G` raises first.  Such a loop
    checks each point's spray before the next point's structure, so a
    failing stacked pass is replayed one point at a time.
    """
    shape = (len(jets), *base.v_raw.shape)
    anchors = np.broadcast_to(base.v_raw if anchors is None else anchors, shape)

    def spray(rows: slice) -> np.ndarray:
        batch = jets[rows]
        degs = _assemble(batch, np.linalg.svd(batch.L2), base.rank, base.a_indices,
                         (base.zero_index, base.I_indices), anchors=anchors[rows])
        return _spray(batch, degs, np.zeros((len(batch), base.D)))["G"]

    try:
        return spray(slice(None))
    except DegeneracyError:
        for k in range(len(jets)):
            spray(slice(k, k + 1))
        raise


def _richardson_N(
    spec: dsl.MetricSpec,
    xs: np.ndarray,
    dxs: np.ndarray,
    rank_tol: float,
    jets: JetBatch | None = None,
    degs: DegeneracyBatch | None = None,
) -> list[ConnectionData]:
    """:func:`coefficients_N` at each point of a Richardson group.

    One jet pass holds the points followed by each point's 4 n1
    dx-stencil.  The points take one :func:`analyze` and one stacked
    spray, and their stencils one :func:`_solve_G_batch`, each row with
    its point's sign anchors; that needs every point on one branch (rank,
    regular block, index split and ``a_candidates``).  When they are not,
    or a step raises, each point is redone alone and in order (its own
    jet pass, analysis and :func:`solve_G` with its regular-block retry,
    then a pass and a spray for its stencil), so the group raises what a
    loop of :func:`coefficients_N` raises first.  ``jets`` (and ``degs``)
    hold the jet (and analysis) of a single point that the caller already
    has; that point is alone from the start.
    """
    P, n1 = xs.shape
    steps = [FD_STEP * float(np.linalg.norm(dx)) for dx in dxs]
    rows = 4 * n1
    stencil_xs = np.repeat(xs, rows, axis=0)
    stencil_dxs = np.concatenate(
        [[p for e in np.eye(n1) for p in _stencil(dx, h, e)] for dx, h in zip(dxs, steps)]
    )
    alone = jets is not None and P == 1
    G_vals = None
    try:
        stencil_jets = None
        if jets is None:
            batch = compute_jets(spec, np.concatenate([xs, stencil_xs]),
                                 np.concatenate([dxs, stencil_dxs]), validate=False)
            jets, stencil_jets = batch[:P], batch[P:]
        ds = analyze(jets, rank_tol=rank_tol) if degs is None else degs
        if isinstance(ds, DegeneracyBatch):  # one branch
            if alone:
                bases = [solve_G(jets[0], ds[0])]
            else:
                bases = _connections(jets, ds, np.zeros((P, ds.D)))
            if stencil_jets is None:
                stencil_jets = compute_jets(spec, stencil_xs, stencil_dxs, validate=False)
            anchors = np.repeat(ds.v_raw, rows, axis=0)
            try:
                G_vals = _solve_G_batch(stencil_jets, ds[0], anchors).reshape(P, rows, n1)
            except DegeneracyError as exc:
                raise DegeneracyError(
                    f"finite differencing of G failed near a rank transition: {exc}",
                    gap_ratio=float(ds.gap_ratio[0]), sing_values=ds.sing_values[0].tolist(),
                ) from exc
    except (DomainError, DegeneracyError):
        if alone:
            raise
    if G_vals is None:
        return [
            _richardson_N(spec, xs[k:k + 1], dxs[k:k + 1], rank_tol,
                          jets=compute_jets(spec, xs[k:k + 1], dxs[k:k + 1], validate=False),
                          degs=None if degs is None else DegeneracyBatch.of(degs[k]))[0]
            for k in range(P)
        ]

    out = []
    for k, (base, dx, h) in enumerate(zip(bases, dxs, steps)):
        N = np.empty((n1, n1))
        for alpha in range(n1):
            N[:, alpha] = _richardson(G_vals[k, 4 * alpha : 4 * alpha + 4], h)

        # Euler check for the degree-2 spray: N.dx = 2G.  A large defect
        # means the stencil straddled a pole or branch of the frozen
        # structure (rank transition nearby), where differencing is
        # meaningless.
        defect = float(np.linalg.norm(N @ dx - 2.0 * base.G))
        scale = max(float(np.linalg.norm(2.0 * base.G)), float(np.linalg.norm(N)) * float(np.linalg.norm(dx)))
        if defect > 1e-6 * scale + 1e-300:
            raise DegeneracyError(
                f"finite differencing of G failed near a rank transition: "
                f"N.dx = 2G defect {defect:.3e} at scale {scale:.3e}",
                gap_ratio=float(ds.gap_ratio[k]), sing_values=ds.sing_values[k].tolist(),
            )
        out.append(replace(base, N=N, fd_steps={"dx_step": h, "richardson": True}))
    return out


def coefficients_N(
    spec: dsl.MetricSpec,
    pt: TangentPoint,
    rank_tol: float = 1e-9,
    jet: Jet2 | None = None,
    deg: DegeneracyData | None = None,
) -> ConnectionData:
    """Connection coefficients N = dG/d(dx) by Richardson-extrapolated
    central differences.

    The solver's pivoting and eigendecompositions are not smoothly
    differentiable, so G is differentiated numerically on a frozen
    structural branch; this is the accuracy bottleneck of the pipeline
    (about 1e-8 relative).  Raises when the numerical rank changes inside
    the stencil.  ``jet`` and ``deg``, the jet at ``pt`` and its
    :func:`analyze` at ``rank_tol``, are computed unless the caller
    passes them.  The point and its dx-stencil take one jet pass (the
    stencil alone when ``jet`` is passed).
    """
    return _richardson_N(
        spec, pt.x[None, :], pt.dx[None, :], rank_tol,
        jets=None if jet is None else JetBatch.of(jet),
        degs=None if deg is None else DegeneracyBatch.of(deg),
    )[0]


def curvature_torsion(
    spec: dsl.MetricSpec,
    pt: TangentPoint,
    rank_tol: float = 1e-9,
    N: np.ndarray | None = None,
) -> CurvatureData:
    """Formal curvature and Berwald-type direction derivatives of N.

    R[mu, beta, gamma] combines central x-derivatives of N with the
    quadratic N2.N terms and is antisymmetrized exactly in (beta, gamma);
    N2 is reported raw so its symmetry is a meaningful check.  ``N``, the
    :func:`coefficients_N` at ``pt``, is computed unless the caller passes
    it.  Each derivative direction is one Richardson group: its 4 stencil
    points and their dx-stencils take one jet pass, so a curvature costs
    2 n1 passes beyond ``N``.  The groups run in the order below and
    raise what the first failing :func:`coefficients_N` would raise.
    """
    n1 = spec.dimension
    x, dx = pt.x, pt.dx

    def group_N(xs, dxs) -> list[np.ndarray]:
        return [c.N for c in _richardson_N(spec, np.array(xs), np.array(dxs), rank_tol)]

    N0 = coefficients_N(spec, pt, rank_tol=rank_tol).N if N is None else N

    # dN/dx by Richardson central differences; stencil must stay admissible
    hx = FD_STEP * (1.0 + np.abs(x))
    dN_dx = np.empty((n1, n1, n1))  # [beta, mu, alpha]
    for b, e in enumerate(np.eye(n1)):
        dN_dx[b] = _richardson(group_N(_stencil(x, hx[b], e), [dx] * 4), hx[b])

    hd = FD_STEP * float(np.linalg.norm(dx))
    N2 = np.empty((n1, n1, n1))  # [mu, alpha, beta]
    for a, e in enumerate(np.eye(n1)):
        N2[:, a, :] = _richardson(group_N([x] * 4, _stencil(dx, hd, e)), hd)

    # A[mu, beta, gamma] = dN[mu,gamma]/dx[beta] + N2[mu,alpha,beta] N[alpha,gamma]
    A = dN_dx.transpose(1, 0, 2) + np.einsum("mab,ag->mbg", N2, N0)
    R = A - A.transpose(0, 2, 1)
    return CurvatureData(R=R, N2=N2, x_step=FD_STEP, dx_step=hd)
