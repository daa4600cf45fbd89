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
from .degeneracy import DegeneracyData, _with_a_set, analyze, analyze_frozen
from .errors import DegeneracyError
from .jet import Jet2, TangentPoint, compute_jets

__all__ = [
    "EllBasis",
    "ConnectionData",
    "CurvatureData",
    "build_ell_basis",
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
class EllBasis:
    """Adapted frame {ell_0, ell_I, ell_a}; rows of ``matrix`` in that order."""

    ell0: np.ndarray
    ellI: np.ndarray  # (D, n+1)
    ella: np.ndarray  # (n-D, n+1)
    matrix: np.ndarray
    det: float


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


def moment_map(jet: Jet2) -> np.ndarray:
    """M = 1/2 (-dL/dx + mixed . dx): the source term of the lambda equations."""
    return 0.5 * (-jet.dL_dx + jet.mixed @ jet.dx)


def constraint_residuals(jet: Jet2, deg: DegeneracyData) -> np.ndarray:
    """C_I: the components of the defining equations no multiplier can absorb.

    Invariant under shifting v along dx and under the regular-block choice,
    so it is evaluated with the raw (unshifted) vectors, which stay smooth
    across surfaces where the metric value vanishes; no frame is needed.
    """
    if deg.D == 0:
        return np.zeros(0)
    M = moment_map(jet)
    a_idx = np.asarray(deg.a_indices, dtype=int)
    C = deg.v_raw @ M
    if a_idx.size:
        C = C - (deg.v_raw @ jet.L2)[:, a_idx] @ (deg.Lab_inv @ M[a_idx])
    return np.asarray(C, dtype=float)


def _l_floor(jet: Jet2) -> float:
    return 1e-12 * max(float(np.linalg.norm(jet.p) * np.linalg.norm(jet.dx)), 1e-30)


def build_ell_basis(jet: Jet2, deg: DegeneracyData) -> EllBasis:
    """Assemble the adapted frame; requires L != 0 at the point.

    By construction p.ell_0 = 1 and p annihilates every other frame vector
    (up to the recorded correction defects).  A near-zero determinant
    signals an ill-chosen regular block and raises.
    """
    if abs(jet.L) <= _l_floor(jet):
        raise DegeneracyError(
            "metric value vanishes at this point; the flow-normalized frame "
            "ell_0 = dx/L is undefined", L=jet.L,
        )
    n1 = jet.dimension
    ell0 = jet.dx / jet.L
    ellI = deg.v.copy() if deg.D else np.zeros((0, n1))
    ella = np.zeros((len(deg.a_indices), n1))
    for row, a in enumerate(deg.a_indices):
        ella[row, a] = 1.0
        ella[row] -= (jet.p[a] / jet.L) * jet.dx
    matrix = np.vstack([ell0[None, :], ellI, ella])
    det = float(np.linalg.det(matrix))
    scale = float(np.prod(np.linalg.norm(matrix, axis=1)))
    if abs(det) <= 1e-12 * max(scale, 1e-30):
        raise DegeneracyError(
            "adapted frame is numerically degenerate; re-pivot the regular block",
            det=det, a_indices=deg.a_indices,
        )
    return EllBasis(ell0=ell0, ellI=ellI, ella=ella, matrix=matrix, det=det)


def solve_G(
    jet: Jet2,
    deg: DegeneracyData,
    gauge_lambdaI: np.ndarray | None = None,
) -> ConnectionData:
    """Solve the metric-preservation equations for the spray G.

    ``gauge_lambdaI`` fixes the free multipliers along the zero
    eigenvectors (default 0).  Constraint residuals C_I are reported; they
    vanish exactly on the constraint surface of a degenerate metric.
    Retries lower-ranked regular blocks when the frame degenerates.
    """
    lamI = np.zeros(deg.D) if gauge_lambdaI is None else np.asarray(gauge_lambdaI, float)
    if lamI.shape != (deg.D,):
        raise ValueError(f"gauge_lambdaI must have shape ({deg.D},)")

    basis = None
    last_err: Exception | None = None
    for candidate in deg.a_candidates:
        trial = deg if candidate == deg.a_indices else _with_a_set(jet, deg, candidate)
        try:
            basis = build_ell_basis(jet, trial)
            deg = trial
            break
        except DegeneracyError as exc:
            last_err = exc
    if basis is None:
        raise last_err  # every candidate block failed

    M = moment_map(jet)
    a_idx = np.asarray(deg.a_indices, dtype=int)
    Ma = M[a_idx] if a_idx.size else np.zeros(0)
    lambda_a = deg.Lab_inv @ Ma if a_idx.size else np.zeros(0)
    omega = float(jet.dx @ jet.dL_dx)

    G = 0.5 * omega * basis.ell0
    if deg.D:
        G = G + lamI @ basis.ellI
    if a_idx.size:
        G = G + lambda_a @ basis.ella

    C = constraint_residuals(jet, deg)

    omega_residual = float(2.0 * jet.p @ G - omega)

    smax = float(deg.sing_values[0]) if deg.sing_values.size else 0.0
    m_norm = float(np.linalg.norm(M))
    blowup = bool(
        a_idx.size
        and float(np.linalg.norm(lambda_a)) * smax > LAMBDA_BLOWUP_RATIO * max(m_norm, 1e-300)
    )

    return ConnectionData(
        G=G,
        N=None,
        ell0=basis.ell0,
        ellI=basis.ellI,
        ella=basis.ella,
        lambda_a=lambda_a,
        M=M,
        C=np.asarray(C, dtype=float),
        gauge_lambdaI=lamI,
        omega=omega,
        omega_residual=omega_residual,
        basis_det=basis.det,
        lambda_blowup=blowup,
    )


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
    spec: dsl.MetricSpec,
    x: np.ndarray,
    dxs: np.ndarray,
    base: DegeneracyData,
) -> np.ndarray:
    """Spray at many directions from one base x, on ``base``'s branch."""
    xs = np.broadcast_to(x, (dxs.shape[0], x.shape[0]))
    jets = compute_jets(spec, xs, dxs, validate=False)
    out = np.empty((dxs.shape[0], x.shape[0]))
    for i, jet in enumerate(jets):
        out[i] = solve_G(jet, analyze_frozen(jet, base)).G
    return out


def coefficients_N(
    spec: dsl.MetricSpec,
    pt: TangentPoint,
    rank_tol: float = 1e-9,
) -> ConnectionData:
    """Connection coefficients N = dG/d(dx) by Richardson-extrapolated
    central differences.

    The solver's pivoting and eigendecompositions are not smoothly
    differentiable, so G is differentiated numerically on a frozen
    structural branch; this is the accuracy bottleneck of the pipeline
    (about 1e-8 relative).  Raises when the numerical rank changes inside
    the stencil.
    """
    jet = compute_jets(spec, pt.x[None, :], pt.dx[None, :], validate=False)[0]
    deg = analyze(jet, rank_tol=rank_tol)
    base = solve_G(jet, deg)

    n1 = spec.dimension
    h = FD_STEP * float(np.linalg.norm(pt.dx))
    stencil = [p for e in np.eye(n1) for p in _stencil(pt.dx, h, e)]
    try:
        G_vals = _solve_G_batch(spec, pt.x, np.array(stencil), deg)
    except DegeneracyError as exc:
        raise DegeneracyError(
            f"finite differencing of G failed near a rank transition: {exc}",
            gap_ratio=deg.gap_ratio, sing_values=deg.sing_values.tolist(),
        ) from exc

    N = np.empty((n1, n1))
    for alpha in range(n1):
        N[:, alpha] = _richardson(G_vals[4 * alpha : 4 * alpha + 4], h)

    # Euler check for the degree-2 spray: N.dx = 2G.  A large defect means
    # the stencil straddled a pole or branch of the frozen structure (rank
    # transition nearby), where differencing is meaningless.
    defect = float(np.linalg.norm(N @ pt.dx - 2.0 * base.G))
    scale = max(float(np.linalg.norm(2.0 * base.G)), float(np.linalg.norm(N)) * float(np.linalg.norm(pt.dx)))
    if defect > 1e-6 * scale + 1e-300:
        raise DegeneracyError(
            f"finite differencing of G failed near a rank transition: "
            f"N.dx = 2G defect {defect:.3e} at scale {scale:.3e}",
            gap_ratio=deg.gap_ratio, sing_values=deg.sing_values.tolist(),
        )
    return replace(base, N=N, fd_steps={"dx_step": h, "richardson": True})


def curvature_torsion(
    spec: dsl.MetricSpec,
    pt: TangentPoint,
    rank_tol: float = 1e-9,
) -> CurvatureData:
    """Formal curvature and Berwald-type direction derivatives of N.

    R[mu, beta, gamma] combines central x-derivatives of N with the
    quadratic N2.N terms and is antisymmetrized exactly in (beta, gamma);
    N2 is reported raw so its symmetry is a meaningful check.
    """
    n1 = spec.dimension
    x, dx = pt.x, pt.dx

    def N_at(x_val: np.ndarray, dx_val: np.ndarray) -> np.ndarray:
        return coefficients_N(spec, TangentPoint(x_val, dx_val), rank_tol=rank_tol).N

    N0 = N_at(x, dx)

    # dN/dx by Richardson central differences; stencil must stay admissible
    hx = FD_STEP * (1.0 + np.abs(x))
    dN_dx = np.empty((n1, n1, n1))  # [beta, mu, alpha]
    for b, e in enumerate(np.eye(n1)):
        dN_dx[b] = _richardson([N_at(xs, dx) for xs in _stencil(x, hx[b], e)], hx[b])

    hd = FD_STEP * float(np.linalg.norm(dx))
    N2 = np.empty((n1, n1, n1))  # [mu, alpha, beta]
    for a, e in enumerate(np.eye(n1)):
        N2[:, a, :] = _richardson([N_at(x, ds) for ds in _stencil(dx, hd, e)], hd)

    # A[mu, beta, gamma] = dN[mu,gamma]/dx[beta] + N2[mu,alpha,beta] N[alpha,gamma]
    A = dN_dx.transpose(1, 0, 2) + np.einsum("mab,ag->mbg", N2, N0)
    R = A - A.transpose(0, 2, 1)
    return CurvatureData(R=R, N2=N2, x_step=FD_STEP, dx_step=hd)
