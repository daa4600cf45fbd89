"""Degeneracy structure of the direction Hessian.

For a 1-homogeneous metric the direction Hessian ``L2`` always annihilates
``dx``, so its rank is at most ``n`` in ``n+1`` dimensions.  This module
computes the numerical rank, the extra null directions beyond ``dx``, an
index split into {flow-like index} | {degenerate indices I} | {regular
indices a}, and the inverse of the regular block: everything the
connection solver needs to invert its defining equations.

One routine, ``_assemble``, builds every :class:`DegeneracyData` from the
SVD of ``L2``, a rank and a regular block.  Its callers differ only in how
they pick those: :func:`analyze` takes the rank from the singular values
and the best invertible block by |det|; :func:`analyze_frozen` keeps the
branch (rank, block, split and signs) of a base point's
:class:`DegeneracyData`; ``_with_a_set`` swaps in another block for the
regular-block retry of ``connection.solve_G``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dsl
from .errors import DegeneracyError, InvalidStateError
from .jet import Jet2, TangentPoint, compute_jets

__all__ = [
    "DegeneracyData",
    "analyze",
    "analyze_frozen",
    "detect_rank_drop",
    "RankDropReport",
]

# v is considered p-orthogonal when |p.v| <= P_ORTHO_TOL * |p| * |v|
P_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class DegeneracyData:
    """Numerical degeneracy data of L2 at one point.

    ``D = n - rank`` counts the zero eigenvectors ``v`` beyond the flow
    direction; ``a_indices`` select the invertible coordinate block whose
    inverse is ``Lab_inv``.  ``sing_values`` keeps the full spectrum for
    reproducibility audits.
    """

    rank: int
    D: int
    v: np.ndarray  # (D, n+1) rows, shifted along dx so p.v = 0 where L allows
    v_raw: np.ndarray  # same rows before the dx-shift; smooth in (x, dx)
    a_indices: tuple[int, ...]
    I_indices: tuple[int, ...]
    zero_index: int
    Lab_inv: np.ndarray
    sing_values: np.ndarray
    gap_ratio: float  # sigma_rank / sigma_(rank+1); inf without a next value
    p_residuals: np.ndarray  # |p.v_I| / |p| after correction
    correction_skipped: tuple[bool, ...]
    dx_null_defect: float  # |L2.dx| / (sigma_max * |dx|)
    a_candidates: tuple[tuple[int, ...], ...]  # fallbacks ranked by |det|

    @property
    def rank_ambiguous(self) -> bool:
        """A singular-value gap below 10 around the rank threshold."""
        return self.gap_ratio < 10.0


def _best_a_sets(L2: np.ndarray, rank: int) -> list[tuple[float, tuple[int, ...]]]:
    """All size-``rank`` principal blocks ranked by |det|, best first."""
    n1 = L2.shape[0]
    scored = []
    for combo in itertools.combinations(range(n1), rank):
        idx = np.asarray(combo, dtype=int)
        det = abs(float(np.linalg.det(L2[np.ix_(idx, idx)]))) if rank else 1.0
        scored.append((det, combo))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored


def _fix_sign(v: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(v)
    for comp in v:
        if abs(comp) > 1e-9 * nrm:
            return v if comp > 0 else -v
    return v


def _eigvec_from_axis(
    proj: np.ndarray,
    axis: int,
    jet: Jet2,
    anchor: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, bool, float]:
    """Null-space representative closest to coordinate axis ``axis``.

    Normalized to unit norm with a deterministic sign, then shifted along
    dx so that p.v = 0 whenever L allows the shift.  Returns
    (v, v_raw, correction_skipped, residual |p.v|/|p| after the attempt);
    ``v_raw`` is the unshifted vector, which stays smooth across surfaces
    where L vanishes and feeds every dx-shift-invariant formula.
    """
    v = proj[:, axis].copy()
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-8:
        raise DegeneracyError(
            f"coordinate axis {axis} has no null-space component; "
            "degenerate index split", axis=axis,
        )
    v /= nrm
    if anchor is not None:
        if float(v @ anchor) < 0:
            v = -v
    else:
        v = _fix_sign(v)
    raw = v

    p = jet.p
    p_norm = float(np.linalg.norm(p))
    w = float(p @ v)
    skipped = False
    if p_norm > 0 and abs(w) > P_ORTHO_TOL * p_norm:
        l_scale = p_norm * float(np.linalg.norm(jet.dx))
        if abs(jet.L) > 1e-12 * max(l_scale, 1.0):
            v = v - (w / jet.L) * jet.dx
        else:
            # cannot shift along dx when L vanishes; report the defect
            skipped = True
    residual = abs(float(p @ v)) / p_norm if p_norm > 0 else 0.0
    return v, raw, skipped, residual


def null_vectors(
    jet: Jet2,
    Vt: np.ndarray,
    rank: int,
    I_indices: tuple[int, ...],
    anchors: np.ndarray | None = None,
) -> dict:
    """The null vector closest to each I axis, as :class:`DegeneracyData`
    fields (``v``, ``v_raw``, ``correction_skipped``, ``p_residuals``).

    ``Vt`` holds the right singular vectors of ``jet.L2``; rows of
    ``anchors`` fix the signs, otherwise they are deterministic.
    """
    Nb = Vt[rank:]
    proj = Nb.T @ Nb
    rows = [
        _eigvec_from_axis(proj, i, jet, None if anchors is None else anchors[slot])
        for slot, i in enumerate(I_indices)
    ]
    empty = np.zeros((0, jet.dimension))
    return {
        "v": np.array([r[0] for r in rows]) if rows else empty,
        "v_raw": np.array([r[1] for r in rows]) if rows else empty,
        "correction_skipped": tuple(r[2] for r in rows),
        "p_residuals": np.array([r[3] for r in rows]),
    }


def index_split(jet: Jet2, a_indices: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(zero_index, I_indices): the coordinates outside the regular block,
    the one most aligned with dx (lowest index on ties) taken as the flow
    index and the rest as degenerate indices."""
    complement = [i for i in range(jet.dimension) if i not in a_indices]
    dx_hat = np.abs(jet.dx) / float(np.linalg.norm(jet.dx))
    zero_index = max(complement, key=lambda i: (dx_hat[i], -i))
    return zero_index, tuple(i for i in complement if i != zero_index)


def _rank(sv: np.ndarray, rank_tol: float) -> int:
    """Count of singular values above ``rank_tol`` relative to the largest."""
    if not 0.0 <= rank_tol < 1.0:
        raise InvalidStateError(f"rank_tol must lie in [0, 1), got {rank_tol!r}")
    smax = float(sv[0]) if sv.size else 0.0
    return int(np.count_nonzero(sv > rank_tol * smax)) if smax > 0 else 0


def _assemble(
    jet: Jet2,
    svd: tuple[np.ndarray, np.ndarray, np.ndarray],
    rank: int,
    a_indices: tuple[int, ...],
    split: tuple[int, tuple[int, ...]] | None = None,
    anchors: np.ndarray | None = None,
    a_candidates: tuple[tuple[int, ...], ...] | None = None,
) -> DegeneracyData:
    """:class:`DegeneracyData` of ``jet`` at the given rank and regular block.

    ``svd`` is ``np.linalg.svd(jet.L2)``.  ``split`` pins (zero_index,
    I_indices), otherwise :func:`index_split` picks them; ``anchors`` fix
    the null-vector signs.  Raises when the block is numerically singular.
    """
    _, sv, Vt = svd
    a_indices = tuple(a_indices)
    zero_index, I_indices = split if split is not None else index_split(jet, a_indices)
    nulls = null_vectors(jet, Vt, rank, I_indices, anchors)
    gap = float(sv[rank - 1] / sv[rank]) if 0 < rank < sv.size and sv[rank] > 0 else np.inf
    smax = float(sv[0])
    if rank > 0:
        block = jet.L2[np.ix_(a_indices, a_indices)]
        if np.linalg.svd(block, compute_uv=False)[-1] <= 1e-14 * max(smax, 1e-300):
            raise DegeneracyError(
                f"coordinate block {a_indices} became singular (rank "
                "transition nearby)", a_indices=a_indices, gap=gap,
            )
        Lab_inv = np.linalg.inv(block)
    else:
        Lab_inv = np.zeros((0, 0))
    dx_norm = float(np.linalg.norm(jet.dx))
    return DegeneracyData(
        rank=rank,
        D=jet.dimension - 1 - rank,
        **nulls,
        a_indices=a_indices,
        I_indices=I_indices,
        zero_index=zero_index,
        Lab_inv=Lab_inv,
        sing_values=sv,
        gap_ratio=gap,
        dx_null_defect=float(np.linalg.norm(jet.L2 @ jet.dx)) / (smax * dx_norm)
        if smax > 0 else 0.0,
        a_candidates=(a_indices,) if a_candidates is None else a_candidates,
    )


def analyze(jet: Jet2, rank_tol: float = 1e-9) -> DegeneracyData:
    """Determine rank, zero eigenvectors, index split and block inverse.

    Rank counts singular values above ``rank_tol`` (in [0, 1)) relative to
    the largest.  The regular block is chosen by exhaustive |det|
    maximization over principal submatrices (dimensions here are tiny),
    ties broken by lowest indices, so the choice is deterministic and
    scale-covariant.  A singular-value gap ratio below 10 around the
    threshold flags the rank as ambiguous without failing.
    """
    L2 = jet.L2
    n = L2.shape[0] - 1
    svd = np.linalg.svd(L2)
    sv = svd[1]
    rank = _rank(sv, rank_tol)
    if rank > n:
        # dx must be in the null space of a 1-homogeneous metric
        raise DegeneracyError(
            f"direction Hessian has full rank {rank}; dx is not a null vector "
            "(homogeneity defect upstream)", rank=rank,
        )

    ranked = _best_a_sets(L2, rank)
    for _, a_indices in ranked:
        if rank == 0:
            break
        block = L2[np.ix_(a_indices, a_indices)]
        if np.linalg.svd(block, compute_uv=False)[-1] > 1e-12 * float(sv[0]):
            break
    else:
        raise DegeneracyError(
            "no invertible coordinate block of the reduced size exists",
            rank=rank, best_det=ranked[0][0],
        )
    return _assemble(
        jet, svd, rank, a_indices, a_candidates=tuple(combo for _, combo in ranked[:8])
    )


def analyze_frozen(jet: Jet2, base: DegeneracyData) -> DegeneracyData:
    """Re-analyze at a point near ``base``'s, keeping its rank, regular
    block and index split, so the result varies smoothly.

    Signs are anchored on ``base.v_raw``: the dx-shift can dominate the
    corrected vectors near L = 0 and would flip signs spuriously.
    """
    return _assemble(
        jet, np.linalg.svd(jet.L2), base.rank, base.a_indices,
        split=(base.zero_index, base.I_indices), anchors=base.v_raw,
    )


def _with_a_set(jet: Jet2, deg: DegeneracyData, a_indices: tuple[int, ...]) -> DegeneracyData:
    """``deg`` rebuilt on another regular block of the same rank."""
    return _assemble(jet, np.linalg.svd(jet.L2), deg.rank, a_indices)


@dataclass
class RankDropReport:
    ranks: list[int]
    sing_values: list[np.ndarray]
    transitions: list[tuple[int, int, int]]  # (index of second point, rank before, rank after)

    def to_dict(self) -> dict:
        return {
            "ranks": self.ranks,
            "transitions": [list(t) for t in self.transitions],
            "sing_values": [sv.tolist() for sv in self.sing_values],
        }


def detect_rank_drop(
    spec: dsl.MetricSpec,
    pt_sequence: list[TangentPoint],
    rank_tol: float = 1e-9,
) -> RankDropReport:
    """Rank of L2 along a point sequence, with transition flags.

    Rank is tested pointwise; constant-rank certification over a region is
    out of scope, this reports where the numerical rank changes (e.g. on
    approach to a constraint surface).
    """
    xs = np.array([pt.x for pt in pt_sequence])
    dxs = np.array([pt.dx for pt in pt_sequence])
    jets = compute_jets(spec, xs, dxs, validate=False)
    ranks, svs = [], []
    for jet in jets:
        sv = np.linalg.svd(jet.L2, compute_uv=False)
        ranks.append(_rank(sv, rank_tol))
        svs.append(sv)
    transitions = [
        (k, ranks[k - 1], ranks[k])
        for k in range(1, len(ranks))
        if ranks[k] != ranks[k - 1]
    ]
    return RankDropReport(ranks=ranks, sing_values=svs, transitions=transitions)
