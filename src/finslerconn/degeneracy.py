"""Degeneracy structure of the direction Hessian.

For a 1-homogeneous metric the direction Hessian ``L2`` always annihilates
``dx``, so its rank is at most ``n`` in ``n+1`` dimensions.  This module
computes the numerical rank, the extra null directions beyond ``dx``, an
index split into {flow-like index} | {degenerate indices I} | {regular
indices a}, and the inverse of the regular block: everything the
connection solver needs to invert its defining equations.

One routine, ``_assemble``, builds every :class:`DegeneracyData` from the
SVD of ``L2``, a rank, a regular block and an index split.  It works on a
:class:`JetBatch` whose points share that branch, in one stacked numpy
call per step (SVD, null-vector projector, block singularity test,
inverse), and a batch raises what a loop over its points would raise
first.  Its callers differ only in how they pick the branch:
:func:`analyze` takes the rank from the singular values and the best
invertible block by |det| (a batch of one); :func:`analyze_frozen` keeps
the branch (rank, block, split and signs) of a base point's
:class:`DegeneracyData` for a whole batch; ``_with_a_set`` swaps in
another block for the regular-block retry of ``connection.solve_G``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dsl
from .errors import DegeneracyError, InvalidStateError
from .jet import Jet2, JetBatch, TangentPoint, compute_jets

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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b of two (B, n) stacks; each row has the bits of the
    1-d ``a @ b`` (an ``axis=`` sum or ``einsum`` differs in the last bit)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norm(a: np.ndarray) -> np.ndarray:
    """Row-wise 2-norm of a (B, n) stack, with the bits of ``np.linalg.norm``
    of each row."""
    return np.sqrt(_dot(a, a))


def _first_failure(checks) -> tuple[int, Exception] | None:
    """The failure a per-point loop over the batch meets first: the lowest
    failing point, at its first failing check.  ``checks`` lists
    (failure mask over the batch, error factory of the point) in the
    per-point check order."""
    first = None
    for mask, error in checks:
        hits = np.flatnonzero(mask)
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), error)
    return None if first is None else (first[0], first[1](first[0]))


def null_vectors(
    jets: JetBatch,
    Vt: np.ndarray,
    rank: int,
    I_indices: tuple[int, ...],
    anchors: np.ndarray | None = None,
) -> tuple[dict, list]:
    """The null vector closest to each I axis at each point, stacked.

    Each is normalized to unit norm with a deterministic sign, then
    shifted along dx so that p.v = 0 whenever L allows the shift.  Returns
    the :class:`DegeneracyData` fields ``v``, ``v_raw`` (the unshifted
    vectors, which stay smooth across surfaces where L vanishes and feed
    every dx-shift-invariant formula), ``correction_skipped`` and
    ``p_residuals`` (|p.v|/|p| after the shift) with a leading batch
    axis, and one :func:`_first_failure` check per I axis: the axis has
    no null-space component.  ``Vt`` holds the right singular vectors of
    ``jets.L2``; ``anchors`` fix the signs, one ``(len(I_indices), n+1)``
    set for every point or one such set per point; without them the signs
    are deterministic.
    """
    B, n1 = jets.dx.shape
    nI = len(I_indices)
    if nI == 0:  # regular branch: no null direction beyond dx
        empty = np.zeros((B, 0))
        return {"v": np.zeros((B, 0, n1)), "v_raw": np.zeros((B, 0, n1)),
                "correction_skipped": empty.astype(bool), "p_residuals": empty}, []
    Nb = Vt[:, rank:]
    proj = Nb.transpose(0, 2, 1) @ Nb
    # one row per (point, I axis): the projector's column of that axis
    v = proj[:, :, list(I_indices)].transpose(0, 2, 1).reshape(B * nI, n1)
    p, L, dx = (np.repeat(a, nI, axis=0) for a in (jets.p, jets.L, jets.dx))
    nrm = _norm(v)
    missing = nrm < 1e-8
    v /= np.where(missing, 1.0, nrm)[:, None]
    if anchors is not None:
        flip = _dot(v, np.broadcast_to(anchors, (B, nI, n1)).reshape(B * nI, n1)) < 0
    else:
        # the sign of the first component that is not negligible
        big = np.abs(v) > 1e-9 * _norm(v)[:, None]
        first = v[np.arange(B * nI), big.argmax(axis=1)]
        flip = big.any(axis=1) & ~(first > 0)
    v = np.where(flip[:, None], -v, v)
    raw = v

    p_norm = _norm(p)
    w = _dot(p, v)
    needed = (p_norm > 0) & (np.abs(w) > P_ORTHO_TOL * p_norm)
    # cannot shift along dx when L vanishes; report the defect
    possible = np.abs(L) > 1e-12 * np.maximum(p_norm * _norm(dx), 1.0)
    shift = needed & possible
    v = np.where(shift[:, None], v - (w / np.where(shift, L, 1.0))[:, None] * dx, v)
    residual = np.divide(np.abs(_dot(p, v)), p_norm, out=np.zeros(B * nI), where=p_norm > 0)
    checks = [
        (missing.reshape(B, nI)[:, slot], lambda b, i=i: DegeneracyError(
            f"coordinate axis {i} has no null-space component; "
            "degenerate index split", axis=i,
        ))
        for slot, i in enumerate(I_indices)
    ]
    return {
        "v": v.reshape(B, nI, n1),
        "v_raw": raw.reshape(B, nI, n1),
        "correction_skipped": (needed & ~possible).reshape(B, nI),
        "p_residuals": residual.reshape(B, nI),
    }, checks


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
    jets: JetBatch,
    svd: tuple[np.ndarray, np.ndarray, np.ndarray],
    rank: int,
    a_indices: tuple[int, ...],
    split: tuple[int, tuple[int, ...]],
    anchors: np.ndarray | None = None,
    a_candidates: tuple[tuple[int, ...], ...] | None = None,
) -> tuple[list[DegeneracyData], DegeneracyError | None]:
    """:class:`DegeneracyData` of each point of ``jets`` at one rank, regular
    block and index split (zero_index, I_indices), in stacked numpy calls.

    ``svd`` is ``np.linalg.svd(jets.L2)``; ``anchors`` fix the null-vector
    signs.  Returns the data of the points before the first failing one
    and that point's error (None when every point passes), so that a
    batch raises what a per-point loop raises first: the missing
    null-space component of an I axis (in axis order), then a numerically
    singular block.
    """
    _, sv, Vt = svd
    B, n1 = jets.dx.shape
    a_indices = tuple(a_indices)
    zero_index, I_indices = split
    nulls, checks = null_vectors(jets, Vt, rank, I_indices, anchors)
    gap = np.full(B, np.inf)
    if 0 < rank < n1:
        pos = sv[:, rank] > 0
        gap[pos] = sv[pos, rank - 1] / sv[pos, rank]
    smax = sv[:, 0]
    a_idx = np.asarray(a_indices, dtype=int)
    blocks = jets.L2[:, a_idx[:, None], a_idx]
    if rank > 0:
        smin = np.linalg.svd(blocks, compute_uv=False)[:, -1]
        checks.append((
            smin <= 1e-14 * np.maximum(smax, 1e-300),
            lambda b: DegeneracyError(
                f"coordinate block {a_indices} became singular (rank "
                "transition nearby)", a_indices=a_indices, gap=float(gap[b]),
            ),
        ))
    failed = _first_failure(checks)
    n_ok = B if failed is None else failed[0]
    Lab_inv = np.linalg.inv(blocks[:n_ok]) if rank > 0 else np.zeros((n_ok, 0, 0))
    L2_dx = (jets.L2 @ jets.dx[:, :, None])[:, :, 0]
    scale = smax * _norm(jets.dx)
    defect = np.divide(_norm(L2_dx), scale, out=np.zeros(B), where=smax > 0)
    degs = [
        DegeneracyData(
            rank=rank,
            D=n1 - 1 - rank,
            v=nulls["v"][b],
            v_raw=nulls["v_raw"][b],
            a_indices=a_indices,
            I_indices=I_indices,
            zero_index=zero_index,
            Lab_inv=Lab_inv[b],
            sing_values=sv[b],
            gap_ratio=float(gap[b]),
            p_residuals=nulls["p_residuals"][b],
            correction_skipped=tuple(bool(c) for c in nulls["correction_skipped"][b]),
            dx_null_defect=float(defect[b]),
            a_candidates=(a_indices,) if a_candidates is None else a_candidates,
        )
        for b in range(n_ok)
    ]
    return degs, None if failed is None else failed[1]


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
    jets = JetBatch.of(jet)
    svd = np.linalg.svd(jets.L2)
    sv = svd[1][0]
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
    degs, error = _assemble(
        jets, svd, rank, a_indices, index_split(jet, a_indices),
        a_candidates=tuple(combo for _, combo in ranked[:8]),
    )
    if error is not None:
        raise error
    return degs[0]


def analyze_frozen(jets: JetBatch | Jet2, base: DegeneracyData):
    """Re-analyze near ``base``'s point, keeping its rank, regular block and
    index split, so the result varies smoothly.

    ``jets`` is a :class:`JetBatch`, analyzed in one stacked pass into a
    list of :class:`DegeneracyData` (raising what a per-point loop would
    raise first), or a single :class:`Jet2`, a batch of one.  Signs are
    anchored on ``base.v_raw``: the dx-shift can dominate the corrected
    vectors near L = 0 and would flip signs spuriously.
    """
    single = isinstance(jets, Jet2)
    batch = JetBatch.of(jets) if single else jets
    degs, error = _assemble(
        batch, np.linalg.svd(batch.L2), base.rank, base.a_indices,
        (base.zero_index, base.I_indices), anchors=base.v_raw,
    )
    if error is not None:
        raise error
    return degs[0] if single else degs


def _with_a_set(jet: Jet2, deg: DegeneracyData, a_indices: tuple[int, ...]) -> DegeneracyData:
    """``deg`` rebuilt on another regular block of the same rank."""
    jets = JetBatch.of(jet)
    degs, error = _assemble(
        jets, np.linalg.svd(jets.L2), deg.rank, a_indices, index_split(jet, a_indices)
    )
    if error is not None:
        raise error
    return degs[0]


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
    svs = list(np.linalg.svd(compute_jets(spec, xs, dxs, validate=False).L2, compute_uv=False))
    ranks = [_rank(sv, rank_tol) for sv in svs]
    transitions = [
        (k, ranks[k - 1], ranks[k])
        for k in range(1, len(ranks))
        if ranks[k] != ranks[k - 1]
    ]
    return RankDropReport(ranks=ranks, sing_values=svs, transitions=transitions)
