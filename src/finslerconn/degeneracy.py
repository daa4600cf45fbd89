"""Degeneracy structure of the direction Hessian.

For a 1-homogeneous metric the direction Hessian ``L2`` always annihilates
``dx``, so its rank is at most ``n`` in ``n+1`` dimensions.  This module
computes the numerical rank, the extra null directions beyond ``dx``, an
index split into {flow-like index} | {degenerate indices I} | {regular
indices a}, and the inverse of the regular block: everything the
connection solver needs to invert its defining equations.

One routine, ``_assemble``, builds the structure of a :class:`JetBatch`
whose points share one branch (an SVD of ``L2``, a rank, a regular
block and an index split), in one stacked numpy call per step (SVD,
null-vector projector, block singularity test, inverse), into one
:class:`DegeneracyBatch`; a batch raises what a loop over its points
would raise first.  Its callers differ only in how they pick the branch:
:func:`analyze` takes each point's rank from the singular values and its
best invertible block by |det|, and assembles the points together when
they share one branch (else it takes them one at a time); :func:`analyze_frozen` keeps the branch (rank, block, split and
signs) of a base point's :class:`DegeneracyData` for a whole batch;
``_with_a_set`` swaps in another block for the regular-block retry of
``connection.solve_G``.  A single :class:`Jet2` is the batch of one.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import dsl
from .errors import DegeneracyError, InvalidStateError
from .jet import Jet2, JetBatch, TangentPoint, compute_jets

__all__ = [
    "DegeneracyData",
    "DegeneracyBatch",
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


@dataclass(eq=False)
class DegeneracyBatch(Sequence):
    """The :class:`DegeneracyData` of many points on one branch, stacked.

    The branch fields (``rank``, ``D``, ``a_indices``, ``I_indices``,
    ``zero_index`` and ``a_candidates``) are shared; the others are those
    of :class:`DegeneracyData` with a leading batch axis.  Stacked callers
    read the arrays; indexing by an integer yields that point's
    :class:`DegeneracyData`, built on first access and kept, and by a
    slice a list of them.  Treat it as
    read-only: it is not frozen only because a frozen dataclass takes
    several times longer to build, and the structural layer builds one per
    call.
    """

    rank: int
    D: int
    a_indices: tuple[int, ...]
    I_indices: tuple[int, ...]
    zero_index: int
    a_candidates: tuple[tuple[int, ...], ...]
    v: np.ndarray  # (B, D, n+1)
    v_raw: np.ndarray
    Lab_inv: np.ndarray  # (B, rank, rank)
    sing_values: np.ndarray  # (B, n+1)
    gap_ratio: np.ndarray  # (B,)
    p_residuals: np.ndarray  # (B, D)
    correction_skipped: np.ndarray  # (B, D) bool
    dx_null_defect: np.ndarray  # (B,)

    def __post_init__(self):
        self._rows = [None] * len(self)

    @classmethod
    def of(cls, deg: DegeneracyData) -> "DegeneracyBatch":
        """The batch of one point, sharing ``deg``'s arrays; its row is ``deg``."""
        batch = cls(
            rank=deg.rank, D=deg.D, a_indices=deg.a_indices, I_indices=deg.I_indices,
            zero_index=deg.zero_index, a_candidates=deg.a_candidates, v=deg.v[None],
            v_raw=deg.v_raw[None], Lab_inv=deg.Lab_inv[None], sing_values=deg.sing_values[None],
            gap_ratio=np.array([deg.gap_ratio]), p_residuals=deg.p_residuals[None],
            correction_skipped=np.array(deg.correction_skipped, dtype=bool)[None],
            dx_null_defect=np.array([deg.dx_null_defect]),
        )
        batch._rows[0] = deg
        return batch

    def __len__(self) -> int:
        return self.gap_ratio.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        row = self._rows[operator.index(i)]
        if row is None:
            row = self._rows[i] = DegeneracyData(
                rank=self.rank,
                D=self.D,
                v=self.v[i],
                v_raw=self.v_raw[i],
                a_indices=self.a_indices,
                I_indices=self.I_indices,
                zero_index=self.zero_index,
                Lab_inv=self.Lab_inv[i],
                sing_values=self.sing_values[i],
                gap_ratio=float(self.gap_ratio[i]),
                p_residuals=self.p_residuals[i],
                correction_skipped=tuple(bool(c) for c in self.correction_skipped[i]),
                dx_null_defect=float(self.dx_null_defect[i]),
                a_candidates=self.a_candidates,
            )
        return row


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b of two (B, n) stacks; each row has the bits of the
    1-d ``a @ b`` (an ``axis=`` sum or ``einsum`` differs in the last bit).
    ``np.vecdot`` sets the numpy 2.0 floor of pyproject.toml."""
    return np.vecdot(a, b)


def _norm(a: np.ndarray) -> np.ndarray:
    """Row-wise 2-norm of a (B, n) stack, with the bits of ``np.linalg.norm``
    of each row."""
    return np.sqrt(_dot(a, a))


def _raise_first_failure(checks) -> None:
    """Raise the failure a per-point loop over the batch meets first: the
    lowest failing point, at its first failing check.  ``checks`` lists
    (failure mask over the batch, error factory of the point) in the
    per-point check order."""
    first = None
    for mask, error in checks:
        if mask.any():
            hit = int(mask.argmax())
            if first is None or hit < first[0]:
                first = (hit, error)
    if first is not None:
        raise first[1](first[0])


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
    axis, and one :func:`_raise_first_failure` check per I axis: the axis
    has no null-space component.  ``Vt`` holds the right singular vectors
    of ``jets.L2``; ``anchors`` fix the signs, one ``(len(I_indices),
    n+1)`` set for every point or one such set per point; without them the
    signs are deterministic.
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


def _dx_hat(jets: JetBatch) -> list[list[float]]:
    """|dx| / ||dx|| of each point, the input of :func:`index_split`."""
    return (np.abs(jets.dx) / _norm(jets.dx)[:, None]).tolist()


def index_split(dx_hat: list[float], a_indices: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(zero_index, I_indices): the coordinates outside the regular block,
    the one most aligned with dx (lowest index on ties) taken as the flow
    index and the rest as degenerate indices; ``dx_hat`` is a point's row
    of :func:`_dx_hat`."""
    complement = [i for i in range(len(dx_hat)) if i not in a_indices]
    zero_index = max(complement, key=lambda i: (dx_hat[i], -i))
    return zero_index, tuple(i for i in complement if i != zero_index)


def _ranks(sv: np.ndarray, rank_tol: float) -> np.ndarray:
    """Count of singular values above ``rank_tol`` relative to the largest,
    for each row of a (B, n+1) stack of spectra."""
    if not 0.0 <= rank_tol < 1.0:
        raise InvalidStateError(f"rank_tol must lie in [0, 1), got {rank_tol!r}")
    # singular values are >= 0, so an all-zero spectrum counts 0
    return np.add.reduce(sv > rank_tol * sv[:, :1], axis=1)


def _assemble(
    jets: JetBatch,
    svd: tuple[np.ndarray, np.ndarray, np.ndarray],
    rank: int,
    a_indices: tuple[int, ...],
    split: tuple[int, tuple[int, ...]],
    anchors: np.ndarray | None = None,
    a_candidates: tuple[tuple[int, ...], ...] | None = None,
    block_checked: bool = False,
) -> DegeneracyBatch:
    """The structure of the points of ``jets`` at one rank, regular block
    and index split (zero_index, I_indices), in stacked numpy calls.

    ``svd`` is ``np.linalg.svd(jets.L2)``; ``anchors`` fix the null-vector
    signs; ``block_checked`` skips the singular-block test for blocks the
    caller has already found invertible.  When a point fails, the batch
    raises that point's error and builds nothing: what a per-point loop
    raises first, the missing null-space component of an I axis (in axis
    order), then a numerically singular block.
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
    if rank > 0 and not block_checked:
        smin = np.linalg.svd(blocks, compute_uv=False)[:, -1]
        checks.append((
            smin <= 1e-14 * np.maximum(smax, 1e-300),
            lambda b: DegeneracyError(
                f"coordinate block {a_indices} became singular (rank "
                "transition nearby)", a_indices=a_indices, gap=float(gap[b]),
            ),
        ))
    _raise_first_failure(checks)
    L2_dx = (jets.L2 @ jets.dx[:, :, None])[:, :, 0]
    scale = smax * _norm(jets.dx)
    defect = np.divide(_norm(L2_dx), scale, out=np.zeros(B), where=smax > 0)
    return DegeneracyBatch(
        rank=rank,
        D=n1 - 1 - rank,
        a_indices=a_indices,
        I_indices=I_indices,
        zero_index=zero_index,
        a_candidates=(a_indices,) if a_candidates is None else a_candidates,
        v=nulls["v"],
        v_raw=nulls["v_raw"],
        Lab_inv=np.linalg.inv(blocks) if rank > 0 else np.zeros((B, 0, 0)),
        sing_values=sv,
        gap_ratio=gap,
        p_residuals=nulls["p_residuals"],
        correction_skipped=nulls["correction_skipped"],
        dx_null_defect=defect,
    )


def analyze(jets: JetBatch | Jet2, rank_tol: float = 1e-9):
    """Determine rank, zero eigenvectors, index split and block inverse.

    Rank counts singular values above ``rank_tol`` (in [0, 1)) relative to
    the largest.  The regular block is chosen by exhaustive |det|
    maximization over principal submatrices (dimensions here are tiny),
    ties broken by lowest indices, so the choice is deterministic and
    scale-covariant; ``a_candidates`` keeps the best 8 blocks in that
    order.  A singular-value gap ratio below 10 around the threshold flags
    the rank as ambiguous without failing.

    ``jets`` is a single :class:`Jet2`, whose :class:`DegeneracyData` is
    returned, or a :class:`JetBatch`, analyzed in one stacked SVD, one
    stacked |det| ranking and block check per rank, and one stacked
    assembly when all points share one branch (rank, block, index split
    and ``a_candidates``); that yields a :class:`DegeneracyBatch`.  A batch
    over several branches is analyzed point by point into a list of each
    point's :class:`DegeneracyData`.  A batch raises what a loop over its
    points would raise first.
    """
    single = isinstance(jets, Jet2)
    batch = JetBatch.of(jets) if single else jets
    B, n1 = batch.dx.shape
    svd = np.linalg.svd(batch.L2)
    sv = svd[1]
    ranks = _ranks(sv, rank_tol).tolist()
    # each point's principal blocks ranked by |det| (ties: lowest indices)
    # and the best one that is invertible (None when none is)
    picks: list = [None] * B
    for rank in set(ranks) - {n1}:
        pts = [b for b in range(B) if ranks[b] == rank]
        if rank == 0:
            for b in pts:
                picks[b] = (1.0, (), ((),))
            continue
        combos = list(itertools.combinations(range(n1), rank))
        idx = np.array(combos)
        blocks = batch.L2[pts][:, idx[:, :, None], idx[:, None, :]]  # (P, combos, r, r)
        dets = np.abs(np.linalg.det(blocks)).tolist()
        smin = np.linalg.svd(blocks, compute_uv=False)[..., -1]
        invertible = (smin > 1e-12 * sv[pts, :1]).tolist()
        for b, det, ok in zip(pts, dets, invertible):
            ranked = sorted(range(len(combos)), key=lambda c: -det[c])
            best = next((c for c in ranked if ok[c]), None)
            picks[b] = (det[ranked[0]], None if best is None else combos[best],
                        tuple(combos[c] for c in ranked[:8]))
    for b in range(B):
        if ranks[b] == n1:
            # dx must be in the null space of a 1-homogeneous metric
            error = DegeneracyError(
                f"direction Hessian has full rank {ranks[b]}; dx is not a null vector "
                "(homogeneity defect upstream)", rank=ranks[b],
            )
        elif picks[b][1] is None:
            error = DegeneracyError(
                "no invertible coordinate block of the reduced size exists",
                rank=ranks[b], best_det=picks[b][0],
            )
        else:
            continue
        if b:  # a loop over the points analyzes the earlier ones first
            analyze(batch[:b], rank_tol=rank_tol)
        raise error
    dx_hat = _dx_hat(batch)
    branches = {(ranks[b], picks[b][1], index_split(dx_hat[b], picks[b][1]), picks[b][2])
                for b in range(B)}
    if len(branches) > 1:
        return [analyze(jet, rank_tol=rank_tol) for jet in batch]
    ((rank, a_indices, split, candidates),) = branches
    # the blocks passed a stricter test above, so _assemble skips its own
    degs = _assemble(batch, svd, rank, a_indices, split,
                     a_candidates=candidates, block_checked=True)
    return degs[0] if single else degs


def analyze_frozen(jets: JetBatch | Jet2, base: DegeneracyData):
    """Re-analyze near ``base``'s point, keeping its rank, regular block and
    index split, so the result varies smoothly.

    ``jets`` is a :class:`JetBatch`, analyzed in one stacked pass into a
    :class:`DegeneracyBatch` (raising what a per-point loop would raise
    first), or a single :class:`Jet2`, a batch of one.  Signs are
    anchored on ``base.v_raw``: the dx-shift can dominate the corrected
    vectors near L = 0 and would flip signs spuriously.
    """
    single = isinstance(jets, Jet2)
    batch = JetBatch.of(jets) if single else jets
    degs = _assemble(
        batch, np.linalg.svd(batch.L2), base.rank, base.a_indices,
        (base.zero_index, base.I_indices), anchors=base.v_raw,
    )
    return degs[0] if single else degs


def _with_a_set(jet: Jet2, deg: DegeneracyData, a_indices: tuple[int, ...]) -> DegeneracyData:
    """``deg`` rebuilt on another regular block of the same rank."""
    jets = JetBatch.of(jet)
    return _assemble(
        jets, np.linalg.svd(jets.L2), deg.rank, a_indices, index_split(_dx_hat(jets)[0], a_indices)
    )[0]


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
    svs = np.linalg.svd(compute_jets(spec, xs, dxs, validate=False).L2, compute_uv=False)
    ranks = _ranks(svs, rank_tol).tolist()
    transitions = [
        (k, ranks[k - 1], ranks[k])
        for k in range(1, len(ranks))
        if ranks[k] != ranks[k - 1]
    ]
    return RankDropReport(ranks=ranks, sing_values=list(svs), transitions=transitions)
