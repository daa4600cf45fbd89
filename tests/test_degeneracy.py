"""Degeneracy analysis: rank, zero eigenvectors, index split, transitions."""

import numpy as np
import pytest

from conftest import RANK1_JETS, sample_points, stack_jets
from finslerconn.catalog import catalog, catalog_entry
from finslerconn.degeneracy import analyze, analyze_frozen, detect_rank_drop
from finslerconn.errors import DegeneracyError, InvalidStateError
from finslerconn.jet import Jet2, TangentPoint, compute_jet, compute_jets


def test_euclidean_regular():
    spec = catalog_entry("euclidean-2").spec
    jet = compute_jet(spec, x=[0.0, 0.0], dx=[3.0, 4.0])
    deg = analyze(jet)
    assert deg.rank == 1
    assert deg.D == 0
    assert len(deg.a_indices) == 1
    assert deg.v.shape == (0, 2)
    assert not deg.rank_ambiguous


def test_second_class_zero_eigenvectors():
    entry = catalog_entry("second-class")
    xs, dxs = sample_points(entry, 10, seed=2)
    for jet in compute_jets(entry.spec, xs, dxs):
        deg = analyze(jet)
        assert deg.rank == 0
        assert deg.D == 2
        assert deg.a_indices == ()
        assert deg.I_indices == (1, 2)
        # raw vectors are the coordinate axes; the corrected ones differ by
        # a dx multiple that restores p-orthogonality
        np.testing.assert_array_equal(deg.v_raw, np.eye(3)[1:])
        for j in range(2):
            assert abs(jet.p @ deg.v[j]) <= 1e-10 * np.linalg.norm(jet.p)


def test_frenkel_off_surface():
    entry = catalog_entry("frenkel")
    xs, dxs = sample_points(entry, 10, seed=8)
    for jet in compute_jets(entry.spec, xs, dxs):
        deg = analyze(jet)
        assert deg.rank == 2
        assert deg.D == 1
        np.testing.assert_allclose(deg.v_raw, [[0.0, 1.0, 0.0, 0.0]], atol=1e-12)
        # p has no component along d1, so the correction never moves v
        np.testing.assert_allclose(deg.v, deg.v_raw, atol=1e-12)


def _frenkel_printed_L2(dx):
    d0, d2, d3 = dx[0], dx[2], dx[3]
    return np.array([
        [6 * d2 * d3**2 / d0**4, 0, -2 * d3**2 / d0**3, -4 * d2 * d3 / d0**3],
        [0, 0, 0, 0],
        [-2 * d3**2 / d0**3, 0, 0, 2 * d3 / d0**2],
        [-4 * d2 * d3 / d0**3, 0, 2 * d3 / d0**2, 2 * d2 / d0**2],
    ])


def _frenkel_approach_points():
    """(x3, dx3) = (eps, eps) -> 0 toward the Frenkel constraint surface."""
    return [
        TangentPoint(np.array([0.2, -0.4, 0.3, eps]), np.array([1.0, 0.3, 0.8, eps]))
        for eps in (10.0**-k for k in range(1, 9))
    ]


def test_rank_drop_along_frenkel_approach():
    """Walking (x3, dx3) -> 0 the rank transitions 2 -> 1; the crossover index
    is frozen from an oracle that applies the same threshold rule to the
    printed matrix."""
    entry = catalog_entry("frenkel")
    rank_tol = 1e-6
    points = _frenkel_approach_points()
    expected = []
    for pt in points:
        sv = np.linalg.svd(_frenkel_printed_L2(pt.dx), compute_uv=False)
        expected.append(int(np.count_nonzero(sv > rank_tol * sv[0])))
    report = detect_rank_drop(entry.spec, points, rank_tol=rank_tol)
    assert report.ranks == expected
    assert 2 in report.ranks and 1 in report.ranks
    crossover = next(k for k in range(1, len(expected)) if expected[k] != expected[k - 1])
    assert report.transitions == [(crossover, 2, 1)]


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_detect_rank_drop_agrees_with_analyze(entry):
    xs, dxs = sample_points(entry, 10, seed=29)
    cases = [([TangentPoint(x, dx) for x, dx in zip(xs, dxs)], 1e-9)]
    if entry.name == "frenkel":
        cases.append((_frenkel_approach_points(), 1e-6))
    for points, rank_tol in cases:
        report = detect_rank_drop(entry.spec, points, rank_tol=rank_tol)
        ranks = [
            analyze(compute_jet(entry.spec, pt=pt, validate=False), rank_tol=rank_tol).rank
            for pt in points
        ]
        assert report.ranks == ranks


@pytest.mark.parametrize("rank_tol", [np.nan, 1.0, 2.0, -1e-9, np.inf])
def test_rank_tol_outside_unit_interval_rejected(rank_tol):
    entry = catalog_entry("riemann-2d-curved")
    pt = TangentPoint(np.array([1.2, 0.3]), np.array([0.6, 0.5]))
    with pytest.raises(InvalidStateError, match="rank_tol"):
        analyze(compute_jet(entry.spec, pt=pt), rank_tol=rank_tol)
    with pytest.raises(InvalidStateError, match="rank_tol"):
        detect_rank_drop(entry.spec, [pt], rank_tol=rank_tol)


def test_rank_constant_on_regular_metrics():
    for name, expected_rank in (("euclidean-2", 1), ("potential-system", 3)):
        entry = catalog_entry(name)
        xs, dxs = sample_points(entry, 8, seed=5)
        pts = [TangentPoint(x, dx) for x, dx in zip(xs, dxs)]
        report = detect_rank_drop(entry.spec, pts)
        assert report.ranks == [expected_rank] * len(pts)
        assert report.transitions == []


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_scale_covariance(entry):
    xs, dxs = sample_points(entry, 5, seed=13)
    for x, dx in zip(xs, dxs):
        base = analyze(compute_jet(entry.spec, x=x, dx=dx, validate=False))
        for lam in (0.5, 2.0, 10.0):
            scaled = analyze(compute_jet(entry.spec, x=x, dx=lam * dx, validate=False))
            assert scaled.rank == base.rank
            assert scaled.D == base.D
            assert scaled.a_indices == base.a_indices
            if base.D:
                np.testing.assert_allclose(scaled.v_raw, base.v_raw, atol=1e-12)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_p_orthogonality_and_block_inverse(entry):
    xs, dxs = sample_points(entry, 60, seed=17)
    jets = compute_jets(entry.spec, xs, dxs, validate=False)
    for jet in jets:
        deg = analyze(jet)
        p_norm = np.linalg.norm(jet.p)
        for j in range(deg.D):
            assert abs(jet.p @ deg.v[j]) <= 1e-10 * p_norm * np.linalg.norm(deg.v[j])
        if deg.rank:
            block = jet.L2[np.ix_(deg.a_indices, deg.a_indices)]
            np.testing.assert_allclose(
                deg.Lab_inv @ block, np.eye(deg.rank), atol=1e-9
            )
        # the flow direction is always in the numerical null space
        assert deg.dx_null_defect <= 1.0


def test_eigenvectors_unit_norm_and_sign():
    entry = catalog_entry("second-class")
    xs, dxs = sample_points(entry, 5, seed=19)
    for jet in compute_jets(entry.spec, xs, dxs):
        deg = analyze(jet)
        for j in range(deg.D):
            assert np.linalg.norm(deg.v_raw[j]) == pytest.approx(1.0, abs=1e-13)
            first_nonzero = deg.v_raw[j][np.abs(deg.v_raw[j]) > 1e-9][0]
            assert first_nonzero > 0


def test_analyze_frozen_keeps_structure_and_signs():
    entry = catalog_entry("frenkel")
    xs, dxs = sample_points(entry, 1, seed=23)
    jet = compute_jet(entry.spec, x=xs[0], dx=dxs[0], validate=False)
    base = analyze(jet)
    jet2 = compute_jet(entry.spec, x=xs[0], dx=dxs[0] * 1.001, validate=False)
    deg2 = analyze_frozen(jet2, base)
    assert deg2.rank == base.rank
    assert deg2.a_indices == base.a_indices
    assert float(deg2.v_raw[0] @ base.v_raw[0]) > 0.9


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_frozen_at_the_base_point_reproduces_analyze(entry):
    # analyze, analyze_frozen and the block retry share one assembly: frozen
    # at its own point, the structure rebuilds the same data bit for bit
    xs, dxs = sample_points(entry, 10, seed=31)
    for jet in compute_jets(entry.spec, xs, dxs, validate=False):
        deg = analyze(jet)
        again = analyze_frozen(jet, deg)
        for name in ("v", "v_raw", "Lab_inv", "sing_values", "p_residuals"):
            assert np.array_equal(getattr(again, name), getattr(deg, name)), name
        for name in ("a_indices", "I_indices", "zero_index", "correction_skipped",
                     "dx_null_defect"):
            assert getattr(again, name) == getattr(deg, name), name


def test_best_block_is_det_maximal():
    # synthetic symmetric rank-2 matrix where the block choice matters
    L2 = np.array([
        [4.0, 0.0, 2.0],
        [0.0, 0.0, 0.0],
        [2.0, 0.0, 1.0 + 3.0],
    ])
    dx = np.array([0.0, 1.0, 0.0])  # null direction
    jet = Jet2(
        x=np.zeros(3), dx=dx, L=1.0,
        dL_dx=np.zeros(3), p=np.array([0.0, 1.0, 0.0]),
        L2=L2, mixed=np.zeros((3, 3)),
    )
    deg = analyze(jet)
    assert deg.rank == 2
    assert deg.a_indices == (0, 2)  # |det| = 12 beats any block containing row 1


def test_full_rank_hessian_rejected():
    jet = Jet2(
        x=np.zeros(2), dx=np.array([1.0, 0.0]), L=1.0,
        dL_dx=np.zeros(2), p=np.array([1.0, 0.0]),
        L2=np.eye(2), mixed=np.zeros((2, 2)),
    )
    with pytest.raises(DegeneracyError, match="full rank"):
        analyze(jet)


def test_no_invertible_block_of_the_reduced_size_raises():
    # rank_tol = 1e-22 counts rank 3 at this Frenkel point (its third
    # singular value is 2.4e-20), but row 1 of L2 vanishes and the block
    # (0, 2, 3) is numerically singular: no 3x3 principal block is invertible
    jet = compute_jet(catalog_entry("frenkel").spec, x=[0.2, -0.4, 0.3, 0.5],
                      dx=[1.0, 0.3, 0.8, 5e-4], validate=False)
    with pytest.raises(DegeneracyError, match="no invertible coordinate block") as exc:
        analyze(jet, rank_tol=1e-22)
    assert exc.value.detail == {"rank": 3, "best_det": 0.0}


def test_batch_raises_its_first_failing_points_error():
    # the full-rank point fails; the points before it are analyzed first
    full = Jet2(
        x=np.zeros(3), dx=np.eye(3)[2], L=1.0, dL_dx=np.zeros(3), p=np.eye(3)[2],
        L2=np.eye(3), mixed=np.zeros((3, 3)),
    )
    jets = stack_jets([RANK1_JETS["good"], full, RANK1_JETS["good"]])
    with pytest.raises(DegeneracyError, match="full rank 3"):
        analyze(jets)


def _rank1_base():
    base = analyze(RANK1_JETS["good"])
    assert (base.rank, base.a_indices, base.zero_index, base.I_indices) == (1, (0,), 2, (1,))
    return base


def test_frozen_axis_without_null_component_raises():
    with pytest.raises(DegeneracyError, match="coordinate axis 1 has no null-space component"):
        analyze_frozen(RANK1_JETS["no-null"], _rank1_base())


@pytest.mark.parametrize("names, message", [
    (("good", "no-null", "singular"), "coordinate axis 1 has no null-space component"),
    (("good", "singular", "no-null"), r"coordinate block \(0,\) became singular"),
    (("good", "good", "both"), "coordinate axis 1 has no null-space component"),
])
def test_frozen_batch_raises_what_the_point_loop_raises_first(names, message):
    base = _rank1_base()
    jets = stack_jets([RANK1_JETS[name] for name in names])
    with pytest.raises(DegeneracyError, match=message) as per_point:
        for jet in jets:
            analyze_frozen(jet, base)
    with pytest.raises(DegeneracyError) as batch:
        analyze_frozen(jets, base)
    assert str(batch.value) == str(per_point.value)
    assert batch.value.detail == per_point.value.detail
