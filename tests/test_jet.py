"""Jet assembly: hand values, printed derivative forms, homogeneity identities."""

import numpy as np
import pytest

from conftest import fd_mixed_block, fd_x_gradient, sample_points
from finslerconn.catalog import catalog, catalog_entry
from finslerconn import dsl
from finslerconn.dsl import parse, require_admissible
from finslerconn.errors import DomainError, HomogeneityError, InvalidStateError
from finslerconn.jet import TangentPoint, check_homogeneity, compute_jet, compute_jets


def test_euclidean_hand_values():
    spec = catalog_entry("euclidean-2").spec
    jet = compute_jet(spec, x=[0.0, 0.0], dx=[3.0, 4.0])
    assert jet.L == 5.0
    np.testing.assert_allclose(jet.p, [0.6, 0.8], atol=1e-16)
    expected_L2 = np.array([[0.64, -0.48], [-0.48, 0.36]]) / 5.0
    np.testing.assert_allclose(jet.L2, expected_L2, atol=1e-16)
    assert np.all(jet.dL_dx == 0.0)
    assert np.all(jet.mixed == 0.0)


def test_potential_system_momentum_forms():
    entry = catalog_entry("potential-system")
    m, k = entry.extras["m"], entry.extras["k"]
    xs, dxs = sample_points(entry, 20, seed=3)
    jets = compute_jets(entry.spec, xs, dxs)
    for jet in jets:
        x, dx = jet.x, jet.dx
        V = 0.5 * k * float(x[1:] @ x[1:])
        y = dx[1:] / dx[0]
        p0 = -(0.5 * m * float(y @ y) + V)
        np.testing.assert_allclose(jet.p[0], p0, rtol=1e-14)
        np.testing.assert_allclose(jet.p[1:], m * y, rtol=1e-14)


def test_second_class_direction_hessian_vanishes():
    entry = catalog_entry("second-class")
    xs, dxs = sample_points(entry, 10, seed=5)
    for jet in compute_jets(entry.spec, xs, dxs):
        assert np.all(jet.L2 == 0.0)
        x = jet.x
        np.testing.assert_allclose(
            jet.p, [x[1] ** 2 + x[2] ** 2, -x[2], x[1]], atol=1e-15
        )


def _frenkel_printed_L2(dx):
    d0, d2, d3 = dx[0], dx[2], dx[3]
    return np.array([
        [6 * d2 * d3**2 / d0**4, 0, -2 * d3**2 / d0**3, -4 * d2 * d3 / d0**3],
        [0, 0, 0, 0],
        [-2 * d3**2 / d0**3, 0, 0, 2 * d3 / d0**2],
        [-4 * d2 * d3 / d0**3, 0, 2 * d3 / d0**2, 2 * d2 / d0**2],
    ])


def test_frenkel_direction_hessian_matches_printed_matrix():
    entry = catalog_entry("frenkel")
    xs, dxs = sample_points(entry, 10, seed=11)
    for jet in compute_jets(entry.spec, xs, dxs):
        np.testing.assert_allclose(jet.L2, _frenkel_printed_L2(jet.dx), rtol=1e-12)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_jet_identities_across_catalog(entry):
    xs, dxs = sample_points(entry, 500, seed=23, for_connection=False)
    jets = compute_jets(entry.spec, xs, dxs, validate=True)  # raises on violation
    n = entry.spec.dimension - 1
    for jet in jets:
        sv = np.linalg.svd(jet.L2, compute_uv=False)
        smax = sv[0] if sv.size else 0.0
        rank = int(np.count_nonzero(sv > 1e-9 * smax)) if smax > 0 else 0
        assert rank <= n


@pytest.mark.parametrize("name", ["potential-system", "riemann-3d-generic", "frenkel"])
def test_position_derivatives_match_finite_differences(name):
    entry = catalog_entry(name)
    xs, dxs = sample_points(entry, 40, seed=31, for_connection=False)
    jets = compute_jets(entry.spec, xs, dxs, validate=False)
    dl = np.array([j.dL_dx for j in jets])
    mixed = np.array([j.mixed for j in jets])
    fd_dl = fd_x_gradient(entry.spec, xs, dxs)
    fd_mx = fd_mixed_block(entry.spec, xs, dxs)
    scale = np.maximum(np.abs(fd_dl).max(axis=1), 1e-10)
    assert np.all(np.abs(dl - fd_dl).max(axis=1) <= 1e-6 * scale)
    mscale = np.maximum(np.abs(fd_mx).reshape(len(xs), -1).max(axis=1), 1e-8)
    assert np.all(np.abs(mixed - fd_mx).reshape(len(xs), -1).max(axis=1) <= 1e-6 * mscale)


def test_non_homogeneous_metric_raises():
    # each expression breaks the next identity of 1-homogeneity in order:
    # p.dx = L; then L2.dx = 0 (the added square and its gradient vanish
    # on the unit circle, its Hessian does not); then dx . mixed = dL/dx
    # (the x0-coefficient and its dx-gradient vanish there, not its mixed
    # derivative)
    cases = [
        ("d0^2 + d1^2", [0.0, 0.0], [1.0, 2.0], "Euler identity"),
        ("d0 + (d0^2 + d1^2 - 1)^2", [0.0, 0.0], [0.6, 0.8], r"L2\.dx = 0 violated"),
        ("d0 + x0*(d0^2 + d1^2 - 1)", [0.0, 0.0], [0.6, 0.8], "dx-contraction of the mixed block"),
    ]
    for text, x, dx, message in cases:
        with pytest.raises(HomogeneityError, match=message):
            compute_jet(parse(text, dimension=2), x=x, dx=dx)


@pytest.mark.parametrize("rtol", [np.nan, -1.0, np.inf])
def test_homogeneity_tolerance_must_be_finite_and_nonnegative(rtol):
    # a NaN tolerance made every identity check pass, a negative one failed
    # even an exact identity
    entry = catalog_entry("riemann-2d-curved")
    with pytest.raises(InvalidStateError, match="homogeneity tolerance"):
        compute_jets(entry.spec, [[1.2, 0.3]], [[0.6, 0.5]], rtol=rtol)


def _same_error(spec, xs, dxs, row):
    """compute_jets on the batch raises the DomainError of ``row`` alone."""
    with pytest.raises(DomainError) as alone:
        require_admissible(spec, np.asarray(xs[row], float), np.asarray(dxs[row], float))
    with pytest.raises(DomainError) as batch:
        compute_jets(spec, xs, dxs, validate=False)
    assert str(batch.value) == str(alone.value)
    assert batch.value.detail == alone.value.detail
    return str(batch.value)


def test_batch_guard_raises_the_first_violating_row_alone():
    entry = catalog_entry("potential-system")
    xs, dxs = sample_points(entry, 5, seed=7)
    dxs[2, 0] = -0.25 * dxs[2, 0]  # breaks d0 > 0
    dxs[4, 0] = -dxs[4, 0]
    message = _same_error(entry.spec, xs, dxs, 2)
    assert message == f"guard violated: value {float(dxs[2, 0])!r}"


def test_batch_admissibility_evaluates_the_guard_once(monkeypatch):
    entry = catalog_entry("potential-system")
    xs, dxs = sample_points(entry, 6, seed=7)
    calls = []
    original = dsl.eval_values
    monkeypatch.setattr(dsl, "eval_values", lambda *a: calls.append(len(a[2])) or original(*a))
    compute_jets(entry.spec, xs, dxs, validate=False)
    assert calls == [6]


def test_batch_zero_direction_raises_the_per_point_error():
    entry = catalog_entry("riemann-2d-curved")
    xs = np.array([[1.2, 0.3], [1.1, 0.4], [0.9, 0.2]])
    dxs = np.array([[0.6, 0.5], [0.0, 0.0], [0.0, 0.0]])
    assert _same_error(entry.spec, xs, dxs, 1) == "degenerate direction: dx = 0"


@pytest.mark.parametrize("rows, bad_row, message", [
    # row 2's guard takes the sqrt of a negative, so the batch evaluation
    # raises; row 1 violates the guard with a finite value and comes first
    ([(1.0, 2.0), (4.0, 1.0), (-1.0, 2.0)], 1, "guard violated: value -1.0"),
    ([(1.0, 2.0), (-1.0, 2.0), (4.0, 1.0)], 1, "sqrt of a negative value"),
])
def test_batch_guard_that_raises_falls_back_to_the_per_point_check(rows, bad_row, message):
    spec = parse("sqrt(d0^2 + d1^2)", dimension=2, guard="x1 - sqrt(x0)")
    xs = np.array(rows)
    dxs = np.tile([0.6, 0.8], (len(rows), 1))
    assert _same_error(spec, xs, dxs, bad_row) == message


def test_check_homogeneity_euclidean():
    spec = catalog_entry("euclidean-2").spec
    rep = check_homogeneity(spec, TangentPoint([0.5, 0.5], [3.0, 4.0]), (0.5, 2.0, 10.0))
    assert rep.l_violation < 1e-12
    assert rep.passed()


def test_check_homogeneity_flags_quadratic_metric():
    bad = parse("d0^2 + d1^2", dimension=2)
    rep = check_homogeneity(bad, TangentPoint([0.0, 0.0], [1.0, 1.0]), (2.0,))
    # 2-homogeneous expression violates degree 1 by a factor of the scale
    assert rep.l_violation > 0.5
    assert not rep.passed()


@pytest.mark.parametrize("scale", [0.0, -2.0])
def test_check_homogeneity_needs_positive_scales(scale):
    spec = catalog_entry("euclidean-2").spec
    with pytest.raises(ValueError, match="scales must be positive"):
        check_homogeneity(spec, TangentPoint([0.5, 0.5], [3.0, 4.0]), (2.0, scale))


def test_check_homogeneity_frenkel_random_points():
    entry = catalog_entry("frenkel")
    xs, dxs = sample_points(entry, 100, seed=4, for_connection=False)
    worst = 0.0
    for x, dx in zip(xs, dxs):
        rep = check_homogeneity(entry.spec, TangentPoint(x, dx), (3.0,))
        worst = max(worst, rep.l_violation)
    assert worst < 1e-12


def test_jet_serialization_roundtrip():
    spec = catalog_entry("euclidean-2").spec
    jet = compute_jet(spec, x=[0.0, 0.0], dx=[3.0, 4.0])
    doc = jet.to_dict()
    assert doc["L"] == 5.0
    np.testing.assert_allclose(doc["p"], [0.6, 0.8], rtol=1e-15)
    assert len(doc["L2"]) == 2 and len(doc["L2"][0]) == 2


def test_tangent_point_is_frozen():
    pt = TangentPoint([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        pt.x[0] = 3.0
