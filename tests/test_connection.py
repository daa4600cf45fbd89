"""Spray, connection coefficients, frame identities and curvature."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import RANK1_JETS, hand_jet, same_bits, sample_points, stack_jets
from finslerconn.catalog import (
    catalog,
    catalog_entry,
    christoffel_oracle,
    riemann_tensor,
)
from finslerconn import connection
from finslerconn.autoparallel import C_FD_SCALE
from finslerconn.connection import (
    FD_STEP,
    _frames,
    _richardson_N,
    _solve_G_batch,
    _stencil,
    coefficients_N,
    constraint_residuals,
    curvature_torsion,
    solve_G,
)
from finslerconn.degeneracy import DegeneracyBatch, DegeneracyData, _with_a_set, analyze, analyze_frozen
from finslerconn.dsl import metric_from_json, parse
from finslerconn.errors import DegeneracyError, DomainError
from finslerconn.jet import JetBatch, TangentPoint, compute_jet, compute_jets


def _conn_at(entry, x, dx, gauge_lambdaI=None):
    jet = compute_jet(entry.spec, x=x, dx=dx, validate=False)
    deg = analyze(jet)
    return jet, deg, solve_G(jet, deg, gauge_lambdaI=gauge_lambdaI)


# ---------------------------------------------------------------------------
# adapted frame
# ---------------------------------------------------------------------------


def test_frame_identities_euclidean():
    entry = catalog_entry("euclidean-2")
    jet = compute_jet(entry.spec, x=[0.0, 0.0], dx=[3.0, 4.0])
    conn = solve_G(jet, analyze(jet))
    np.testing.assert_allclose(conn.ell0, [0.6, 0.8], rtol=1e-15)
    assert jet.p @ conn.ell0 == pytest.approx(1.0, abs=1e-15)
    for row in conn.ella:
        assert jet.p @ row == pytest.approx(0.0, abs=1e-15)
    assert abs(conn.basis_det) > 1e-12


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_frame_identities_across_catalog(entry):
    xs, dxs = sample_points(entry, 25, seed=37)
    for jet in compute_jets(entry.spec, xs, dxs, validate=False):
        conn = solve_G(jet, analyze(jet))
        p = jet.p
        assert p @ conn.ell0 == pytest.approx(1.0, rel=1e-12)
        for row in conn.ellI:
            assert abs(p @ row) <= 1e-10 * np.linalg.norm(p) * np.linalg.norm(row)
        for row in conn.ella:
            assert abs(p @ row) <= 1e-12 * np.linalg.norm(p) * np.linalg.norm(row)
        assert conn.basis_det != 0.0


def test_frame_refuses_vanishing_metric_value():
    entry = catalog_entry("second-class")
    # on the constraint surface the metric value is identically zero
    x = np.array([0.0, 0.8, 0.3])
    dx = np.array([1.0, 0.3, -0.8])
    jet = compute_jet(entry.spec, x=x, dx=dx, validate=False)
    assert abs(jet.L) < 1e-15
    with pytest.raises(DegeneracyError, match="vanishes"):
        _frames(JetBatch.of(jet), DegeneracyBatch.of(analyze(jet)))


# ---------------------------------------------------------------------------
# spray
# ---------------------------------------------------------------------------


def test_flat_spray_vanishes():
    for name in ("euclidean-2", "euclidean-3"):
        entry = catalog_entry(name)
        xs, dxs = sample_points(entry, 10, seed=41)
        for x, dx in zip(xs, dxs):
            _, _, conn = _conn_at(entry, x, dx)
            assert np.all(conn.G == 0.0)
            assert np.all(conn.M == 0.0)


def test_potential_spray_matches_printed_form():
    entry = catalog_entry("potential-system")
    xs, dxs = sample_points(entry, 30, seed=43)
    for x, dx in zip(xs, dxs):
        _, _, conn = _conn_at(entry, x, dx)
        expected = entry.closed_form_2G(x, dx)
        np.testing.assert_allclose(2 * conn.G, expected, rtol=1e-10, atol=1e-13)


def test_second_class_spray_and_constraints():
    entry = catalog_entry("second-class")
    xs, dxs = sample_points(entry, 20, seed=47)
    for x, dx in zip(xs, dxs):
        jet, deg, conn = _conn_at(entry, x, dx)
        # dx-parallel part of the spray at zero gauge
        coeff = 2 * (x[1] * dx[1] + x[2] * dx[2]) * dx[0] / jet.L
        np.testing.assert_allclose(2 * conn.G, coeff * dx, rtol=1e-12, atol=1e-14)
        # printed constraints up to the eigenvector sign convention
        np.testing.assert_allclose(
            conn.C,
            [-(dx[2] + x[1] * dx[0]), dx[1] - x[2] * dx[0]],
            rtol=1e-13, atol=1e-15,
        )


def test_frenkel_constraint_and_multiplier_forms():
    entry = catalog_entry("frenkel")
    xs, dxs = sample_points(entry, 20, seed=53)
    for x, dx in zip(xs, dxs):
        jet, deg, conn = _conn_at(entry, x, dx)
        np.testing.assert_allclose(conn.C, [0.25 * x[3] ** 2 * dx[0]], rtol=1e-11)
        if deg.a_indices == (2, 3):
            # first regular multiplier follows x1*x3*dx0^3/(4*dx3); the second
            # vanishes because the moment component M_2 is identically zero
            lam2 = x[1] * x[3] * dx[0] ** 3 / (4 * dx[3])
            np.testing.assert_allclose(conn.lambda_a, [lam2, 0.0], rtol=1e-11, atol=1e-14)


def test_contracted_preservation_identity():
    for entry in catalog():
        xs, dxs = sample_points(entry, 20, seed=59)
        for x, dx in zip(xs, dxs):
            jet, _, conn = _conn_at(entry, x, dx)
            scale = max(abs(conn.omega), np.linalg.norm(jet.p) * np.linalg.norm(conn.G), 1e-30)
            assert abs(conn.omega_residual) <= 1e-8 * scale


def test_gauge_term_moves_spray_only_along_eigenvectors():
    entry = catalog_entry("second-class")
    xs, dxs = sample_points(entry, 10, seed=61)
    for x, dx in zip(xs, dxs):
        jet, deg, base = _conn_at(entry, x, dx)
        lam = np.array([0.7, -1.3])
        _, _, gauged = _conn_at(entry, x, dx, gauge_lambdaI=lam)
        delta = gauged.G - base.G
        expected = lam @ deg.v
        np.testing.assert_allclose(delta, expected, atol=1e-12)
        # complement projection of the change is negligible
        comp = delta - (np.linalg.lstsq(deg.v.T, delta, rcond=None)[0] @ deg.v)
        assert np.linalg.norm(comp) <= 1e-10 * max(np.linalg.norm(delta), 1e-30)


@pytest.mark.parametrize("lam", [[0.7], [0.7, -1.3, 0.2], [[0.7, -1.3]]])
def test_gauge_multipliers_must_have_one_entry_per_eigenvector(lam):
    entry = catalog_entry("second-class")
    xs, dxs = sample_points(entry, 1, seed=61)
    with pytest.raises(ValueError, match=r"gauge_lambdaI must have shape \(2,\)"):
        _conn_at(entry, xs[0], dxs[0], gauge_lambdaI=np.array(lam))


def test_spray_independent_of_regular_block_choice():
    # uniqueness: on regular metrics any invertible block yields the same G
    for name in ("potential-system", "riemann-3d-generic"):
        entry = catalog_entry(name)
        xs, dxs = sample_points(entry, 5, seed=67)
        for x, dx in zip(xs, dxs):
            jet = compute_jet(entry.spec, x=x, dx=dx, validate=False)
            deg = analyze(jet)
            g_ref = solve_G(jet, deg).G
            for candidate in deg.a_candidates[1:3]:
                try:
                    alt = _with_a_set(jet, deg, candidate)
                except DegeneracyError:
                    continue
                g_alt = solve_G(jet, alt).G
                np.testing.assert_allclose(
                    g_alt, g_ref, rtol=1e-9, atol=1e-12 * np.linalg.norm(g_ref)
                )


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------


def test_flat_coefficients_vanish():
    entry = catalog_entry("euclidean-2")
    res = coefficients_N(entry.spec, TangentPoint([0.2, -0.1], [3.0, 4.0]))
    assert np.all(res.N == 0.0)


@pytest.mark.parametrize("name", ["riemann-2d-curved", "riemann-3d-generic"])
def test_coefficients_recover_levi_civita(name):
    entry = catalog_entry(name)
    xs, dxs = sample_points(entry, 15, seed=71)
    for x, dx in zip(xs, dxs):
        res = coefficients_N(entry.spec, TangentPoint(x, dx))
        gamma = christoffel_oracle(entry.riemann_g, x, dx)
        # N contracted with dx doubles the spray = the Christoffel quadratic
        np.testing.assert_allclose(res.N @ dx, gamma, rtol=2e-8, atol=1e-10)
        scale = max(np.linalg.norm(2 * res.G), 1e-30)
        assert np.linalg.norm(res.N @ dx - 2 * res.G) <= 1e-8 * scale


def test_coefficients_scaling_degree_one():
    entry = catalog_entry("riemann-2d-curved")
    xs, dxs = sample_points(entry, 5, seed=73)
    for x, dx in zip(xs, dxs):
        n1 = coefficients_N(entry.spec, TangentPoint(x, dx)).N
        n2 = coefficients_N(entry.spec, TangentPoint(x, 2.0 * dx)).N
        np.testing.assert_allclose(n2, 2.0 * n1, rtol=1e-9, atol=1e-12)


def test_metric_preservation_identity():
    for name in ("riemann-2d-curved", "potential-system", "quartic-root"):
        entry = catalog_entry(name)
        xs, dxs = sample_points(entry, 10, seed=79)
        for x, dx in zip(xs, dxs):
            jet = compute_jet(entry.spec, x=x, dx=dx, validate=False)
            res = coefficients_N(entry.spec, TangentPoint(x, dx))
            scale = max(np.linalg.norm(jet.dL_dx), 1e-30)
            assert np.linalg.norm(jet.dL_dx - jet.p @ res.N) <= 1e-6 * scale


def test_coefficients_fail_cleanly_across_rank_transition():
    # a stencil spanning the singular set of the frozen block must raise
    entry = catalog_entry("frenkel")
    x = np.array([0.2, -0.4, 0.3, 0.5])
    dx = np.array([1.0, 0.3, 0.8, 5e-5])  # stencil step ~1.4e-4 crosses dx3 = 0
    with pytest.raises(DegeneracyError, match="rank transition"):
        coefficients_N(entry.spec, TangentPoint(x, dx))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_flat_curvature_vanishes():
    entry = catalog_entry("euclidean-2")
    cd = curvature_torsion(entry.spec, TangentPoint([0.1, 0.2], [0.6, 0.8]))
    assert np.all(cd.R == 0.0)
    assert np.all(cd.N2 == 0.0)


def test_sphere_curvature_matches_riemann_oracle():
    entry = catalog_entry("riemann-2d-curved")
    x = np.array([1.1, 0.4])
    dx = np.array([0.5, 0.6])
    cd = curvature_torsion(entry.spec, TangentPoint(x, dx))
    oracle = np.einsum("mnbc,n->mbc", riemann_tensor(entry.riemann_g, x), dx)
    np.testing.assert_allclose(cd.R, oracle, atol=2e-6)
    # positive sectional curvature shows as R^0_{101} dx-contraction sign
    assert cd.R[0, 0, 1] * oracle[0, 0, 1] > 0


def test_curvature_antisymmetry_is_exact():
    entry = catalog_entry("riemann-3d-generic")
    cd = curvature_torsion(
        entry.spec, TangentPoint([0.3, -0.2, 0.5], [0.9, 0.4, -0.5])
    )
    assert np.array_equal(cd.R, -cd.R.transpose(0, 2, 1))


def test_berwald_coefficients_symmetric():
    entry = catalog_entry("riemann-2d-curved")
    cd = curvature_torsion(entry.spec, TangentPoint([1.2, 0.1], [0.7, 0.4]))
    asym = np.max(np.abs(cd.N2 - cd.N2.transpose(0, 2, 1)))
    assert asym <= 1e-6 * max(np.max(np.abs(cd.N2)), 1e-30)


@pytest.mark.parametrize("name, dx, error, message, detail", [
    ("frenkel", (1.0, 0.3, 0.8, 5e-4), DegeneracyError,
     "finite differencing of G failed near a rank transition: "
     "N.dx = 2G defect 6.520e-01 at scale 4.821e+05",
     {"gap_ratio": 137839491849862.73, "sing_values": [
         1.6000012083573303, 5.566587930111566e-07, 4.0384565086577614e-21,
         2.8436649147105924e-23]}),
    ("potential-system", (1.95e-4, 0.6, 0.8, 0.5), DomainError,
     "guard violated: value -2.8606799760055345e-05", {"subexpression": "d0"}),
])
def test_curvature_refusals_keep_their_bytes(name, dx, error, message, detail):
    spec = catalog_entry(name).spec
    pt = TangentPoint([0.2, -0.4, 0.3, 0.5], dx)
    N = coefficients_N(spec, pt).N
    with pytest.raises(error) as raised:
        curvature_torsion(spec, pt, N=N)
    assert str(raised.value) == message
    assert raised.value.detail == detail


def test_curvature_group_raises_its_first_points_error():
    # point 0 of the dN/dx0 group fails at its stencil spray (L vanishes
    # on d1 = 0), points 1 and 3 break the guard: the group's jet pass
    # raises the guard, and the point-by-point redo finds point 0's error
    spec = parse("sqrt(d0^2 + d1^2) - d0", dimension=2, guard="x0 + 5e-5")
    x, dx = np.array([0.0, 0.0]), np.array([1.0, 5e-5])
    with pytest.raises(DegeneracyError) as first:
        coefficients_N(spec, TangentPoint(x + FD_STEP * np.eye(2)[0], dx))
    with pytest.raises(DegeneracyError) as raised:
        curvature_torsion(spec, TangentPoint(x, dx), N=np.zeros((2, 2)))
    assert "metric value vanishes" in str(raised.value)
    assert str(raised.value) == str(first.value)
    assert raised.value.detail == first.value.detail


def _groups():
    # the dN/dx0 and dN/d(dx1) groups of a sampled point of each entry
    for entry in catalog():
        xs, dxs = sample_points(entry, 1, seed=404)
        x, dx = xs[0], dxs[0]
        e = np.eye(entry.spec.dimension)
        hx = FD_STEP * (1.0 + abs(x[0]))
        hd = FD_STEP * float(np.linalg.norm(dx))
        yield entry.name + "/x0", entry.spec, _stencil(x, hx, e[0]), [dx] * 4
        yield entry.name + "/dx1", entry.spec, [x] * 4, _stencil(dx, hd, e[1])
    # dx0 = dx1 here, so the best regular block flips inside the group:
    # (0, 2), (1, 2), (0, 2), (1, 2); the group is redone point by point
    x, dx = np.array([0.3, -0.2, 0.5]), np.array([0.6, 0.6, 0.4])
    hd = FD_STEP * float(np.linalg.norm(dx))
    yield ("riemann-3d-generic/two-blocks", catalog_entry("riemann-3d-generic").spec,
           [x] * 4, _stencil(dx, hd, np.eye(3)[1]))


@pytest.mark.parametrize("spec, xs, dxs", [g[1:] for g in _groups()],
                         ids=[g[0] for g in _groups()])
def test_richardson_group_matches_a_loop_of_coefficients_N(spec, xs, dxs):
    group = _outcome(lambda: _richardson_N(spec, np.array(xs), np.array(dxs), 1e-9))
    loop = _outcome(lambda: [coefficients_N(spec, TangentPoint(x, dx)) for x, dx in zip(xs, dxs)])
    if isinstance(loop, str):
        assert group == loop
        return
    for batched, single in zip(group, loop, strict=True):
        for field in dataclasses.fields(single):
            a, b = getattr(batched, field.name), getattr(single, field.name)
            assert a == b if isinstance(b, (dict, bool)) else same_bits(a, b), field.name


@pytest.mark.parametrize("name", ["riemann-2d-curved", "potential-system"])
def test_curvature_takes_one_jet_pass_per_richardson_group(monkeypatch, name):
    import finslerconn.connection as conn_mod

    entry = catalog_entry(name)
    n1 = entry.spec.dimension
    xs, dxs = sample_points(entry, 1, seed=404)
    pt = TangentPoint(xs[0], dxs[0])
    N = coefficients_N(entry.spec, pt).N
    calls = {"compute_jets": 0, "analyze": 0}

    def count(fn_name):
        original = getattr(conn_mod, fn_name)

        def wrapper(*args, **kwargs):
            calls[fn_name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(conn_mod, fn_name, wrapper)

    count("compute_jets")
    count("analyze")
    curvature_torsion(entry.spec, pt, N=N)
    # one jet pass and one analyze per group
    assert calls == {"compute_jets": 2 * n1, "analyze": 2 * n1}


def _outcome(fn):
    try:
        return fn()
    except DegeneracyError as exc:
        return str(exc)


def _assert_same_degs(batched, singles):
    """Two outcomes of _outcome over lists of DegeneracyData: the same
    error, or every field of every point with the same bits."""
    if isinstance(singles, str):
        assert batched == singles
        return
    for b, single in zip(batched, singles, strict=True):
        for field in dataclasses.fields(single):
            assert same_bits(getattr(b, field.name), getattr(single, field.name)), field.name


def test_mixed_rank_batch_analyzes_like_its_points():
    # frenkel has rank 1 where d3 = 0 and rank 2 elsewhere: one batch
    # holds two branches, each split across the batch
    spec = catalog_entry("frenkel").spec
    dx = np.array([[1.0, 0.5, 0.4, 0.0], [1.0, 0.5, 0.4, 0.3],
                   [1.0, 0.5, 0.4, 1e-4], [1.0, 0.5, 0.4, 0.0]])
    jets = compute_jets(spec, np.tile([0.0, 0.1, -0.2, 0.0], (4, 1)), dx, validate=False)
    degs = analyze(jets)
    singles = [analyze(jet) for jet in jets]
    assert [d.rank for d in singles] == [1, 2, 2, 1]
    _assert_same_degs(degs, singles)


def test_degeneracy_batch_indexes_like_a_list_of_rows():
    # a slice of an analyze_frozen result is the list of its rows, each
    # built once; an index that is not an integer is refused
    entry = catalog_entry("second-class")
    xs, dxs = sample_points(entry, 4, seed=5)
    jets = compute_jets(entry.spec, xs, dxs, validate=False)
    base = analyze(jets[0])
    degs = analyze_frozen(jets, base)
    singles = [analyze_frozen(jet, base) for jet in jets]
    assert isinstance(degs, DegeneracyBatch)
    tail = degs[1:]
    assert [type(d) for d in tail] == [DegeneracyData] * 3
    _assert_same_degs(tail, singles[1:])
    _assert_same_degs(degs[::-2], singles[::-2])
    assert degs[-1] is degs[3] is tail[-1]
    with pytest.raises(TypeError):
        degs[1.0]
    with pytest.raises(IndexError):
        degs[4]


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_stacked_batches_match_single_points_bit_for_bit(entry):
    # the batch shapes of _c_gradients (1 + 4 n1 points) and of the
    # Richardson stencils (4 n1), against each point as a batch of one;
    # analyze of a batch against analyze of each point
    n1 = entry.spec.dimension
    eye = np.eye(n1)
    xs, dxs = sample_points(entry, 4, seed=47)
    compared = 0
    for x, dx in zip(xs, dxs):
        base = analyze(compute_jet(entry.spec, x=x, dx=dx, validate=False))
        hx = C_FD_SCALE * (1.0 + np.abs(x))
        hd = C_FD_SCALE * float(np.linalg.norm(dx))
        gradients = (
            [x] + [x + s * hx[i] * eye[i] for i in range(n1) for s in (1, -1)] + [x] * (2 * n1),
            [dx] * (1 + 2 * n1) + [dx + s * hd * eye[i] for i in range(n1) for s in (1, -1)],
        )
        h = FD_STEP * float(np.linalg.norm(dx))
        stencil = ([x] * (4 * n1), [p for e in eye for p in _stencil(dx, h, e)])
        for bx, bdx in (gradients, stencil):
            jets = compute_jets(entry.spec, np.array(bx), np.array(bdx), validate=False)
            _assert_same_degs(_outcome(lambda: analyze(jets)),
                              _outcome(lambda: [analyze(jet) for jet in jets]))
            degs = _outcome(lambda: analyze_frozen(jets, base))
            singles = _outcome(lambda: [analyze_frozen(jet, base) for jet in jets])
            G = _outcome(lambda: _solve_G_batch(jets, base))
            G_singles = _outcome(lambda: [solve_G(j, analyze_frozen(j, base)).G for j in jets])
            _assert_same_degs(degs, singles)
            if not isinstance(singles, str):
                C = constraint_residuals(jets, degs)
                for row, jet, single in zip(C, jets, singles, strict=True):
                    assert same_bits(row, constraint_residuals(jet, single))
                compared += 1
            if isinstance(G_singles, str):
                assert G == G_singles
            else:
                assert same_bits(G, np.array(G_singles))
    assert compared > 0


@pytest.mark.parametrize("names, message", [
    (("good", "vanishing", "frame"), "metric value vanishes"),
    (("good", "frame", "vanishing"), "adapted frame is numerically degenerate"),
    # a point's spray is checked before the next point's structure
    (("good", "vanishing", "no-null"), "metric value vanishes"),
    (("good", "no-null", "vanishing"), "coordinate axis 1 has no null-space component"),
    (("good", "good", "singular"), r"coordinate block \(0,\) became singular"),
])
def test_spray_batch_raises_what_the_point_loop_raises_first(names, message):
    base = analyze(RANK1_JETS["good"])
    jets = stack_jets([RANK1_JETS[name] for name in names])
    with pytest.raises(DegeneracyError, match=message) as per_point:
        for jet in jets:
            solve_G(jet, analyze_frozen(jet, base))
    with pytest.raises(DegeneracyError) as batch:
        _solve_G_batch(jets, base)
    assert str(batch.value) == str(per_point.value)
    assert batch.value.detail == per_point.value.detail


def test_spray_batch_error_stands_when_its_points_pass_alone(monkeypatch):
    # the replay meets no failing point, so the stacked pass's error is raised
    spray = connection._spray

    def stacked_only(jets, *args):
        if len(jets) > 1:
            raise DegeneracyError("stacked pass only")
        return spray(jets, *args)

    monkeypatch.setattr(connection, "_spray", stacked_only)
    with pytest.raises(DegeneracyError, match="stacked pass only"):
        _solve_G_batch(stack_jets([RANK1_JETS["good"]] * 2), analyze(RANK1_JETS["good"]))


def test_degenerate_frame_raises():
    # ell_a = e0 - (p0 / L) dx vanishes when dx = p = e0 and L = 1
    jet = hand_jet(np.diag([2.0, 0.0, 0.0]), np.eye(3)[0], np.eye(3)[0])
    with pytest.raises(DegeneracyError, match="adapted frame is numerically degenerate"):
        _frames(JetBatch.of(jet), DegeneracyBatch.of(analyze(jet)))


def test_coefficients_N_refuses_when_a_stencil_point_raises():
    # L = |dx| - d0 vanishes on d1 = 0, and the stencil point
    # dx - (h/2) e1 lands there exactly
    spec = metric_from_json(json.dumps({"dimension": 2, "expression": "sqrt(d0^2 + d1^2) - d0"}))
    with pytest.raises(
        DegeneracyError,
        match="finite differencing of G failed near a rank transition: metric value vanishes",
    ):
        coefficients_N(spec, TangentPoint([0.0, 0.0], [1.0, 5e-5]))
