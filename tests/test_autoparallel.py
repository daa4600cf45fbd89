"""Integration, multiplier resolution, transport and gauge behavior."""

import logging
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import same_bits
from finslerconn import autoparallel
from finslerconn.autoparallel import (
    GaugeChoice,
    Trajectory,
    el_residual,
    integrate,
    parallel_transport,
    resolve_multipliers,
)
from finslerconn.catalog import (
    catalog_entry,
    levi_civita_transport,
    oscillator_oracle,
)
from finslerconn.degeneracy import analyze
from finslerconn.dsl import evaluate, parse
from finslerconn.errors import DegeneracyError, DomainError, InvalidStateError
from finslerconn.jet import Jet2, JetBatch, TangentPoint, compute_jet


# ---------------------------------------------------------------------------
# Euler-Lagrange residual
# ---------------------------------------------------------------------------


def test_free_particle_straight_line_is_extremal():
    entry = catalog_entry("euclidean-3")
    res = el_residual(entry.spec, [0.0, 0.0, 0.0], [1.0, 2.0, -1.0], np.zeros(3))
    np.testing.assert_allclose(res, 0.0, atol=1e-15)


def test_potential_equation_of_motion_is_extremal():
    entry = catalog_entry("potential-system")
    m, k = entry.extras["m"], entry.extras["k"]
    x = np.array([0.0, 0.4, -0.2, 0.7])
    dx = np.array([1.0, 0.3, 0.1, -0.2])  # time gauge: unit 0-velocity
    accel = np.zeros(4)
    accel[1:] = -(k / m) * x[1:]  # the usual second-order law
    res = el_residual(entry.spec, x, dx, accel)
    assert np.linalg.norm(res) < 1e-10


def test_residual_blind_to_flow_direction_shift():
    entry = catalog_entry("potential-system")
    x = np.array([0.0, 0.4, -0.2, 0.7])
    dx = np.array([1.0, 0.3, 0.1, -0.2])
    accel = np.array([0.0, 0.3, -0.8, 0.1])
    base = el_residual(entry.spec, x, dx, accel)
    shifted = el_residual(entry.spec, x, dx, accel + 2.7 * dx)
    np.testing.assert_allclose(shifted, base, atol=1e-13)


# ---------------------------------------------------------------------------
# multiplier resolution
# ---------------------------------------------------------------------------


def test_regular_metric_has_nothing_to_resolve():
    entry = catalog_entry("riemann-2d-curved")
    res = resolve_multipliers(
        entry.spec, TangentPoint([1.2, 0.3], [0.8, 0.5]), gauge=GaugeChoice.time()
    )
    assert res.gauge_dim_free == 0
    assert res.lambdaI.shape == (0,)


def test_second_class_multipliers_unique_and_match_printed_solution():
    entry = catalog_entry("second-class")
    x = np.array([0.0, 0.8, 0.3])
    dx = np.array([1.0, x[2], -x[1]])  # on the constraint surface
    res = resolve_multipliers(entry.spec, TangentPoint(x, dx), gauge=GaugeChoice.time())
    assert res.gauge_dim_free == 0
    # printed resolved multipliers (opposite placement convention): the
    # published pair is (-dx0*dx2, +dx0*dx1); ours enter with opposite sign
    np.testing.assert_allclose(
        res.lambdaI, [dx[0] * dx[2], -dx[0] * dx[1]], atol=1e-9
    )
    # eta carries the whole flow-parallel part; here it vanishes
    assert abs(res.eta) < 1e-9


def test_frenkel_on_surface_multipliers_all_free():
    entry = catalog_entry("frenkel")
    x = np.array([0.0, 0.1, -0.2, 0.0])
    dx = np.array([1.0, 0.5, 0.4, 0.0])
    res = resolve_multipliers(entry.spec, TangentPoint(x, dx), gauge=GaugeChoice.time())
    assert res.deg.rank == 1
    assert res.deg.D == 2
    assert res.gauge_dim_free == 2
    np.testing.assert_allclose(res.lambdaI, 0.0)  # zero policy by default


@pytest.mark.parametrize("name, x, dx, gauge, error, message", [
    # L is exactly 0 on the second-class constraint surface
    ("second-class", [0.0, 0.5, 0.4], [1.0, 0.4, -0.5], GaugeChoice.custom(lambda x, dx: 0.0),
     DegeneracyError, "custom gauge needs a nonvanishing metric value"),
    # this Frenkel point analyzes, but its constraint-gradient stencil
    # straddles the rank transition: a gauge-row error comes first
    ("frenkel", [0.0, 0.1, -0.2, 0.0], [1.0, 0.5, 0.4, 1.19e-5], GaugeChoice("custom"),
     InvalidStateError, "custom gauge requires lambda0_fn"),
    ("frenkel", [0.0, 0.1, -0.2, 0.0], [1.0, 0.5, 0.4, 1.19e-5], GaugeChoice.time(),
     DegeneracyError, r"coordinate block \(2, 3\) became singular"),
    ("euclidean-2", [0.0, 0.0], [0.0, 1.0], GaugeChoice.time(),
     InvalidStateError, "time gauge requires a nonzero 0-th velocity component"),
    ("euclidean-2", [0.0, 0.0], [0.6, 0.8], GaugeChoice("bogus"),
     ValueError, "unknown gauge kind 'bogus'"),
])
def test_gauge_row_errors_and_their_order(name, x, dx, gauge, error, message):
    with pytest.raises(error, match=message):
        resolve_multipliers(catalog_entry(name).spec, TangentPoint(x, dx), gauge=gauge)


def test_stacked_consistency_rows_keep_the_per_row_bits():
    rng = np.random.default_rng(7)
    for _ in range(200):
        D = int(rng.integers(1, 3))
        n1 = int(rng.integers(D + 1, 5))
        scales = 10.0 ** rng.uniform(-6, 6, size=3)
        gx, gdx = rng.normal(size=(D, n1)) * scales[0], rng.normal(size=(D, n1)) * scales[1]
        dx, vs = rng.normal(size=n1), rng.normal(size=(D, n1))
        accel = rng.normal(size=n1) * scales[2]
        rows, rhs, row_scales = autoparallel._consistency_rows((gx, gdx), dx, vs, accel)
        velnorm, accnorm = float(np.linalg.norm(dx)), float(np.linalg.norm(accel))
        for J in range(D):  # the per-row reference
            assert same_bits(rows[J], np.array([float(gdx[J] @ dx), *(gdx[J] @ vs.T)]))
            assert same_bits(rhs[J], -float(gx[J] @ dx) - float(gdx[J] @ accel))
            assert same_bits(row_scales[J], np.linalg.norm(gx[J]) * velnorm
                             + np.linalg.norm(gdx[J]) * (velnorm + accnorm + D))


def _count_jet_work(monkeypatch):
    """Per (x, dx): the jets computed and the frozen and fresh analyses run
    on it through autoparallel's names, keyed by the point's bytes."""
    counts = {"jet": {}, "frozen": {}, "analyze": {}}

    def count(name, key, points):
        original = getattr(autoparallel, name)

        def wrapper(*args, **kwargs):
            for x, dx in points(*args, **kwargs):
                point = (np.asarray(x, float).tobytes(), np.asarray(dx, float).tobytes())
                counts[key][point] = counts[key].get(point, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(autoparallel, name, wrapper)

    count("compute_jet", "jet",
          lambda spec, pt=None, x=None, dx=None, **_: [(x, dx) if pt is None else (pt.x, pt.dx)])
    count("compute_jets", "jet", lambda spec, xs, dxs, **_: zip(xs, dxs))
    count("analyze_frozen", "frozen",
          lambda jets, base: zip(np.atleast_2d(jets.x), np.atleast_2d(jets.dx)))
    count("analyze", "analyze", lambda jet, **_: [(jet.x, jet.dx)])
    return counts


@pytest.mark.parametrize("name, x0, dx0", [
    ("second-class", [0.0, 0.8, 0.3], [1.0, 0.3, -0.8]),
    ("frenkel", [0.0, 0.1, -0.2, 0.0], [1.0, 0.5, 0.4, 0.0]),
])
def test_each_stage_does_its_jet_work_once(monkeypatch, name, x0, dx0):
    counts = _count_jet_work(monkeypatch)
    # a free multiplier that varies along the curve keeps every stage apart
    # from the others and from node 1 (on Frenkel's straight line, stages
    # 2 and 3 are one point, and with a constant one stage 4 is node 1)
    gauge = GaugeChoice.time(free_policy=lambda tau, x, dx, index: x[1])
    traj = integrate(catalog_entry(name).spec, x0, dx0, gauge, steps=1, h=0.01)
    assert traj.completed and traj.nodes[0].D > 0
    for x, dx in traj._stages[0][1:]:  # stages 2-4; stage 1 is the node
        point = (x.tobytes(), dx.tobytes())
        assert (counts["jet"][point], counts["frozen"][point]) == (1, 1)


def test_regular_step_does_one_jet_per_node_and_stage(monkeypatch):
    counts = _count_jet_work(monkeypatch)
    passes = _jet_passes(monkeypatch)
    entry = catalog_entry("riemann-2d-curved")
    x0, dx0 = np.array([1.2, 0.3]), np.array([0.6, 0.5])
    steps = 5
    traj = integrate(entry.spec, x0, dx0 / evaluate(entry.spec, x0, dx0),
                     GaugeChoice.arclength(), steps=steps, h=1e-2)
    assert traj.completed and traj.nodes[0].D == 0
    # initial node, then each step's three later stages and its new node
    assert sum(counts["jet"].values()) == 1 + 4 * steps
    assert sum(counts["frozen"].values()) == 4 * steps
    assert sum(counts["analyze"].values()) == 1
    # node 0 is its single validated jet and its analyze; every later node
    # is its own batch of one, which also resolves the next step's k1
    for k, node in enumerate(traj.nodes):
        at_node = [(kind, points) for kind, x, points in passes if np.array_equal(x, node.x)]
        assert at_node == ([("compute_jets", 1), ("analyze_frozen", 1)] if k
                           else [("compute_jet", 1)])


def _jet_passes(monkeypatch):
    """Each jet pass and frozen analysis through autoparallel's names, in
    call order, as (name, row 0's x, number of points)."""
    passes = []

    def record(name, rows):
        original = getattr(autoparallel, name)

        def wrapper(*args, **kwargs):
            xs = np.atleast_2d(rows(*args, **kwargs))
            passes.append((name, xs[0].copy(), len(xs)))
            return original(*args, **kwargs)

        monkeypatch.setattr(autoparallel, name, wrapper)

    record("compute_jet", lambda spec, pt=None, x=None, dx=None, **_: x if pt is None else pt.x)
    record("compute_jets", lambda spec, xs, dxs, **_: xs)
    record("analyze_frozen", lambda jets, base: jets.x)
    return passes


@pytest.mark.parametrize("name, x0, dx0", [
    ("second-class", [0.0, 0.8, 0.3], [1.0, 0.3, -0.8]),
    ("frenkel", [0.0, 0.1, -0.2, 0.0], [1.0, 0.5, 0.4, 1e-4]),
])
def test_constrained_node_is_row_0_of_the_next_steps_batch(monkeypatch, name, x0, dx0):
    passes = _jet_passes(monkeypatch)
    steps, n1 = 40, len(x0)
    traj = integrate(catalog_entry(name).spec, x0, dx0, GaugeChoice.time(), steps=steps, h=0.01)
    assert traj.completed and all(n.D > 0 for n in traj.nodes) and not traj.events
    jets = [(x, points) for kind, x, points in passes if kind != "analyze_frozen"]
    # node 0's validated jet, then one stencil batch for node 0's k1 and
    # for each step's three later stages and its new node, whose batch
    # is also the next step's k1
    assert [points for _, points in jets] == [1] + [1 + 4 * n1] * (4 * steps + 1)
    assert sum(kind == "analyze_frozen" for kind, _, _ in passes) == 4 * steps + 1
    for k, node in enumerate(traj.nodes[1:]):
        assert np.array_equal(jets[5 + 4 * k][0], node.x)
        assert sum(np.array_equal(x, node.x) for x, _ in jets) == 1


def test_node_whose_stencil_leaves_the_domain_takes_the_single_point_path(monkeypatch):
    # d0 is constant in the time gauge while |dx| shrinks toward 1e5 d0:
    # node 3 lies inside d0 > 0, but the dx-stencil row dx - 1e-5 |dx| e_0
    # of its constraint gradients does not, and nor does any earlier stage
    spec = catalog_entry("frenkel").spec
    x0, dx0 = [0.34, 0.39, -0.67, -0.95], [1.46612e-05, 0.93, 0.29, 0.89]
    passes = _jet_passes(monkeypatch)
    traj = integrate(spec, x0, dx0, GaugeChoice.time(), steps=40, h=0.01, constraint_tol=1e3)
    assert traj.halt_reason.startswith("DomainError: guard violated: value -1.66")
    assert len(traj.nodes) == 3 and len(traj._stages) == 3
    # node 3: its batch fails, its single-point jet and frozen analysis
    # succeed, and the next step's k1 batch fails before the single-point
    # jet that orders the errors
    tail = [(kind, points) for kind, _, points in passes[-6:]]
    assert tail == [("compute_jets", 17), ("compute_jet", 1), ("analyze_frozen", 1),
                    ("compute_jets", 17), ("compute_jet", 1), ("analyze_frozen", 1)]
    x3 = passes[-1][1]
    assert all(np.array_equal(x, x3) for _, x, _ in passes[-6:])
    assert not any(np.array_equal(node.x, x3) for node in traj.nodes)


def test_node_with_a_rank_change_analyzes_its_batch_row_0(monkeypatch):
    spec = catalog_entry("frenkel").spec
    passes = _jet_passes(monkeypatch)
    analyzed = []
    analyze_ = autoparallel.analyze
    monkeypatch.setattr(autoparallel, "analyze",
                        lambda jet, **kw: analyzed.append(jet.x) or analyze_(jet, **kw))
    traj = integrate(spec, [0.6, 0.78, 0.96, -0.26], [1.10967e-05, -0.78, -0.13, 0.61],
                     GaugeChoice.time(), steps=40, h=1e-3, constraint_tol=1e3)
    assert traj.completed and traj.events == [(31, "rank-transition 1 -> 2")]
    x31 = traj.nodes[31].x
    at_x31 = [(kind, points) for kind, x, points in passes if np.array_equal(x, x31)]
    # the batch on the old branch, whose row 0 the rank change analyzes,
    # then the next step's k1 batch on the new branch; no single-point pass
    assert at_x31 == [("compute_jets", 17), ("analyze_frozen", 17),
                      ("compute_jets", 17), ("analyze_frozen", 17)]
    assert sum(np.array_equal(x, x31) for x in analyzed) == 1


def test_dropped_node_batch_gives_the_held_batch_bits(monkeypatch):
    # a _reanchor that always returns a copy reads as a flipped sign, so
    # every node drops its batch and the next step's k1 builds it again
    spec = catalog_entry("second-class").spec
    x0, dx0 = [0.0, 0.8, 0.3], [1.0, 0.3, -0.8]

    def run():
        return integrate(spec, x0, dx0, GaugeChoice.time(), steps=10, h=0.01)

    held = run()
    reanchor = autoparallel._reanchor
    monkeypatch.setattr(autoparallel, "_reanchor",
                        lambda deg, prev: (replace(reanchor(deg, prev)[0]), []))
    passes = _jet_passes(monkeypatch)
    single = run()
    # node 0's validated jet and k1 batch; per step three later stages,
    # the dropped node batch and the next k1 batch
    assert sum(kind != "analyze_frozen" for kind, _, _ in passes) == 2 + 5 * 10
    for a, b in zip(held.nodes, single.nodes, strict=True):
        for f in fields(a):
            assert same_bits(getattr(a, f.name), getattr(b, f.name)), f.name


def test_projected_node_reads_its_batch_in_the_first_gauss_newton_iterate(monkeypatch):
    entry = catalog_entry("second-class")
    projected_from = []
    project = autoparallel._project_onto_constraints

    def recording(spec, x, dx, *args, **kwargs):
        projected_from.append(x)
        return project(spec, x, dx, *args, **kwargs)

    monkeypatch.setattr(autoparallel, "_project_onto_constraints", recording)
    passes = _jet_passes(monkeypatch)
    traj = integrate(entry.spec, [0.0, 0.8, 0.3], [1.0, 0.3, -0.8], GaugeChoice.time(),
                     steps=10, h=0.01, constraint_tol=3e-16, project=True)
    assert traj.completed and 0 < traj.projected_steps == len(projected_from) < 10
    for x in projected_from:
        # the node's batch, read by the rank check, the projection test and
        # the first iterate; the iterates after it run their own
        at_x = [(kind, points) for kind, row0, points in passes if np.array_equal(row0, x)]
        assert at_x == [("compute_jets", 13), ("analyze_frozen", 13)]


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_potential_oscillator_trajectory():
    entry = catalog_entry("potential-system")
    x0 = np.array([0.0, 0.5, -0.3, 0.2])
    dx0 = np.array([1.0, 0.1, 0.2, -0.1])
    traj = integrate(entry.spec, x0, dx0, GaugeChoice.time(), steps=200, h=5e-3)
    assert traj.completed
    t = traj.taus[-1]
    analytic = x0[1:] * np.cos(t) + dx0[1:] * np.sin(t)
    np.testing.assert_allclose(traj.xs[-1][1:], analytic, atol=1e-8)
    assert np.all(np.diff(traj.taus) > 0)
    # time gauge: the 0-th coordinate is the parameter
    np.testing.assert_allclose(traj.xs[:, 0], traj.taus, atol=1e-12)


def test_second_class_rotation_and_conservation():
    entry = catalog_entry("second-class")
    x0 = np.array([0.0, 0.8, 0.3])
    dx0 = np.array([1.0, x0[2], -x0[1]])
    traj = integrate(entry.spec, x0, dx0, GaugeChoice.time(), steps=300, h=1e-2)
    assert traj.completed
    oracle = oscillator_oracle((dx0[1], dx0[2]), traj.taus[-1], x0=x0)
    np.testing.assert_allclose(traj.xs[-1], oracle["x"], atol=1e-8)
    assert max(np.max(np.abs(n.C)) for n in traj.nodes) < 1e-8
    energy = [0.5 * float((n.dx[1:] / n.dx[0]) @ (n.dx[1:] / n.dx[0])) for n in traj.nodes]
    assert max(abs(e - energy[0]) for e in energy) < 1e-8


@pytest.mark.parametrize("c, s", [(1.0, 1.0), (1e-8, 1.0), (1.0, 1e-4), (1e3, 1e-4)])
def test_second_class_free_count_does_not_depend_on_units(c, s):
    # L -> c L in the chart x = s y: every x_i becomes s y_i, every d_i
    # becomes s e_i, and the curve maps node by node to the unscaled one
    text = re.sub(r"\b([xd])(\d)\b", rf"({s!r}*\1\2)", "x1*d2 - x2*d1 + (x1^2 + x2^2)*d0")
    spec = parse(f"{c!r}*({text})", dimension=3)
    x0, dx0 = np.array([0.0, 0.8, 0.3]), np.array([1.0, 0.3, -0.8])
    traj = integrate(spec, x0 / s, dx0 / s, GaugeChoice.time(), steps=40, h=0.01)
    assert traj.completed
    assert all(n.gauge_dim_free == 0 for n in traj.nodes)
    oracle = oscillator_oracle((dx0[1], dx0[2]), traj.taus[-1], x0=x0)
    assert np.max(np.abs(s * traj.xs[-1] - oracle["x"])) < 3e-10  # 2.85e-11 measured


def test_frenkel_family_reproduced_by_free_multipliers():
    entry = catalog_entry("frenkel")
    policy = lambda tau, x, dx, idx: 1.0 if idx == 1 else 0.0  # noqa: E731
    x0 = np.array([0.0, 0.0, 0.3, 0.0])
    dx0 = np.array([1.0, 1.0, -0.2, 0.0])
    traj = integrate(
        entry.spec, x0, dx0, GaugeChoice.time(free_policy=policy), steps=100, h=1e-2
    )
    assert traj.completed
    assert max(abs(n.x[3]) for n in traj.nodes) <= 1e-9
    T = traj.taus[-1]
    assert traj.xs[-1][1] == pytest.approx(T + 0.5 * T * T, abs=1e-12)
    assert traj.xs[-1][2] == pytest.approx(0.3 - 0.2 * T, abs=1e-12)


def test_arclength_gauge_resolves_zero_multiplier():
    entry = catalog_entry("riemann-2d-curved")
    x0 = np.array([1.2, 0.3])
    dx0 = np.array([0.6, 0.5])
    dx0 = dx0 / evaluate(entry.spec, x0, dx0)
    traj = integrate(entry.spec, x0, dx0, GaugeChoice.arclength(), steps=150, h=1e-2)
    assert traj.completed
    assert max(abs(n.lambda0) for n in traj.nodes) < 1e-9
    assert max(abs(n.L - 1.0) for n in traj.nodes) < 1e-9


def test_reparameterization_covariance():
    """Time-gauge and arc-length runs of the same ray trace the same image.

    The comparison window stays clear of the metric's null cone (the
    homogenized Lagrangian changes sign along a full oscillation, where the
    arc-length chart genuinely ends)."""
    entry = catalog_entry("potential-system")
    x0 = np.array([0.0, 0.5, -0.3, 0.2])
    ray = np.array([1.0, 1.2, 0.9, -0.8])
    L0 = evaluate(entry.spec, x0, ray)
    assert L0 > 0
    t_traj = integrate(entry.spec, x0, ray, GaugeChoice.time(), steps=200, h=2.5e-3)
    s_traj = integrate(
        entry.spec, x0, ray / L0, GaugeChoice.arclength(), steps=350, h=1e-3
    )
    assert t_traj.completed and s_traj.completed
    assert min(n.L for n in t_traj.nodes) > 0.05
    a, b = _resample_common_arc(t_traj.xs, s_traj.xs, 200)
    assert np.linalg.norm(a - b, axis=1).max() <= 1e-5


def _resample_common_arc(pts_a: np.ndarray, pts_b: np.ndarray, count: int):
    def arc(points):
        seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
        return np.concatenate([[0.0], np.cumsum(seg)])

    sa, sb = arc(pts_a), arc(pts_b)
    cap = min(sa[-1], sb[-1])
    targets = np.linspace(0.0, cap, count)

    def interp(points, s):
        out = np.empty((count, points.shape[1]))
        for j in range(points.shape[1]):
            out[:, j] = np.interp(targets, s, points[:, j])
        return out

    return interp(pts_a, sa), interp(pts_b, sb)


def test_rank_transition_is_logged_midrun():
    # start just off the constraint surface: the system decays onto it
    entry = catalog_entry("frenkel")
    x0 = np.array([0.0, 0.1, -0.2, 0.0])
    dx0 = np.array([1.0, 0.5, 0.4, 1e-4])
    traj = integrate(entry.spec, x0, dx0, GaugeChoice.time(), steps=40, h=1e-2)
    # either it held rank 2 throughout or a transition event was recorded;
    # both are valid, but events must match what the node data shows
    ranks = {n.rank for n in traj.nodes}
    if len(ranks) > 1:
        assert any("rank-transition" in e for _, e in traj.events)


def test_rank_transition_event_then_structured_halt(caplog):
    # the direction Hessian loses rank as x0 -> 0; a loose rank_tol makes
    # node 1 read rank 1, so integrate re-analyzes instead of staying frozen
    spec = parse("sqrt(d0^2 + d1^2 + x0^2*d2^2)", dimension=3)
    with caplog.at_level(logging.INFO, logger="finslerconn"):
        traj = integrate(spec, [0.1, 0.0, 0.0], [-1.0, 0.2, 0.3], GaugeChoice.time(),
                         steps=20, h=0.01, rank_tol=1e-2)
    assert traj.events[0] == (1, "rank-transition 2 -> 1")
    assert [(n.rank, n.D) for n in traj.nodes[:2]] == [(2, 0), (1, 1)]
    assert [r.getMessage() for r in caplog.records
            if r.levelno == logging.INFO] == ["step 1: rank-transition 2 -> 1"]
    assert len(traj.nodes) == 10
    assert traj.halt_reason.startswith("ConsistencyError: ")


def test_index_split_change_event_sits_at_first_node_on_new_split(monkeypatch):
    # a projection re-analyzes the node and can switch the split; the event
    # must name that node, not the one after it
    splits = []
    node_from = autoparallel._node_from

    def recording(res, tau, events):
        splits.append(res.deg.I_indices)
        return node_from(res, tau, events)

    monkeypatch.setattr(autoparallel, "_node_from", recording)
    entry = catalog_entry("second-class")
    traj = integrate(entry.spec, [0.0, 0.0, -1.1], [1.0, -1.1, 0.0], GaugeChoice.time(),
                     steps=60, h=0.01, project=True, constraint_tol=3e-16)
    changes = [k for k, e in traj.events if e.startswith("index-split-change")]
    assert changes == [k for k in range(1, len(splits)) if splits[k] != splits[k - 1]]
    assert changes


# ---------------------------------------------------------------------------
# precondition failures
# ---------------------------------------------------------------------------


def test_initial_node_failure_raises():
    # node 0's constraint gradients straddle the Frenkel rank transition
    entry = catalog_entry("frenkel")
    with pytest.raises(InvalidStateError, match="initial state cannot be resolved: "
                       r"coordinate block \(2, 3\) became singular"):
        integrate(entry.spec, [0.0, 0.1, -0.2, 0.0], [1.0, 0.5, 0.4, 1.19e-5],
                  GaugeChoice.time(), steps=5, h=0.01)


def test_inadmissible_initial_state_raises():
    entry = catalog_entry("potential-system")
    with pytest.raises(InvalidStateError, match="inadmissible"):
        integrate(
            entry.spec,
            np.zeros(4),
            np.array([-1.0, 0.1, 0.0, 0.0]),  # violates the d0 > 0 guard
            GaugeChoice.time(), steps=5, h=1e-3,
        )


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -1e-2])
def test_step_size_must_be_finite_and_positive(h):
    entry = catalog_entry("riemann-2d-curved")
    with pytest.raises(InvalidStateError, match="step size"):
        integrate(entry.spec, [1.2, 0.3], [0.6, 0.5], GaugeChoice.time(), steps=3, h=h)


@pytest.mark.parametrize("name, x0, dx0, steps, message", [
    ("riemann-2d-curved", [1.2, 0.3], [0.6, 0.5], 0, "steps must be at least 1"),
    ("euclidean-2", [0.0, 0.0], [0.0, 1.0], 3, r"time gauge requires dx0\[0\] != 0"),
    ("riemann-2d-curved", [1.2, np.nan], [1.0, 0.0], 2, "initial state must be finite"),
    ("riemann-2d-curved", [1.2, 0.3], [np.inf, 0.5], 2, "initial state must be finite"),
])
def test_invalid_initial_input_raises(name, x0, dx0, steps, message):
    with pytest.raises(InvalidStateError, match=message):
        integrate(catalog_entry(name).spec, x0, dx0, GaugeChoice.time(), steps=steps, h=1e-2)


def test_integrate_copies_its_inputs():
    entry = catalog_entry("riemann-2d-curved")
    x0 = np.array([1.2, 0.3])
    dx0 = np.array([0.6, 0.5])
    traj = integrate(entry.spec, x0, dx0, GaugeChoice.time(), steps=2, h=1e-2)
    x0[:] = 7.0
    dx0[:] = 7.0
    np.testing.assert_array_equal(traj.nodes[0].x, [1.2, 0.3])
    np.testing.assert_array_equal(traj.nodes[0].dx, [0.6, 0.5])


def test_initial_constraint_violation_raises():
    entry = catalog_entry("second-class")
    with pytest.raises(InvalidStateError, match="constraint"):
        integrate(
            entry.spec,
            np.array([0.0, 0.8, 0.3]),
            np.array([1.0, 0.5, 0.5]),  # not on the constraint surface
            GaugeChoice.time(), steps=5, h=1e-3,
        )


def test_arclength_requires_unit_metric_value():
    entry = catalog_entry("riemann-2d-curved")
    with pytest.raises(InvalidStateError, match="L = 1"):
        integrate(
            entry.spec,
            np.array([1.2, 0.3]),
            np.array([0.6, 0.5]),
            GaugeChoice.arclength(), steps=5, h=1e-3,
        )


def test_admissibility_exit_returns_partial_trajectory():
    # geodesic headed into the guard boundary of the polar chart
    entry = catalog_entry("riemann-2d-curved")
    x0 = np.array([0.6, 0.0])
    dx0 = np.array([-1.0, 0.02])
    dx0 = dx0 / abs(evaluate(entry.spec, x0, dx0))
    traj = integrate(entry.spec, x0, -dx0, GaugeChoice.arclength(), steps=2000, h=5e-3)
    assert traj.halt_reason is not None
    # the guard violation may surface at a node boundary or inside a stage
    assert "inadmissible" in traj.halt_reason or "guard" in traj.halt_reason
    assert 0 < len(traj.nodes) < 2001


def test_overflowing_step_halts_with_a_non_finite_state():
    # the first step takes x0 from 1.7e308 past the largest float
    spec = catalog_entry("euclidean-2").spec
    with np.errstate(over="ignore"):
        traj = integrate(spec, [1.7e308, 0.0], [1.0, 0.0], GaugeChoice.arclength(),
                         steps=3, h=1e307)
    assert traj.halt_reason == "non-finite state"
    assert len(traj.nodes) == 1


def test_inadmissible_node_is_a_structured_halt():
    # dx' = 4 dx: with h = 1 the RK4 stages sit at d0 = 1, 3, 7 and 29,
    # inside the guard d0 < 30, but the step's node lands at d0 = 34.33
    spec = parse("sqrt(d0^2 + d1^2)", dimension=2, guard="30 - d0")
    gauge = GaugeChoice.custom(lambda x, dx: 4.0 * float(np.linalg.norm(dx)))
    traj = integrate(spec, [0.0, 0.0], [1.0, 0.0], gauge, steps=3, h=1.0)
    assert [dx[0] for _, dx in traj._stages[0]] == [1.0, 3.0, 7.0, 29.0]
    assert traj.halt_reason.startswith("inadmissible: guard violated: value -4.33")
    assert len(traj.nodes) == 1


def test_reanchor_follows_the_signs_of_the_previous_node():
    entry = catalog_entry("second-class")
    deg = analyze(compute_jet(entry.spec, x=[0.0, 0.8, 0.3], dx=[1.0, 0.3, -0.8]))
    assert deg.D == 2
    flipped, events = autoparallel._reanchor(deg, -deg.v_raw)
    assert events == []
    assert np.array_equal(flipped.v, -deg.v)
    assert np.array_equal(flipped.v_raw, -deg.v_raw)
    kept, events = autoparallel._reanchor(deg, deg.v_raw)
    assert events == []
    assert np.array_equal(kept.v, deg.v)


def _failing_at(fn, xs, error):
    """``fn`` raising ``error`` when called on a single jet at one of ``xs``,
    or on a jet batch whose row 0 (the point a node or stage resolves) is."""
    def wrapper(jet, *args, **kwargs):
        at = jet.x if isinstance(jet, Jet2) else jet.x[0] if isinstance(jet, JetBatch) else None
        if at is not None and any(np.array_equal(at, x) for x in xs):
            raise error
        return fn(jet, *args, **kwargs)
    return wrapper


def test_node_reanalysis_failure_is_a_structured_halt(monkeypatch):
    # node 3's frozen analysis fails, and so does the fresh analyze that
    # replaces it: the run halts with nodes 0-2 instead of raising
    entry = catalog_entry("second-class")
    x0, dx0 = np.array([0.0, 0.8, 0.3]), np.array([1.0, 0.3, -0.8])

    def run():
        return integrate(entry.spec, x0, dx0, GaugeChoice.time(), steps=6, h=0.01)

    x3 = run().nodes[3].x
    error = DegeneracyError("injected failure")
    for name in ("analyze_frozen", "analyze"):
        monkeypatch.setattr(autoparallel, name, _failing_at(getattr(autoparallel, name), [x3], error))
    traj = run()
    assert traj.halt_reason == "DegeneracyError: injected failure"
    assert len(traj.nodes) == 3


def test_frozen_analysis_linalg_failure_is_a_structured_halt(monkeypatch):
    # node 3's frozen analysis meets a LinAlgError, which the fresh
    # analyze does not replace: the run halts with nodes 0-2
    entry = catalog_entry("second-class")
    x0, dx0 = np.array([0.0, 0.8, 0.3]), np.array([1.0, 0.3, -0.8])

    def run():
        return integrate(entry.spec, x0, dx0, GaugeChoice.time(), steps=6, h=0.01)

    x3 = run().nodes[3].x
    monkeypatch.setattr(autoparallel, "analyze_frozen", _failing_at(
        autoparallel.analyze_frozen, [x3], np.linalg.LinAlgError("SVD did not converge")))
    traj = run()
    assert traj.halt_reason == "LinAlgError: SVD did not converge"
    assert len(traj.nodes) == 3


def test_projection_linalg_failure_is_a_structured_halt(monkeypatch):
    # the analyze of the first projected point meets a LinAlgError: the
    # run halts before that node instead of raising
    entry = catalog_entry("second-class")
    x0 = np.array([0.0, 0.8, 0.3])
    dx0 = np.array([1.0, x0[2], -x0[1]])

    def run():
        return integrate(entry.spec, x0, dx0, GaugeChoice.time(), steps=12, h=0.5,
                         constraint_tol=1e-14, project=True)

    clean = run()
    first = min(k for k, e in clean.events if e == "projected")
    projected_xs = [n.x for n in clean.nodes[first:]]
    monkeypatch.setattr(autoparallel, "analyze", _failing_at(
        autoparallel.analyze, projected_xs, np.linalg.LinAlgError("SVD did not converge")))
    traj = run()
    assert traj.halt_reason == "LinAlgError: SVD did not converge"
    assert len(traj.nodes) == first
    assert traj.projected_steps == 0


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------


def test_flat_transport_is_constant():
    entry = catalog_entry("euclidean-2")
    traj = integrate(
        entry.spec, np.zeros(2), np.array([0.6, 0.8]),
        GaugeChoice.arclength(), steps=20, h=0.05,
    )
    res = parallel_transport(entry.spec, traj, np.array([0.3, 0.1]))
    assert np.array_equal(res.Z, np.tile(res.Z[0], (len(traj.nodes), 1)))
    assert res.drift == 0.0


def test_transport_matches_levi_civita_oracle():
    entry = catalog_entry("riemann-2d-curved")
    x0 = np.array([1.2, 0.3])
    dx0 = np.array([0.6, 0.5])
    dx0 = dx0 / evaluate(entry.spec, x0, dx0)
    traj = integrate(entry.spec, x0, dx0, GaugeChoice.arclength(), steps=100, h=1e-2)
    Z0 = np.array([0.2, -0.4])
    res = parallel_transport(entry.spec, traj, Z0)
    oracle = levi_civita_transport(entry.riemann_g, traj.xs, traj.dxs, Z0, traj.h)
    assert np.max(np.abs(res.Z - oracle)) < 1e-7
    # norm conservation over the unit parameter interval
    assert res.drift < 1e-6


def test_transport_does_no_curve_work(monkeypatch):
    entry = catalog_entry("riemann-2d-curved")
    x0 = np.array([1.2, 0.3])
    dx0 = np.array([0.6, 0.5])
    dx0 = dx0 / evaluate(entry.spec, x0, dx0)
    traj = integrate(entry.spec, x0, dx0, GaugeChoice.arclength(), steps=100, h=1e-2)
    Z0 = np.array([0.2, -0.4])
    expected = parallel_transport(entry.spec, traj, Z0)

    def no_curve_work(*args, **kwargs):
        raise AssertionError("parallel_transport resolved the curve's multipliers")

    monkeypatch.setattr(autoparallel, "_resolve", no_curve_work)
    res = parallel_transport(entry.spec, traj, Z0)
    assert np.array_equal(res.Z, expected.Z)
    assert res.halt_reason is None


def test_transport_needs_the_stage_record():
    entry = catalog_entry("euclidean-2")
    traj = integrate(
        entry.spec, np.zeros(2), np.array([0.6, 0.8]),
        GaugeChoice.arclength(), steps=5, h=0.05,
    )
    by_hand = Trajectory(
        gauge=traj.gauge, h=traj.h, steps_requested=5, nodes=traj.nodes,
    )
    with pytest.raises(InvalidStateError, match="RK4 stages"):
        parallel_transport(entry.spec, by_hand, np.array([0.3, 0.1]))


def test_transport_needs_a_node():
    entry = catalog_entry("euclidean-2")
    empty = Trajectory(gauge=GaugeChoice.time(), h=0.05, steps_requested=5, nodes=[])
    with pytest.raises(InvalidStateError, match="trajectory has no node"):
        parallel_transport(entry.spec, empty, np.array([0.3, 0.1]))


def test_transport_of_a_halted_curve_stops_at_its_last_node():
    # the guard-exit curve of test_admissibility_exit_returns_partial_trajectory
    entry = catalog_entry("riemann-2d-curved")
    x0 = np.array([0.6, 0.0])
    dx0 = np.array([-1.0, 0.02])
    dx0 = dx0 / abs(evaluate(entry.spec, x0, dx0))
    traj = integrate(entry.spec, x0, -dx0, GaugeChoice.arclength(), steps=2000, h=5e-3)
    assert traj.halt_reason is not None
    Z0 = np.array([0.2, -0.4])
    res = parallel_transport(entry.spec, traj, Z0)
    assert res.halt_reason is None
    assert len(res.Z) == len(res.L_values) == len(traj.nodes)
    # whatever the halted step left in the record is never read
    del traj._stages[len(traj.nodes) - 1:]
    traj._stages.append(np.full((2, 2, 2), np.nan))
    again = parallel_transport(entry.spec, traj, Z0)
    assert np.array_equal(again.Z, res.Z) and again.halt_reason is None


def test_transport_norm_drift_converges_at_fourth_order():
    entry = catalog_entry("riemann-2d-curved")
    x0 = np.array([1.2, 0.3])
    dx0 = np.array([0.6, 0.5])
    dx0 = dx0 / evaluate(entry.spec, x0, dx0)
    Z0 = np.array([0.2, -0.4])
    drifts = []
    for h in (0.08, 0.04, 0.02):
        traj = integrate(
            entry.spec, x0, dx0, GaugeChoice.arclength(),
            steps=int(round(0.8 / h)), h=h,
        )
        drifts.append(parallel_transport(entry.spec, traj, Z0).drift)
    orders = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8


def test_transport_rejects_vector_outside_admissible_cone():
    entry = catalog_entry("potential-system")
    x0 = np.array([0.0, 0.2, -0.1, 0.1])
    dx0 = np.array([1.0, 0.5, 0.3, -0.2])
    traj = integrate(entry.spec, x0, dx0, GaugeChoice.time(), steps=10, h=1e-2)
    with pytest.raises(Exception, match="admissible cone"):
        parallel_transport(entry.spec, traj, np.array([-1.0, 0.1, 0.0, 0.0]))


def test_transport_follows_projected_curve_nodes(monkeypatch):
    entry = catalog_entry("second-class")
    x0 = np.array([0.0, 0.8, 0.3])
    dx0 = np.array([1.0, 0.3, -0.8])
    traj = integrate(
        entry.spec, x0, dx0, GaugeChoice.time(), steps=20, h=0.1,
        project=True, constraint_tol=1e-14,
    )
    assert traj.completed and traj.projected_steps > 0
    points = []
    rhs = autoparallel._transport_rhs

    def recording_rhs(spec, x, *args):
        points.append(x)
        return rhs(spec, x, *args)

    monkeypatch.setattr(autoparallel, "_transport_rhs", recording_rhs)
    res = parallel_transport(entry.spec, traj, np.array([1.0, 0.0, 0.0]))
    assert res.halt_reason is None
    assert len(res.Z) == len(traj.nodes)
    # four RK4 stages per step; the first one sits on the step's start node
    assert np.array_equal(np.array(points[0::4]), traj.xs[:-1])


def test_transport_failure_is_a_structured_halt():
    entry = catalog_entry("quartic-root")
    x0 = np.array([-1.243, -0.790])
    dx0 = np.array([0.357, 0.961])
    dx0 = dx0 / evaluate(entry.spec, x0, dx0)
    traj = integrate(entry.spec, x0, dx0, GaugeChoice.arclength(), steps=40, h=0.01)
    assert traj.completed
    c, s = np.cos(0.25), np.sin(0.25)
    Z0 = np.array([c * dx0[0] - s * dx0[1], s * dx0[0] + c * dx0[1]])
    res = parallel_transport(entry.spec, traj, Z0)
    assert res.halt_reason is not None and "DegeneracyError" in res.halt_reason
    assert 1 <= len(res.Z) < len(traj.nodes)
    assert len(res.L_values) == len(res.Z)
    np.testing.assert_array_equal(res.Z[0], Z0)


@pytest.mark.parametrize("rate, reason", [
    (np.inf, "non-finite state"),
    (-1e3, "transported vector leaves the admissible cone: guard violated"),
])
def test_transport_node_checks_are_structured_halts(monkeypatch, rate, reason):
    # the second step's stage rates are all `rate`: Z leaves the finite
    # numbers, or its d0 falls below the d0 > 0 guard, at node 2
    entry = catalog_entry("potential-system")
    x0 = np.array([0.0, 0.2, -0.1, 0.1])
    dx0 = np.array([1.0, 0.5, 0.3, -0.2])
    traj = integrate(entry.spec, x0, dx0, GaugeChoice.time(), steps=4, h=1e-2)
    rhs = autoparallel._transport_rhs
    calls = []

    def second_step_off(spec, x, Z, *args):
        calls.append(x)
        return rhs(spec, x, Z, *args) if len(calls) <= 4 else np.full(len(Z), rate)

    monkeypatch.setattr(autoparallel, "_transport_rhs", second_step_off)
    res = parallel_transport(entry.spec, traj, np.array([1.0, 0.0, 0.0, 0.0]))
    assert res.halt_reason.startswith(reason)
    assert len(res.Z) == len(res.L_values) == 2


def test_transport_rhs_checks_its_point_before_its_stencil(monkeypatch):
    # (x, Z) lies inside d0 > 0, but the stencil direction Z + s v with
    # s = 6.9e-5 does not: (x, Z) is analyzed alone, then the stencil's
    # guard violation is raised
    spec = catalog_entry("potential-system").spec
    x = np.array([0.0, 0.5, -0.3, 0.2])
    Z = np.array([1e-9, 0.5, 0.4, 0.3])
    analyzed = []

    def recording(jet, **kwargs):
        analyzed.append(jet.dx)
        return analyze(jet, **kwargs)

    monkeypatch.setattr(autoparallel, "analyze", recording)
    with pytest.raises(DomainError, match="guard violated"):
        autoparallel._transport_rhs(spec, x, Z, np.array([-1.0, 0.1, 0.2, -0.1]), 1e-9)
    assert len(analyzed) == 1 and np.array_equal(analyzed[0], Z)


def test_custom_gauge_with_zero_multiplier_matches_arclength():
    entry = catalog_entry("riemann-2d-curved")
    x0 = np.array([1.2, 0.3])
    dx0 = np.array([0.6, 0.5])
    dx0 = dx0 / evaluate(entry.spec, x0, dx0)
    arc = integrate(entry.spec, x0, dx0, GaugeChoice.arclength(), steps=40, h=1e-2)
    custom = integrate(
        entry.spec, x0, dx0,
        GaugeChoice.custom(lambda x, dx: 0.0), steps=40, h=1e-2,
    )
    np.testing.assert_allclose(custom.xs, arc.xs, atol=1e-10)


def test_projection_is_optional_and_logged():
    entry = catalog_entry("second-class")
    x0 = np.array([0.0, 0.8, 0.3])
    dx0 = np.array([1.0, x0[2], -x0[1]])
    # a deliberately coarse step forces measurable drift
    raw = integrate(entry.spec, x0, dx0, GaugeChoice.time(), steps=12, h=0.5,
                    constraint_tol=1e-14)
    projected = integrate(entry.spec, x0, dx0, GaugeChoice.time(), steps=12, h=0.5,
                          constraint_tol=1e-14, project=True)
    raw_c = max(np.max(np.abs(n.C)) for n in raw.nodes)
    proj_c = max(np.max(np.abs(n.C)) for n in projected.nodes)
    assert projected.projected_steps > 0
    assert any(e == "projected" for _, e in projected.events)
    assert proj_c < raw_c
