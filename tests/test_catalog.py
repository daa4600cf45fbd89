"""Catalog entries, their known facts and the reference oracles."""

import math

import numpy as np
import pytest

from conftest import sample_points
from finslerconn.catalog import (
    catalog,
    catalog_entry,
    christoffel_oracle,
    christoffel_symbols,
    frenkel_oracle,
    levi_civita_transport,
    oscillator_oracle,
)
from finslerconn.connection import coefficients_N, constraint_residuals, solve_G
from finslerconn.degeneracy import analyze
from finslerconn.errors import DomainError
from finslerconn.jet import TangentPoint, compute_jet


EXPECTED_NAMES = {
    "euclidean-2",
    "euclidean-3",
    "riemann-2d-curved",
    "riemann-3d-generic",
    "quartic-root",
    "potential-system",
    "second-class",
    "frenkel",
}


def test_catalog_contents():
    entries = {e.name: e for e in catalog()}
    assert EXPECTED_NAMES <= set(entries)
    assert entries["second-class"].expected_rank == 0
    assert entries["second-class"].expected_D == 2
    assert entries["frenkel"].expected_rank == 2
    assert entries["frenkel"].expected_D == 1
    assert entries["second-class"].classification == "singular-2nd-class"
    assert entries["frenkel"].classification == "singular-1st-class"
    with pytest.raises(KeyError, match="no catalog metric"):
        catalog_entry("does-not-exist")


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_known_rank_facts_against_pipeline(entry):
    xs, dxs = sample_points(entry, 10, seed=83)
    for x, dx in zip(xs, dxs):
        deg = analyze(compute_jet(entry.spec, x=x, dx=dx))
        assert deg.rank == entry.expected_rank
        assert deg.D == entry.expected_D


def test_euclidean_spray_is_zero():
    entry = catalog_entry("euclidean-3")
    jet = compute_jet(entry.spec, x=[1.0, -2.0, 0.5], dx=[0.3, 0.4, 1.0])
    conn = solve_G(jet, analyze(jet))
    assert np.all(conn.G == 0.0)


def test_frenkel_constraint_fact():
    entry = catalog_entry("frenkel")
    xs, dxs = sample_points(entry, 10, seed=89)
    for x, dx in zip(xs, dxs):
        jet = compute_jet(entry.spec, x=x, dx=dx, validate=False)
        C = constraint_residuals(jet, analyze(jet))
        np.testing.assert_allclose(C, [0.25 * x[3] ** 2 * dx[0]], rtol=1e-12)


# ---------------------------------------------------------------------------
# Christoffel oracle
# ---------------------------------------------------------------------------


def test_christoffel_oracle_flat():
    g = lambda x: np.eye(3)  # noqa: E731
    out = christoffel_oracle(g, np.zeros(3), np.array([1.0, 2.0, -1.0]))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_christoffel_oracle_sphere_hand_values():
    entry = catalog_entry("riemann-2d-curved")
    th = 1.1
    gamma = christoffel_symbols(entry.riemann_g, np.array([th, 0.7]))
    # textbook values for the round metric in polar angles
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(th) * math.cos(th), rel=1e-9)
    assert gamma[1, 0, 1] == pytest.approx(math.cos(th) / math.sin(th), rel=1e-9)
    assert gamma[1, 1, 0] == pytest.approx(math.cos(th) / math.sin(th), rel=1e-9)
    assert abs(gamma[0, 0, 0]) < 1e-10
    # oracle agrees with the analytic form carried by the entry
    np.testing.assert_allclose(
        gamma, entry.analytic_christoffel(np.array([th, 0.7])), atol=1e-9
    )


def test_christoffel_oracle_exact_next_to_the_equator():
    # a sphere point 4e-6 from the equator, where cos(theta) is tiny and a
    # finite-difference metric derivative loses seven digits of 2G
    entry = catalog_entry("riemann-2d-curved")
    x = np.array([1.5707923871878087, 0.2518299994801456])
    dx = np.array([0.6913474630617118, -0.5032867328003408])
    exact = np.einsum("mab,a,b->m", entry.analytic_christoffel(x), dx, dx)
    lc = christoffel_oracle(entry.riemann_g, x, dx)
    assert np.linalg.norm(lc - exact) <= 1e-12 * np.linalg.norm(exact)


def test_christoffel_oracle_rejects_indefinite_matrix():
    g = lambda x: np.array([[1.0, 0.0], [0.0, -1.0]])  # noqa: E731
    with pytest.raises(DomainError, match="positive definite"):
        christoffel_oracle(g, np.zeros(2), np.array([1.0, 0.0]))


def test_oracle_agrees_with_solver_on_curved_metric():
    entry = catalog_entry("riemann-2d-curved")
    xs, dxs = sample_points(entry, 20, seed=97)
    for x, dx in zip(xs, dxs):
        jet = compute_jet(entry.spec, x=x, dx=dx, validate=False)
        conn = solve_G(jet, analyze(jet))
        lc = christoffel_oracle(entry.riemann_g, x, dx)
        np.testing.assert_allclose(2 * conn.G, lc, rtol=1e-7, atol=1e-12)


# ---------------------------------------------------------------------------
# oscillator oracle
# ---------------------------------------------------------------------------


def test_oscillator_quarter_rotation():
    out = oscillator_oracle((1.0, 0.0), math.pi / 2)
    np.testing.assert_allclose(out["y"], [0.0, -1.0], atol=1e-15)


def test_oscillator_position_integral():
    out = oscillator_oracle((1.0, 0.0), 0.8, x0=(0.0, 2.0, 0.0))
    assert out["x"][1] == pytest.approx(2.0 + math.sin(0.8), abs=1e-15)


def test_oscillator_energy_constant():
    for t in (0.0, 0.3, 1.7, 5.0):
        out = oscillator_oracle((0.6, -0.8), t)
        assert out["energy"] == pytest.approx(0.5, abs=1e-14)


# ---------------------------------------------------------------------------
# pathological-model oracle
# ---------------------------------------------------------------------------


def test_frenkel_oracle_static():
    state = frenkel_oracle(2.0, lambda t: 0.0, lambda t: 0.0)
    np.testing.assert_array_equal(state, [2.0, 0.0, 0.0, 0.0])


def test_frenkel_oracle_linear_family():
    state = frenkel_oracle(1.5, lambda t: t, lambda t: -2 * t, x0_0=0.5)
    np.testing.assert_allclose(state, [2.0, 1.5, -3.0, 0.0])


# ---------------------------------------------------------------------------
# transport oracle and the m-th root identity
# ---------------------------------------------------------------------------


def test_levi_civita_transport_flat_is_constant():
    g = lambda x: np.eye(2)  # noqa: E731
    xs = np.array([[0.0, 0.0], [0.1, 0.1], [0.2, 0.2]])
    dxs = np.tile([1.0, 1.0], (3, 1))
    out = levi_civita_transport(g, xs, dxs, [0.3, -0.7], h=0.1)
    np.testing.assert_allclose(out, np.tile([0.3, -0.7], (3, 1)), atol=1e-15)


def test_quartic_root_preservation_identity():
    entry = catalog_entry("quartic-root")
    m = entry.mroot["m"]
    c_fns, dc_fns = entry.mroot["c"], entry.mroot["dc"]
    xs, dxs = sample_points(entry, 8, seed=101)
    for x, dx in zip(xs, dxs):
        res = coefficients_N(entry.spec, TangentPoint(x, dx))
        c = np.array([f(x) for f in c_fns])
        dc = np.array([f(x) for f in dc_fns])
        lhs = (1.0 / m) * np.einsum("ma,m->a", dc, dx**m)
        rhs = np.einsum("m,m,ma->a", c, dx ** (m - 1), res.N)
        scale = max(np.max(np.abs(lhs)), 1e-30)
        assert np.max(np.abs(lhs - rhs)) <= 1e-6 * scale


def test_sampler_is_deterministic():
    entry = catalog_entry("potential-system")
    a = sample_points(entry, 10, seed=7)
    b = sample_points(entry, 10, seed=7)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
