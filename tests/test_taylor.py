"""Second-order AD scalar: exact rules, FD cross-checks, symmetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_dx_gradient, fd_dx_hessian, sample_points
from finslerconn.catalog import catalog
from finslerconn.dsl import parse
from finslerconn.errors import DomainError
from finslerconn.jet import compute_jet, compute_jets
from finslerconn.taylor import Taylor2


def test_seeded_scalar():
    t = Taylor2.seeded([2.0], [[1.0, 0.0]])
    assert t.val[0] == 2.0
    assert np.array_equal(t.grad, [[1.0, 0.0]])
    assert np.all(t.hess == 0.0)


def test_seeded_with_zero_rows_is_constant():
    t = Taylor2.seeded([5.0], np.zeros((1, 3)))
    assert np.array_equal(t.grad, [[0.0, 0.0, 0.0]])


def test_seeded_validates_batch_size():
    with pytest.raises(ValueError, match="batch size"):
        Taylor2.seeded([1.0], np.zeros((2, 2)))


def test_product_cross_second_derivative():
    a = Taylor2.seeded([3.0], [[1.0, 0.0]])
    b = Taylor2.seeded([7.0], [[0.0, 1.0]])
    p = a * b
    assert p.val[0] == 21.0
    assert p.hess[0, 0, 1] == 1.0
    assert p.hess[0, 1, 0] == 1.0
    assert p.hess[0, 0, 0] == 0.0


def test_sqrt_at_four():
    t = Taylor2.seeded([4.0], [[1.0]]).sqrt()
    assert t.val[0] == 2.0
    assert t.grad[0, 0] == 0.25
    assert t.hess[0, 0, 0] == -1.0 / 32.0


def test_sin_at_zero():
    t = Taylor2.seeded([0.0], [[1.0]]).sin()
    assert t.val[0] == 0.0
    assert t.grad[0, 0] == 1.0
    assert t.hess[0, 0, 0] == 0.0


def test_abs_and_domain_errors():
    assert Taylor2.seeded([-3.0], [[1.0]]).abs().grad[0, 0] == -1.0
    with pytest.raises(DomainError):
        Taylor2.seeded([0.0], [[1.0]]).abs()
    with pytest.raises(DomainError):
        Taylor2.seeded([-1.0], [[1.0]]).sqrt()
    with pytest.raises(DomainError):
        Taylor2.seeded([0.0], [[1.0]]).log()
    with pytest.raises(DomainError):
        Taylor2.seeded([2.0], [[1.0, 0.0]]) / Taylor2.seeded([0.0], [[0.0, 1.0]])


def _scalar_fn_and_taylor(a, b):
    """A fixed compound expression exercising every operation."""
    def f(u, v):
        if isinstance(u, Taylor2):
            s = (u * u + v * v + 2.0).sqrt()
            return s * v - u / (v * v + 1.5) + (u * 0.3 + 2.0).log() + u.sin() * v.cos()
        s = np.sqrt(u * u + v * v + 2.0)
        return s * v - u / (v * v + 1.5) + np.log(u * 0.3 + 2.0) + np.sin(u) * np.cos(v)

    u = Taylor2.seeded(np.array([a]), np.array([[1.0, 0.0]]))
    v = Taylor2.seeded(np.array([b]), np.array([[0.0, 1.0]]))
    return f, f(u, v)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_chain_rule_matches_finite_differences(a, b):
    f, t = _scalar_fn_and_taylor(a, b)
    h = 1e-5

    def grad_fd(i):
        da = h if i == 0 else 0.0
        db = h if i == 1 else 0.0
        d1 = (f(a + da, b + db) - f(a - da, b - db)) / (2 * h)
        d2 = (f(a + da / 2, b + db / 2) - f(a - da / 2, b - db / 2)) / h
        return (4 * d2 - d1) / 3

    for i in range(2):
        assert t.grad[0, i] == pytest.approx(grad_fd(i), rel=1e-7, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.5, max_value=1.5),
)
def test_hessian_is_exactly_symmetric(a, b):
    _, t = _scalar_fn_and_taylor(a, b)
    assert np.array_equal(t.hess, t.hess.transpose(0, 2, 1))


def test_pow_rational_and_integer():
    from fractions import Fraction

    t = Taylor2.seeded([16.0], [[1.0]]) ** Fraction(1, 4)
    assert t.val[0] == 2.0
    assert t.grad[0, 0] == pytest.approx(0.25 * 16.0 ** (-0.75))
    ti = Taylor2.seeded([3.0], [[1.0]]) ** (-2)
    assert ti.val[0] == pytest.approx(1.0 / 9.0)
    with pytest.raises(DomainError):
        Taylor2.seeded([-2.0], [[1.0]]) ** Fraction(1, 2)
    with pytest.raises(DomainError, match="zero raised to a negative power"):
        Taylor2.seeded([0.0], [[1.0]]) ** -2
    with pytest.raises(TypeError):
        Taylor2.seeded([2.0], [[1.0]]) ** 0.5


def test_reflected_subtraction_and_division_by_hand():
    t = Taylor2.seeded([2.0], [[1.0, 0.0]])
    d = 5.0 - t
    assert d.val[0] == 3.0
    assert np.array_equal(d.grad, [[-1.0, 0.0]])
    assert np.all(d.hess == 0.0)
    # 6/u at u = 2: value 6/u, first derivative -6/u^2, second 12/u^3
    q = 6.0 / Taylor2.seeded([2.0], [[1.0]])
    assert (q.val[0], q.grad[0, 0], q.hess[0, 0, 0]) == (3.0, -1.5, 1.5)
    with pytest.raises(DomainError, match="division by zero"):
        1.0 / Taylor2.seeded([0.0], [[1.0]])


def test_integer_powers_zero_and_one():
    t = Taylor2.seeded([0.0, 3.0], [[1.0, 2.0], [0.5, 0.0]])
    one = t**0
    assert np.array_equal(one.val, [1.0, 1.0])
    assert np.array_equal(one.grad, np.zeros((2, 2)))
    assert np.array_equal(one.hess, np.zeros((2, 2, 2)))
    assert t**1 is t
    # a Fraction with denominator 1 is an integer power
    from fractions import Fraction

    assert t ** Fraction(1) is t


def test_operands_that_do_not_coerce():
    t = Taylor2.seeded([1.0], [[1.0]])
    with pytest.raises(ValueError, match="mismatched seed counts"):
        t + Taylor2.seeded([1.0], [[1.0, 0.0]])
    for op in (lambda: t + "a", lambda: t - "a", lambda: t * None, lambda: "a" - t,
               lambda: "a" / t, lambda: t / [1.0]):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("values", [2.0, [[1.0, 2.0]]])
def test_values_must_be_a_1d_batch(values):
    with pytest.raises(ValueError, match="Taylor2 values must be 1-d batches"):
        Taylor2.constant(values, 2)


def test_negation_and_exp_by_hand():
    n = -Taylor2.seeded([2.0], [[1.0, 0.0]])
    assert (n.val[0], n.grad.tolist(), n.hess.tolist()) == (-2.0, [[-1.0, 0.0]],
                                                            [[[0.0, 0.0], [0.0, 0.0]]])
    # exp(2u) at u = 0: value 1, first derivative 2, second 4
    e = Taylor2.seeded([0.0], [[2.0]]).exp()
    assert (e.val[0], e.grad[0, 0], e.hess[0, 0, 0]) == (1.0, 2.0, 4.0)


def test_unary_minus_and_exp_through_the_dsl():
    # L = exp(x0) |dx| + (-x0) d1 at x = (0, 0), dx = (3, 4), u = dx/5:
    # p = u, dL/dx = (|dx| - d1, 0), L2 = (I - u u^T)/5, and the mixed
    # block d^2 L / (d d_i d x_j) has the single column u - e_1 at j = 0
    spec = parse("exp(x0)*sqrt(d0^2 + d1^2) + -x0*d1", dimension=2)
    jet = compute_jet(spec, x=[0.0, 0.0], dx=[3.0, 4.0])
    u = np.array([0.6, 0.8])
    assert jet.L == 5.0
    np.testing.assert_allclose(jet.p, u, rtol=1e-15)
    np.testing.assert_allclose(jet.dL_dx, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(jet.L2, (np.eye(2) - np.outer(u, u)) / 5.0, atol=1e-16)
    np.testing.assert_allclose(jet.mixed, [[0.6, 0.0], [-0.2, 0.0]], atol=1e-15)


def test_batch_matches_single_point_evaluation():
    vals = np.array([1.0, 2.0, 3.5])
    seeds = np.tile(np.array([[1.0, 0.0]]), (3, 1))
    u = Taylor2.seeded(vals, seeds)
    out = (u * u + 1.0).sqrt()
    for i, v in enumerate(vals):
        single_u = Taylor2.seeded([v], [[1.0, 0.0]])
        single = (single_u * single_u + 1.0).sqrt()
        assert out.val[i] == single.val[0]
        assert np.array_equal(out.grad[i], single.grad[0])
        assert np.array_equal(out.hess[i], single.hess[0])


def test_euclidean_gradient_and_hessian_at_3_4():
    spec = next(e for e in catalog() if e.name == "euclidean-2").spec
    jet = compute_jet(spec, x=[0.0, 0.0], dx=[3.0, 4.0], validate=False)
    assert np.allclose(jet.p, [0.6, 0.8], atol=1e-15)
    # rows of the direction Hessian annihilate the direction itself
    assert np.allclose(jet.L2 @ np.array([3.0, 4.0]), 0.0, atol=1e-15)
    # cross-check against Richardson finite differences
    xs = np.zeros((1, 2))
    dxs = np.array([[3.0, 4.0]])
    assert np.allclose(jet.p, fd_dx_gradient(spec, xs, dxs)[0], rtol=1e-8)
    assert np.allclose(jet.L2, fd_dx_hessian(spec, xs, dxs)[0], rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_derivatives_match_finite_differences_across_catalog(name):
    entry = next(e for e in catalog() if e.name == name)
    xs, dxs = sample_points(entry, 200, seed=101, for_connection=False)
    jets = compute_jets(entry.spec, xs, dxs, validate=False)
    grads, hesses = jets.p, jets.L2
    fd_g = fd_dx_gradient(entry.spec, xs, dxs)
    fd_h = fd_dx_hessian(entry.spec, xs, dxs)
    g_scale = np.maximum(np.abs(fd_g).max(axis=1), 1e-12)
    # a vanishing Hessian (degenerate metrics) leaves only FD noise, so the
    # comparison scale falls back to the gradient scale per unit direction
    dx_norm = np.linalg.norm(dxs, axis=1)
    h_scale = np.maximum(np.abs(fd_h).reshape(len(xs), -1).max(axis=1), g_scale / dx_norm)
    assert np.all(np.abs(grads - fd_g).max(axis=1) <= 1e-6 * g_scale)
    assert np.all(np.abs(hesses - fd_h).reshape(len(xs), -1).max(axis=1) <= 1e-6 * h_scale)
