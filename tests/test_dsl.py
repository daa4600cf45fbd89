"""Grammar, evaluation and serialization of the metric language."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_points
from finslerconn.catalog import catalog
from finslerconn.dsl import (
    MetricSpec,
    evaluate,
    eval_values,
    metric_from_json,
    metric_to_json,
    parse,
    parse_expression,
    pretty,
)
from finslerconn.errors import DomainError, ParseError
from finslerconn.jet import compute_jet, compute_jets


def test_parse_euclidean_norm():
    spec = parse("sqrt(d0^2 + d1^2)")
    assert spec.dimension == 2
    assert evaluate(spec, [0.0, 0.0], [3.0, 4.0]) == 5.0


def test_parse_potential_system():
    spec = parse(
        "m/2*(d1^2 + d2^2 + d3^2)/d0 - k/2*(x1^2 + x2^2 + x3^2)*d0",
        parameters={"m": 1.0, "k": 0.0},
    )
    assert spec.dimension == 4
    # with the potential switched off, any position gives the kinetic value
    val = evaluate(spec, [9.9, 1.0, -2.0, 0.5], [1.0, 1.0, 0.0, 0.0])
    assert val == 0.5


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("d0^")
    assert err.value.column == 4


def test_unknown_function_rejected():
    with pytest.raises(ParseError, match="unknown function 'V'"):
        parse("m/2*(d1^2+d2^2+d3^2)/d0 - V(x1)*d0", parameters={"m": 1.0})


def test_unbound_parameter_rejected():
    with pytest.raises(ParseError, match="unbound parameters: m"):
        parse("m*d0 + d1")


def test_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("d0 + d5", dimension=2)


def test_arity_mismatch():
    with pytest.raises(ParseError, match="takes 1 argument"):
        parse("sqrt(d0, d1)")
    with pytest.raises(ParseError, match="pow takes 2"):
        parse("pow(d0)")


def test_zero_direction_rejected():
    spec = parse("sqrt(d0^2 + d1^2)")
    with pytest.raises(DomainError, match="degenerate direction"):
        evaluate(spec, [0.0, 0.0], [0.0, 0.0])


def test_guard_violation_is_hard_error():
    spec = parse("d0 + d1", guard="d0")
    with pytest.raises(DomainError, match="guard violated"):
        evaluate(spec, [0.0, 0.0], [-1.0, 2.0])


def test_domain_error_names_subexpression():
    spec = parse("d0/x0", dimension=2)
    with pytest.raises(DomainError) as err:
        evaluate(spec, [0.0, 0.0], [1.0, 1.0])
    assert err.value.subexpression == "d0 / x0"


def test_sqrt_negative_reports_subexpression():
    spec = parse("sqrt(d0 - d1)")
    with pytest.raises(DomainError) as err:
        evaluate(spec, [0.0, 0.0], [1.0, 5.0])
    assert "sqrt" in err.value.subexpression


def test_pow_rational_forms_agree():
    a = parse("d0^(1/2) + d1", dimension=2)
    b = parse("pow(d0, 1/2) + d1", dimension=2)
    c = parse("sqrt(d0) + d1", dimension=2)
    x, dx = [0.0, 0.0], [4.0, 1.0]
    assert evaluate(a, x, dx) == evaluate(b, x, dx) == evaluate(c, x, dx)
    assert a.expr == b.expr


def test_constant_folding_makes_rationals_canonical():
    spec = parse("1/2*d0 + d1")
    node = spec.expr.args[0].args[0]  # lhs of the product
    assert node.kind == "const"
    assert float(node.frac) == 0.5


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_roundtrip_catalog(entry):
    printed = pretty(entry.spec.expr)
    reparsed = parse_expression(printed)
    assert reparsed == entry.spec.expr
    assert pretty(reparsed) == printed
    if entry.spec.domain_guard is not None:
        assert parse_expression(entry.spec.guard_expression) == entry.spec.domain_guard


# random expression trees for the grammar round-trip
_leaf = st.one_of(
    st.integers(min_value=0, max_value=9).map(lambda n: f"d{n % 2}"),
    st.integers(min_value=0, max_value=9).map(lambda n: f"x{n % 2}"),
    st.integers(min_value=1, max_value=40).map(str),
    st.fractions(min_value=1, max_value=9, max_denominator=7).map(
        lambda f: f"{f.numerator}/{f.denominator}"
    ),
)


def _combine(children):
    ops = ["+", "-", "*"]
    out = children[0]
    for i, c in enumerate(children[1:]):
        out = f"({out} {ops[i % 3]} {c})"
    return out


_expr_text = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(_combine),
        inner.map(lambda e: f"sin({e})"),
        inner.map(lambda e: f"cos({e})"),
        inner.map(lambda e: f"({e})^2"),
        inner.map(lambda e: f"-({e})"),
    ),
    max_leaves=12,
)


@settings(max_examples=120, deadline=None)
@given(_expr_text)
def test_roundtrip_random_expressions(text):
    first = parse_expression(text)
    assert parse_expression(pretty(first)) == first


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_real_evaluation_matches_taylor_value(entry):
    xs, dxs = sample_points(entry, 1000, seed=7, for_connection=False)
    plain = eval_values(entry.spec.expr, entry.spec.params, xs, dxs)
    for i in range(0, xs.shape[0], 111):
        assert compute_jet(entry.spec, x=xs[i], dx=dxs[i], validate=False).L == plain[i]
    # full batch through the Taylor path in one sweep set
    jets = compute_jets(entry.spec, xs, dxs, validate=False)
    taylor_vals = np.array([j.L for j in jets])
    np.testing.assert_allclose(taylor_vals, plain, rtol=1e-15, atol=1e-300)


def test_json_document_roundtrip():
    entry = next(e for e in catalog() if e.name == "potential-system")
    doc = metric_to_json(entry.spec)
    again = metric_from_json(json.dumps(doc))
    assert again == entry.spec
    assert metric_to_json(again) == doc


def test_json_document_missing_key():
    with pytest.raises(ParseError, match="missing key"):
        metric_from_json('{"expression": "d0 + d1"}')


def test_dimension_must_be_at_least_two():
    with pytest.raises(ParseError, match="dimension"):
        MetricSpec(1, parse_expression("d0"))


def test_spec_is_immutable():
    spec = parse("sqrt(d0^2 + d1^2)")
    with pytest.raises(AttributeError):
        spec.dimension = 5
