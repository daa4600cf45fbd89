"""Metric expression language.

A metric is a scalar expression over coordinates ``x0..xn``, differentials
``d0..dn`` and named parameters, e.g.::

    m/2*(d1^2 + d2^2 + d3^2)/d0 - k/2*(x1^2 + x2^2 + x3^2)*d0

Grammar (whitespace insensitive)::

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ['^' exponent]
    exponent := ['-'] INT | '(' ['-'] INT ['/' INT] ')'
    base     := NUMBER | 'x'INT | 'd'INT | ident | ident '(' expr (',' expr)* ')'
              | '(' expr ')'

Functions: ``sqrt, pow, exp, log, sin, cos, abs``; ``pow`` takes a rational
second argument (``pow(u, 1/4)`` and ``u^(1/4)`` are the same node).
Constant-over-constant arithmetic folds to exact rationals at parse time,
which makes ``parse . print . parse == parse`` hold structurally.

Metrics ship as JSON documents::

    {"dimension": 4, "expression": "...", "parameters": {"m": 1.0}, "guard": "d0"}

``guard`` is an optional expression whose strict positivity defines the
admissible region; violation is a hard :class:`DomainError`, never a
one-sided limit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import DomainError, ParseError
from .taylor import Taylor2

__all__ = [
    "Expr",
    "MetricSpec",
    "parse",
    "parse_expression",
    "evaluate",
    "pretty",
    "metric_from_json",
    "metric_to_json",
]

FUNCTIONS = ("sqrt", "pow", "exp", "log", "sin", "cos", "abs")
BINARY_OPS = ("+", "-", "*", "/")


@dataclass(frozen=True)
class Expr:
    """One expression node.

    ``kind`` is one of ``const | coord | diff | param | unary | binary |
    call | pow``.  Unused fields stay ``None``.  Source positions are
    carried for diagnostics but excluded from equality so structurally
    identical trees compare equal.
    """

    kind: str
    frac: Fraction | None = None
    value: float | None = None
    index: int | None = None
    name: str | None = None
    op: str | None = None
    args: tuple["Expr", ...] = ()
    exponent: Fraction | None = None
    line: int = field(default=1, compare=False)
    col: int = field(default=0, compare=False)

    def __str__(self):
        return pretty(self)


def _const(frac: Fraction, line=1, col=0) -> Expr:
    return Expr("const", frac=frac, value=float(frac), line=line, col=col)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<ws>\s+)"
)

_INDEXED_RE = re.compile(r"([xd])(\d+)\Z")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {source[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        text = m.group()
        if kind == "ws":
            nl = text.count("\n")
            if nl:
                line += nl
                line_start = pos + text.rfind("\n") + 1
        else:
            tokens.append(_Token(kind, text, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            self.error(f"expected '{text}'")
        return self.next()

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def expr(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("+", "-"):
            self.next()
            node = self.term()
            if tok.text == "-":
                node = self._negate(node, tok)
        else:
            node = self.term()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.next()
            rhs = self.term()
            node = self._binary(op.text, node, rhs, op)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            node = self._binary(op.text, node, rhs, op)
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.next()
            exponent = self.exponent()
            node = Expr("pow", args=(node,), exponent=exponent, line=caret.line, col=caret.col)
        return node

    def exponent(self) -> Fraction:
        tok = self.peek()
        sign = 1
        if tok.kind == "op" and tok.text == "(":
            self.next()
            inner = self.peek()
            if inner.kind == "op" and inner.text == "-":
                self.next()
                sign = -1
            num = self._int_token("exponent numerator")
            den = 1
            if self.peek().kind == "op" and self.peek().text == "/":
                self.next()
                den = self._int_token("exponent denominator")
                if den == 0:
                    self.error("zero denominator in exponent")
            self.expect_op(")")
            return Fraction(sign * num, den)
        if tok.kind == "op" and tok.text == "-":
            self.next()
            sign = -1
        num = self._int_token("exponent")
        return Fraction(sign * num)

    def _int_token(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "num" or not tok.text.isdigit():
            self.error(f"expected integer {what}")
        self.next()
        return int(tok.text)

    def base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return self._negate(self.base(), tok)
        if tok.kind == "num":
            self.next()
            return _const(Fraction(tok.text), tok.line, tok.col)
        if tok.kind == "ident":
            self.next()
            m = _INDEXED_RE.match(tok.text)
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(tok)
            if m:
                kind = "coord" if m.group(1) == "x" else "diff"
                return Expr(kind, index=int(m.group(2)), line=tok.line, col=tok.col)
            return Expr("param", name=tok.text, line=tok.line, col=tok.col)
        if tok.kind == "op" and tok.text == "(":
            self.next()
            node = self.expr()
            self.expect_op(")")
            return node
        self.error("expected a number, identifier or '('")

    def call(self, name_tok: _Token) -> Expr:
        name = name_tok.text
        if name not in FUNCTIONS:
            self.error(f"unknown function '{name}'", name_tok)
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.next()
            args.append(self.expr())
        self.expect_op(")")
        if name == "pow":
            if len(args) != 2:
                self.error(f"pow takes 2 arguments, got {len(args)}", name_tok)
            exponent = _rational_of(args[1])
            if exponent is None:
                self.error("pow exponent must be a rational constant", name_tok)
            return Expr("pow", args=(args[0],), exponent=exponent,
                        line=name_tok.line, col=name_tok.col)
        if len(args) != 1:
            self.error(f"{name} takes 1 argument, got {len(args)}", name_tok)
        return Expr("call", name=name, args=tuple(args), line=name_tok.line, col=name_tok.col)

    def _negate(self, node: Expr, tok: _Token) -> Expr:
        if node.kind == "const":
            return _const(-node.frac, tok.line, tok.col)
        return Expr("unary", op="neg", args=(node,), line=tok.line, col=tok.col)

    def _binary(self, op: str, lhs: Expr, rhs: Expr, tok: _Token) -> Expr:
        # exact fold so printed rationals like 1/2 reparse to the same tree
        if lhs.kind == "const" and rhs.kind == "const":
            if op == "+":
                return _const(lhs.frac + rhs.frac, tok.line, tok.col)
            if op == "-":
                return _const(lhs.frac - rhs.frac, tok.line, tok.col)
            if op == "*":
                return _const(lhs.frac * rhs.frac, tok.line, tok.col)
            if rhs.frac == 0:
                self.error("division by zero in constant expression", tok)
            return _const(lhs.frac / rhs.frac, tok.line, tok.col)
        return Expr("binary", op=op, args=(lhs, rhs), line=tok.line, col=tok.col)


def _rational_of(node: Expr) -> Fraction | None:
    if node.kind == "const":
        return node.frac
    if node.kind == "unary" and node.op == "neg":
        inner = _rational_of(node.args[0])
        return None if inner is None else -inner
    return None


def parse_expression(source: str) -> Expr:
    """Parse expression text to an AST without binding it to a dimension."""
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.error(f"unexpected trailing input {tok.text!r}")
    return node


# ---------------------------------------------------------------------------
# pretty printer
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _frac_str(frac: Fraction) -> str:
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def _render(node: Expr, parent_prec: int) -> str:
    if node.kind == "const":
        text = _frac_str(node.frac)
        prec = 2 if "/" in text else (1 if text.startswith("-") else 4)
        return f"({text})" if prec < parent_prec else text
    if node.kind == "coord":
        return f"x{node.index}"
    if node.kind == "diff":
        return f"d{node.index}"
    if node.kind == "param":
        return node.name
    if node.kind == "unary":
        inner = _render(node.args[0], 3)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 1 else text
    if node.kind == "binary":
        prec = _PREC[node.op]
        lhs = _render(node.args[0], prec)
        # the right operand is always held one level tighter so the printed
        # text reparses with exactly the original association
        rhs = _render(node.args[1], prec + 1)
        text = f"{lhs} {node.op} {rhs}"
        return f"({text})" if prec < parent_prec else text
    if node.kind == "pow":
        base = _render(node.args[0], 4)
        e = node.exponent
        suffix = str(e.numerator) if e.denominator == 1 and e >= 0 else f"({_frac_str(e)})"
        text = f"{base}^{suffix}"
        return f"({text})" if parent_prec >= 4 else text
    if node.kind == "call":
        args = ", ".join(_render(a, 0) for a in node.args)
        return f"{node.name}({args})"
    raise ValueError(f"unknown node kind {node.kind!r}")


def pretty(node: Expr) -> str:
    """Render an AST back to grammar-conforming text."""
    return _render(node, 0)


# ---------------------------------------------------------------------------
# walking / validation
# ---------------------------------------------------------------------------


def _walk(node: Expr) -> Iterator[Expr]:
    yield node
    for child in node.args:
        yield from _walk(child)


def _validate_indices(node: Expr, dimension: int, what: str):
    for sub in _walk(node):
        if sub.kind in ("coord", "diff") and sub.index >= dimension:
            raise ParseError(
                f"{'coordinate' if sub.kind == 'coord' else 'differential'} index "
                f"{sub.index} out of range for dimension {dimension} in {what}",
                sub.line,
                sub.col,
            )


def _param_names(node: Expr) -> set[str]:
    return {sub.name for sub in _walk(node) if sub.kind == "param"}


def _max_index(node: Expr) -> int:
    return max((sub.index for sub in _walk(node) if sub.kind in ("coord", "diff")), default=-1)


# ---------------------------------------------------------------------------
# MetricSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSpec:
    """A metric bound to a dimension, parameter values and optional guard.

    Immutable after construction; a spec is a pure function of ``(x, dx)``
    and safe to share across threads.
    """

    dimension: int
    expr: Expr
    parameters: tuple[tuple[str, float], ...] = ()
    domain_guard: Expr | None = None

    def __post_init__(self):
        if self.dimension < 2:
            raise ParseError(f"dimension must be at least 2, got {self.dimension}")
        params = dict(self.parameters)
        _validate_indices(self.expr, self.dimension, "metric expression")
        unbound = _param_names(self.expr) - set(params)
        if unbound:
            raise ParseError(f"unbound parameters: {', '.join(sorted(unbound))}")
        if self.domain_guard is not None:
            _validate_indices(self.domain_guard, self.dimension, "guard expression")
            unbound = _param_names(self.domain_guard) - set(params)
            if unbound:
                raise ParseError(f"unbound parameters in guard: {', '.join(sorted(unbound))}")

    @property
    def params(self) -> dict[str, float]:
        return dict(self.parameters)

    @property
    def expression(self) -> str:
        return pretty(self.expr)

    @property
    def guard_expression(self) -> str | None:
        return None if self.domain_guard is None else pretty(self.domain_guard)


def parse(
    source: str,
    dimension: int | None = None,
    parameters: Mapping[str, float] | None = None,
    guard: str | None = None,
) -> MetricSpec:
    """Parse metric text into a :class:`MetricSpec`.

    ``dimension`` defaults to one past the highest coordinate/differential
    index (at least 2).
    """
    expr = parse_expression(source)
    guard_expr = parse_expression(guard) if guard else None
    if dimension is None:
        hi = max(_max_index(expr), _max_index(guard_expr) if guard_expr else -1)
        dimension = max(hi + 1, 2)
    params = tuple(sorted((k, float(v)) for k, v in (parameters or {}).items()))
    return MetricSpec(dimension, expr, params, guard_expr)


def metric_from_json(document: str | Mapping) -> MetricSpec:
    doc = json.loads(document) if isinstance(document, str) else document
    try:
        dimension = int(doc["dimension"])
        expression = doc["expression"]
    except KeyError as exc:
        raise ParseError(f"metric document missing key {exc}")
    return parse(
        expression,
        dimension=dimension,
        parameters=doc.get("parameters") or {},
        guard=doc.get("guard"),
    )


def metric_to_json(spec: MetricSpec) -> dict:
    return {
        "dimension": spec.dimension,
        "expression": spec.expression,
        "parameters": spec.params,
        "guard": spec.guard_expression,
    }


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _eval_node(node: Expr, leaves: Callable, is_taylor: bool):
    """Evaluate recursively; leaves() resolves const/coord/diff/param nodes."""
    if node.kind in ("const", "coord", "diff", "param"):
        return leaves(node)
    try:
        if node.kind == "unary":
            return -_eval_node(node.args[0], leaves, is_taylor)
        if node.kind == "binary":
            lhs = _eval_node(node.args[0], leaves, is_taylor)
            rhs = _eval_node(node.args[1], leaves, is_taylor)
            if node.op == "+":
                return lhs + rhs
            if node.op == "-":
                return lhs - rhs
            if node.op == "*":
                return lhs * rhs
            if not is_taylor and np.any(np.asarray(rhs) == 0.0):
                raise DomainError("division by zero")
            return lhs / rhs
        if node.kind == "pow":
            base = _eval_node(node.args[0], leaves, is_taylor)
            return _apply_pow(base, node.exponent, is_taylor)
        if node.kind == "call":
            arg = _eval_node(node.args[0], leaves, is_taylor)
            return _apply_call(node.name, arg, is_taylor)
    except DomainError as exc:
        if exc.subexpression is None:
            raise DomainError(str(exc.args[0]), subexpression=pretty(node)) from None
        raise
    raise ValueError(f"unknown node kind {node.kind!r}")


def _apply_pow(base, exponent: Fraction, is_taylor: bool):
    if is_taylor:
        return base**exponent
    arr = np.asarray(base, dtype=float)
    if exponent.denominator == 1:
        e = int(exponent)
        if e < 0 and np.any(arr == 0.0):
            raise DomainError("zero raised to a negative power")
        return arr ** float(e)
    if np.any(arr <= 0.0):
        raise DomainError("fractional power of a non-positive value")
    return arr ** float(exponent)


def _apply_call(name: str, arg, is_taylor: bool):
    if is_taylor:
        return getattr(arg, name)()
    arr = np.asarray(arg, dtype=float)
    if name == "sqrt":
        if np.any(arr < 0.0):
            raise DomainError("sqrt of a negative value")
        return np.sqrt(arr)
    if name == "exp":
        return np.exp(arr)
    if name == "log":
        if np.any(arr <= 0.0):
            raise DomainError("log of a non-positive value")
        return np.log(arr)
    if name == "sin":
        return np.sin(arr)
    if name == "cos":
        return np.cos(arr)
    if name == "abs":
        return np.abs(arr)
    raise ValueError(f"unknown function {name!r}")


def eval_values(expr: Expr, params: Mapping[str, float], xs: np.ndarray, dxs: np.ndarray) -> np.ndarray:
    """Plain-real batched evaluation: xs, dxs have shape (P, dimension)."""

    def leaves(node: Expr):
        if node.kind == "const":
            return node.value
        if node.kind == "coord":
            return xs[:, node.index]
        if node.kind == "diff":
            return dxs[:, node.index]
        return params[node.name]

    out = _eval_node(expr, leaves, is_taylor=False)
    out = np.broadcast_to(np.asarray(out, dtype=float), (xs.shape[0],))
    if not np.all(np.isfinite(out)):
        raise DomainError("non-finite value", subexpression=pretty(expr))
    return np.array(out)


def eval_taylor(
    expr: Expr,
    params: Mapping[str, float],
    x_vals: np.ndarray,
    dx_vals: np.ndarray,
    diff_seeds: np.ndarray,
    coord_seeds: np.ndarray,
) -> Taylor2:
    """Taylor-mode batched evaluation over B rows.

    ``x_vals``/``dx_vals`` have shape (B, dimension) giving the leaf values
    per row; ``diff_seeds[b, i]`` is the seed-slot index for differential i
    in row b (or -1), likewise ``coord_seeds`` for coordinates.  The number
    of seed slots is ``max(seeds) + 1``.
    """
    b = x_vals.shape[0]
    k = int(max(diff_seeds.max(initial=-1), coord_seeds.max(initial=-1))) + 1
    rows = np.arange(b)

    def leaves(node: Expr):
        if node.kind == "const":
            return Taylor2.constant(np.full(b, node.value), k)
        if node.kind == "param":
            return Taylor2.constant(np.full(b, params[node.name]), k)
        if node.kind == "coord":
            seeds = np.zeros((b, k))
            slot = coord_seeds[:, node.index]
            mask = slot >= 0
            seeds[rows[mask], slot[mask]] = 1.0
            return Taylor2.seeded(x_vals[:, node.index], seeds)
        seeds = np.zeros((b, k))
        slot = diff_seeds[:, node.index]
        mask = slot >= 0
        seeds[rows[mask], slot[mask]] = 1.0
        return Taylor2.seeded(dx_vals[:, node.index], seeds)

    # every leaf is a Taylor2, so the result is one
    out = _eval_node(expr, leaves, is_taylor=True)
    if not (
        np.all(np.isfinite(out.val))
        and np.all(np.isfinite(out.grad))
        and np.all(np.isfinite(out.hess))
    ):
        raise DomainError("non-finite derivative", subexpression=pretty(expr))
    return out


def check_guard(spec: MetricSpec, xs: np.ndarray, dxs: np.ndarray) -> np.ndarray:
    """Return a boolean admissibility mask; False where the guard fails."""
    ok = np.linalg.norm(dxs, axis=1) > 0.0
    if spec.domain_guard is not None:
        try:
            vals = eval_values(spec.domain_guard, spec.params, xs, dxs)
        except DomainError:
            return np.zeros(xs.shape[0], dtype=bool)
        ok &= vals > 0.0
    return ok


def require_admissible(spec: MetricSpec, x: np.ndarray, dx: np.ndarray):
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float)
    if x.shape != (spec.dimension,) or dx.shape != (spec.dimension,):
        raise DomainError(
            f"point has wrong shape for dimension {spec.dimension}: "
            f"x {x.shape}, dx {dx.shape}"
        )
    if np.linalg.norm(dx) == 0.0:
        raise DomainError("degenerate direction: dx = 0")
    if spec.domain_guard is not None:
        val = eval_values(spec.domain_guard, spec.params, x[None, :], dx[None, :])[0]
        if not val > 0.0:
            raise DomainError(
                f"guard violated: value {float(val)!r}",
                subexpression=spec.guard_expression,
            )


def evaluate(spec: MetricSpec, x, dx) -> float:
    """Evaluate L(x, dx) at one admissible point."""
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float)
    require_admissible(spec, x, dx)
    return float(eval_values(spec.expr, spec.params, x[None, :], dx[None, :])[0])
