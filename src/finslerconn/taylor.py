"""Second-order forward-mode automatic differentiation scalars.

A :class:`Taylor2` carries a value, a gradient over a fixed set of seed
slots and the matching Hessian, all with a leading batch axis so one
expression sweep differentiates many evaluation points at once.  Arithmetic
propagates exact chain rules through second order; there is no third-order
information and no reverse mode.

Hessian symmetry is exact, not approximate: every operation assembles the
Hessian from symmetric inputs, symmetric outer products and commutative
additions, so ``hess[b, i, j] == hess[b, j, i]`` holds bit-for-bit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = ["Taylor2"]


def _as_batch(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"Taylor2 values must be scalars or 1-d batches, got shape {arr.shape}")
    return arr


def _sym_outer(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
    cross = np.einsum("bi,bj->bij", ga, gb)
    return cross + cross.transpose(0, 2, 1)


class Taylor2:
    """Batched truncated Taylor scalar: value (B,), grad (B,k), hess (B,k,k)."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        self.val = val
        self.grad = grad
        self.hess = hess

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, values, num_seeds: int) -> "Taylor2":
        val = _as_batch(values)
        b = val.shape[0]
        return cls(val, np.zeros((b, num_seeds)), np.zeros((b, num_seeds, num_seeds)))

    @classmethod
    def seeded(cls, values, seed_rows: np.ndarray) -> "Taylor2":
        """Build a first-order seed: ``d(value[b]) / d(slot j) = seed_rows[b, j]``."""
        val = _as_batch(values)
        rows = np.asarray(seed_rows, dtype=float)
        if rows.shape[0] != val.shape[0]:
            raise ValueError("seed_rows batch size does not match values")
        b, k = rows.shape
        return cls(val, rows.copy(), np.zeros((b, k, k)))

    @property
    def batch_size(self) -> int:
        return self.val.shape[0]

    @property
    def num_seeds(self) -> int:
        return self.grad.shape[1]

    def __repr__(self):
        return f"Taylor2(B={self.batch_size}, k={self.num_seeds}, val={self.val!r})"

    # -- helpers ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Taylor2):
            if other.num_seeds != self.num_seeds:
                raise ValueError("mismatched seed counts")
            return other
        if isinstance(other, (int, float, np.floating, np.ndarray)):
            vals = np.broadcast_to(np.asarray(other, dtype=float), self.val.shape)
            return Taylor2.constant(vals, self.num_seeds)
        return None

    def _unary(self, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> "Taylor2":
        grad = f1[:, None] * self.grad
        hess = f1[:, None, None] * self.hess + f2[:, None, None] * np.einsum(
            "bi,bj->bij", self.grad, self.grad
        )
        return Taylor2(f0, grad, hess)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Taylor2(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Taylor2(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Taylor2(self.val - o.val, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        val = self.val * o.val
        grad = self.val[:, None] * o.grad + o.val[:, None] * self.grad
        hess = (
            self.val[:, None, None] * o.hess
            + o.val[:, None, None] * self.hess
            + _sym_outer(self.grad, o.grad)
        )
        return Taylor2(val, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if np.any(o.val == 0.0):
            raise DomainError("division by zero")
        w = 1.0 / o.val
        # direct quotient keeps the value bit-compatible with plain evaluation
        q = self.val / o.val
        grad = (self.grad - q[:, None] * o.grad) * w[:, None]
        w2 = w * w
        hess = (
            w[:, None, None] * self.hess
            - (q * w)[:, None, None] * o.hess
            - w2[:, None, None] * _sym_outer(self.grad, o.grad)
            + (2.0 * q * w2)[:, None, None] * np.einsum("bi,bj->bij", o.grad, o.grad)
        )
        return Taylor2(q, grad, hess)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, float, np.floating, np.ndarray)):
            return NotImplemented
        if np.any(self.val == 0.0):
            raise DomainError("division by zero")
        c = np.broadcast_to(np.asarray(other, dtype=float), self.val.shape)
        w = 1.0 / self.val
        return self._unary(c * w, -c * w * w, 2.0 * c * w * w * w)

    def __pow__(self, exponent):
        if isinstance(exponent, Fraction):
            if exponent.denominator == 1:
                exponent = int(exponent)
        if isinstance(exponent, (int, np.integer)):
            e = int(exponent)
            if e == 0:
                return Taylor2.constant(np.ones_like(self.val), self.num_seeds)
            if e == 1:
                return self
            if e < 0 and np.any(self.val == 0.0):
                raise DomainError("zero raised to a negative power")
            f0 = self.val**e
            f1 = e * self.val ** (e - 1)
            f2 = e * (e - 1) * self.val ** (e - 2)
            return self._unary(f0, f1, f2)
        if isinstance(exponent, Fraction):
            if np.any(self.val <= 0.0):
                raise DomainError("fractional power of a non-positive value")
            e = float(exponent)
            f0 = self.val**e
            f1 = e * self.val ** (e - 1.0)
            f2 = e * (e - 1.0) * self.val ** (e - 2.0)
            return self._unary(f0, f1, f2)
        raise TypeError("Taylor2 exponents must be integers or Fractions")

    # -- elementary functions ---------------------------------------------

    def sqrt(self) -> "Taylor2":
        # strict positivity: the second derivative blows up at 0
        if np.any(self.val <= 0.0):
            raise DomainError("sqrt of a non-positive value")
        s = np.sqrt(self.val)
        f1 = 0.5 / s
        return self._unary(s, f1, -0.5 * f1 / self.val)

    def exp(self) -> "Taylor2":
        f0 = np.exp(self.val)
        return self._unary(f0, f0, f0)

    def log(self) -> "Taylor2":
        if np.any(self.val <= 0.0):
            raise DomainError("log of a non-positive value")
        w = 1.0 / self.val
        return self._unary(np.log(self.val), w, -w * w)

    def sin(self) -> "Taylor2":
        s = np.sin(self.val)
        return self._unary(s, np.cos(self.val), -s)

    def cos(self) -> "Taylor2":
        c = np.cos(self.val)
        return self._unary(c, -np.sin(self.val), -c)

    def abs(self) -> "Taylor2":
        # |v| is not differentiable at 0; refuse rather than pick a side
        if np.any(self.val == 0.0):
            raise DomainError("abs evaluated at zero has no derivative")
        sign = np.sign(self.val)
        return self._unary(np.abs(self.val), sign, np.zeros_like(self.val))

    def __abs__(self):
        return self.abs()

