"""Shared helpers: an independent finite-difference derivative oracle and
deterministic admissible-point sampling.

The FD oracle deliberately goes through plain-value evaluation only, so it
cross-checks the AD machinery without sharing any derivative code with it.
Everything is Richardson-extrapolated central differencing, vectorized
over points through batched evaluation.

Property tests draw their examples deterministically and keep no example
database, so every run of the suite executes the same lines.
"""

from __future__ import annotations

import numpy as np
import pytest

from finslerconn.catalog import catalog
from finslerconn.dsl import eval_values

try:
    from hypothesis import settings
except ImportError:  # hypothesis is an optional test dependency
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")


def sample_points(entry, count, seed, for_connection=True):
    rng = np.random.default_rng(seed)
    return entry.sampler.sample(rng, count, entry.spec, for_connection=for_connection)


@pytest.fixture(scope="session")
def catalog_entries():
    return catalog()


def _eval(spec, xs, dxs):
    return eval_values(spec.expr, spec.params, xs, dxs)


def fd_dx_gradient(spec, xs, dxs, h_rel=1e-5):
    """dL/d(dx) by Richardson central differences, all points at once."""
    P, n1 = dxs.shape
    h = h_rel * np.linalg.norm(dxs, axis=1)  # (P,)
    grads = np.empty((P, n1))
    for i in range(n1):
        e = np.zeros(n1)
        e[i] = 1.0
        step = h[:, None] * e
        d1 = (_eval(spec, xs, dxs + step) - _eval(spec, xs, dxs - step)) / (2 * h)
        d2 = (_eval(spec, xs, dxs + 0.5 * step) - _eval(spec, xs, dxs - 0.5 * step)) / h
        grads[:, i] = (4 * d2 - d1) / 3
    return grads


def fd_x_gradient(spec, xs, dxs, h_rel=1e-5):
    P, n1 = xs.shape
    grads = np.empty((P, n1))
    for i in range(n1):
        e = np.zeros(n1)
        e[i] = 1.0
        h = h_rel * (1.0 + np.abs(xs[:, i]))
        step = h[:, None] * e
        d1 = (_eval(spec, xs + step, dxs) - _eval(spec, xs - step, dxs)) / (2 * h)
        d2 = (_eval(spec, xs + 0.5 * step, dxs) - _eval(spec, xs - 0.5 * step, dxs)) / h
        grads[:, i] = (4 * d2 - d1) / 3
    return grads


def _second_diff(f_pp, f_pm, f_mp, f_mm, hi, hj):
    return (f_pp - f_pm - f_mp + f_mm) / (4 * hi * hj)


def fd_dx_hessian(spec, xs, dxs, h_rel=1e-4):
    """d2L/d(dx)d(dx) by Richardson-extrapolated cross differences."""
    P, n1 = dxs.shape
    h = h_rel * np.linalg.norm(dxs, axis=1)
    H = np.empty((P, n1, n1))
    f0 = _eval(spec, xs, dxs)
    for i in range(n1):
        ei = np.zeros(n1)
        ei[i] = 1.0
        for j in range(i, n1):
            ej = np.zeros(n1)
            ej[j] = 1.0

            def cross(hh):
                si = hh[:, None] * ei
                sj = hh[:, None] * ej
                if i == j:
                    return (
                        _eval(spec, xs, dxs + si) - 2 * f0 + _eval(spec, xs, dxs - si)
                    ) / (hh * hh)
                return _second_diff(
                    _eval(spec, xs, dxs + si + sj),
                    _eval(spec, xs, dxs + si - sj),
                    _eval(spec, xs, dxs - si + sj),
                    _eval(spec, xs, dxs - si - sj),
                    hh, hh,
                )

            d1 = cross(h)
            d2 = cross(0.5 * h)
            H[:, i, j] = H[:, j, i] = (4 * d2 - d1) / 3
    return H


def fd_mixed_block(spec, xs, dxs, h_rel=1e-4):
    """d2L/d(dx_i)d(x_r) with the dx index first."""
    P, n1 = dxs.shape
    hd = h_rel * np.linalg.norm(dxs, axis=1)
    out = np.empty((P, n1, n1))
    for i in range(n1):
        ei = np.zeros(n1)
        ei[i] = 1.0
        for r in range(n1):
            er = np.zeros(n1)
            er[r] = 1.0
            hx = h_rel * (1.0 + np.abs(xs[:, r]))

            def cross(hdd, hxx):
                si = hdd[:, None] * ei
                sr = hxx[:, None] * er
                return _second_diff(
                    _eval(spec, xs + sr, dxs + si),
                    _eval(spec, xs - sr, dxs + si),
                    _eval(spec, xs + sr, dxs - si),
                    _eval(spec, xs - sr, dxs - si),
                    hdd, hxx,
                )

            d1 = cross(hd, hx)
            d2 = cross(0.5 * hd, 0.5 * hx)
            out[:, i, r] = (4 * d2 - d1) / 3
    return out


def hand_jet(L2, dx, p, L=1.0):
    """A :class:`Jet2` built by hand, with zero first x-derivatives."""
    from finslerconn.jet import Jet2

    n1 = len(dx)
    return Jet2(
        x=np.zeros(n1), dx=np.asarray(dx, dtype=float), L=L, dL_dx=np.zeros(n1),
        p=np.asarray(p, dtype=float), L2=np.asarray(L2, dtype=float),
        mixed=np.zeros((n1, n1)),
    )


def stack_jets(jets):
    """The :class:`JetBatch` of the given jets (copies of their arrays)."""
    from finslerconn.jet import JetBatch

    names = ("x", "dx", "L", "dL_dx", "p", "L2", "mixed")
    return JetBatch(**{name: np.array([getattr(j, name) for j in jets]) for name in names})


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# hand-built jets on the frozen branch of RANK1_BASE (rank 1, regular
# block (0,), flow index 2, degenerate index 1)
E = np.eye(3)
RANK1_JETS = {
    "good": hand_jet(np.diag([2.0, 0.0, 0.0]), E[2], E[2]),
    # null space spanned by e0 and e2: axis 1 has no component
    "no-null": hand_jet(np.diag([2.0, 3.0, 0.0]), E[2], E[2]),
    # the regular block L2[0, 0] vanishes
    "singular": hand_jet(np.diag([0.0, 0.0, 5.0]), E[2], E[2]),
    # both of the above
    "both": hand_jet(np.diag([0.0, 3.0, 0.0]), E[2], E[2]),
    "vanishing": hand_jet(np.diag([2.0, 0.0, 0.0]), E[2], E[2], L=0.0),
    # ell_a = e0 - (p0 / L) dx = 0
    "frame": hand_jet(np.diag([2.0, 0.0, 0.0]), E[0], E[0]),
}
