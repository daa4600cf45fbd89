"""Correctness checks and exact solutions for the benchmark's operations.

Every check works on a plain record of what an operation produced (node
arrays of a trajectory, or the parsed ``inspect`` document), so the
self-test can feed it a deliberately perturbed copy.  A check returns an
:class:`Outcome`: the problems it found and, where an exact solution
exists, the number of correct digits of each comparison.

Thresholds are the ones ``finslerconn verify`` applies to the same
quantities.  The finite-difference oracles of the catalog
(``christoffel_oracle``, ``levi_civita_transport``) are pass/fail only:
their own error would cap the digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(float).eps)

# thresholds shared with verify.py
TRAJECTORY_TOL = 1e-6  # autoparallel/oscillator, autoparallel/rotation
EL_TOL = 1e-6  # autoparallel/el-residual
CONSTRAINT_DRIFT_TOL = 1e-8  # autoparallel/constraint-drift
ENERGY_DRIFT_TOL = 1e-8  # autoparallel/energy-drift
ARCLENGTH_TOL = 1e-9  # autoparallel/arclength-multiplier
PINNED_TOL = 1e-9  # autoparallel/pinned-coordinate
FAMILY_TOL = 1e-9  # autoparallel/free-family
PRESERVATION_TOL = 1e-6  # connection/metric-preservation, N.dx = 2G, norm drift
LEVI_CIVITA_TOL = 1e-7  # connection/levi-civita
EXACT_SPRAY_TOL = 1e-8  # connection/uniqueness, connection/printed-spray
CONSTRAINT_FORM_TOL = 1e-10  # degeneracy/constraints
MROOT_TOL = 1e-6  # connection/mth-root-preservation
BERWALD_TOL = 1e-6  # connection/berwald-symmetry


@dataclass
class Outcome:
    """What the checks of one operation found."""

    problems: list[str] = field(default_factory=list)
    digits: list[float] = field(default_factory=list)

    def require(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)

    def within(self, what: str, value: float, tol: float):
        # written so that NaN fails
        if not value <= tol:
            self.problems.append(f"{what} = {value:.3e} exceeds {tol:.1e}")


def rel_error(computed, exact) -> float:
    """Largest absolute deviation over the largest exact magnitude."""
    computed = np.asarray(computed, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = float(np.max(np.abs(exact))) if exact.size else 0.0
    err = float(np.max(np.abs(computed - exact))) if exact.size else 0.0
    return err / scale if scale > 0 else err


def digits_of(rel: float) -> float:
    """Correct decimal digits of a relative error, floored at machine epsilon."""
    if not math.isfinite(rel):
        return 0.0
    return -math.log10(max(rel, EPS))


def _compare(out: Outcome, what: str, computed, exact, tol: float):
    rel = rel_error(computed, exact)
    out.within(what, rel, tol)
    out.digits.append(digits_of(rel))


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------


def harmonic_motion(x0, dx0, taus):
    """potential-system (m = k = 1) in the time gauge: the spatial part is
    simple harmonic motion in t = dx0[0] * tau."""
    c = float(dx0[0])
    t = c * np.asarray(taus)[:, None]
    xs = x0[1:] * np.cos(t) + (dx0[1:] / c) * np.sin(t)
    dxs = c * (-x0[1:] * np.sin(t) + (dx0[1:] / c) * np.cos(t))
    return xs, dxs


def _sphere_frame(theta: float, phi: float):
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
    point = np.array([st * cp, st * sp, ct])
    d_theta = np.array([ct * cp, ct * sp, -st])
    d_phi = np.array([-st * sp, st * cp, 0.0])
    return point, d_theta, d_phi


def great_circle(x0, dx0, Z0, taus):
    """Unit-speed great circle through (x0, dx0) on the round sphere in
    polar angles, and the exact parallel transport of Z0 along it.

    Works in the embedding: the tangent rotates in the plane of the circle
    and the binormal stays fixed.
    """
    point, e_theta, e_phi = _sphere_frame(x0[0], x0[1])
    tangent = dx0[0] * e_theta + dx0[1] * e_phi
    binormal = np.cross(point, tangent)
    z = Z0[0] * e_theta + Z0[1] * e_phi
    z_t, z_b = float(z @ tangent), float(z @ binormal)
    xs, dxs, Zs = [], [], []
    for s in taus:
        p = point * math.cos(s) + tangent * math.sin(s)
        t = -point * math.sin(s) + tangent * math.cos(s)
        theta = math.acos(min(1.0, max(-1.0, float(p[2]))))
        phi = math.atan2(float(p[1]), float(p[0]))
        phi = x0[1] + (phi - x0[1] + math.pi) % (2.0 * math.pi) - math.pi
        _, e_th, e_ph = _sphere_frame(theta, phi)
        sin2 = math.sin(theta) ** 2
        zv = z_t * t + z_b * binormal
        xs.append([theta, phi])
        dxs.append([float(t @ e_th), float(t @ e_ph) / sin2])
        Zs.append([float(zv @ e_th), float(zv @ e_ph) / sin2])
    return np.array(xs), np.array(dxs), np.array(Zs)


def sphere_min_sin(x0, dx0, length: float, samples: int = 64) -> float:
    """Smallest sin(theta) along the first ``length`` of the great circle."""
    taus = np.linspace(0.0, length, samples)
    xs, _, _ = great_circle(x0, dx0, np.zeros(2), taus)
    return float(np.min(np.sin(xs[:, 0])))


def sphere_curvature(g: np.ndarray, dx) -> np.ndarray:
    """R[m, b, c] = (delta^m_b g_nc - delta^m_c g_nb) dx^n of the unit sphere."""
    gd = g @ np.asarray(dx, dtype=float)
    eye = np.eye(g.shape[0])
    return np.einsum("mb,c->mbc", eye, gd) - np.einsum("mc,b->mbc", eye, gd)


def frenkel_family(x0, dx0, lam, taus):
    """On the Frenkel constraint surface with the free multipliers fixed
    at lam, x1 and x2 are quadratics in tau and x3 stays at 0."""
    t = np.asarray(taus)[:, None]
    lam = np.asarray(lam, dtype=float)
    xs = x0[1:3] + dx0[1:3] * t + 0.5 * lam * t * t
    dxs = dx0[1:3] + lam * t
    return xs, dxs


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_document(out: Outcome, text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        out.problems.append(f"document is not valid JSON: {exc}")
        return None


def check_geodesic(case, rec: dict, entry, catalog_mod) -> Outcome:
    """Checks of one integrate (+ parallel_transport) operation.

    ``rec`` holds the node arrays (see ``workloads.geodesic_record``);
    ``entry`` is the case's catalog entry and ``catalog_mod`` the catalog
    module, for its independent oracles.
    """
    out = Outcome()
    doc = check_document(out, rec["text"])
    if doc is not None:
        out.require(len(doc.get("nodes", ())) == case.steps + 1,
                    f"document holds {len(doc.get('nodes', ()))} nodes, expected {case.steps + 1}")
    out.require(rec["steps"] == case.steps, f"{rec['steps']} steps of {case.steps} completed")
    out.within("max EL residual", float(np.max(rec["el_rel"])), EL_TOL)
    taus, xs, dxs = rec["taus"], rec["xs"], rec["dxs"]

    if case.gauge == "arclength":
        # |L - 1| is RK4 truncation error, held to the trajectory bound
        out.within("max |L - 1|", float(np.max(np.abs(rec["L"] - 1.0))), TRAJECTORY_TOL)
        out.within("max |lambda0|", float(np.max(np.abs(rec["lambda0"]))), ARCLENGTH_TOL)

    if case.metric == "potential-system":
        exs, edxs = harmonic_motion(case.x, case.dx, taus)
        _compare(out, "x vs harmonic motion", xs[:, 1:], exs, TRAJECTORY_TOL)
        _compare(out, "dx vs harmonic motion", dxs[:, 1:], edxs, TRAJECTORY_TOL)
    elif case.metric == "riemann-2d-curved":
        exs, edxs, eZs = great_circle(case.x, case.dx, case.Z, taus)
        _compare(out, "x vs great circle", xs, exs, TRAJECTORY_TOL)
        _compare(out, "dx vs great circle", dxs, edxs, TRAJECTORY_TOL)
        _compare(out, "Z vs great-circle transport", rec["Z"], eZs, TRAJECTORY_TOL)
        lc = catalog_mod.levi_civita_transport(entry.riemann_g, xs, dxs, case.Z, rec["h"])
        out.within("Z vs levi_civita_transport", rel_error(rec["Z"], lc), LEVI_CIVITA_TOL)
    elif case.metric == "second-class":
        ox, oy = [], []
        for tau in taus:
            o = catalog_mod.oscillator_oracle((case.x[2], -case.x[1]), case.dx[0] * tau, x0=case.x)
            ox.append(o["x"])
            oy.append(o["y"])
        _compare(out, "x vs oscillator_oracle", xs, np.array(ox), TRAJECTORY_TOL)
        _compare(out, "dx/dx0 vs oscillator_oracle", dxs[:, 1:] / dxs[:, :1], np.array(oy),
                 TRAJECTORY_TOL)
        out.within("max |C|", float(np.max(rec["max_C"])), CONSTRAINT_DRIFT_TOL)
        energy = 0.5 * np.sum((dxs[:, 1:] / dxs[:, :1]) ** 2, axis=1)
        out.within("energy drift", float(np.max(np.abs(energy - energy[0]))), ENERGY_DRIFT_TOL)
        if case.project:
            out.require(rec["projected_steps"] > 0, "no projection fired")
    elif case.metric == "frenkel":
        exs, edxs = frenkel_family(case.x, case.dx, case.lam, taus)
        _compare(out, "x1, x2 vs free-multiplier family", xs[:, 1:3], exs, FAMILY_TOL)
        _compare(out, "dx1, dx2 vs free-multiplier family", dxs[:, 1:3], edxs, FAMILY_TOL)
        out.within("max |x3|", float(np.max(np.abs(xs[:, 3]))), PINNED_TOL)
        out.require(bool(np.all(rec["gauge_dim_free"] == 2)), "gauge_dim_free != 2 on the surface")
        out.require(bool(np.all(rec["rank"] == 1) and np.all(rec["D"] == 2)),
                    "rank/D differ from 1/2 on the surface")

    if case.metric == "quartic-root":
        # the transported vector is a multiple of the velocity, which is
        # self-parallel along an arc-length geodesic
        scale = float(np.linalg.norm(case.Z) / np.linalg.norm(case.dx))
        out.within("Z vs transported velocity", rel_error(rec["Z"], scale * dxs),
                   PRESERVATION_TOL)

    if rec["Z"] is not None:
        L0 = float(rec["ZL"][0])
        drift = float(np.max(np.abs(rec["ZL"] - L0))) / abs(L0)
        out.within("transport norm drift", drift, PRESERVATION_TOL)
    return out


def check_inspect(case, doc_text: str, entry, catalog_mod) -> Outcome:
    """Checks of one ``inspect`` document against the catalog's facts."""
    out = Outcome()
    doc = check_document(out, doc_text)
    if doc is None:
        return out
    x = np.array(doc["point"]["x"], dtype=float)
    dx = np.array(doc["point"]["dx"], dtype=float)
    out.require(bool(np.array_equal(x, case.x) and np.array_equal(dx, case.dx)),
                "document point differs from the input point")
    deg = doc["degeneracy"]
    out.require(deg["rank"] == entry.expected_rank and deg["D"] == entry.expected_D,
                f"rank {deg['rank']}, D {deg['D']}; "
                f"expected {entry.expected_rank}, {entry.expected_D}")
    conn = doc["connection"]
    G = np.array(conn["G"], dtype=float)
    N = np.array(conn["N"], dtype=float)
    p = np.array(doc["jet"]["p"], dtype=float)
    dL_dx = np.array(doc["jet"]["dL_dx"], dtype=float)

    euler_scale = max(float(np.linalg.norm(2.0 * G)), float(np.linalg.norm(N) * np.linalg.norm(dx)))
    euler = float(np.linalg.norm(N @ dx - 2.0 * G))
    out.within("N.dx = 2G defect", euler / euler_scale if euler_scale > 0 else euler,
               PRESERVATION_TOL)
    if entry.classification == "regular":
        pres = float(np.linalg.norm(p @ N - dL_dx)) / max(float(np.linalg.norm(dL_dx)), 1e-30)
        out.within("p.N = dL/dx defect", pres, PRESERVATION_TOL)
    if entry.riemann_g is not None:
        lc = catalog_mod.christoffel_oracle(entry.riemann_g, x, dx)
        out.within("2G vs christoffel_oracle",
                   float(np.linalg.norm(2.0 * G - lc)) / max(float(np.linalg.norm(lc)), 1e-30),
                   LEVI_CIVITA_TOL)
    if entry.analytic_christoffel is not None:
        exact = np.einsum("mab,b->ma", entry.analytic_christoffel(x), dx)
        _compare(out, "N vs analytic Christoffel", N, exact, EXACT_SPRAY_TOL)
    if entry.name == "potential-system":
        _compare(out, "2G vs printed spray", 2.0 * G, entry.closed_form_2G(x, dx), EXACT_SPRAY_TOL)
    if entry.constraint_forms:
        signs = entry.extras.get("constraint_signs") or (1.0,) * len(entry.constraint_forms)
        expected = np.array([s * f(x, dx) for s, f in zip(signs, entry.constraint_forms)])
        out.within("C vs printed constraint forms",
                   rel_error(np.array(conn["C"], dtype=float), expected), CONSTRAINT_FORM_TOL)
    if entry.mroot is not None:
        m = entry.mroot["m"]
        c = np.array([f(x) for f in entry.mroot["c"]])
        dc = np.array([f(x) for f in entry.mroot["dc"]])
        lhs = 0.25 * np.einsum("ma,m->a", dc, dx**m)
        rhs = np.einsum("m,m,ma->a", c, dx ** (m - 1), N)
        out.within("m-th root preservation", rel_error(rhs, lhs), MROOT_TOL)

    if case.curvature:
        curv = doc.get("curvature")
        out.require(curv is not None, "curvature missing from an inspect --curvature document")
        if curv is not None:
            N2 = np.array(curv["N2"], dtype=float)
            sym = rel_error(N2.transpose(0, 2, 1), N2)
            out.within("Berwald symmetry of N2", sym, BERWALD_TOL)
            out.digits.append(digits_of(sym))
            if entry.name == "riemann-2d-curved":
                _compare(out, "R vs constant-curvature tensor", np.array(curv["R"], dtype=float),
                         sphere_curvature(entry.riemann_g(x), dx), BERWALD_TOL)
    return out
