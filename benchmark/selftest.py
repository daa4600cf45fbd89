"""Self-test of the benchmark's checks.

    python3 benchmark/selftest.py

Runs a few short operations of every kind, confirms that their checks
pass, then feeds each check a deliberately perturbed copy of a result and
confirms that the intended check fails.  Exit status 0 when every
perturbation is caught.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace

import numpy as np

import oracles
import run
import workloads


def _shift(key, index, delta):
    def mutate(rec):
        rec[key] = np.array(rec[key], dtype=float)
        rec[key][index] += delta
    return mutate


def _set(key, index, value):
    def mutate(rec):
        rec[key] = np.array(rec[key])
        rec[key][index] = value
    return mutate


def _doc(path, fn):
    """Mutate the inspect document at ``path`` (a tuple of keys) with ``fn``."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(np.array(node[path[-1]], dtype=float)).tolist()
    return mutate


# (case key, description, mutation, text of the problem it must raise)
GEODESIC = [
    ("riemann-2d-curved", "endpoint x shifted by 1e-5", _shift("xs", (-1, 0), 1e-5),
     "x vs great circle"),
    ("riemann-2d-curved", "endpoint dx shifted by 1e-5", _shift("dxs", (-1, 1), 1e-5),
     "dx vs great circle"),
    ("riemann-2d-curved", "transported Z shifted by 1e-5", _shift("Z", (-1, 0), 1e-5),
     "Z vs great-circle transport"),
    ("riemann-2d-curved", "transported Z shifted by 1e-6", _shift("Z", (-1, 0), 1e-6),
     "Z vs levi_civita_transport"),
    ("riemann-2d-curved", "L drifts by 1e-5 from 1", _shift("L", -1, 1e-5), "max |L - 1|"),
    ("riemann-2d-curved", "lambda0 of 1e-8 in arc length", _set("lambda0", -1, 1e-8),
     "max |lambda0|"),
    ("riemann-2d-curved", "transport norm drifts by 1e-5", _shift("ZL", -1, 1e-5),
     "transport norm drift"),
    ("riemann-3d-generic", "EL residual of 1e-5", _set("el_rel", -1, 1e-5), "max EL residual"),
    ("quartic-root", "transported Z shifted by 1e-5", _shift("Z", (-1, 1), 1e-5),
     "Z vs transported velocity"),
    ("quartic-root", "document cut short", lambda rec: rec.update(text=rec["text"][:-3]),
     "not valid JSON"),
    ("quartic-root", "a node missing", lambda rec: rec.update(steps=rec["steps"] - 1),
     "steps of"),
    ("potential-system", "endpoint x shifted by 1e-5", _shift("xs", (-1, 2), 1e-5),
     "x vs harmonic motion"),
    ("second-class", "endpoint x shifted by 1e-5", _shift("xs", (-1, 1), 1e-5),
     "x vs oscillator_oracle"),
    ("second-class", "constraint residual of 1e-7", _set("max_C", -1, 1e-7), "max |C|"),
    ("second-class", "velocity shifted by 1e-6", _shift("dxs", (-1, 1), 1e-6), "energy drift"),
    ("second-class+project", "no projection", lambda rec: rec.update(projected_steps=0),
     "no projection fired"),
    ("frenkel", "x1 shifted by 1e-8", _shift("xs", (-1, 1), 1e-8), "free-multiplier family"),
    ("frenkel", "x3 leaves the surface by 1e-8", _set("xs", (-1, 3), 1e-8), "max |x3|"),
    ("frenkel", "one multiplier fewer left free", _set("gauge_dim_free", 0, 1),
     "gauge_dim_free"),
    ("frenkel", "rank 2 on the surface", _set("rank", 0, 2), "rank/D"),
]

INSPECT = [
    ("riemann-2d-curved", "N + 1e-6 |N|", _doc(("connection", "N"), lambda N: N + 1e-6 * np.abs(N)),
     "N vs analytic Christoffel"),
    ("riemann-2d-curved", "G + 1e-6 |G|", _doc(("connection", "G"), lambda G: G + 1e-6 * np.abs(G)),
     "2G vs christoffel_oracle"),
    ("riemann-2d-curved", "R[0, 0, 1] + 1e-5", _doc(("curvature", "R"), lambda R: R + 1e-5),
     "R vs constant-curvature tensor"),
    ("riemann-2d-curved", "N2 made asymmetric by 1e-5",
     _doc(("curvature", "N2"), lambda N2: N2 + 1e-5 * np.triu(np.ones_like(N2[0]))[None]),
     "Berwald symmetry"),
    ("potential-system", "G + 1e-7 |G|", _doc(("connection", "G"), lambda G: G + 1e-7 * np.abs(G)),
     "2G vs printed spray"),
    ("quartic-root", "N * (1 + 1e-5)", _doc(("connection", "N"), lambda N: N * (1 + 1e-5)),
     "N.dx = 2G"),
    ("quartic-root", "N * (1 + 1e-5)", _doc(("connection", "N"), lambda N: N * (1 + 1e-5)),
     "p.N = dL/dx"),
    ("quartic-root", "N * (1 + 1e-5)", _doc(("connection", "N"), lambda N: N * (1 + 1e-5)),
     "m-th root preservation"),
    ("second-class", "C + 1e-9", _doc(("connection", "C"), lambda C: C + 1e-9),
     "C vs printed constraint forms"),
    ("frenkel", "rank 1 off the surface",
     lambda doc: doc["degeneracy"].update(rank=1), "rank 1"),
    ("euclidean-3", "point differs", _doc(("point", "dx"), lambda v: v * 2.0),
     "point differs"),
]


def main() -> int:
    pkg = run.load_package()
    regular = workloads.WORKLOADS["geodesic-regular"](pkg, 0)
    constrained = workloads.WORKLOADS["geodesic-constrained"](pkg, 0)
    points = workloads.WORKLOADS["connection-points"](pkg, 0)

    geo = {}
    for wl in (regular, constrained):
        for case in wl.cases(0):
            case = replace(case, steps=8)
            key = case.metric + ("+project" if case.project else "")
            res = wl.execute(case)
            geo[key] = (wl, case, workloads.geodesic_record(res.traj, res.transport, res.text))
    insp = {}
    for case in points.cases(0):
        if case.metric not in insp or case.curvature:
            insp[case.metric] = (case, points.execute(case).text)

    failures = 0

    def report(ok, what):
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    for key, (wl, case, rec) in geo.items():
        out = oracles.check_geodesic(case, rec, wl.entries[case.metric], pkg.catalog)
        report(not out.problems, f"unperturbed {key} passes {out.problems or ''}")
    for metric, (case, text) in insp.items():
        out = oracles.check_inspect(case, text, points.entries[metric], pkg.catalog)
        report(not out.problems, f"unperturbed inspect {metric} passes {out.problems or ''}")

    for key, what, mutate, expect in GEODESIC:
        wl, case, rec = geo[key]
        rec = copy.deepcopy(rec)
        mutate(rec)
        out = oracles.check_geodesic(case, rec, wl.entries[case.metric], pkg.catalog)
        report(any(expect in p for p in out.problems), f"{key}: {what} -> {expect}")
    for metric, what, mutate, expect in INSPECT:
        case, text = insp[metric]
        doc = json.loads(text)
        mutate(doc)
        out = oracles.check_inspect(case, json.dumps(doc), points.entries[metric], pkg.catalog)
        report(any(expect in p for p in out.problems), f"inspect {metric}: {what} -> {expect}")

    # the digits metric sees a shift too small for the pass/fail bound
    wl, case, rec = geo["riemann-2d-curved"]
    base = min(oracles.check_geodesic(case, rec, wl.entries[case.metric], pkg.catalog).digits)
    rec = copy.deepcopy(rec)
    _shift("xs", (-1, 0), 1e-6)(rec)
    low = min(oracles.check_geodesic(case, rec, wl.entries[case.metric], pkg.catalog).digits)
    report(low < 7.0 < base, f"endpoint shifted by 1e-6: digits {base:.2f} -> {low:.2f}")

    print(f"{failures} of the self-test's checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
