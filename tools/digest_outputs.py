"""Fingerprint the package's outputs, for byte-identity checks of refactors.

    python3 tools/digest_outputs.py > digest.txt

Run from the root of a checkout; the package is imported from its ``src/``
through ``benchmark/run.py``'s loader, and the inputs come from
``benchmark/workloads.py`` (both used read-only).  Prints one line
``name sha256[:16]`` per output:

- every operation of rounds 0-3 of each benchmark workload at seeds 1-3:
  the emitted document, plus the transport's ``Z``, ``L_values`` and
  ``halt_reason`` for geodesics;
- the ``verify`` report;
- 24 transports of a random ``Z0``, 6 each on four regular metrics;
- the exit code, stdout and stderr of ``finslerconn.cli.main`` on a fixed
  list of failing inputs (``CLI_FAILURES``);
- six ``integrate`` runs that no benchmark round reaches
  (``integrate_lines``): a rank transition, a Frenkel curve decaying onto
  its constraint surface, a custom gauge, a second-class curve projected
  at most of its nodes, a Frenkel curve whose last node's
  constraint-gradient stencil leaves ``d0 > 0`` while the node does not,
  and a regular curve whose second node leaves its guard while every RK4
  stage before it stays inside (the ``"inadmissible: "`` halt), with
  every node field, the events, the projected steps, the halt and the
  RK4 stage record;
- ``resolve_multipliers`` in the time gauge at 3 sampled points of each
  catalog entry (``RESOLVE_POINTS``), with every field of the
  ``MultiplierResolution`` (its jet and ``DegeneracyData`` included), or
  the error raised;
- ``curvature_torsion`` at 3 sampled points of each catalog entry
  (``CURVATURE_POINTS``) and at two inputs where it refuses
  (``CURVATURE_REFUSALS``), with ``R``, ``N2`` and both steps, or the
  error's type, message and detail;
- ``connection._richardson_N`` on the Richardson groups of
  ``tests/test_connection.py`` (``richardson_groups``: the dN/dx0 and
  dN/d(dx1) groups of a sampled point of each catalog entry, and a
  ``riemann-3d-generic`` group whose best regular block flips inside it),
  with every field of each point's ``ConnectionData`` or the error's
  type, message and detail.

Run it on two checkouts and ``diff`` the outputs: no line may differ.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "benchmark"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
ROUNDS = range(4)
TRANSPORT_METRICS = ("potential-system", "quartic-root", "riemann-3d-generic", "riemann-2d-curved")
TRANSPORTS_EACH = 6
TRANSPORT_STEPS = 30
RESOLVE_POINTS = 3
CURVATURE_POINTS = 3
# (entry, x, dx) where coefficients_N succeeds and curvature_torsion
# raises: a stencil defect near Frenkel's rank transition, and a
# potential-system dx-stencil point that leaves d0 > 0
CURVATURE_REFUSALS = {
    "frenkel-defect": ("frenkel", (0.2, -0.4, 0.3, 0.5), (1.0, 0.3, 0.8, 5e-4)),
    "potential-guard": ("potential-system", (0.2, -0.4, 0.3, 0.5), (1.95e-4, 0.6, 0.8, 0.5)),
}
# argument lists of cli.main that must fail cleanly; "{config}" is the
# path of a config file holding CLI_CONFIG, "{metric}" that of a metric
# file holding CLI_METRIC
CLI_CONFIG = '{"bogus_key": 1}'
CLI_METRIC = '{"dimension": 3, "expression": "sqrt(d0^2 + d1^2 + d2^2) + x0*d1"}'
CLI_FAILURES = {
    "frenkel-initial-node": ["geodesic", "--metric", "frenkel", "--x", "0,0.1,-0.2,0",
                             "--dx", "1,0.5,0.4,1.19e-5", "--steps", "5", "--h", "0.01"],
    "config-unknown-key": ["--config", "{config}", "catalog"],
    "homogeneity-tol-nan": ["inspect", "--metric", "riemann-2d-curved", "--x", "1.2,0.3",
                            "--dx", "0.6,0.5", "--homogeneity-tol", "nan"],
    "homogeneity-tol-negative": ["inspect", "--metric", "riemann-2d-curved", "--x", "1.2,0.3",
                                 "--dx", "0.6,0.5", "--homogeneity-tol", "-1"],
    "rank-tol-nan": ["inspect", "--metric", "riemann-2d-curved", "--x", "1.2,0.3",
                     "--dx", "0.6,0.5", "--rank-tol", "nan"],
    "h-nan": ["geodesic", "--metric", "riemann-2d-curved", "--x", "1.2,0.3",
              "--dx", "0.6,0.5", "--steps", "3", "--h", "nan"],
    "guard-violated": ["inspect", "--metric", "riemann-2d-curved", "--x=-0.2,0.3",
                       "--dx", "0.6,0.5"],
    "negative-vector-guard": ["inspect", "--metric", "riemann-2d-curved", "--x", "-0.2,0.3",
                              "--dx", "0.6,0.5"],
    "missing-metric": ["inspect", "--x", "1.2,0.3", "--dx", "0.6,0.5"],
    "non-finite-halt": ["geodesic", "--metric", "{metric}", "--x=0.789,0.839,0.253",
                        "--dx=-0.249,0.949,0.278", "--steps", "30", "--h", "0.02"],
}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def failure(exc: Exception) -> tuple:
    return ("raised", type(exc).__name__, str(exc))


def fields_parts(obj) -> tuple:
    """Every field of a dataclass instance, nested dataclasses flattened."""
    parts = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            parts.extend(fields_parts(value))
        else:
            parts += [f.name, value]
    return tuple(parts)


def transport_parts(transport) -> tuple:
    if transport is None:
        return (None,)
    return (transport.Z, transport.L_values, transport.halt_reason)


def workload_lines(pkg):
    for name, cls in workloads.WORKLOADS.items():
        for seed in SEEDS:
            wl = cls(pkg, seed)
            for k in ROUNDS:
                for i, case in enumerate(wl.cases(k)):
                    try:
                        result = wl.execute(case)
                        parts = (result.text, *transport_parts(result.transport))
                    except Exception as exc:  # a failing operation is an output too
                        parts = failure(exc)
                    yield f"{name}/seed{seed}/round{k}/case{i}", digest(*parts)


def random_transport_lines(pkg):
    ap = pkg.autoparallel
    entries = {e.name: e for e in pkg.catalog.catalog()}
    for m, metric in enumerate(TRANSPORT_METRICS):
        entry = entries[metric]
        for k in range(TRANSPORTS_EACH):
            rng = np.random.default_rng([101, m, k])
            xs, dxs = entry.sampler.sample(rng, 2, entry.spec)
            x, dx, Z0 = xs[0], dxs[0], dxs[1]
            if metric == "potential-system":
                gauge, h = ap.GaugeChoice.time(), workloads.H / float(dx[0])
            else:
                L = float(pkg.dsl.eval_values(entry.spec.expr, entry.spec.params,
                                              x[None, :], dx[None, :])[0])
                gauge, h, dx = ap.GaugeChoice.arclength(), workloads.H, dx / L
            try:
                traj = ap.integrate(entry.spec, x, dx, gauge, steps=TRANSPORT_STEPS, h=h)
                parts = transport_parts(ap.parallel_transport(entry.spec, traj, Z0))
            except Exception as exc:  # a failing transport is an output too
                parts = failure(exc)
            yield f"transport/{metric}/{k}", digest(*parts)


def integrate_lines(pkg):
    ap = pkg.autoparallel
    entries = {e.name: e for e in pkg.catalog.catalog()}
    rank_drop = pkg.dsl.parse("sqrt(d0^2 + d1^2 + x0^2*d2^2)", dimension=3)
    guarded = pkg.dsl.parse("sqrt(d0^2 + d1^2)", dimension=2, guard="30 - d0")
    riemann = entries["riemann-2d-curved"].spec
    x0, dx0 = np.array([1.2, 0.3]), np.array([0.6, 0.5])
    dx0 = dx0 / pkg.dsl.evaluate(riemann, x0, dx0)
    runs = {
        "rank-transition": lambda: ap.integrate(
            rank_drop, [0.1, 0.0, 0.0], [-1.0, 0.2, 0.3], ap.GaugeChoice.time(),
            steps=20, h=0.01, rank_tol=1e-2),
        "frenkel-decay": lambda: ap.integrate(
            entries["frenkel"].spec, [0.0, 0.1, -0.2, 0.0], [1.0, 0.5, 0.4, 1e-4],
            ap.GaugeChoice.time(), steps=40, h=1e-2),
        "custom-gauge": lambda: ap.integrate(
            riemann, x0, dx0, ap.GaugeChoice.custom(lambda x, dx: 0.0), steps=40, h=1e-2),
        "second-class-projected": lambda: ap.integrate(
            entries["second-class"].spec, [0.0, 0.8, 0.3], [1.0, 0.3, -0.8],
            ap.GaugeChoice.time(), steps=40, h=1e-2, constraint_tol=3e-16, project=True),
        "frenkel-stencil-guard": lambda: ap.integrate(
            entries["frenkel"].spec, [0.34, 0.39, -0.67, -0.95], [1.46612e-05, 0.93, 0.29, 0.89],
            ap.GaugeChoice.time(), steps=40, h=1e-2, constraint_tol=1e3),
        "inadmissible-node": lambda: ap.integrate(
            guarded, [0.0, 0.0], [1.0, 0.0],
            ap.GaugeChoice.custom(lambda x, dx: 4.0 * float(np.linalg.norm(dx))),
            steps=3, h=1.0),
    }
    for name, run_it in runs.items():
        try:
            traj = run_it()
            parts = (traj.halt_reason, traj.events, traj.projected_steps,
                     np.array(traj._stages), *(p for n in traj.nodes for p in fields_parts(n)))
        except Exception as exc:  # a failing run is an output too
            parts = failure(exc)
        yield f"integrate/{name}", digest(*parts)


def resolve_lines(pkg):
    ap = pkg.autoparallel
    for m, entry in enumerate(pkg.catalog.catalog()):
        rng = np.random.default_rng([303, m])
        xs, dxs = entry.sampler.sample(rng, RESOLVE_POINTS, entry.spec)
        for k in range(RESOLVE_POINTS):
            try:
                res = ap.resolve_multipliers(entry.spec, pkg.jet.TangentPoint(xs[k], dxs[k]),
                                             gauge=ap.GaugeChoice.time())
                parts = fields_parts(res)
            except Exception as exc:  # a failing resolution is an output too
                parts = failure(exc)
            yield f"resolve/{entry.name}/{k}", digest(*parts)


def curvature_lines(pkg):
    entries = {e.name: e for e in pkg.catalog.catalog()}
    points = {}
    for m, entry in enumerate(entries.values()):
        rng = np.random.default_rng([404, m])
        xs, dxs = entry.sampler.sample(rng, CURVATURE_POINTS, entry.spec)
        for k in range(CURVATURE_POINTS):
            points[f"{entry.name}/{k}"] = (entry.name, xs[k], dxs[k])
    points.update(CURVATURE_REFUSALS)
    for name, (metric, x, dx) in points.items():
        try:
            cd = pkg.connection.curvature_torsion(entries[metric].spec, pkg.jet.TangentPoint(x, dx))
            parts = (cd.R, cd.N2, cd.x_step, cd.dx_step)
        except Exception as exc:  # a refusal is an output too
            parts = (*failure(exc), getattr(exc, "detail", None))
        yield f"curvature/{name}", digest(*parts)


def richardson_groups(pkg):
    """(name, spec, xs, dxs) of each group; the inputs of ``_groups`` in
    ``tests/test_connection.py``."""
    conn = pkg.connection
    for entry in pkg.catalog.catalog():
        xs, dxs = entry.sampler.sample(np.random.default_rng(404), 1, entry.spec,
                                       for_connection=True)
        x, dx = xs[0], dxs[0]
        e = np.eye(entry.spec.dimension)
        hx = conn.FD_STEP * (1.0 + abs(x[0]))
        hd = conn.FD_STEP * float(np.linalg.norm(dx))
        yield entry.name + "/x0", entry.spec, conn._stencil(x, hx, e[0]), [dx] * 4
        yield entry.name + "/dx1", entry.spec, [x] * 4, conn._stencil(dx, hd, e[1])
    x, dx = np.array([0.3, -0.2, 0.5]), np.array([0.6, 0.6, 0.4])
    hd = conn.FD_STEP * float(np.linalg.norm(dx))
    spec = pkg.catalog.catalog_entry("riemann-3d-generic").spec
    yield "riemann-3d-generic/two-blocks", spec, [x] * 4, conn._stencil(dx, hd, np.eye(3)[1])


def richardson_lines(pkg):
    for name, spec, xs, dxs in richardson_groups(pkg):
        try:
            group = pkg.connection._richardson_N(spec, np.array(xs), np.array(dxs), 1e-9)
            parts = tuple(p for c in group for p in fields_parts(c))
        except Exception as exc:  # a refusal is an output too
            parts = (*failure(exc), getattr(exc, "detail", None))
        yield f"richardson/{name}", digest(*parts)


def cli_failure_lines(pkg):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(CLI_CONFIG, encoding="utf-8")
        metric = Path(tmp) / "metric.json"
        metric.write_text(CLI_METRIC, encoding="utf-8")
        for name, argv in CLI_FAILURES.items():
            argv = [a.replace("{config}", str(config)).replace("{metric}", str(metric))
                    for a in argv]
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = pkg.cli.main(argv)
                parts = (code, out.getvalue(), err.getvalue())
            except (Exception, SystemExit) as exc:  # an escaping exception is an output too
                parts = failure(exc)
            yield f"cli/{name}", digest(*parts)


def main() -> int:
    pkg = run.load_package()
    lines = list(workload_lines(pkg))
    lines.append(("verify", digest(pkg.cli.render_report(pkg.cli.run_verification()))))
    lines.extend(random_transport_lines(pkg))
    lines.extend(cli_failure_lines(pkg))
    lines.extend(integrate_lines(pkg))
    lines.extend(resolve_lines(pkg))
    lines.extend(curvature_lines(pkg))
    lines.extend(richardson_lines(pkg))
    for name, value in lines:
        print(name, value)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
