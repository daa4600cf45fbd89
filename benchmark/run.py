"""finslerconn benchmark: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: geodesic-regular, geodesic-constrained, connection-points (see
README.md).  The load is closed-loop with one caller: each operation
starts when the previous one has returned.  Operations run in whole
rounds until the timed operations add up to ``--seconds``; their checks
run between operations, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
rounds untraced, then again with spans around every call into the layers,
prints the per-layer metrics and writes the spans to
``.bench_out/spans-<workload>-<seed>.tsv``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark is a single closed-loop caller, and the
# matrices are tiny; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("dsl", "taylor", "jet", "degeneracy", "connection", "autoparallel",
           "serialize", "catalog", "cli")
SETUP_REPEATS = 7
# no new round starts after this much wall time, so a run that has become
# very slow still ends well inside its 180 s
WALL_LIMIT_S = 120.0
# The shared test machine runs the same code up to 2x slower for minutes at
# a time (README, "Environment").  Every gated timing is therefore scaled
# by a fixed kernel timed around it, t * REF_QUIET_S / t_kernel: it reads
# in seconds of the machine when quiet, and a change to the package moves
# it as it moves the raw time.
REF_ITERATIONS = 1500
REF_QUIET_S = 0.026  # the kernel's time on the quiet test machine
_svd = np.linalg.svd  # bound before the traced run wraps np.linalg.svd


def reference_seconds() -> float:
    """Time a fixed kernel of the package's kind of work, independent of
    the package: small numpy calls amid Python bookkeeping."""
    a = np.arange(9.0).reshape(3, 3) + 5.0 * np.eye(3)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        b = a * (1.0 + 1e-3 * i)
        acc += float(_svd(b, compute_uv=False)[0]) + float(b[0] @ b[1])
        acc += {"i": i, "v": acc}["v"] * 1e-9
    return time.perf_counter() - t0


def load_package() -> SimpleNamespace:
    """Import finslerconn afresh from the checkout's ``src``."""
    if not (SRC / "finslerconn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no finslerconn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "finslerconn" or m.startswith("finslerconn.")]:
        del sys.modules[name]
    root = importlib.import_module("finslerconn")
    if Path(root.__file__).resolve().parent != (SRC / "finslerconn").resolve():
        raise ImportError(f"finslerconn imported from {root.__file__}, not {SRC}")
    pkg = SimpleNamespace(root=root, module_names=MODULES)
    for name in MODULES:
        setattr(pkg, name, importlib.import_module(f"finslerconn.{name}"))
    return pkg


def set_up(workload_name: str, seed: int):
    """Import, catalog and spec construction, round-0 inputs and one
    warm-up operation.  Returns (seconds, workload, warm-up case, its text)."""
    t0 = time.perf_counter()
    pkg = load_package()
    wl = workloads.WORKLOADS[workload_name](pkg, seed)
    wl.cases(0)
    warm = wl.warmup_case()
    text = warm_text(wl, warm)
    return time.perf_counter() - t0, wl, warm, text


def warm_text(wl, case) -> str:
    """Everything the warm-up operation emits, as one string."""
    result = wl.execute(case)
    text = result.text
    if result.transport is not None:
        text += wl.pkg.serialize.to_json_text(result.transport.Z)
    return text


@dataclass
class Tally:
    """What the timed operations of one phase did."""

    attempted: int = 0
    failed: int = 0
    work: int = 0
    elapsed: float = 0.0
    # scaled by the reference kernel timed before and after each round
    latencies: list[float] = field(default_factory=list)
    round_times: list[float] = field(default_factory=list)
    round_rates: list[float] = field(default_factory=list)  # work per scaled second
    scales: list[float] = field(default_factory=list)  # REF_QUIET_S / kernel time
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digits: list[float] = field(default_factory=list)
    op_digits: list[float] = field(default_factory=list)
    bytes: int = 0
    projected_steps: int = 0
    halts: int = 0
    class_time: dict = field(default_factory=dict)  # kind -> [seconds, steps]


def run_rounds(wl, rounds: int | None, seconds: float, tracer=None) -> tuple[int, Tally]:
    """Run whole rounds: ``rounds`` of them, or until the timed operations
    add up to ``seconds`` (and at least ``wl.digits_rounds``)."""
    tally = Tally()
    started = time.perf_counter()
    ref = reference_seconds()
    k = 0
    while True:
        if rounds is not None:
            if k >= rounds:
                break
        elif k >= wl.digits_rounds and (
            tally.elapsed >= seconds or time.perf_counter() - started > WALL_LIMIT_S
        ):
            break
        round_work, round_time = tally.work, tally.elapsed
        latencies = []
        for case in wl.cases(k):
            tally.attempted += 1
            if tracer is not None:
                tracer.active = True
            t = time.perf_counter()
            try:
                if tracer is not None:
                    result = tracer.span(f"op.{case.kind}", wl.execute, case)
                else:
                    result = wl.execute(case)
            except Exception:  # a failed operation is counted, and the run goes on
                tally.failed += 1
                tally.failures.append(f"round {k} {case.metric}: {traceback.format_exc()}")
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
            dt = time.perf_counter() - t
            tally.elapsed += dt
            latencies.append(dt)
            if result.traj is not None and not result.traj.completed:
                tally.failed += 1
                tally.halts += 1
                tally.failures.append(f"round {k} {case.metric}: halted: {result.traj.halt_reason}")
                continue
            work = wl.work(case, result)
            tally.work += work
            tally.bytes += len(result.text.encode())
            if result.traj is not None:
                tally.projected_steps += result.traj.projected_steps
                spent = tally.class_time.setdefault(case.kind, [0.0, 0])
                spent[0] += dt
                spent[1] += work
            try:
                outcome = wl.check(case, result)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                # an output the checks cannot read is a wrong output
                tally.problems.append(f"round {k} {case.metric}: unreadable output: {exc!r}")
                continue
            tally.problems.extend(f"round {k} {case.metric}: {p}" for p in outcome.problems)
            if k < wl.digits_rounds and outcome.digits:
                tally.digits.extend(outcome.digits)
                tally.op_digits.append(min(outcome.digits))
        ref_next = reference_seconds()
        scale = REF_QUIET_S / (0.5 * (ref + ref_next))
        ref = ref_next
        tally.scales.append(scale)
        tally.latencies.extend(dt * scale for dt in latencies)
        tally.round_times.append((tally.elapsed - round_time) * scale)
        if tally.elapsed > round_time:
            tally.round_rates.append((tally.work - round_work) / tally.round_times[-1])
        k += 1
    return k, tally


def end_to_end(tally: Tally, setup_s: float) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        # median over rounds: every round runs the same operation types, and
        # the median discounts rounds slowed by other load on the machine
        "ops_per_s": (statistics.median(tally.round_rates), "1/s"),
        "op_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "digits_min": (min(tally.digits), "digits"),
        "digits_p50": (statistics.median(tally.op_digits), "digits"),
    }


def per_layer(summary: dict, tally: Tally, rounds: int, untraced_s: float) -> dict:
    """Per-layer metrics of the traced phase, counts and seconds per round."""
    by = summary["by_name"]

    def get(name, key):
        return by.get(name, {}).get(key, 0)

    out = {}
    for name in ("dsl.eval_taylor", "dsl.eval_values", "dsl.require_admissible",
                 "jet.compute_jets", "degeneracy.analyze", "degeneracy.analyze_frozen",
                 "connection.solve_G", "connection.constraint_residuals",
                 "connection.coefficients_N"):
        out[f"{name}.calls"] = (get(name, "calls") / rounds, "1/round")
        out[f"{name}.self_s"] = (get(name, "self_s") / rounds, "s/round")
    out["dsl.eval_taylor.rows"] = (get("dsl.eval_taylor", "amount") / rounds, "1/round")
    out["jet.compute_jets.points"] = (get("jet.compute_jets", "amount") / rounds, "1/round")
    calls = get("jet.compute_jets", "calls")
    out["jet.points_per_call"] = (get("jet.compute_jets", "amount") / calls if calls else 0.0,
                                  "points/call")
    out["degeneracy.analyze_frozen.raised"] = (
        get("degeneracy.analyze_frozen", "raised") / rounds, "1/round")
    for name in ("linalg.svd", "linalg.lstsq", "linalg.inv"):
        out[f"{name}.calls"] = (get(name, "calls") / rounds, "1/round")
    for name in ("connection.curvature_torsion", "autoparallel.integrate",
                 "autoparallel.parallel_transport", "serialize.to_json_text"):
        out[f"{name}.self_s"] = (get(name, "self_s") / rounds, "s/round")
    steps = sum(n for _, n in tally.class_time.values())
    out["autoparallel.steps"] = (steps / rounds, "1/round")
    out["autoparallel.jet_points_per_step"] = (
        summary["autoparallel_jet_points"] / steps if steps else 0.0, "points/step")
    out["autoparallel.projected_steps"] = (tally.projected_steps / rounds, "1/round")
    out["autoparallel.halts"] = (tally.halts / rounds, "1/round")
    for kind in ("regular", "second-class", "first-class"):
        spent, n = tally.class_time.get(kind, (0.0, 0))
        out[f"autoparallel.ms_per_step.{kind}"] = (spent / n * 1e3 if n else 0.0, "ms/step")
    out["serialize.bytes"] = (tally.bytes / rounds, "bytes/round")
    out["trace.overhead_pct"] = ((sum(tally.round_times) / untraced_s - 1.0) * 100.0, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")

    # set-up, repeated: each repeat imports the package afresh
    setups, scaled = [], []
    ref = reference_seconds()
    for _ in range(SETUP_REPEATS):
        setups.append(set_up(args.workload, args.seed))
        ref_next = reference_seconds()
        scaled.append(setups[-1][0] * REF_QUIET_S / (0.5 * (ref + ref_next)))
        ref = ref_next
    setup_s = statistics.median(scaled)
    _, wl, warm, text = setups[-1]
    problems = []
    # determinism: every repeat, a further run and the CLI emit the same bytes
    if any(s[3] != text for s in setups) or warm_text(wl, warm) != text:
        problems.append("warm-up operation is not byte-identical across repeats")
    cli_text = wl.cli_text(warm)
    if not text.startswith(cli_text):
        problems.append("warm-up document differs from the finslerconn CLI output")

    rounds, tally = run_rounds(wl, None, args.seconds)
    attempted, failed = tally.attempted, tally.failed
    failures = tally.failures
    problems.extend(tally.problems)

    if args.trace:
        # the first half of the rounds again, traced: per-round figures
        # need no more, and the trace then costs about half a run
        traced_rounds = (rounds + 1) // 2
        tracer = tracing.Tracer()
        tracer.install(wl.pkg)
        try:
            _, traced = run_rounds(wl, traced_rounds, args.seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv")
        attempted += traced.attempted
        failed += traced.failed
        failures += traced.failures
        problems.extend(traced.problems)
        metrics = per_layer(tracing.summarize(tracer.spans), traced, traced_rounds,
                            sum(tally.round_times[:traced_rounds]))
    else:
        metrics = end_to_end(tally, setup_s)

    for f in failures:
        print(f"failed: {f}", file=sys.stderr)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {attempted} operations, "
          f"{failed} failed, {len(problems)} problems, timed {tally.elapsed:.3f} s "
          f"({tally.work / tally.elapsed:.6g} work/s unscaled, "
          f"median scale {statistics.median(tally.scales):.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, FileNotFoundError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
