"""Record the benchmark's numbers for one checkout in a ``BENCH_<n>.json``.

    python3 tools/bench_snapshot.py BENCH_1.json

Run from the root of a checkout, on an otherwise idle machine.  It runs
the unchanged ``benchmark/run.py`` one run at a time: each workload at
seeds 1 and 2 with ``--trace 0``, then each workload at seed 1 with
``--trace 1``, every run for the full ``SECONDS`` (about 7 minutes in
all).  Then it runs ``run_verification()`` on the checkout's package and
times the rows no workload isolates (``ROWS``).  The file holds the
environment, each run's command, rounds, median reference-kernel scale
and final JSON line (its end-to-end or per-layer metrics), the median
scale over all runs, the value and threshold of every ``verify`` check,
and each row's time.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "benchmark"))

import numpy as np  # noqa: E402

import run  # noqa: E402

WORKLOADS = ("geodesic-regular", "geodesic-constrained", "connection-points")
SEEDS = (1, 2)
TRACED_SEED = 1
SECONDS = 35
SUMMARY = re.compile(r": (\d+) rounds, .*median scale ([0-9.]+)\)")
# (catalog entry, x, dx) of the constrained rows: a time-gauge point on
# each singular entry's branch
ROW_POINTS = {
    "second-class": ((0.0, 0.8, 0.3), (1.0, 0.3, -0.8)),
    "frenkel": ((0.0, 0.1, -0.2, 0.0), (1.0, 0.5, 0.4, 1e-4)),
}
ROW_REPEATS = 2000


def environment() -> dict:
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True)
    return {
        "commit": git.stdout.strip() if git.returncode == 0 else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
    }


def bench_run(workload: str, seed: int, trace: int) -> dict:
    argv = ["benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    summary = next((SUMMARY.search(line) for line in lines if SUMMARY.search(line)), None)
    return {
        "command": ["python3", *argv],
        "exit_code": proc.returncode,
        "rounds": int(summary.group(1)) if summary else None,
        "median_scale": float(summary.group(2)) if summary else None,
        "result": json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None,
        "stderr": proc.stderr.strip().splitlines(),
    }


def rows(pkg) -> list[dict]:
    """Microseconds per call (20th percentile of ``ROW_REPEATS`` single
    calls) of one RK4 stage of ``integrate`` (``_resolve`` building its
    constraint-gradient batch) and of one node (``_node``: the node's
    batch, rank check and sign anchoring, which the next step's first
    stage then reads) at each of ``ROW_POINTS``."""
    ap = pkg.autoparallel
    out = []
    for name, (x, dx) in ROW_POINTS.items():
        spec = pkg.catalog.catalog_entry(name).spec
        x, dx = np.array(x), np.array(dx)
        deg = pkg.degeneracy.analyze(pkg.jet.compute_jet(spec, x=x, dx=dx))
        gauge = ap.GaugeChoice.time()
        calls = {
            "stage": lambda: ap._resolve(spec, x, dx, gauge, 0.0, deg),
            "node": lambda: ap._node(spec, x, dx, deg, 1e-9),
        }
        for row, call in calls.items():
            times = timeit.repeat(call, number=1, repeat=ROW_REPEATS)
            out.append({"row": f"{row}/{name}", "us": 1e6 * float(np.percentile(times, 20))})
    return out


def finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not re.fullmatch(r"BENCH_\d+\.json", Path(argv[0]).name):
        print("usage: python3 tools/bench_snapshot.py BENCH_<n>.json", file=sys.stderr)
        return 2
    runs = []
    for trace, seeds in ((0, SEEDS), (1, (TRACED_SEED,))):
        for workload in WORKLOADS:
            for seed in seeds:
                print(f"{workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
                runs.append(bench_run(workload, seed, trace))
    scales = [r["median_scale"] for r in runs if r["median_scale"] is not None]
    pkg = run.load_package()
    checks = pkg.cli.run_verification()
    snapshot = {
        "environment": environment(),
        "seconds": SECONDS,
        "median_scale": statistics.median(scales) if scales else None,
        "runs": runs,
        "verify": [
            {"name": c.name, "passed": bool(c.passed), "value": finite_or_none(float(c.value)),
             "threshold": finite_or_none(float(c.threshold))}
            for c in checks
        ],
        "rows": rows(pkg),
    }
    Path(argv[0]).write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
