"""Command-line interface.

Commands::

    finslerconn inspect  --metric NAME|FILE --x ... --dx ...   connection data at a point
    finslerconn geodesic --metric NAME|FILE --x ... --dx ...   integrate an auto-parallel curve
    finslerconn verify   [--only SUBSTR] [--extra-metric FILE] invariant suite
    finslerconn catalog  [--name NAME]                         list/dump built-in metrics

Exit codes: 0 success, 1 verification failure, 2 input/validation error,
3 runtime halt (partial trajectory still written).  Structured errors go
to stderr as JSON; every JSON document is strict (a non-finite number is
written as null).  Output is byte-identical for identical inputs; set
FINSLER_LOG=debug|info for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .autoparallel import GaugeChoice, integrate
from .catalog import catalog, catalog_entry
from .connection import coefficients_N, curvature_torsion
from .degeneracy import analyze
from .dsl import MetricSpec, metric_from_json, metric_to_json
from .errors import FinslerError, InvalidStateError
from .jet import TangentPoint, compute_jet
from .serialize import to_json_text, trajectory_csv, trajectory_dict
from .verify import render_report, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_HALT = 3


def _setup_logging():
    level_name = os.environ.get("FINSLER_LOG", "").lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING}
    if level_name in levels:
        logging.basicConfig(stream=sys.stderr, level=levels[level_name])


def _finite_or_null(value):
    """``value`` with every non-finite float, in lists too, as None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _error_json(exc: Exception) -> str:
    detail = getattr(exc, "detail", {}) or {}
    safe_detail = {
        k: _finite_or_null(v) for k, v in detail.items()
        if isinstance(v, (str, int, float, bool, type(None), list, tuple))
    }
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "detail": safe_detail}
    )


def _load_metric(source: str) -> MetricSpec:
    path = Path(source)
    if path.suffix == ".json" or path.exists():
        return metric_from_json(path.read_text(encoding="utf-8"))
    return catalog_entry(source).spec


def _parse_vector(text: str, dimension: int, what: str) -> np.ndarray:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != dimension:
        raise InvalidStateError(
            f"{what} needs {dimension} comma-separated components, got {len(parts)}"
        )
    values = np.array([float(p) for p in parts])
    if not np.all(np.isfinite(values)):
        raise InvalidStateError(f"{what} components must be finite, got {text!r}")
    return values


def _write_out(text: str, out: str | None):
    if out and out != "-":
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _connection_dict(conn) -> dict:
    return {
        "G": conn.G,
        "N": conn.N,
        "ell0": conn.ell0,
        "ellI": conn.ellI,
        "ella": conn.ella,
        "lambda_a": conn.lambda_a,
        "M": conn.M,
        "C": conn.C,
        "gauge_lambdaI": conn.gauge_lambdaI,
        "omega": conn.omega,
        "omega_residual": conn.omega_residual,
        "basis_det": conn.basis_det,
        "lambda_blowup": conn.lambda_blowup,
        "fd_steps": conn.fd_steps,
    }


def _degeneracy_dict(deg) -> dict:
    return {
        "rank": deg.rank,
        "D": deg.D,
        "v": deg.v,
        "v_raw": deg.v_raw,
        "a_indices": list(deg.a_indices),
        "I_indices": list(deg.I_indices),
        "zero_index": deg.zero_index,
        "Lab_inv": deg.Lab_inv,
        "sing_values": deg.sing_values,
        "rank_ambiguous": deg.rank_ambiguous,
        "gap_ratio": deg.gap_ratio if np.isfinite(deg.gap_ratio) else None,
        "p_residuals": deg.p_residuals,
        "dx_null_defect": deg.dx_null_defect,
    }


def cmd_inspect(args) -> int:
    spec = _load_metric(args.metric)
    x = _parse_vector(args.x, spec.dimension, "--x")
    dx = _parse_vector(args.dx, spec.dimension, "--dx")
    pt = TangentPoint(x, dx)
    jet = compute_jet(spec, pt=pt, rtol=args.homogeneity_tol)
    deg = analyze(jet, rank_tol=args.rank_tol)
    conn = coefficients_N(spec, pt, rank_tol=args.rank_tol, jet=jet, deg=deg)
    doc = {
        "metric": metric_to_json(spec),
        "point": {"x": x, "dx": dx},
        "jet": jet.to_dict(),
        "degeneracy": _degeneracy_dict(deg),
        "connection": _connection_dict(conn),
    }
    if args.curvature:
        cd = curvature_torsion(spec, pt, rank_tol=args.rank_tol, N=conn.N)
        doc["curvature"] = {
            "R": cd.R, "N2": cd.N2, "x_step": cd.x_step, "dx_step": cd.dx_step,
        }
    _write_out(to_json_text(doc) + "\n", args.out)
    return EXIT_OK


def cmd_geodesic(args) -> int:
    spec = _load_metric(args.metric)
    x = _parse_vector(args.x, spec.dimension, "--x")
    dx = _parse_vector(args.dx, spec.dimension, "--dx")
    gauge = GaugeChoice.arclength() if args.gauge == "arclength" else GaugeChoice.time()
    traj = integrate(
        spec, x, dx, gauge,
        steps=args.steps, h=args.h,
        rank_tol=args.rank_tol, project=args.project,
    )
    if args.format == "csv":
        text = trajectory_csv(traj)
    else:
        text = to_json_text(trajectory_dict(traj)) + "\n"
    _write_out(text, args.out)
    if args.out and args.out != "-":
        summary = traj.summary()
        sys.stdout.write(to_json_text(summary) + "\n")
    if not traj.completed:
        sys.stderr.write(
            json.dumps({"error": "TrajectoryHalt", "message": traj.halt_reason}) + "\n"
        )
        return EXIT_HALT
    return EXIT_OK


def cmd_verify(args) -> int:
    extra = []
    for path in args.extra_metric or ():
        extra.append((Path(path).stem, metric_from_json(Path(path).read_text(encoding="utf-8"))))
    results = run_verification(only=args.only, extra_metrics=extra)
    report = render_report(results)
    _write_out(report + "\n", args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def cmd_catalog(args) -> int:
    if args.name:
        entry = catalog_entry(args.name)
        _write_out(to_json_text(metric_to_json(entry.spec)) + "\n", args.out)
        return EXIT_OK
    rows = [
        {
            "name": e.name,
            "dimension": e.spec.dimension,
            "classification": e.classification,
            "expected_rank": e.expected_rank,
            "expected_D": e.expected_D,
            "description": e.description,
        }
        for e in catalog()
    ]
    _write_out(to_json_text(rows) + "\n", args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as an
    :class:`InvalidStateError` instead of printing usage and exiting."""

    def error(self, message):
        raise InvalidStateError(f"{self.prog}: {message}")


def _attach_vector_values(argv: list[str]) -> list[str]:
    """``--x -0.2,0.3`` as ``--x=-0.2,0.3``: argparse would take a vector
    whose first component is negative for an option."""
    out = []
    for token in argv:
        if out and out[-1] in ("--x", "--dx") and re.match(r"-[0-9.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="finslerconn",
        description="Nonlinear connections and constrained geodesics of Finsler metrics",
    )
    parser.add_argument("--version", action="version", version=f"finslerconn {__version__}")
    parser.add_argument(
        "--config",
        help="JSON file of default option values; explicit flags win",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--metric", required=True, help="catalog name or metric JSON file")
        p.add_argument("--x", required=True, help="comma-separated coordinates")
        p.add_argument("--dx", required=True, help="comma-separated direction components")
        p.add_argument("--rank-tol", dest="rank_tol", type=float, default=1e-9)
        p.add_argument("--out", default=None, help="output path ('-' = stdout)")

    p_inspect = sub.add_parser("inspect", help="jet, degeneracy and connection data at a point")
    common(p_inspect)
    p_inspect.add_argument("--curvature", action="store_true", help="include curvature data")
    p_inspect.add_argument(
        "--homogeneity-tol", dest="homogeneity_tol", type=float, default=1e-9
    )
    p_inspect.set_defaults(func=cmd_inspect)

    p_geo = sub.add_parser("geodesic", help="integrate an auto-parallel trajectory")
    common(p_geo)
    p_geo.add_argument("--gauge", choices=("time", "arclength"), default="time")
    p_geo.add_argument("--h", type=float, default=1e-3, help="step size")
    p_geo.add_argument("--steps", type=int, default=1000)
    p_geo.add_argument("--project", action="store_true", help="enable constraint projection")
    p_geo.add_argument("--format", choices=("csv", "json"), default="csv")
    p_geo.set_defaults(func=cmd_geodesic)

    p_verify = sub.add_parser("verify", help="run the invariant suite over the catalog")
    p_verify.add_argument("--only", default=None, help="substring filter on check names")
    p_verify.add_argument(
        "--extra-metric", action="append", default=None,
        help="metric JSON file to vet alongside the catalog (repeatable)",
    )
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_cat = sub.add_parser("catalog", help="list built-in metrics or dump one")
    p_cat.add_argument("--name", default=None)
    p_cat.add_argument("--out", default=None)
    p_cat.set_defaults(func=cmd_catalog)

    return parser


def _config_value(action: argparse.Action, value):
    """A ``--config`` value parsed as ``action`` parses its command-line
    text: a flag takes a JSON boolean, a repeatable option a list of
    values, and a value is a string (or, for an option with a ``type``, a
    number) whose text goes through ``type`` and lies in ``choices``."""
    error = InvalidStateError(f"--config value {value!r} is not valid for option {action.dest!r}")

    def parse(item):
        if not (isinstance(item, str) or (action.type is not None and type(item) in (int, float))):
            raise error
        try:
            parsed = (action.type or str)(str(item))
        except ValueError:
            raise error from None
        if action.choices is not None and parsed not in action.choices:
            raise error
        return parsed

    if action.nargs == 0:
        if not isinstance(value, bool):
            raise error
        return value
    if isinstance(action, argparse._AppendAction):  # noqa: SLF001
        if not isinstance(value, list):
            raise error
        return [parse(item) for item in value]
    return parse(value)


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    # pull --config out first so its values become parser defaults
    probe = _Parser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if known.config:
        values = json.loads(Path(known.config).read_text(encoding="utf-8"))
        if not isinstance(values, dict):
            raise InvalidStateError("--config must contain a JSON object")
        values = {k.replace("-", "_"): v for k, v in values.items()}
        subparsers = parser._subparsers._group_actions[0].choices.values()  # noqa: SLF001
        actions = [a for sp in subparsers for a in sp._actions]  # noqa: SLF001
        unknown = sorted(set(values) - {a.dest for a in actions})
        if unknown:
            raise InvalidStateError(f"--config keys match no option of any command: {unknown}")
        parsed = {a.dest: _config_value(a, values[a.dest]) for a in actions if a.dest in values}
        for sp in subparsers:
            sp.set_defaults(**parsed)
    return argv


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    argv = _attach_vector_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
    except (FinslerError, ValueError, OSError) as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return EXIT_INPUT
    try:
        # every non-finite value halts or fails through an explicit check,
        # so numpy's floating-point warnings would only add noise to stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except FinslerError as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return EXIT_INPUT
    except (KeyError, ValueError, OSError) as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
