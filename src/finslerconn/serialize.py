"""Deterministic serialization helpers.

Floats are emitted with 17 significant digits (lossless for doubles), so
identical runs produce byte-identical documents and regression diffs stay
exact.  No wall-clock or RNG state ever enters an output.  JSON documents
are strict: a non-finite float is written as ``null`` and a control
character inside a string as ``\\uXXXX``.
"""

from __future__ import annotations

import math
import re

import numpy as np

__all__ = ["fmt", "to_json_text", "trajectory_csv", "trajectory_dict"]


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


_CONTROL = re.compile(r"[\x00-\x1f]")


def _float_text(v: float) -> str:
    """A Python float as :func:`to_json_text` writes it."""
    return "%.17g" % v if math.isfinite(v) else "null"


def to_json_text(obj, indent: int = 0) -> str:
    """Render JSON with %.17g floats; dict order is insertion order.

    Python floats and ints (the items of ``ndarray.tolist()``) and numpy
    arrays, the bulk of every document, are dispatched first; the bytes
    are those of the general branches below."""
    kind = type(obj)
    if kind is float:
        return _float_text(obj)
    if kind is int:
        return str(obj)
    if isinstance(obj, np.ndarray):
        return to_json_text(obj.tolist(), indent)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        text = obj.replace("\\", "\\\\").replace('"', '\\"')
        if not text.isprintable():  # may hold a control character
            text = _CONTROL.sub(lambda m: "\\u%04x" % ord(m.group()), text)
        return '"' + text + '"'
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [to_json_text(v, indent + 1) for v in obj]
        if all(len(s) < 24 and "\n" not in s for s in items):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            inner + to_json_text(str(k)) + ": " + to_json_text(v, indent + 1)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def trajectory_csv(traj) -> str:
    """One row per node: parameter, state, diagnostics; columns sized to
    the largest constraint/multiplier count seen along the run."""
    n1 = traj.nodes[0].x.shape[0]
    max_d = max(n.C.shape[0] for n in traj.nodes)
    header = (
        ["tau"]
        + [f"x{i}" for i in range(n1)]
        + [f"dx{i}" for i in range(n1)]
        + ["L"]
        + [f"C{j + 1}" for j in range(max_d)]
        + ["el_norm", "lambda0"]
        + [f"lambdaI{j + 1}" for j in range(max_d)]
        + ["eta", "rank", "D", "gauge_dim_free", "events"]
    )
    lines = [",".join(header)]
    for n in traj.nodes:
        c_vals = list(n.C) + [float("nan")] * (max_d - n.C.shape[0])
        li_vals = list(n.lambdaI) + [float("nan")] * (max_d - n.lambdaI.shape[0])
        row = (
            [fmt(n.tau)]
            + [fmt(v) for v in n.x]
            + [fmt(v) for v in n.dx]
            + [fmt(n.L)]
            + [fmt(v) for v in c_vals]
            + [fmt(n.el_norm), fmt(n.lambda0)]
            + [fmt(v) for v in li_vals]
            + [fmt(n.eta), str(n.rank), str(n.D), str(n.gauge_dim_free)]
            + [";".join(n.events)]
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trajectory_dict(traj) -> dict:
    return {
        "gauge": traj.gauge.kind,
        "h": traj.h,
        "steps_requested": traj.steps_requested,
        "halt_reason": traj.halt_reason,
        "projected_steps": traj.projected_steps,
        "events": [[k, e] for k, e in traj.events],
        "summary": traj.summary(),
        "nodes": [
            {
                "tau": n.tau,
                "x": n.x,
                "dx": n.dx,
                "L": n.L,
                "C": n.C,
                "el_residual": n.el,
                "el_norm": n.el_norm,
                "lambda0": n.lambda0,
                "lambdaI": n.lambdaI,
                "lambda_a": n.lambda_a,
                "eta": n.eta,
                "rank": n.rank,
                "D": n.D,
                "gauge_dim_free": n.gauge_dim_free,
                "events": list(n.events),
            }
            for n in traj.nodes
        ],
    }
