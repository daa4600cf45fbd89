"""Spans around the calls into each layer, for the traced benchmark run.

The tracer replaces module attributes that the layers call through (for
example ``autoparallel.compute_jets`` or ``numpy.linalg.svd``) with
wrappers that record a span: name, start, end, parent span and an amount
of work (rows, points).  Nothing in the package changes; the untraced run
installs no wrapper.  Spans stay in memory and are written out at exit.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# (defining module, attribute, span name, amount of work from the arguments)
TARGETS = (
    ("dsl", "eval_taylor", "dsl.eval_taylor", lambda a, k: len(a[2])),
    ("dsl", "eval_values", "dsl.eval_values", None),
    ("dsl", "require_admissible", "dsl.require_admissible", None),
    ("jet", "compute_jets", "jet.compute_jets", lambda a, k: len(a[1])),
    ("degeneracy", "analyze", "degeneracy.analyze", None),
    ("degeneracy", "analyze_frozen", "degeneracy.analyze_frozen", None),
    ("connection", "solve_G", "connection.solve_G", None),
    ("connection", "constraint_residuals", "connection.constraint_residuals", None),
    ("connection", "coefficients_N", "connection.coefficients_N", None),
    ("connection", "curvature_torsion", "connection.curvature_torsion", None),
    ("autoparallel", "integrate", "autoparallel.integrate", None),
    ("autoparallel", "parallel_transport", "autoparallel.parallel_transport", None),
    # to_json_text recurses through its own module global, so only the
    # names other modules import are wrapped: one span per document
    ("serialize", "to_json_text", "serialize.to_json_text", None),
)
NUMPY_TARGETS = (("svd", "linalg.svd"), ("lstsq", "linalg.lstsq"), ("inv", "linalg.inv"))

NAME, START, END, PARENT, AMOUNT, RAISED = range(6)


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, amount=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   amount(args, kwargs) if amount else 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (the benchmark's call sites)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, pkg):
        """Wrap every module attribute through which a target is called."""
        modules = [getattr(pkg, name) for name in pkg.module_names] + [pkg.root]
        for home, attr, name, amount in TARGETS:
            original = getattr(getattr(pkg, home), attr)
            wrapper = self.wrap(name, original, amount)
            for module in modules:
                if module is getattr(pkg, home) and attr == "to_json_text":
                    continue
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        for attr, name in NUMPY_TARGETS:
            self._patch(np.linalg, attr, self.wrap(name, getattr(np.linalg, attr)))

    def _patch(self, module, attr: str, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path):
        """One tab-separated line per span: index, parent, name, start, end,
        amount, raised; times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\tamount\traised\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[NAME]}\t{s[START] - t0:.9f}\t"
                         f"{s[END] - t0:.9f}\t{s[AMOUNT]}\t{int(s[RAISED])}\n")


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, self seconds, summed amount and calls that
    raised; plus the jet points computed under an autoparallel span.

    Self time is a span's duration less the durations of its direct
    children (single thread, so children nest and do not overlap).
    """
    child_time = [0.0] * len(spans)
    under_ap = [False] * len(spans)
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            child_time[parent] += s[END] - s[START]
            under_ap[i] = under_ap[parent] or spans[parent][NAME].startswith("autoparallel.")
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "amount": 0, "raised": 0})
    ap_jet_points = 0
    for i, s in enumerate(spans):
        st = stats[s[NAME]]
        st["calls"] += 1
        st["self_s"] += (s[END] - s[START]) - child_time[i]
        st["amount"] += s[AMOUNT]
        st["raised"] += int(s[RAISED])
        if s[NAME] == "jet.compute_jets" and under_ap[i]:
            ap_jet_points += s[AMOUNT]
    return {"by_name": dict(stats), "autoparallel_jet_points": ap_jet_points}
