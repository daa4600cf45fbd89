"""The three benchmark workloads: seeded inputs, the timed operation, checks.

A workload is built from the loaded package and the seed.  ``cases(k)``
makes the inputs of round ``k`` from ``(seed, k)`` alone, so a round has
the same inputs however many rounds ran before it.  ``execute`` is the
timed operation and calls the package through module attributes, so the
traced run's wrappers see every call.  ``check`` runs outside the timed
region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
from dataclasses import dataclass, replace

import numpy as np

import oracles

H = 1e-2
STEPS = 40
WARMUP_STEPS = 4
RANK_TOL = 1e-9
# tight enough that the projected second-class case projects on most steps;
# the initial residual of a state on the surface stays below 1e-16 * scale
PROJECT_TOL = 3e-16
# sin(theta) along every sphere curve stays above this
SPHERE_MIN_SIN = 0.5
# quartic-root directions keep this share of their norm in each component;
# the direction Hessian drops rank on the coordinate axes
QUARTIC_MIN_SHARE = 0.35
# the connection-points that also get --curvature: the sphere has an exact
# curvature tensor, potential-system (n1 = 4) is the costliest stencil
CURVATURE_METRICS = ("riemann-2d-curved", "riemann-2d-curved", "potential-system")


@dataclass(frozen=True)
class Case:
    """Inputs of one operation."""

    kind: str  # regular | second-class | first-class | inspect
    metric: str
    x: np.ndarray
    dx: np.ndarray
    gauge: str = "time"
    Z: np.ndarray | None = None
    lam: tuple[float, float] | None = None
    project: bool = False
    curvature: bool = False
    steps: int = STEPS
    # time-gauge cases step by H / dx[0]: every curve then advances the
    # time coordinate by H per step, so their truncation errors compare
    h: float = H
    # inspect arguments as the CLI receives them
    x_text: str = ""
    dx_text: str = ""


@dataclass
class Result:
    """What one operation produced: the emitted document and, for
    geodesics, the trajectory and transport objects."""

    text: str
    traj: object = None
    transport: object = None


def _vector_text(v: np.ndarray) -> str:
    # repr round-trips every double exactly
    return ",".join(repr(float(c)) for c in v)


def geodesic_record(traj, transport, text: str) -> dict:
    """Plain arrays of a trajectory and its transport, for the checks."""
    nodes = traj.nodes
    return {
        "h": traj.h,
        "steps": len(nodes) - 1,
        "taus": np.array([n.tau for n in nodes]),
        "xs": np.array([n.x for n in nodes]),
        "dxs": np.array([n.dx for n in nodes]),
        "L": np.array([n.L for n in nodes]),
        "lambda0": np.array([n.lambda0 for n in nodes]),
        "max_C": np.array([float(np.max(np.abs(n.C))) if n.C.size else 0.0 for n in nodes]),
        "el_rel": np.array([n.el_norm / max(n.el_scale, 1e-300) for n in nodes]),
        "rank": np.array([n.rank for n in nodes]),
        "D": np.array([n.D for n in nodes]),
        "gauge_dim_free": np.array([n.gauge_dim_free for n in nodes]),
        "projected_steps": traj.projected_steps,
        "text": text,
        "Z": None if transport is None else transport.Z,
        "ZL": None if transport is None else transport.L_values,
    }


class Workload:
    """Shared machinery; subclasses define the rounds and the operation."""

    name = ""
    # rounds whose comparisons feed the digits metrics; every run attempts
    # at least this many, so the digits do not depend on the run's speed
    digits_rounds = 1

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        self.seed = seed
        self.entries = {e.name: e for e in pkg.catalog.catalog()}

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, k])

    def sample(self, rng, metric: str, accept=None, tries: int = 1000):
        """One (x, dx) from the metric's catalog sampler, filtered by ``accept``."""
        entry = self.entries[metric]
        for _ in range(tries):
            xs, dxs = entry.sampler.sample(rng, 1, entry.spec)
            if accept is None or accept(xs[0], dxs[0]):
                return xs[0].copy(), dxs[0].copy()
        raise RuntimeError(f"no acceptable {metric} sample in {tries} tries")

    def metric_value(self, metric: str, x, dx) -> float:
        spec = self.entries[metric].spec
        return float(self.pkg.dsl.eval_values(spec.expr, spec.params, x[None, :], dx[None, :])[0])

    def cases(self, k: int) -> list[Case]:
        raise NotImplementedError

    def warmup_case(self) -> Case:
        raise NotImplementedError

    def execute(self, case: Case) -> Result:
        if case.kind == "inspect":
            return self._inspect(case)
        return self._geodesic(case)

    def work(self, case: Case, result: Result) -> int:
        """Units of work the operation completed: RK4 steps or points."""
        if case.kind == "inspect":
            return 1
        steps = len(result.traj.nodes) - 1
        return steps + (0 if result.transport is None else len(result.transport.Z) - 1)

    def check(self, case: Case, result: Result) -> oracles.Outcome:
        entry = self.entries[case.metric]
        if case.kind == "inspect":
            return oracles.check_inspect(case, result.text, entry, self.pkg.catalog)
        rec = geodesic_record(result.traj, result.transport, result.text)
        return oracles.check_geodesic(case, rec, entry, self.pkg.catalog)

    def cli_text(self, case: Case) -> str:
        """The same operation through ``finslerconn.cli.main``: its stdout."""
        if case.kind == "inspect":
            argv = ["inspect", "--metric", case.metric, f"--x={_vector_text(case.x)}",
                    f"--dx={_vector_text(case.dx)}"]
            if case.curvature:
                argv.append("--curvature")
        else:
            argv = ["geodesic", "--metric", case.metric, f"--x={_vector_text(case.x)}",
                    f"--dx={_vector_text(case.dx)}", "--gauge", case.gauge,
                    "--h", repr(float(case.h)), "--steps", str(case.steps), "--format", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"finslerconn {' '.join(argv)} exited with {code}")
        return buf.getvalue()

    # -- the timed operations ------------------------------------------------

    def _geodesic(self, case: Case) -> Result:
        pkg = self.pkg
        ap = pkg.autoparallel
        spec = self.entries[case.metric].spec
        if case.lam is not None:
            lam = {1: case.lam[0], 2: case.lam[1]}
            gauge = ap.GaugeChoice.time(free_policy=lambda tau, x, dx, idx: lam[idx])
        elif case.gauge == "arclength":
            gauge = ap.GaugeChoice.arclength()
        else:
            gauge = ap.GaugeChoice.time()
        extra = {"project": True, "constraint_tol": PROJECT_TOL} if case.project else {}
        traj = pkg.cli.integrate(spec, case.x, case.dx, gauge, steps=case.steps, h=case.h,
                                 rank_tol=RANK_TOL, **extra)
        text = pkg.cli.to_json_text(pkg.cli.trajectory_dict(traj)) + "\n"
        transport = None
        if case.Z is not None and traj.completed:
            transport = ap.parallel_transport(spec, traj, case.Z)
        return Result(text=text, traj=traj, transport=transport)

    def _inspect(self, case: Case) -> Result:
        args = argparse.Namespace(
            metric=case.metric, x=case.x_text, dx=case.dx_text, rank_tol=RANK_TOL,
            homogeneity_tol=1e-9, curvature=case.curvature, out=None,
        )
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.cmd_inspect(args)
        if code != 0:
            raise RuntimeError(f"inspect exited with {code}")
        return Result(text=buf.getvalue())


class GeodesicRegular(Workload):
    """Regular metrics (D = 0): the expression sweep dominates each step."""

    name = "geodesic-regular"
    digits_rounds = 8

    def _unit(self, metric: str, x, dx):
        return dx / self.metric_value(metric, x, dx)

    def _sphere(self, rng) -> Case:
        length = STEPS * H
        while True:
            x, dx = self.sample(rng, "riemann-2d-curved")
            dx = self._unit("riemann-2d-curved", x, dx)
            if oracles.sphere_min_sin(x, dx, length) >= SPHERE_MIN_SIN:
                break
        Z = self.sample(rng, "riemann-2d-curved")[1]
        return Case("regular", "riemann-2d-curved", x, dx, gauge="arclength", Z=Z)

    def _quartic(self, rng) -> Case:
        def away_from_axes(_x, v):
            return float(np.min(np.abs(v))) >= QUARTIC_MIN_SHARE * float(np.linalg.norm(v))

        x, dx = self.sample(rng, "quartic-root", away_from_axes)
        dx = self._unit("quartic-root", x, dx)
        # a multiple of the velocity: it is self-parallel, so it keeps clear
        # of the axes as the curve does (an independent vector can reach an
        # axis, where transport fails; see README, "Input make-up")
        Z = rng.uniform(0.5, 1.5) * dx
        return Case("regular", "quartic-root", x, dx, gauge="arclength", Z=Z)

    def cases(self, k: int) -> list[Case]:
        rng = self.rng(k)
        # potential-system runs without a transport: transport along its
        # curves fails on a share of seeds (see README, "Input make-up")
        x, dx = self.sample(rng, "potential-system")
        potential = Case("regular", "potential-system", x, dx, gauge="time",
                         h=H / float(dx[0]))
        sphere_a = self._sphere(rng)
        sphere_b = self._sphere(rng)
        x, dx = self.sample(rng, "riemann-3d-generic")
        generic = Case("regular", "riemann-3d-generic", x,
                       self._unit("riemann-3d-generic", x, dx), gauge="arclength",
                       Z=self.sample(rng, "riemann-3d-generic")[1])
        return [potential, sphere_a, sphere_b, generic, self._quartic(rng)]

    def warmup_case(self) -> Case:
        return replace(self.cases(0)[1], steps=WARMUP_STEPS)


class GeodesicConstrained(Workload):
    """Singular metrics: consistency rows, frozen re-analysis and
    constraint residuals at every RK4 stage."""

    name = "geodesic-constrained"
    digits_rounds = 8

    def _second_class(self, rng, project: bool) -> Case:
        x, dx = self.sample(rng, "second-class")
        # onto the constraint surface: dx = s * (1, x2, -x1)
        s = dx[0]
        return Case("second-class", "second-class", x, s * np.array([1.0, x[2], -x[1]]),
                    project=project, h=H / float(s))

    def _frenkel(self, rng) -> Case:
        # the 0-th velocity dominates d1 and d2 along the whole curve (the
        # multipliers move them by at most 0.5 * STEPS * H), which keeps
        # the index split at {0} | {1, 2} | {3}
        def dominant_time(_x, v):
            return v[0] - max(abs(v[1]), abs(v[2])) >= 0.3

        x, dx = self.sample(rng, "frenkel", dominant_time)
        x[3] = 0.0
        dx[3] = 0.0
        lam = tuple(float(v) for v in rng.uniform(0.2, 0.5, 2) * rng.choice((-1.0, 1.0), 2))
        return Case("first-class", "frenkel", x, dx, lam=lam)

    def cases(self, k: int) -> list[Case]:
        rng = self.rng(k)
        return [self._second_class(rng, False), self._frenkel(rng),
                self._second_class(rng, True)]

    def warmup_case(self) -> Case:
        return replace(self.cases(0)[0], steps=WARMUP_STEPS)


class ConnectionPoints(Workload):
    """Independent points over the whole catalog: Richardson stencils over
    solve_G; no sequential dependence and no autoparallel."""

    name = "connection-points"
    digits_rounds = 20

    def _point(self, rng, metric: str, curvature: bool) -> Case:
        x, dx = self.sample(rng, metric)
        return Case("inspect", metric, x, dx, curvature=curvature,
                    x_text=_vector_text(x), dx_text=_vector_text(dx))

    def cases(self, k: int) -> list[Case]:
        rng = self.rng(k)
        out = []
        for name in self.entries:
            out.append(self._point(rng, name, False))
            out.append(self._point(rng, name, False))
        out.extend(self._point(rng, name, True) for name in CURVATURE_METRICS)
        return out

    def warmup_case(self) -> Case:
        return next(c for c in self.cases(0) if c.metric == "riemann-2d-curved")


WORKLOADS = {w.name: w for w in (GeodesicRegular, GeodesicConstrained, ConnectionPoints)}

