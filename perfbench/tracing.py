"""Span tracer that measures dualflow's layers from outside the package.

While installed, every public function of the seven dualflow modules is
replaced, at every module-level name inside ``dualflow.*`` that binds it,
by a wrapper that records a span: request (atom) id, name, parent span,
start and end in nanoseconds, and the rows of work the call did.
``RngSpec.generator`` is wrapped the same way.  The ``beta`` method of the
drift objects the benchmark built gets a call counter instead of a span:
a single call costs a few microseconds, so a span per call would mostly
measure the tracer.  Uninstalling puts every original object back, and
nothing under ``src/`` is edited.

Spans stay in memory until the run ends.  A span's layer self time is
its duration minus the time of the nearest descendant spans that belong
to another layer, so a module's own helpers count toward its layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("core", "surfaces", "reflection", "duals", "coupling", "verify", "cli")

# the span names the per-layer metrics read; a name missing from the
# program is reported as absent instead of failing the run
EXPECTED = (
    "core.RngSpec.generator",
    "core.uniforms",
    "core.normals",
    "core.euler_backward_values",
    "core.explicit_step",
    "core.implicit_step",
    "surfaces.step_surface",
    "reflection.impute_noise",
    "reflection.forward_flow",
    "duals.primal_terminal_batch",
    "duals.dual_terminal_batch",
    "duals.contains_batch",
    "duals.sample_conditional",
    "coupling.run_coupling",
    "coupling.run_entrance_coupling",
    "coupling.mc_region_sampler",
    "coupling.write_coupling_jsonl",
    "coupling.read_coupling_jsonl",
    "verify.ks_test",
    "verify.ks_two_sample",
    "cli.build_drift",
    "cli.emit_plot_data",
    "cli.main",
)

_FAMILY = {
    "IntervalState": "interval",
    "WedgeState": "wedge",
    "SlabState": "slab",
    "ConstantDrift": "constant",
    "BilinearDrift": "bilinear",
    "LogisticDrift": "logistic",
}

# span record fields
REQ, NAME, PARENT, T0, T1, ROWS, TAG = range(7)


def _family(obj) -> str:
    name = type(obj).__name__
    return _FAMILY.get(name, name)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(a) -> int:
    """Rows of a (..., n) array: every axis but the coordinate axis."""
    shape = np.shape(a)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _draws(tracer, args, kwargs, out):
    return int(np.prod(_arg(args, kwargs, 1, "shape"))), None


def _euler_rows(tracer, args, kwargs, out):
    grid = _arg(args, kwargs, 0, "grid")
    noise = _arg(args, kwargs, 2, "noise_values")
    batch = int(np.prod(np.shape(noise)[1:-1]))
    return grid.N * batch, _family(_arg(args, kwargs, 3, "drift"))


def _explicit_rows(tracer, args, kwargs, out):
    return _rows(_arg(args, kwargs, 0, "z")), _family(_arg(args, kwargs, 3, "drift"))


def _implicit_rows(tracer, args, kwargs, out):
    return _rows(_arg(args, kwargs, 0, "prev")), _family(_arg(args, kwargs, 3, "drift"))


def _path_steps(tracer, args, kwargs, out):
    return _arg(args, kwargs, 0, "x_path").grid.N, None


def _flow(tracer, args, kwargs, out):
    sigma = np.asarray(out.sigma.values)[:, 0]
    tracer.counters["flow.crossings"] += int(np.count_nonzero(np.diff(sigma)))
    return _arg(args, kwargs, 0, "x_path").grid.N, None


def _primal_batch(tracer, args, kwargs, out):
    grid = _arg(args, kwargs, 2, "grid")
    return len(_arg(args, kwargs, 4, "streams")) * grid.N, None


def _dual_batch(tracer, args, kwargs, out):
    grid = _arg(args, kwargs, 2, "grid")
    fam = _family(_arg(args, kwargs, 0, "state"))
    alive = np.asarray(out["alive"])
    tracer.counters[f"survival.{fam}.alive"] += int(alive.sum())
    tracer.counters[f"survival.{fam}.paths"] += int(alive.size)
    return len(_arg(args, kwargs, 4, "streams")) * grid.N, fam


def _points(tracer, args, kwargs, out):
    return _rows(_arg(args, kwargs, 1, "x")), None


def _coupling(tracer, args, kwargs, out):
    return 1, _family(_arg(args, kwargs, 0, "state0"))


def _region(tracer, args, kwargs, out):
    c = tracer.counters
    c["region.attempts"] += out.attempts
    c["region.accepted"] += out.accepted
    c["region.covered"] += out.covered
    c["region.stop_time_sum"] += float(np.sum(out.stop_times))
    c["region.horizon_x_accepted"] += float(out.meta["horizon"]) * out.accepted
    return out.accepted, None


def _written(tracer, args, kwargs, out):
    return _arg(args, kwargs, 1, "traj").grid.N + 1, None


def _read(tracer, args, kwargs, out):
    return out.grid.N + 1, None


EXTRACT = {
    "core.uniforms": _draws,
    "core.normals": _draws,
    "core.euler_backward_values": _euler_rows,
    "core.explicit_step": _explicit_rows,
    "core.implicit_step": _implicit_rows,
    "reflection.impute_noise": _path_steps,
    "reflection.forward_flow": _flow,
    "duals.primal_terminal_batch": _primal_batch,
    "duals.dual_terminal_batch": _dual_batch,
    "duals.contains_batch": _points,
    "coupling.run_coupling": _coupling,
    "coupling.mc_region_sampler": _region,
    "coupling.write_coupling_jsonl": _written,
    "coupling.read_coupling_jsonl": _read,
}

_INSTANCE = object()  # restore marker: delete the instance attribute


@dataclass
class Agg:
    count: int = 0
    dur: int = 0
    self: int = 0
    rows: int = 0


class Tracer:
    """Wraps dualflow's public functions while installed and keeps their spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.extract_errors: dict[str, int] = defaultdict(int)
        self.beta_counts = [0, 0]  # all calls, calls made inside implicit_step
        self.beta_wrapped = 0  # drift objects whose beta is counted
        self.wrapped: list[str] = []
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, fn, name: str):
        name_id = self._name_id(name)
        extract = EXTRACT.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.request, name_id, stack[-1] if stack else -1, clock(), 0, 1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[T1] = clock()
                stack.pop()
            if extract is not None:
                try:
                    rec[ROWS], rec[TAG] = extract(self, args, kwargs, out)
                except Exception:  # a changed signature must not stop the run
                    self.extract_errors[name] += 1
            return out

        wrapper.perfbench_wrapper = True
        return wrapper

    def _beta_counter(self, bound):
        spans, stack, counts = self.spans, self.stack, self.beta_counts
        implicit = self._name_id("core.implicit_step")

        def beta(x):
            counts[0] += 1
            if stack and spans[stack[-1]][NAME] == implicit:
                counts[1] += 1
            return bound(x)

        beta.perfbench_wrapper = True
        return beta

    def install(self, drifts=()) -> None:
        """Wrap every public dualflow function at each of its bindings."""
        self.wrapped = []
        self.beta_wrapped = 0
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"dualflow.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._span_wrapper(obj, f"{layer}.{name}"))
                    self.wrapped.append(f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "dualflow" or modname.startswith("dualflow.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])

        rngspec = getattr(sys.modules.get("dualflow.core"), "RngSpec", None)
        generator = vars(rngspec).get("generator") if rngspec is not None else None
        if inspect.isfunction(generator):
            self._restore.append((rngspec, "generator", generator))
            rngspec.generator = self._span_wrapper(generator, "core.RngSpec.generator")
            self.wrapped.append("core.RngSpec.generator")

        for drift in drifts:
            bound = getattr(drift, "beta", None)
            if bound is not None:
                self.beta_wrapped += 1
                self._restore.append((drift, "beta", _INSTANCE))
                # drift fields are frozen dataclasses; the counter is an
                # instance attribute that shadows the class method
                object.__setattr__(drift, "beta", self._beta_counter(bound))

    def uninstall(self) -> None:
        """Put back every object install() replaced, newest first."""
        while self._restore:
            target, name, original = self._restore.pop()
            if original is _INSTANCE:
                object.__delattr__(target, name)
            else:
                setattr(target, name, original)

    def absent(self) -> list[str]:
        have = set(self.wrapped)
        return [name for name in EXPECTED if name not in have]

    # ------------------------------------------------------------------
    # aggregation

    def aggregate(self):
        """Per-name and per-(name, tag) totals, plus the time of root spans."""
        spans = self.spans
        layer_of = [name.split(".", 1)[0] for name in self.names]
        n = len(spans)
        dur = [rec[T1] - rec[T0] for rec in spans]
        foreign = [0] * n
        # children are appended after their parent, so a reverse sweep sees
        # every descendant before the span it reports to
        for i in range(n - 1, -1, -1):
            p = spans[i][PARENT]
            if p >= 0:
                same = layer_of[spans[i][NAME]] == layer_of[spans[p][NAME]]
                foreign[p] += foreign[i] if same else dur[i]
        by_name: dict[str, Agg] = defaultdict(Agg)
        by_tag: dict[tuple, Agg] = defaultdict(Agg)
        draws = Agg()
        normals = Agg()
        root_ns = 0
        draw_ids = {self._ids.get("core.uniforms"), self._ids.get("core.normals")} - {None}
        normal_id = self._ids.get("core.normals")
        for i, rec in enumerate(spans):
            name = self.names[rec[NAME]]
            for agg in (by_name[name], by_tag[(name, rec[TAG])]):
                agg.count += 1
                agg.dur += dur[i]
                agg.self += dur[i] - foreign[i]
                agg.rows += rec[ROWS]
            parent = rec[PARENT]
            if parent < 0:
                root_ns += dur[i]
            if rec[NAME] in draw_ids and (parent < 0 or spans[parent][NAME] not in draw_ids):
                for agg in (draws, normals) if rec[NAME] == normal_id else (draws,):
                    agg.count += 1
                    agg.dur += dur[i]
                    agg.rows += rec[ROWS]
        return by_name, by_tag, draws, normals, root_ns

    def to_json(self) -> dict:
        """Everything recorded, in a form json.dump accepts."""
        return {
            "run_id": self.run_id,
            "names": self.names,
            "fields": ["request", "name", "parent", "t0_ns", "t1_ns", "rows", "tag"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "beta_calls": self.beta_counts[0],
            "beta_calls_in_implicit": self.beta_counts[1],
            "extract_errors": dict(self.extract_errors),
        }


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else None


def layer_metrics(tracer: Tracer, stats: dict) -> dict:
    """Per-layer metric values by name; None marks a metric with no data."""
    by_name, by_tag, draws, normals, _ = tracer.aggregate()
    have = set(tracer.wrapped)

    def agg(name, tag=...):
        if name not in have:
            return None
        return by_name.get(name, Agg()) if tag is ... else by_tag.get((name, tag), Agg())

    def count(name):
        a = agg(name)
        return None if a is None else a.count

    def per(name, field, den, scale, tag=...):
        a = agg(name, tag)
        if a is None:
            return None
        return _ratio(getattr(a, field), getattr(a, den), scale)

    c = tracer.counters
    m = {}
    m["core.rng.generators"] = count("core.RngSpec.generator")
    m["core.rng.generator_us"] = per("core.RngSpec.generator", "dur", "count", 1e-3)
    rng_known = "core.uniforms" in have
    m["core.rng.draws"] = draws.rows if rng_known else None
    m["core.rng.draw_ns"] = _ratio(draws.dur, draws.rows) if rng_known else None

    explicit = [a for a in (agg("core.euler_backward_values"), agg("core.explicit_step")) if a]
    steps = sum(a.rows for a in explicit)
    m["core.scheme.explicit_steps"] = steps if explicit else None
    m["core.scheme.explicit_ns_per_step"] = _ratio(sum(a.dur for a in explicit), steps)
    imp = agg("core.implicit_step")
    m["core.scheme.implicit_calls"] = None if imp is None else imp.count
    m["core.scheme.implicit_rows"] = None if imp is None else imp.rows
    m["core.scheme.implicit_ns_per_row"] = per("core.implicit_step", "dur", "rows", 1.0)
    counted = tracer.beta_wrapped > 0
    m["core.drift.beta_calls"] = tracer.beta_counts[0] if counted else None
    m["core.drift.beta_per_implicit"] = (
        _ratio(tracer.beta_counts[1], imp.count) if counted and imp is not None else None)

    m["surfaces.steps"] = count("surfaces.step_surface")
    m["surfaces.step_us_self"] = per("surfaces.step_surface", "self", "count", 1e-3)

    imp_noise = agg("reflection.impute_noise")
    m["reflection.impute_steps"] = None if imp_noise is None else imp_noise.rows
    m["reflection.impute_ns_per_step"] = per("reflection.impute_noise", "dur", "rows", 1.0)
    flow = agg("reflection.forward_flow")
    m["reflection.flow_steps"] = None if flow is None else flow.rows
    m["reflection.flow_us_per_step_self"] = per("reflection.forward_flow", "self", "rows", 1e-3)
    m["reflection.crossing_ratio"] = (
        None if flow is None else _ratio(c["flow.crossings"], flow.rows))

    m["duals.primal_batch_ns_per_path_step_self"] = per(
        "duals.primal_terminal_batch", "self", "rows", 1.0)
    m["duals.dual_batch_ns_per_path_step_self"] = per(
        "duals.dual_terminal_batch", "self", "rows", 1.0)
    m["duals.contains_ns_per_point"] = per("duals.contains_batch", "dur", "rows", 1.0)
    for fam in ("interval", "wedge", "slab"):
        m[f"duals.survival_ratio.{fam}"] = _ratio(
            c[f"survival.{fam}.alive"], c[f"survival.{fam}.paths"])
    m["duals.conditional_us"] = per("duals.sample_conditional", "dur", "count", 1e-3)

    for fam in ("wedge", "slab"):
        m[f"coupling.run_ms_self.{fam}"] = per(
            "coupling.run_coupling", "self", "count", 1e-6, tag=fam)
    region = agg("coupling.mc_region_sampler")
    attempts = c["region.attempts"]
    m["coupling.region.attempts"] = None if region is None else int(attempts)
    m["coupling.region.accept_ratio"] = _ratio(c["region.accepted"], attempts)
    m["coupling.region.cover_ratio"] = _ratio(c["region.covered"], attempts)
    m["coupling.region.useful_step_ratio"] = _ratio(
        c["region.stop_time_sum"], c["region.horizon_x_accepted"])
    m["coupling.region.ms_per_accepted"] = (
        None if region is None else _ratio(region.dur, c["region.accepted"], 1e-6))
    m["coupling.entrance_ms"] = per("coupling.run_entrance_coupling", "dur", "count", 1e-6)
    m["coupling.jsonl_write_us_per_record"] = per(
        "coupling.write_coupling_jsonl", "dur", "rows", 1e-3)
    m["coupling.jsonl_read_us_per_record"] = per(
        "coupling.read_coupling_jsonl", "dur", "rows", 1e-3)
    m["coupling.jsonl_bytes"] = _ratio(stats.get("jsonl_bytes", 0), stats.get("jsonl_records", 0))

    reports = [a for a in (agg("verify.ks_test"), agg("verify.ks_two_sample")) if a]
    m["verify.report_ms"] = _ratio(sum(a.dur for a in reports),
                                   sum(a.count for a in reports), 1e-6)

    m["cli.build_drift_ms"] = per("cli.build_drift", "dur", "count", 1e-6)
    plot = agg("cli.emit_plot_data")
    read = agg("coupling.read_coupling_jsonl")
    m["cli.plot_data_us_per_record_self"] = (
        None if plot is None or read is None else _ratio(plot.self, read.rows, 1e-3))
    m["cli.main_ms_self"] = per("cli.main", "self", "count", 1e-6)

    # ROADMAP item 1's north-star layer costs, under their own names
    m["north_star.rng_ns_per_normal"] = _ratio(normals.dur, normals.rows)
    for fam in ("bilinear", "logistic"):
        parts = [by_tag.get((name, fam)) for name in (
            "core.euler_backward_values", "core.explicit_step", "core.implicit_step")]
        parts = [a for a in parts if a]
        m[f"north_star.scheme_ns_per_path_step.{fam}"] = _ratio(
            sum(a.dur for a in parts), sum(a.rows for a in parts))
    m["north_star.surface_us_per_step"] = per("surfaces.step_surface", "dur", "count", 1e-3)
    m["north_star.dual_batch_ns_per_path_step"] = per(
        "duals.dual_terminal_batch", "dur", "rows", 1.0)
    for fam in ("wedge", "slab"):
        m[f"north_star.coupling_ms.{fam}"] = per(
            "coupling.run_coupling", "dur", "count", 1e-6, tag=fam)
    m["north_star.region_ms_per_accepted"] = m["coupling.region.ms_per_accepted"]
    return m
