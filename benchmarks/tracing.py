"""In-memory span tracer for the benchmark's traced runs.

Spans are taken in the benchmark's own code, around calls into the public
functions of the chaossde modules: ``Instrumentation`` rebinds each function,
at the module attribute its callers look it up by, to a wrapper that opens a
span, and ``restore`` puts the originals back.  Nothing in the package itself
is modified.

Each span records its name, its parent span, the phase it ran in (-1 for
set-up, 0, 1, ... for the passes) and its start and end times.  A layer's
self time is a span's duration minus the durations of its direct children.
Traced runs use one thread, so the children of a span never overlap and
their summed durations equal the time they cover.

``hermite.product_expansion`` is a generator whose work interleaves with
its callers' loops, so it gets no span in place: its calls are recorded
during set-up and the first pass and replayed, timed, after the passes.
"""
from __future__ import annotations

import inspect
import math
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

SETUP = -1

# Per-layer time metric -> span name.  Values are self times.
LAYER_TIMES = {
    "multiindex.enumerate_s": "multiindex.enumerate_indices",
    "propagator.assemble_s": "propagator.build_rhs",
    "propagator.rhs_s": "propagator.rhs",
    "integrator.self_s": "integrator.integrate",
    "basis.element_values_s": "basis.element_values",
    "hermite.product_expansion_s": "hermite.product_expansion",
    "hermite.table_s": "hermite.hermite_table",
    "analysis.third_moment_s": "analysis.third_moment",
    "analysis.error_curve_s": "analysis.error_curve",
    "analysis.moments_s": "analysis.moments",
    "oracle.sample_expansion_s": "oracle.sample_expansion",
    "oracle.euler_s": "oracle.euler_maruyama",
    "oracle.normal_draws_s": "oracle.normal_draws",
    "cli.table1_s": "cli.main",
}
REPLAYED = {"hermite.product_expansion"}
# Counters kept by the wrappers (integrator.rhs_calls is the span count of
# propagator.rhs; cli.threads is filled in by the caller).
COUNTERS = ("multiindex.indices", "propagator.ladder_entries",
            "propagator.quad_entries", "integrator.rhs_calls",
            "integrator.grid_points", "basis.breakpoints",
            "hermite.product_terms", "oracle.paths", "oracle.chunks",
            "oracle.path_steps")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.phase = SETUP
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.phase_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.recorded: list[tuple[int, tuple]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        # a pool worker's outermost span belongs to the span that waits on it
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.phase_of.append(self.phase)
            self.end.append(math.nan)
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: int) -> None:
        self.counts[(self.phase, name)] += int(value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(bound_args, result)`` adds counts."""
        signature = inspect.signature(fn) if after else None

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def self_times(self) -> dict[tuple[int, str], float]:
        """Summed self time per (phase, span name)."""
        if not self.start:
            return {}
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = np.maximum(dur - child, 0.0)
        out: dict[tuple[int, str], float] = defaultdict(float)
        for nid, ph, value in zip(self.name_id, self.phase_of, own):
            out[(ph, self.names[nid])] += float(value)
        return out

    def span_counts(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = defaultdict(int)
        for nid, ph in zip(self.name_id, self.phase_of):
            out[(ph, self.names[nid])] += 1
        return out

    def write(self, path: Path) -> None:
        np.savez(path, names=np.asarray(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), phase=np.asarray(self.phase_of),
                 start=np.asarray(self.start), end=np.asarray(self.end))


class Instrumentation:
    """Rebinds chaossde functions to traced wrappers; ``restore`` undoes it."""

    def __init__(self, tracer: Tracer, mods):
        self.tracer = tracer
        self.mods = mods
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, module, attr: str, name: str, after=None) -> None:
        self._patch(module, attr, self.tracer.wrap(name, getattr(module, attr), after))

    def install(self) -> None:
        tr, m = self.tracer, self.mods

        def rhs_wrapper(system):
            def rhs(t, y):
                sid = tr.open("propagator.rhs")
                try:
                    return system(t, y)
                finally:
                    tr.close(sid)
            return rhs

        build_rhs = m.propagator.build_rhs

        def traced_build_rhs(*args, **kwargs):
            sid = tr.open("propagator.build_rhs")
            try:
                system = build_rhs(*args, **kwargs)
            finally:
                tr.close(sid)
            tr.count("propagator.ladder_entries", len(system.ladder_rows))
            tr.count("propagator.quad_entries", len(getattr(system, "quad_targets", ())))
            return rhs_wrapper(system)

        self._patch(m.propagator, "build_rhs", traced_build_rhs)
        self._wrap(m.propagator, "solve", "propagator.solve")
        self._wrap(m.propagator, "enumerate_indices", "multiindex.enumerate_indices",
                   lambda a, r: tr.count("multiindex.indices", len(r)))
        self._wrap(m.propagator, "integrate", "integrator.integrate",
                   lambda a, r: tr.count("integrator.grid_points", len(a["output_grid"])))
        self._wrap(m.basis, "element_values", "basis.element_values")
        self._wrap(m.basis, "breakpoints", "basis.breakpoints",
                   lambda a, r: tr.count("basis.breakpoints", len(r)))
        for module in (m.propagator, m.analysis):
            original = module.product_expansion

            def recorded(beta, gamma, _original=original):
                if tr.phase <= 0:
                    tr.recorded.append((tr.phase, (beta, gamma)))
                return _original(beta, gamma)

            self._patch(module, "product_expansion", recorded)
        for attr in ("moments", "third_moment"):
            self._wrap(m.analysis, attr, f"analysis.{attr}")
        self._wrap(m.cli, "error_curve", "analysis.error_curve")
        self._wrap(m.cli, "solve", "propagator.solve")
        self._wrap(m.cli, "main", "cli.main")
        chunk = m.oracle.CHUNK

        def count_paths(n_paths, n_steps=0):
            tr.count("oracle.paths", n_paths)
            tr.count("oracle.chunks", -(-n_paths // chunk))
            tr.count("oracle.path_steps", n_paths * n_steps)

        self._wrap(m.oracle, "sample_expansion", "oracle.sample_expansion",
                   lambda a, r: count_paths(a["n_paths"]))
        self._wrap(m.oracle, "euler_maruyama", "oracle.euler_maruyama",
                   lambda a, r: count_paths(a["n_paths"], a["n_steps"]))
        self._wrap(m.oracle, "normal_draws", "oracle.normal_draws")
        self._wrap(m.oracle, "hermite_table", "hermite.hermite_table")

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def replay(self) -> None:
        """Time the recorded product_expansion calls, one span per phase."""
        tr = self.tracer
        product_expansion = self.mods.hermite.product_expansion
        by_phase: dict[int, list[tuple]] = defaultdict(list)
        for phase, call in tr.recorded:
            by_phase[phase].append(call)
        saved_phase = tr.phase
        for phase, calls in sorted(by_phase.items()):
            tr.phase = phase
            terms = 0
            sid = tr.open("hermite.product_expansion")
            for beta, gamma in calls:
                for _ in product_expansion(beta, gamma):
                    terms += 1
            tr.close(sid)
            tr.count("hermite.product_terms", terms)
        tr.phase = saved_phase


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-layer values for one set-up plus one pass.

    Times add the set-up share to the median over passes (replayed spans
    exist for the first pass only, so their first-pass value is used).
    Counters add the set-up share to the first pass's count.
    """
    own = tracer.self_times()
    spans = tracer.span_counts()
    counts = dict(tracer.counts)
    for (phase, name), value in spans.items():
        if name == "propagator.rhs":
            counts[(phase, "integrator.rhs_calls")] = value

    def per_run(table, name, replayed):
        passes = [table.get((p, name), 0) for p in range(n_passes)]
        middle = passes[0] if replayed else statistics.median(passes)
        return table.get((SETUP, name), 0) + middle

    out = {metric: per_run(own, span, span in REPLAYED)
           for metric, span in LAYER_TIMES.items()}
    for name in COUNTERS:
        out[name] = per_run(counts, name, True)
    calls = out["integrator.rhs_calls"]
    out["propagator.rhs_us_per_call"] = 1e6 * out["propagator.rhs_s"] / calls if calls else 0.0
    return out


def unit(metric: str) -> str:
    if metric == "propagator.rhs_us_per_call":
        return "us"
    return "s" if metric.endswith("_s") else "count"
