"""Per-layer tracing from outside the program.

The traced run wraps public entry points of each layer (module
functions where callers look them up, and class methods) with a timer
that records a span: name, start, end, the span that caused it, and the
operation it belongs to. Counts come from what the wrapped call returns
(``DataPlane.stats``, ``DeltaInfo``, ``SweepStats``, ``LintReport``) or
from public accessors (``BddEngine.stats()``, ``SnapshotCache.stats()``).
Spans stay in memory and are written out once, when the run ends.

No file of the program changes: :meth:`Tracer.install` patches the
attributes and :meth:`Tracer.uninstall` restores them.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Per-layer metrics, in the order they are reported:
#: name -> (unit, better).
METRICS: Dict[str, Tuple[str, str]] = {
    "config.parse_s": ("s", "lower"),
    "parallel.pmap_s": ("s", "lower"),
    "parallel.pool_calls": ("count", "lower"),
    "parallel.serial_calls": ("count", "higher"),
    "routing.dataplane_s": ("s", "lower"),
    "routing.iterations": ("count", "lower"),
    "routing.bgp_routes_processed": ("count", "lower"),
    "routing.best_route_changes": ("count", "lower"),
    "dataplane.fib_s": ("s", "lower"),
    "reachability.graph_build_s": ("s", "lower"),
    "reachability.graph_edges": ("count", "lower"),
    "reachability.multipath_s": ("s", "lower"),
    "reachability.query_s": ("s", "lower"),
    "reachability.dest_reach_s": ("s", "lower"),
    "bdd.nodes": ("count", "lower"),
    "bdd.ops_cached": ("count", "lower"),
    "questions.service_reachable_s": ("s", "lower"),
    "questions.search_filters_s": ("s", "lower"),
    "questions.route_diff_s": ("s", "lower"),
    "traceroute.trace_s": ("s", "lower"),
    "traceroute.hops": ("count", "lower"),
    "lint.run_s": ("s", "lower"),
    "lint.dataflow_iterations": ("count", "lower"),
    "delta.apply_s": ("s", "lower"),
    "delta.fallbacks": ("count", "lower"),
    "delta.dirty_devices": ("count", "lower"),
    "delta.parse_memo_hits": ("count", "higher"),
    "core.cache_load_s": ("s", "lower"),
    "core.cache_store_s": ("s", "lower"),
    "core.cache_hits": ("count", "higher"),
    "core.cache_misses": ("count", "lower"),
    "sweep.run_s": ("s", "lower"),
    "sweep.scenarios_evaluated": ("count", "lower"),
    "sweep.scenarios_pruned": ("count", "higher"),
    "sweep.delta_fallbacks": ("count", "lower"),
}

#: Layers whose self time is reported (span time minus the time of the
#: spans it caused); ``op`` is harness and glue time inside an
#: operation that no wrapped call covers.
LAYERS = (
    "config", "parallel", "routing", "dataplane", "reachability",
    "questions", "traceroute", "lint", "delta", "core", "sweep", "op",
)
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("s", "lower")

#: Call sites of ``repro.parallel.pmap`` that are timed.
PMAP_SITES = ("repro.config.loader", "repro.lint.runner", "repro.sweep.engine")

#: Modules imported before patching, so lazily imported call sites get
#: the wrapped functions too.
_PRELOAD = (
    "repro.config.loader", "repro.core.session", "repro.core.cache",
    "repro.routing.engine", "repro.dataplane.fib", "repro.reachability.queries",
    "repro.questions.specialized", "repro.questions.filters",
    "repro.questions.differential", "repro.traceroute.engine", "repro.lint",
    "repro.lint.runner", "repro.delta", "repro.delta.engine", "repro.sweep",
    "repro.sweep.engine",
)


class Tracer:
    """Collects spans and counts while :attr:`active` is true."""

    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._op: Optional[int] = None
        self._op_engines: List[object] = []
        self.counts: Dict[str, Counter] = defaultdict(Counter)
        self.peaks: Dict[str, Counter] = defaultdict(Counter)
        self._pools_started = 0

    # -- spans ------------------------------------------------------------

    def _call(self, name: str, fn: Callable, args, kwargs, after=None):
        if not self.active:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(self.counts[self.phase], result, args, kwargs)
        return result

    def begin_op(self, index: int) -> None:
        self._op = index
        self._op_engines = []
        self._op_span = {
            "id": len(self.spans), "name": "op", "parent": None, "op": index,
            "phase": self.phase, "start": time.perf_counter(), "end": None,
        }
        self.spans.append(self._op_span)
        self._stack.append(self._op_span["id"])

    def end_op(self, live_engines) -> None:
        self._op_span["end"] = time.perf_counter()
        self._stack.pop()
        nodes = ops_cached = 0
        for engine in list(live_engines) + self._op_engines:
            stats = engine.stats()
            nodes += stats["nodes"]
            ops_cached += stats["ops_cached"]
        peaks = self.peaks[self.phase]
        peaks["bdd.nodes"] = max(peaks["bdd.nodes"], nodes)
        peaks["bdd.ops_cached"] = max(peaks["bdd.ops_cached"], ops_cached)
        self._op = None
        self._op_engines = []

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, value)

    def _wrap_function(self, name: str, original: Callable, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(name, original, args, kwargs, after)

        wrapper.__wrapped__ = original
        return wrapper

    def _patch_everywhere(self, original: Callable, wrapper: Callable,
                          modules=None) -> None:
        """Point every ``repro`` module attribute that is ``original``
        at ``wrapper`` (callers look functions up in their own module)."""
        for module_name, module in sorted(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            if modules is not None and module_name not in modules:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = getattr(cls, attr)
        tracer = self

        def method(*args, **kwargs):
            return tracer._call(name, original, args, kwargs, after)

        method.__wrapped__ = original
        self._set(cls, attr, method)

    def install(self) -> None:
        for module_name in _PRELOAD:
            importlib.import_module(module_name)
        from repro import parallel
        from repro.config.loader import load_snapshot_from_texts
        from repro.core.cache import SnapshotCache
        from repro.core.session import Session
        from repro.dataplane.fib import compute_fibs
        from repro.lint.runner import lint_snapshot
        from repro.questions.differential import compare_routes
        from repro.questions.filters import search_filters
        from repro.questions.specialized import service_reachable
        from repro.reachability.queries import NetworkAnalyzer
        from repro.routing.engine import compute_dataplane
        from repro.traceroute.engine import TracerouteEngine

        functions = (
            (load_snapshot_from_texts, "config.parse", None),
            (compute_dataplane, "routing.dataplane", _dataplane_counts),
            (compute_fibs, "dataplane.fib", None),
            (service_reachable, "questions.service_reachable", None),
            (search_filters, "questions.search_filters", None),
            (compare_routes, "questions.route_diff", None),
            (lint_snapshot, "lint.run", _lint_counts),
        )
        for original, name, after in functions:
            self._patch_everywhere(
                original, self._wrap_function(name, original, after)
            )
        self._patch_everywhere(
            parallel.pmap, self._pmap_wrapper(parallel.pmap), PMAP_SITES
        )
        self._patch_method(
            NetworkAnalyzer, "__init__", "reachability.graph_build",
            self._graph_counts,
        )
        self._patch_method(
            NetworkAnalyzer, "multipath_consistency", "reachability.multipath"
        )
        self._patch_method(NetworkAnalyzer, "reachability", "reachability.query")
        self._patch_method(
            NetworkAnalyzer, "destination_reachability", "reachability.dest_reach"
        )
        self._patch_method(TracerouteEngine, "trace", "traceroute.trace", _trace_counts)
        self._patch_method(Session, "delta", "delta.apply", _delta_counts)
        self._patch_method(Session, "sweep", "sweep.run", _sweep_counts)
        self._patch_method(SnapshotCache, "load", "core.cache_load", _cache_load_counts)
        self._patch_method(SnapshotCache, "store", "core.cache_store")
        fork = multiprocessing.get_context("fork")
        self._set(fork, "Pool", self._pool_wrapper(fork.Pool))

    def uninstall(self) -> None:
        for owner, attr, original, had in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def _pool_wrapper(self, original):
        tracer = self

        def pool(*args, **kwargs):
            tracer._pools_started += 1
            return original(*args, **kwargs)

        return pool

    def _pmap_wrapper(self, original):
        tracer = self

        def pmap(*args, **kwargs):
            before = tracer._pools_started

            def after(counts, _result, _args, _kwargs):
                pooled = tracer._pools_started > before
                counts["parallel.pool_calls" if pooled else "parallel.serial_calls"] += 1

            return tracer._call("parallel.pmap", original, args, kwargs, after)

        return pmap

    def _graph_counts(self, counts, _result, args, _kwargs) -> None:
        analyzer = args[0]
        counts["reachability.graph_edges"] += len(analyzer.graph.edges)
        self._op_engines.append(analyzer.encoder.engine)

    # -- reports ------------------------------------------------------------

    def totals(self, phase: str) -> Dict[str, float]:
        """Every per-layer metric over one phase ("setup" or "timed")."""
        values: Dict[str, float] = {name: 0 for name in METRICS}
        by_id = {span["id"]: span for span in self.spans}
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span in self.spans:
            if span["phase"] != phase or span["end"] is None:
                continue
            duration = span["end"] - span["start"]
            layer = span["name"].split(".")[0]
            values[f"{layer}.self_s"] += duration - child_time[span["id"]]
            if span["name"] == "op":
                continue
            # A recursive call of the same entry point is counted once.
            parent = span["parent"]
            nested = False
            while parent is not None:
                if by_id[parent]["name"] == span["name"]:
                    nested = True
                    break
                parent = by_id[parent]["parent"]
            if not nested:
                values[span["name"] + "_s"] += duration
        for name, value in self.counts[phase].items():
            values[name] += value
        for name, value in self.peaks[phase].items():
            values[name] = value
        return values

    def dump(self, path: str, meta: Dict) -> None:
        body = dict(meta)
        body["totals"] = {
            phase: self.totals(phase) for phase in ("setup", "timed")
        }
        body["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(body, handle)


def _dataplane_counts(counts, dataplane, _args, _kwargs) -> None:
    stats = dataplane.stats
    counts["routing.iterations"] += stats.iterations
    counts["routing.bgp_routes_processed"] += stats.bgp_routes_processed
    counts["routing.best_route_changes"] += stats.best_route_changes


def _lint_counts(counts, report, _args, _kwargs) -> None:
    if report.dataflow:
        counts["lint.dataflow_iterations"] += report.dataflow.get("iterations", 0)


def _trace_counts(counts, traces, _args, _kwargs) -> None:
    counts["traceroute.hops"] += sum(len(trace.hops) for trace in traces)


def _delta_counts(counts, session, _args, _kwargs) -> None:
    info = session.delta_info
    counts["delta.fallbacks"] += int(info.fallback)
    counts["delta.dirty_devices"] += len(info.dirty_devices)
    counts["delta.parse_memo_hits"] += info.parse_memo_hits


def _sweep_counts(counts, result, _args, _kwargs) -> None:
    stats = result.stats
    counts["sweep.scenarios_evaluated"] += stats.evaluated
    counts["sweep.scenarios_pruned"] += stats.pruned
    counts["sweep.delta_fallbacks"] += stats.delta_fallbacks


def _cache_load_counts(counts, value, _args, _kwargs) -> None:
    counts["core.cache_hits" if value is not None else "core.cache_misses"] += 1
