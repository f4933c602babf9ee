"""Layer tracing from outside the program.

:func:`install` replaces public functions of each layer — a class
attribute, or the module global its caller resolves at call time — with
timing wrappers, and :func:`Tracer.uninstall` puts the originals back.
Nothing under ``src/`` knows it is being traced.

Three kinds of wrapper:

* **span** — coarse calls (an exploration, a checkpoint save, a sweep
  cell).  Each call becomes one :class:`Span` with its parent span and
  the operation id, kept in memory until :meth:`Tracer.write`.
* **hot** — per-row functions called hundreds of thousands of times per
  exploration (``expand_row``, ``find``, ``add``, ``kernel_step``).
  They are aggregated into the enclosing span as call count, total ns
  and self ns, so the trace stays small.  A hot function never calls a
  span-wrapped one, which keeps the accounting a strict nesting.
* **counter** — call counts only (valency queries and their cache hits).

Self time is assigned by sweeping every span interval: each instant of
the traced phase belongs to the deepest span open at that instant, and
hot self time is moved from its enclosing span to the hot function's
layer.  Layer self times therefore add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import Counter
from pathlib import Path

#: Every layer a span or hot function is attributed to.  ``bench`` is the
#: harness itself plus any program code no wrapper covers.
LAYERS = (
    "bench",
    "cli",
    "exploration",
    "kernel",
    "packing",
    "store",
    "parallel",
    "correctness",
    "valency",
    "adversary",
    "checkpoint",
    "serve",
    "spectrum",
)

#: GraphStats counters whose growth across one ``explore`` call the
#: tracer sums; they are read on the wrapper's way in and out.
_EXPLORE_DELTAS = (
    "expansions",
    "kernel_batch_expansions",
    "kernel_table_hits",
    "kernel_fallback_steps",
    "worker_busy_time",
    "parallel_time",
    "worker_chunks",
    "worker_batch_nodes",
)


class Span:
    """One coarse call: name, layer, parent, operation id and interval."""

    __slots__ = (
        "id", "parent", "op", "name", "layer", "thread", "start", "end", "hot"
    )

    def __init__(self, span_id, parent, op, name, layer, start):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.layer = layer
        self.thread = threading.get_ident()
        self.start = start
        self.end = None
        #: Hot-function aggregates: name -> [calls, total_ns, self_ns, hits].
        self.hot: dict[str, list[int]] = {}

    def as_dict(self) -> dict[str, object]:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent else None,
            "op": self.op,
            "name": self.name,
            "layer": self.layer,
            "thread": self.thread,
            "start_ns": self.start,
            "end_ns": self.end,
            "hot": self.hot,
        }


class _ThreadState(threading.local):
    def __init__(self, tracer: "Tracer"):
        #: Innermost open span on this thread (the phase root initially).
        self.span = tracer.root
        #: Nanoseconds spent in hot calls nested inside the current one.
        self.inner = 0


class Tracer:
    """Spans, hot aggregates and counters of one traced phase."""

    def __init__(self):
        self.root: Span | None = None
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self._hot_layers: dict[str, str] = {}
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = _ThreadState(self)
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- spans -------------------------------------------------------------

    def _new_span(self, name: str, layer: str, op: int | None) -> Span:
        parent = self._local.span
        with self._id_lock:
            self._next_id += 1
            span_id = self._next_id
        if op is None and parent is not None:
            op = parent.op
        return Span(span_id, parent, op, name, layer, time.perf_counter_ns())

    def begin(self) -> None:
        """Open the phase root; every later span descends from it."""
        self.root = self._new_span("phase", "bench", None)
        self._local.span = self.root

    def end(self) -> None:
        self.root.end = time.perf_counter_ns()
        self._local.span = None

    @contextlib.contextmanager
    def span(self, name: str, layer: str, op: int | None = None):
        """Record one span around the harness's own code."""
        span = self._open(name, layer, op)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str, layer: str, op: int | None) -> Span:
        span = self._new_span(name, layer, op)
        self._local.span = span
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._local.span = span.parent
        self.spans.append(span)

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        functools.update_wrapper(wrapper, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner, attr, name, layer, after=None) -> None:
        """Record a span per call; ``after(args, result)`` may count."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = self._open(name, layer, None)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_hot(self, owner, attr, name, layer, hit=None) -> None:
        """Aggregate calls into the enclosing span; ``hit(result)``
        decides which calls count as hits."""
        original = getattr(owner, attr)
        local = self._local
        clock = time.perf_counter_ns
        self._hot_layers[name] = layer

        def wrapper(*args, **kwargs):
            saved = local.inner
            local.inner = 0
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = local.inner
                local.inner = saved + elapsed
                aggregate = local.span.hot
                record = aggregate.get(name)
                if record is None:
                    record = aggregate[name] = [0, 0, 0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - inner
            if hit is not None and hit(result):
                record[3] += 1
            return result

        self._patch(owner, attr, wrapper)

    def wrap_explore(self, owner, attr) -> None:
        """Span per ``explore`` call plus the GraphStats growth it caused."""
        original = getattr(owner, attr)
        counters = self.counters
        maxima = self.maxima

        def wrapper(graph, *args, **kwargs):
            stats = graph.stats
            before = {f: getattr(stats, f) for f in _EXPLORE_DELTAS}
            span = self._open("exploration.explore", "exploration", None)
            try:
                result = original(graph, *args, **kwargs)
            finally:
                self._close(span)
            stats = graph.stats
            for field, value in before.items():
                counters[field] += getattr(stats, field) - value
            # Utilization's denominator: wait time times crew size.
            counters["parallel_capacity"] += (
                stats.parallel_time - before["parallel_time"]
            ) * max(1, stats.workers)
            maxima["kernel_table_bytes"] = max(
                maxima["kernel_table_bytes"], stats.kernel_table_bytes
            )
            maxima["store_bytes"] = max(
                maxima["store_bytes"], stats.arena_bytes + stats.edge_bytes
            )
            return result

        self._patch(owner, attr, wrapper)

    def wrap_valency(self, owner, attr) -> None:
        """Count valency queries and the ones answered from the cache."""
        original = getattr(owner, attr)
        counters = self.counters

        def wrapper(analyzer, *args, **kwargs):
            hits = analyzer.graph.stats.cache_hits
            result = original(analyzer, *args, **kwargs)
            counters["valency_queries"] += 1
            if analyzer.graph.stats.cache_hits > hits:
                counters["valency_cache_hits"] += 1
            return result

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped function (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _uninstall_in_child(self) -> None:
        # Forked crew workers inherit the patched classes; their work
        # belongs to no span of this process, so they run unwrapped.
        if os.getpid() != self._pid:
            self.uninstall()

    # -- accounting --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """Self ns per layer and per span name (hot functions included)."""
        spans = [self.root, *self.spans]
        depth: dict[int, int] = {}
        for span in spans:
            d, node = 0, span.parent
            while node is not None:
                d, node = d + 1, node.parent
            depth[span.id] = d
        events = []
        for span in spans:
            events.append((span.start, 1, span))
            events.append((span.end, 0, span))
        events.sort(key=lambda event: (event[0], event[1]))
        exclusive: Counter = Counter()
        active: dict[int, Span] = {}
        previous = self.root.start
        for moment, opening, span in events:
            if active and moment > previous:
                deepest = max(active.values(), key=lambda s: depth[s.id])
                exclusive[deepest.id] += moment - previous
            previous = moment
            if opening:
                active[span.id] = span
            else:
                active.pop(span.id, None)
        by_layer: Counter = Counter({layer: 0 for layer in LAYERS})
        by_name: Counter = Counter()
        for span in spans:
            hot_self = sum(record[2] for record in span.hot.values())
            own = exclusive[span.id] - hot_self
            by_layer[span.layer] += own
            by_name[span.name] += own
            for name, record in span.hot.items():
                by_layer[self._hot_layers[name]] += record[2]
                by_name[name] += record[2]
        return dict(by_layer), dict(by_name)

    def totals(self) -> tuple[Counter, Counter, dict[str, list[int]]]:
        """Inclusive ns and call count per span name, and hot aggregates
        summed over all spans."""
        total_ns: Counter = Counter()
        calls: Counter = Counter()
        hot: dict[str, list[int]] = {}
        for span in [self.root, *self.spans]:
            if span is not self.root:
                total_ns[span.name] += span.end - span.start
                calls[span.name] += 1
            for name, record in span.hot.items():
                into = hot.setdefault(name, [0, 0, 0, 0])
                for i, value in enumerate(record):
                    into[i] += value
        return total_ns, calls, hot

    def write(self, path: Path, extra: dict[str, object]) -> None:
        by_layer, _by_name = self.self_times()
        payload = {
            **extra,
            "wall_ns": self.root.end - self.root.start,
            "layer_self_ns": by_layer,
            "spans": [s.as_dict() for s in [self.root, *self.spans]],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public functions (see module doc)."""
    import repro.adversary.flp as flp
    import repro.cli as cli
    import repro.core.checkpoint as checkpoint
    import repro.spectrum.montecarlo as montecarlo
    from repro.adversary.certificates import NonDecidingRunCertificate
    from repro.core.exploration import GlobalConfigurationGraph
    from repro.core.kernel import TransitionKernel
    from repro.core.packing import PackedCodec
    from repro.core.parallel import WorkStealingCrew
    from repro.core.store import GraphStore
    from repro.core.valency import ValencyAnalyzer

    counters = tracer.counters

    def saved(args, info):
        counters["checkpoint_saved_bytes"] += info.payload_bytes

    def loaded(args, _graph):
        counters["checkpoint_loaded_bytes"] += os.path.getsize(args[0])

    tracer.wrap_explore(GlobalConfigurationGraph, "explore")
    tracer.wrap_span(
        GlobalConfigurationGraph, "reaching_mask",
        "exploration.reaching_mask", "exploration",
    )
    tracer.wrap_hot(
        TransitionKernel, "expand_row", "kernel.expand_row", "kernel"
    )
    tracer.wrap_hot(
        PackedCodec, "kernel_step", "packing.kernel_step", "packing"
    )
    tracer.wrap_hot(
        GraphStore, "find", "store.find", "store",
        hit=lambda node: node is not None,
    )
    tracer.wrap_hot(GraphStore, "add", "store.add", "store")
    tracer.wrap_hot(
        GraphStore, "set_edges_flat", "store.set_edges_flat", "store"
    )
    tracer.wrap_span(
        WorkStealingCrew, "collect", "parallel.collect", "parallel"
    )
    for attr, name in (
        ("check_partial_correctness", "correctness.partial_correctness"),
        ("check_validity", "correctness.validity"),
        ("check_determinism", "correctness.determinism"),
    ):
        tracer.wrap_span(cli, attr, name, "correctness")
    tracer.wrap_span(
        ValencyAnalyzer, "classify_initials",
        "valency.classify_initials", "valency",
    )
    tracer.wrap_valency(ValencyAnalyzer, "valency")
    tracer.wrap_span(flp, "find_lemma2", "adversary.lemma2", "adversary")
    tracer.wrap_span(
        flp.FLPAdversary, "build_run", "adversary.build_run", "adversary"
    )
    tracer.wrap_span(
        NonDecidingRunCertificate, "verify", "adversary.verify", "adversary"
    )
    tracer.wrap_span(
        cli, "analyze_admissibility", "adversary.admissibility", "adversary"
    )
    tracer.wrap_span(
        checkpoint, "save_checkpoint", "checkpoint.save", "checkpoint",
        after=saved,
    )
    tracer.wrap_span(
        checkpoint, "load_checkpoint", "checkpoint.load", "checkpoint",
        after=loaded,
    )
    tracer.wrap_span(montecarlo, "run_cell", "spectrum.run_cell", "spectrum")
    tracer.wrap_span(
        montecarlo.SweepRunner, "run", "spectrum.sweep", "spectrum"
    )
    os.register_at_fork(after_in_child=tracer._uninstall_in_child)


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when the layer never ran."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, serve: dict[str, float], overhead: float
) -> dict[str, float]:
    """Every per-layer metric of the traced phase, by name.

    *serve* carries the client-side serve metrics the workload measured
    itself (zeros on other workloads); *overhead* is traced over
    untraced median operation time, minus one.
    """
    total_ns, calls, hot = tracer.totals()
    by_layer, by_name = tracer.self_times()
    c, m = tracer.counters, tracer.maxima

    def hot_of(name: str) -> list[int]:
        return hot.get(name, [0, 0, 0, 0])

    def secs(ns: float) -> float:
        return ns / 1e9

    expand, step = hot_of("kernel.expand_row"), hot_of("packing.kernel_step")
    find, add = hot_of("store.find"), hot_of("store.add")
    flat = hot_of("store.set_edges_flat")
    save_s = secs(total_ns["checkpoint.save"])
    load_s = secs(total_ns["checkpoint.load"])
    saved_mb = c["checkpoint_saved_bytes"] / 1e6
    loaded_mb = c["checkpoint_loaded_bytes"] / 1e6
    io_count = calls["checkpoint.save"] + calls["checkpoint.load"]
    wall_ns = tracer.root.end - tracer.root.start
    metrics = {
        "kernel.expand_row_self_s": secs(expand[2]),
        "kernel.expand_row_calls": expand[0],
        "kernel.table_hit_ratio": _ratio(
            c["kernel_table_hits"],
            c["kernel_table_hits"] + c["kernel_fallback_steps"],
        ),
        "kernel.table_mb": m["kernel_table_bytes"] / 1e6,
        "packing.kernel_step_s": secs(step[1]),
        "packing.kernel_step_calls": step[0],
        "store.find_s": secs(find[1]),
        "store.find_calls": find[0],
        "store.find_hit_ratio": _ratio(find[3], find[0]),
        "store.add_s": secs(add[1]),
        "store.set_edges_flat_s": secs(flat[1]),
        "store.mb": m["store_bytes"] / 1e6,
        "exploration.explore_self_s": secs(
            by_name.get("exploration.explore", 0)
        ),
        "exploration.expansion_kept_ratio": _ratio(
            c["expansions"],
            c["kernel_batch_expansions"] + c["worker_batch_nodes"],
        ),
        "exploration.reaching_mask_s": secs(
            total_ns["exploration.reaching_mask"]
        ),
        "exploration.reaching_mask_calls": calls["exploration.reaching_mask"],
        "parallel.collect_wait_s": secs(total_ns["parallel.collect"]),
        "parallel.worker_busy_s": c["worker_busy_time"],
        "parallel.worker_utilization": _ratio(
            c["worker_busy_time"], c["parallel_capacity"]
        ),
        "parallel.chunks": c["worker_chunks"],
        "correctness.partial_correctness_s": secs(
            total_ns["correctness.partial_correctness"]
        ),
        "correctness.validity_s": secs(total_ns["correctness.validity"]),
        "correctness.determinism_s": secs(total_ns["correctness.determinism"]),
        "valency.classify_initials_s": secs(
            total_ns["valency.classify_initials"]
        ),
        "valency.queries": c["valency_queries"],
        "valency.cache_hit_ratio": _ratio(
            c["valency_cache_hits"], c["valency_queries"]
        ),
        "adversary.lemma2_s": secs(total_ns["adversary.lemma2"]),
        "adversary.build_run_s": secs(total_ns["adversary.build_run"]),
        "adversary.verify_s": secs(total_ns["adversary.verify"]),
        "adversary.admissibility_s": secs(total_ns["adversary.admissibility"]),
        "checkpoint.save_s": save_s,
        "checkpoint.load_s": load_s,
        "checkpoint.payload_mb": _ratio(saved_mb + loaded_mb, io_count),
        "checkpoint.save_mb_per_s": _ratio(saved_mb, save_s),
        "checkpoint.load_mb_per_s": _ratio(loaded_mb, load_s),
        **serve,
        "spectrum.run_cell_s": secs(total_ns["spectrum.run_cell"]),
        "spectrum.cells": calls["spectrum.run_cell"],
        "spectrum.checkpoint_s": secs(
            total_ns["spectrum.sweep"] - total_ns["spectrum.run_cell"]
        ),
        "trace.wall_s": secs(wall_ns),
        "trace.self_sum_ratio": _ratio(sum(by_layer.values()), wall_ns),
        "trace.overhead_ratio": overhead,
    }
    for layer in LAYERS:
        metrics[f"trace.self_{layer}_s"] = secs(by_layer[layer])
    return metrics
