"""The accessible-configuration graph.

The proof machinery of the paper quantifies over *accessible*
configurations — those reachable from some initial configuration by a
schedule.  For finite protocol instances the reachable set is a finite
directed graph whose edges are events; :class:`GlobalConfigurationGraph`
builds that graph incrementally, interning each configuration once and
honoring an explicit budget so unbounded protocols degrade to a
truthful partial answer instead of hanging.

The graph is the substrate for every verdict over the accessible set:
partial correctness and validity (:mod:`repro.core.correctness`) read
decision configurations off it, and exact valency
(:mod:`repro.core.valency`) is reverse reachability from them.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import json
import logging
import time
import warnings
import weakref
from array import array
from collections import deque
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.configuration import Configuration
from repro.core.errors import WorkerPoolError
from repro.core.events import Event
from repro.core.kernel import TransitionKernel
from repro.core.protocol import Protocol
from repro.core.resilience import (
    BudgetGuard,
    ChaosConfig,
    CheckpointConfig,
    PartialResult,
    ResilienceConfig,
)
from repro.core.store import GraphStore, StoreConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.reduction import ReductionPolicy

__all__ = [
    "GlobalConfigurationGraph",
    "GraphStats",
    "GrowthResult",
]

#: Default exploration budget (number of distinct configurations).
DEFAULT_MAX_CONFIGURATIONS = 200_000

logger = logging.getLogger("repro.exploration")


@dataclass
class GraphStats:
    """Observability counters for one :class:`GlobalConfigurationGraph`.

    Every counter is cumulative over the engine's lifetime; wall-clock
    phases are in seconds.  Surfaced by
    :func:`repro.analysis.stats.format_counters` and the CLI ``--stats``
    flag, and read per layer by ``benchspine/``.
    """

    #: Distinct configurations interned to dense ids.
    interned: int = 0
    #: Nodes whose full successor set has been computed.
    expansions: int = 0
    #: Valency queries answered without touching the graph.
    cache_hits: int = 0
    #: Valency queries that required growing / reclassifying the graph.
    cache_misses: int = 0
    #: Calls to :meth:`GlobalConfigurationGraph.explore`.
    explore_calls: int = 0
    #: Reverse-reachability sweeps (:meth:`reaching_mask`).
    reach_calls: int = 0
    #: Rebuilds of the CSR reverse-adjacency index.
    csr_rebuilds: int = 0
    #: Batched-kernel counters: rows expanded through the kernel, edges
    #: whose step component was a dense-table gather hit, scalar-oracle
    #: fills (step-table misses plus rich-buffer materializations), and
    #: resident bytes of the flat transition tables.
    kernel_batch_expansions: int = 0
    kernel_table_hits: int = 0
    kernel_fallback_steps: int = 0
    kernel_table_bytes: int = 0
    #: Configured worker-pool size (0/1 = serial).
    workers: int = 0
    #: Frontier batches shipped to the worker crew, the total / largest
    #: node count across them, and the work-stealing chunks the crew
    #: completed (batch-size and stealing observability).
    worker_batches: int = 0
    worker_batch_nodes: int = 0
    worker_max_batch: int = 0
    worker_chunks: int = 0
    #: Flat-buffer store gauges: spill events (RAM -> mmap migrations)
    #: and live bytes in the arena / edge CSR at last measurement.
    store_spills: int = 0
    arena_bytes: int = 0
    edge_bytes: int = 0
    #: BFS levels processed (cumulative).
    explore_levels: int = 0
    #: Recovery events: batch dispatches lost to a timeout (covers both
    #: hangs and SIGKILLed workers — a dead worker's batch never
    #: completes), non-timeout pool faults, re-dispatches after backoff,
    #: pool teardown+rebuilds, and batches expanded inline after the
    #: pool was given up on.
    worker_timeouts: int = 0
    worker_faults: int = 0
    worker_retries: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    #: 1 once repeated failures disabled the pool for the rest of the run.
    pool_disabled: int = 0
    #: Budget-guard stops (wall-clock / memory ceilings).
    budget_stops: int = 0
    #: Cooperative stops honored via :meth:`GlobalConfigurationGraph.
    #: request_stop` (service drains, external deadlines).
    stop_requests: int = 0
    #: Checkpoints written, wall time spent writing them, and the node
    #: count restored from a checkpoint at resume (0 = cold start).
    checkpoints_written: int = 0
    checkpoint_time: float = 0.0
    resumed_nodes: int = 0
    #: Wall time spent growing the graph.
    explore_time: float = 0.0
    #: Wall time spent in reverse reachability (incl. CSR rebuilds).
    reach_time: float = 0.0
    #: Wall time spent classifying valencies (set by the analyzer).
    classify_time: float = 0.0
    #: Nodes examined by the analyzer's classification passes: each
    #: pass visits the nodes new since the last one, and the open ones
    #: again only after an open frontier node was expanded, so a census
    #: whose closures are complete visits every node once.
    classify_visits: int = 0
    #: Wall time spent encoding rich configurations to packed tuples.
    encode_time: float = 0.0
    #: Aggregate busy time reported by workers (sum over processes),
    #: each level's mirror sync included.
    worker_busy_time: float = 0.0
    #: Wall time the parent spent blocked on worker batches; worker
    #: utilization = worker_busy_time / (parallel_time * workers).
    parallel_time: float = 0.0
    #: Reduction counters (see :mod:`repro.core.reduction`): edges
    #: pruned by the ample reducer, nodes where a visible successor (or
    #: a replay violation) forced full expansion, sampled Lemma-1
    #: diamond replays and the violations among them, packed tuples
    #: rerouted to a different orbit representative by the symmetry
    #: quotient, and 1 when a declared symmetry failed validation and
    #: the engine fell back to the identity quotient.
    por_pruned: int = 0
    ample_fallbacks: int = 0
    replay_checks: int = 0
    replay_violations: int = 0
    sym_canonical_hits: int = 0
    sym_fallbacks: int = 0
    #: Distinct packed tuples the quotient actually canonicalized
    #: (memo misses) and the packed images it materialized doing so —
    #: the discrete-seed fast path builds one image per miss, branching
    #: a few more.  Mirrored from the quotient after explore().
    sym_canonical_misses: int = 0
    sym_leaf_images: int = 0
    #: Frontier levels expanded inline because the batch was too small
    #: to occupy the pool (see ``min_batch_per_worker``).
    small_batch_levels: int = 0
    #: Fault-engine counters, mirrored from a
    #: :class:`repro.faults.model.FaultedProtocol` when exploration
    #: runs under a fault plan (all zero otherwise).
    fault_crashes: int = 0
    fault_recoveries: int = 0
    fault_inbox_wipes: int = 0
    fault_omission_drops: int = 0
    fault_duplications: int = 0
    fault_partition_blocks: int = 0
    fault_drop_edges: int = 0
    fault_send_blocks: int = 0
    fault_dead_exclusions: int = 0

    @property
    def worker_utilization(self) -> float | None:
        """Fraction of the pool's capacity that did useful work.

        ``None`` when the pool never processed a batch (serial engine,
        or every frontier level fell below the dispatch threshold) —
        utilization is *undefined* there, and the old ``0.0`` reading
        made healthy serial-fallback runs look like a saturated pool
        doing nothing.
        """
        if (
            self.workers <= 1
            or self.worker_batches == 0
            or self.parallel_time == 0.0
        ):
            return None
        return self.worker_busy_time / (self.parallel_time * self.workers)

    def as_dict(self) -> dict[str, object]:
        """Flat mapping for tables and JSON artifacts.

        One key per field, in declaration order, then the derived
        ``worker_utilization``.  Wall-clock fields are rounded to the
        microsecond and exported with a seconds suffix (``*_time`` as
        ``*_time_s``; see :data:`_SECONDS_KEYS` for the two others).
        """
        out: dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            # Annotations are strings here (postponed evaluation).
            if spec.type == "float":
                key = _SECONDS_KEYS.get(spec.name, spec.name + "_s")
                out[key] = round(value, 6)
            else:
                out[spec.name] = value
        utilization = self.worker_utilization
        out["worker_utilization"] = (
            None if utilization is None else round(utilization, 4)
        )
        return out


#: Export keys of the wall-clock fields not named ``*_time``.
_SECONDS_KEYS = {
    "worker_busy_time": "worker_busy_s",
    "parallel_time": "parallel_wall_s",
}


@dataclass(frozen=True)
class GrowthResult:
    """What one :meth:`GlobalConfigurationGraph.explore` call learned.

    Attributes
    ----------
    root:
        Dense id of the root the growth started from.
    nodes:
        Ids of every node reachable from ``root`` inside the explored
        region (the root's forward closure, as currently known).
    complete:
        ``True`` iff every node in ``nodes`` is fully expanded — only
        then are "cannot reach" judgements about the root's closure
        sound.
    """

    root: int
    nodes: frozenset[int]
    complete: bool


class _ConfigurationView:
    """Sequence view of the engine's configurations, decoded lazily.

    The engine never materializes a rich configuration unless someone
    asks for it (traces, witnesses, the census); this view offers
    ``graph.configurations[node]`` and iteration while paying the
    decode cost per node at most once.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "GlobalConfigurationGraph"):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph)

    def __getitem__(self, node: int) -> Configuration:
        if isinstance(node, slice):
            return [
                self._graph.configuration_at(i)
                for i in range(*node.indices(len(self._graph)))
            ]
        if node < 0:
            node += len(self._graph)
        return self._graph.configuration_at(node)

    def __iter__(self) -> Iterator[Configuration]:
        for node in range(len(self._graph)):
            yield self._graph.configuration_at(node)


class _SuccessorsView:
    """Sequence view of the engine's edge lists, decoded on demand.

    The flat-buffer store keeps edges as int64 ``(event_id, target)``
    CSR pairs; this view preserves the historical
    ``graph.successors[node] -> [(Event, target), ...]`` API (and list
    equality, which the byte-identity tests lean on) without the engine
    holding one Python list per node.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "GlobalConfigurationGraph"):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph)

    def __getitem__(self, node: int) -> list[tuple[Event, int]]:
        length = len(self._graph)
        if isinstance(node, slice):
            return [self[i] for i in range(*node.indices(length))]
        if node < 0:
            node += length
        if not 0 <= node < length:
            raise IndexError(node)
        return self._graph._store.edge_list(node)

    def __iter__(self) -> Iterator[list[tuple[Event, int]]]:
        edge_list = self._graph._store.edge_list
        for node in range(len(self._graph)):
            yield edge_list(node)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (_SuccessorsView, list)):
            if len(self) != len(other):
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # mutable sequence semantics


def _close_from_atexit(graph_ref: "weakref.ref") -> None:
    """Interpreter-exit cleanup for engines that were never closed.

    Module-level (not a bound method) so the atexit registration holds
    no strong reference to the graph; a graph collected earlier is
    simply a dead weakref here.
    """
    graph = graph_ref()
    if graph is not None:
        graph.close()


def _record_spill(graph_ref: "weakref.ref", nbytes: int) -> None:
    """The store's spill hook, holding the engine weakly for the same
    reason: an engine in no reference cycle is freed, buffers and all,
    the moment its last reference goes."""
    graph = graph_ref()
    if graph is None:
        return
    graph.stats.store_spills += 1
    logger.info(
        "flat-buffer store spilled %d bytes to a memory-mapped "
        "temp file (budget %.0f MiB)",
        nbytes,
        graph.store_config.spill_budget_mb,
    )


class GlobalConfigurationGraph:
    """One incremental accessible-configuration graph per protocol.

    The paper's proof machinery (Lemmas 2–3, Theorem 1) quantifies over
    *one* graph of accessible configurations; this class is that graph,
    grown lazily.  Configurations are interned to dense integer ids
    exactly once, :meth:`explore` extends the explored region from any
    new root instead of starting over, and reverse reachability runs
    over a CSR-style packed reverse adjacency with flat ``bytearray``
    visited maps rather than Python sets.

    Nodes are keyed by the *packed* encoding
    (:class:`~repro.core.packing.PackedCodec`): a configuration is a
    flat ``tuple[int, ...]`` of interned state ids plus a buffer id,
    stored in a flat-buffer :class:`~repro.core.store.GraphStore`.
    Successors have exactly one definition: the batched
    :class:`~repro.core.kernel.TransitionKernel`, whose dense tables
    are filled on miss by the scalar step oracle.

    ``workers > 1`` turns on batched frontier expansion over an opt-in
    ``multiprocessing`` crew: each BFS level's unexpanded nodes are
    shipped to workers, which run their own kernel over a mirror of
    this one's tables and return integer successor rows in this
    engine's ids (novel states and buffers by reference into a small
    side table, buffers as the kernel's wire reps — never rich); the
    parent resolves them, merges them *in node order* through the same
    kernel merge as serial expansion and does all interning, so the
    resulting graph — ids, edge order, everything downstream — is
    byte-identical to a serial run.

    Invariant: a node with ``is_expanded(id)`` true has its *complete*
    successor set recorded (every enabled event, null deliveries
    included).  Expansion is never partial — serial or parallel — so
    anything proven about an expanded node's forward closure stays true
    as the graph grows, which is what makes incremental classification
    sound.
    """

    def __init__(
        self,
        protocol: Protocol,
        *,
        workers: int = 0,
        min_batch_per_worker: int = 4,
        resilience: ResilienceConfig | None = None,
        checkpoint: CheckpointConfig | None = None,
        chaos: ChaosConfig | None = None,
        reduction: "ReductionPolicy | None" = None,
        store: "StoreConfig | str | None" = None,
    ):
        self.protocol = protocol
        self.stats = GraphStats()
        self.workers = max(0, workers)
        self.stats.workers = self.workers
        self._min_batch_per_worker = max(1, min_batch_per_worker)
        #: Recovery / degradation policy (see :mod:`repro.core.resilience`).
        self.resilience = resilience or ResilienceConfig()
        #: Snapshot cadence; ``None`` disables checkpointing entirely.
        self.checkpoint_config = checkpoint
        #: Fault-injection hooks (chaos harness only; ``None`` in prod).
        self.chaos = chaos
        #: Metadata of the most recent snapshot written by this engine.
        self.last_checkpoint = None
        #: :class:`~repro.core.resilience.PartialResult` of the most
        #: recent budget-guard stop or interrupt, ``None`` otherwise.
        self.last_partial: PartialResult | None = None
        #: Reason string of a pending cooperative stop request (set from
        #: any thread via :meth:`request_stop`), ``None`` otherwise.
        self._stop_requested: str | None = None
        self._pool = None
        self._pool_failures = 0
        self._pool_disabled = False
        self._small_batch_logged = False
        self._pool_idle_logged = False
        self._atexit_hook = None
        self._last_checkpoint_time: float | None = None
        self._levels_since_checkpoint = 0
        self._expansions_at_checkpoint = 0
        self._expanded = bytearray()
        self._decision_nodes: dict[int, list[int]] = {}
        #: Bumped on any node/edge addition; versions CSR staleness.
        self._version = 0
        self._csr_version = -1
        self._rev_indptr: array | None = None
        self._rev_indices: array | None = None
        self.store_config = StoreConfig.coerce(store)
        self._codec = protocol.packed_codec()
        self._store = GraphStore(
            self._codec.width,
            self.store_config,
            on_spill=functools.partial(_record_spill, weakref.ref(self)),
        )
        self._kernel = TransitionKernel(self._codec)
        #: Lazy kernel-event-id -> store-event-id map, filled in
        #: edge-write order so store event ids allocate in first-write
        #: order, independent of the order kernel event ids were
        #: assigned in (serially or from crew chunks).
        self._kernel_store_eids: list[int] = []
        self._rich: dict[int, Configuration] = {}
        #: Reduction layers (:mod:`repro.core.reduction`); both ``None``
        #: unless a :class:`ReductionPolicy` asked for them.
        self.reduction = reduction
        self._reducer = None
        self._quotient = None
        if reduction is not None and reduction.enabled:
            from repro.core.reduction import AmpleReducer, SymmetryQuotient

            if reduction.symmetry:
                quotient, fallback = SymmetryQuotient.build(
                    protocol, self._codec
                )
                if quotient is None:
                    warnings.warn(
                        "symmetry quotient disabled: " + str(fallback),
                        stacklevel=2,
                    )
                    self.stats.sym_fallbacks = 1
                else:
                    self._quotient = quotient
                    # Orbit edges must be replayable: track the
                    # renaming chosen at every edge (the store is
                    # fresh, so tracking starts aligned).
                    self._store.enable_perm_tracking()
            if reduction.por:
                self._reducer = AmpleReducer(
                    self._kernel, reduction, self.stats
                )

    @property
    def reduced(self) -> bool:
        """Whether POR prunes or the symmetry quotient folds this graph
        (a requested quotient that fell back to the identity does not)."""
        return self._reducer is not None or self._quotient is not None

    @property
    def codec(self):
        """The packed codec."""
        return self._codec

    @property
    def kernel(self):
        """The batched transition kernel."""
        return self._kernel

    @property
    def store(self) -> GraphStore:
        """The flat-buffer store."""
        return self._store

    @property
    def configurations(self) -> _ConfigurationView:
        """Every configuration, by node id, decoded lazily."""
        return _ConfigurationView(self)

    @property
    def successors(self) -> _SuccessorsView:
        """Every node's ``(event, target)`` edge list, by node id."""
        return _SuccessorsView(self)

    # -- interning ---------------------------------------------------------------

    def intern(self, configuration: "Configuration | tuple[int, ...]") -> int:
        """The dense id of *configuration* — a rich configuration or a
        packed row of this engine's codec — allocating one if new."""
        if isinstance(configuration, tuple):
            return self._intern_packed(configuration)
        node = self._intern_packed(self._encode(configuration))
        # Under the symmetry quotient the node may stand for a
        # *different* orbit member; let the lazy decode produce the
        # canonical representative instead of caching this one.
        if self._quotient is None and node not in self._rich:
            self._rich[node] = configuration
        return node

    def _intern_packed(self, packed: tuple[int, ...]) -> int:
        """The dense id of a packed configuration, allocating if new.

        With the symmetry quotient active the id is the *orbit's*: the
        tuple is canonicalized before the index probe.
        """
        quotient = self._quotient
        if quotient is not None:
            canonical = quotient.canonicalize(packed)
            if canonical != packed:
                self.stats.sym_canonical_hits += 1
                packed = canonical
        store = self._store
        node = store.find(packed)
        if node is None:
            node = store.add(packed)
            self._expanded.append(0)
            for value in self._codec.decision_values(packed):
                self._decision_nodes.setdefault(value, []).append(node)
            self.stats.interned += 1
            self._version += 1
        return node

    def _encode(self, configuration: Configuration) -> tuple[int, ...]:
        started = time.perf_counter()
        packed = self._codec.encode(configuration)
        self.stats.encode_time += time.perf_counter() - started
        return packed

    def configuration_at(self, node: int) -> Configuration:
        """The rich configuration for *node* (decoded lazily, cached)."""
        rich = self._rich.get(node)
        if rich is None:
            rich = self._codec.decode(self._store.row(node))
            self._rich[node] = rich
        return rich

    def packed_at(self, node: int) -> tuple[int, ...]:
        """The packed tuple for *node*."""
        return self._store.row(node)

    def edge_records(self, node: int) -> list[tuple[Event, int, tuple[int, ...]]]:
        """*node*'s edges as ``(event, target, renaming)`` triples.

        The renaming is what the symmetry quotient applied to the raw
        successor before interning (identity when no quotient is
        active) — the un-quotienting data witness extraction composes
        back out.
        """
        store = self._store
        edges = store.edge_list(node)
        if store.tracking_perms:
            perms = store.edge_perms(node)
            return [
                (event, target, perms[k])
                for k, (event, target) in enumerate(edges)
            ]
        identity = tuple(range(self._codec.width - 1))
        return [(event, target, identity) for event, target in edges]

    def _lookup_key(self, packed: tuple[int, ...]) -> tuple[int, ...]:
        """The index key for *packed*: its orbit representative under the
        symmetry quotient, the tuple itself otherwise."""
        if self._quotient is not None:
            return self._quotient.canonicalize(packed)
        return packed

    def node_id(self, configuration: "Configuration | tuple[int, ...]") -> int:
        """The id of an already-interned configuration (KeyError if not)."""
        node = self.find(configuration)
        if node is None:
            raise KeyError(configuration)
        return node

    def find(
        self, configuration: "Configuration | tuple[int, ...]"
    ) -> int | None:
        """The id of *configuration* (rich, or a packed row), or
        ``None`` if never interned."""
        if not isinstance(configuration, tuple):
            configuration = self._encode(configuration)
        return self._store.find(self._lookup_key(configuration))

    def __contains__(self, configuration: Configuration) -> bool:
        return self.find(configuration) is not None

    def __len__(self) -> int:
        return len(self._expanded)

    def is_expanded(self, node: int) -> bool:
        """Whether *node*'s full successor set has been computed."""
        return bool(self._expanded[node])

    # -- worker pool -------------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            from repro.core.parallel import WorkStealingCrew

            self._pool = WorkStealingCrew(
                self.workers, self.protocol, self.chaos
            )
            if self._atexit_hook is None:
                # Registered through a weakref so the atexit table never
                # keeps the graph (and its pool) alive; ``close()``
                # unregisters.  This guarantees pool teardown even when
                # the owner forgets to close and ``__del__`` never runs.
                self._atexit_hook = functools.partial(
                    _close_from_atexit, weakref.ref(self)
                )
                atexit.register(self._atexit_hook)
        return self._pool

    def close(self) -> None:
        """Shut down the worker crew (idempotent; serial = no-op)."""
        hook = self._atexit_hook
        self._atexit_hook = None
        if hook is not None:
            atexit.unregister(hook)
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass

    # -- growth ------------------------------------------------------------------

    def request_stop(self, reason: str = "interrupt") -> None:
        """Ask the engine to stop growing at its next consistency point.

        Safe to call from any thread (the flag is read at BFS-level /
        check-interval boundaries, where every node is fully merged).
        The engine reacts exactly like a budget-guard stop: it writes a
        final checkpoint, records an honest
        :class:`~repro.core.resilience.PartialResult` carrying *reason*,
        and returns an incomplete :class:`GrowthResult` — no exception.
        The request is *sticky*: later ``explore`` calls stop
        immediately (zero new expansions) until :meth:`clear_stop` is
        called, so a multi-root query drains as one unit.  This is the
        graceful-degradation hook the ``repro serve`` daemon uses for
        per-job wall-clock deadlines and shutdown drains.
        """
        self._stop_requested = reason

    def clear_stop(self) -> None:
        """Withdraw a pending :meth:`request_stop`."""
        self._stop_requested = None

    @property
    def stop_requested(self) -> str | None:
        """Reason of the pending cooperative stop, or ``None``."""
        return self._stop_requested

    def explore(
        self,
        root: "Configuration | tuple[int, ...]",
        max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
        *,
        max_levels: int | None = None,
    ) -> GrowthResult:
        """Grow the explored region to cover *root*'s forward closure
        (*root* rich, or a packed row of this engine's codec).

        Already-expanded nodes are traversed (not recomputed); only
        never-expanded nodes pay for event enumeration and transition
        application.  A root inside the fully explored region is a pure
        walk over existing edges with zero new work.

        *max_configurations* bounds the **total** number of interned
        configurations.  A node whose expansion would exceed the budget
        is left unexpanded (hence in the frontier) and the result
        reports ``complete=False`` — a truthful partial answer, never
        an exception.

        The traversal is level-synchronized BFS with an in-order merge,
        so the interning sequence (hence every node id and edge list) is
        a pure function of the protocol and the root — independent of
        worker count, batch sharding, and ``PYTHONHASHSEED``.

        *max_levels* stops after that many BFS levels from *root* — a
        depth horizon rather than a node budget, which is what makes
        reduced-vs-full expansion counts comparable
        (same temporal horizon, different graph sizes).  Levels are
        counted from the root on every call, so re-exploring a grown
        graph with a larger horizon continues where the smaller one
        stopped.
        """
        started = time.perf_counter()
        self.stats.explore_calls += 1
        guard = BudgetGuard(self.resilience)
        if self._last_checkpoint_time is None:
            self._last_checkpoint_time = time.monotonic()
        try:
            return self._explore_levels(
                root, max_configurations, guard, max_levels
            )
        except KeyboardInterrupt:
            # Operator ^C / SIGINT (or the chaos harness imitating one):
            # leave a final snapshot and an honest partial report, then
            # let the interrupt propagate to the caller.
            self._record_stop("interrupt", guard)
            raise
        finally:
            self.stats.explore_time += time.perf_counter() - started
            self._sync_stats()

    def _sync_stats(self) -> None:
        """Copy the store's, kernel's and quotient's own counters into
        :attr:`stats` — after every explore, and on every
        ``ValencyAnalyzer.stats`` read, because the kernel also works
        outside explore (Lemma 3's search over 𝒞)."""
        stats = self.stats
        stats.arena_bytes = self._store.arena_bytes
        stats.edge_bytes = self._store.edge_bytes
        kernel = self._kernel
        stats.kernel_batch_expansions = kernel.batch_expansions
        stats.kernel_table_hits = kernel.table_hits
        stats.kernel_fallback_steps = kernel.fallback_steps
        stats.kernel_table_bytes = kernel.table_bytes
        if self._quotient is not None:
            stats.sym_canonical_misses = self._quotient.canonical_misses
            stats.sym_leaf_images = self._quotient.leaf_images

    def _explore_levels(
        self,
        root: "Configuration | tuple[int, ...]",
        max_configurations: int,
        guard: BudgetGuard,
        max_levels: int | None = None,
    ) -> GrowthResult:
        root_id = self.intern(root)
        visited = {root_id}
        frontier = [root_id]
        complete = True
        expanded = self._expanded
        level = 0

        while frontier:
            stop = self._stop_requested
            if stop is not None:
                # Cooperative stop (service drain / external deadline):
                # every discovered node is fully merged here, so a final
                # snapshot resumes byte-identically.  Checked *before*
                # the batch so a sticky request halts later explore
                # calls with zero new work.
                self.stats.stop_requests += 1
                self._record_stop(stop, guard)
                complete = False
                break
            batch = [node for node in frontier if not expanded[node]]
            if batch and not self._merge_expansions_kernel(
                batch, self._expand_batch(batch), max_configurations
            ):
                complete = False
            level += 1
            self.stats.explore_levels += 1
            self._levels_since_checkpoint += 1
            # Level boundaries are the consistency points: every batch
            # node is fully merged (all-or-nothing), so a snapshot here
            # resumes byte-identically.  The chaos interrupt fires only
            # after the cadence hook so the per-level checkpoint exists.
            self._write_checkpoint()
            chaos = self.chaos
            if (
                chaos is not None
                and chaos.interrupt_after_level is not None
                and level >= chaos.interrupt_after_level
            ):
                raise KeyboardInterrupt
            reason = guard.exceeded()
            if reason is not None:
                self._budget_stop(reason, guard)
                complete = False
                break
            next_frontier = []
            edge_targets = self._store.edge_targets
            for node in frontier:
                if not expanded[node]:
                    continue
                for target in edge_targets(node):
                    if target not in visited:
                        visited.add(target)
                        next_frontier.append(target)
            frontier = next_frontier
            if max_levels is not None and level >= max_levels and frontier:
                # Depth horizon reached with work remaining: the rim
                # stays unexpanded, exactly like a node-budget stop.
                complete = False
                break

        if (
            self.workers > 1
            and self.stats.worker_batches == 0
            and not self._pool_idle_logged
        ):
            self._pool_idle_logged = True
            logger.info(
                "workers=%d requested but every frontier level stayed "
                "below the %d-node dispatch threshold; the run expanded "
                "serially",
                self.workers,
                self.workers * self._min_batch_per_worker,
            )
        if complete:
            # Nodes reached through previously-explored edges may still
            # be unexpanded from an earlier budget-limited call.
            complete = all(expanded[node] for node in visited)
        return GrowthResult(
            root=root_id, nodes=frozenset(visited), complete=complete
        )

    def _expand_batch(
        self, batch: list[int]
    ) -> Iterable[list[tuple[int, tuple[int, ...] | None]]]:
        """Produce every batch node's ``(kernel_event_id, successor)``
        edges, aligned with *batch* and in canonical event order.

        Dispatches to the shared-memory crew when it pays (enough nodes
        to occupy every worker), else expands inline through the
        kernel.  Both paths are generators: the merge interleaves
        interning with expansion one node at a time, so codec ids
        allocate in the same order whoever computed the edges, and on
        the crew path it consumes chunk results *while workers are
        still computing later chunks* — no per-level map barrier.
        """
        threshold = self.workers * self._min_batch_per_worker
        if (
            self.workers > 1
            and not self._pool_disabled
            and len(batch) < threshold
        ):
            # Auto-disable for this level: a batch too small to occupy
            # every worker loses more to IPC than it gains, so it
            # expands inline.  Logged once, honestly, instead of
            # silently idling the crew.
            self.stats.small_batch_levels += 1
            if not self._small_batch_logged:
                self._small_batch_logged = True
                logger.info(
                    "frontier batch of %d nodes is below the %d-node "
                    "dispatch threshold (%d workers x %d nodes); "
                    "expanding inline without the pool",
                    len(batch),
                    threshold,
                    self.workers,
                    self._min_batch_per_worker,
                )
        if (
            self.workers > 1
            and not self._pool_disabled
            and len(batch) >= threshold
        ):
            return self._expand_batch_parallel(batch)
        return self._expand_batch_kernel(batch)

    def _expand_batch_kernel(
        self, batch: list[int]
    ) -> Iterable[list[tuple[int, tuple[int, ...] | None]]]:
        expand_row = self._kernel.expand_row
        row = self._store.row
        for node in batch:
            yield expand_row(row(node))

    def _expand_batch_parallel(self, batch: list[int]):
        """Generator over the batch's edge lists, crew-expanded.

        Frontier rows go into the crew's shared-memory block; chunk
        descriptors go onto the stealing queue; results stream back and
        are decoded and yielded *in chunk order* (buffering out-of-order
        arrivals), so the merge overlaps with ongoing worker computation.

        Recovery: a timed-out / dead-worker wait tears the crew down,
        backs off, rebuilds, and re-dispatches only the unfinished
        chunks (completed results are pure functions of the frontier
        and stay valid).  Once the retry budget — or the
        engine-lifetime failure budget — is exhausted, the *remaining*
        chunks expand inline through the parent's kernel, or
        :class:`WorkerPoolError` is raised when ``serial_fallback`` is
        off.  Model errors (:class:`~repro.core.errors.FLPError`) a
        worker hit come back as its chunk's result and propagate from
        :func:`~repro.core.parallel.decode_chunk` after the rows before
        them, exactly as in serial mode: no retry, no rebuild, no
        strike against the pool.
        """
        from repro.core.parallel import CrewFailure, decode_chunk

        kernel = self._kernel
        stats = self.stats
        config = self.resilience
        store = self._store
        flat = store.arena.rows_flat(batch)
        crew = self._ensure_pool()
        dispatch = crew.begin(flat, len(batch), self._codec.width, kernel)
        attempt = 0
        attempts = max(1, config.max_retries + 1)
        serial_chunks: set[int] = set()
        used_workers = False
        for idx, (start, end) in enumerate(dispatch.chunks):
            while (
                idx not in dispatch.results
                and idx not in serial_chunks
            ):
                shipped = time.perf_counter()
                try:
                    crew.collect(dispatch, config.batch_timeout_s)
                    stats.parallel_time += time.perf_counter() - shipped
                except CrewFailure as failure:
                    stats.parallel_time += time.perf_counter() - shipped
                    if failure.kind == "timeout":
                        stats.worker_timeouts += 1
                    else:
                        stats.worker_faults += 1
                    self._pool_failures += 1
                    attempt += 1
                    if self._pool_failures >= config.max_pool_failures:
                        self._pool_disabled = True
                        stats.pool_disabled = 1
                    if (
                        not self._pool_disabled
                        and attempt < attempts
                    ):
                        stats.pool_rebuilds += 1
                        stats.worker_retries += 1
                        delay = (
                            config.backoff_base_s
                            * config.backoff_factor ** (attempt - 1)
                        )
                        if delay > 0:
                            time.sleep(delay)
                        crew.rebuild()
                        crew.redispatch(dispatch, kernel)
                        continue
                    # Given up on the crew for this level: tear it down
                    # (lazily recreated next level unless disabled) and
                    # finish the unfinished chunks inline.
                    self.close()
                    if not config.serial_fallback:
                        raise WorkerPoolError(
                            f"frontier batch of {len(batch)} "
                            f"configurations failed after {attempt} "
                            "dispatch attempt(s); serial fallback is "
                            "disabled"
                        ) from None
                    stats.serial_fallbacks += 1
                    serial_chunks.update(dispatch.pending)
                    dispatch.pending.clear()
            if idx in serial_chunks:
                expand_row = kernel.expand_row
                for position in range(start, end):
                    yield expand_row(store.row(batch[position]))
                continue
            busy, payload = dispatch.results.pop(idx)
            stats.worker_busy_time += busy
            stats.worker_chunks += 1
            if not used_workers:
                # Batch-level accounting happens on the *first* consumed
                # worker chunk: the merge's zip() stops pulling once the
                # batch is exhausted, so code after this generator's
                # last yield would never run.
                used_workers = True
                stats.worker_batches += 1
                stats.worker_batch_nodes += len(batch)
                stats.worker_max_batch = max(
                    stats.worker_max_batch, len(batch)
                )
            yield from decode_chunk(
                kernel,
                [store.row(node) for node in batch[start:end]],
                payload,
            )

    def _merge_expansions_kernel(
        self,
        batch: list[int],
        expansions: Iterable[list[tuple[int, tuple[int, ...] | None]]],
        max_configurations: int,
    ) -> bool:
        """Intern and record the batch's edges — the one merge, serial
        or crew, reduced or not.

        *expansions* yields each batch node's kernel edges, in batch
        order.  Per node: the ample filter keeps a subset (POR), the
        symmetry quotient reroutes each kept successor to its orbit
        representative and remembers the renaming, and then one
        all-or-nothing budget decision is made — a node whose fresh
        successors no longer fit stays unexpanded and the merge returns
        ``False``.  Kept nodes intern successors first-seen in edge
        order and allocate store event ids at first edge write, so the
        graph is identical whoever expanded the batch.  Each *distinct*
        successor is probed against the index at most once per level: a
        batch-wide cache of resolved ids short-circuits the
        converging-edge duplicates BFS levels are full of, and the
        kernel's ``None`` self-loop sentinel resolves to the node itself
        with no probe at all.  Edges append as pre-interned flat pairs.
        """
        store = self._store
        find = store.find
        add = store.add
        decision_values = self._codec.decision_values
        decision_nodes = self._decision_nodes
        stats = self.stats
        expanded = self._expanded
        eid_map = self._kernel_store_eids
        event_at = self._kernel.event_at
        event_id = store.event_id
        reducer = self._reducer
        quotient = self._quotient
        complete = True
        cache: dict[tuple[int, ...], int] = {}
        cache_get = cache.get
        for node, edges in zip(batch, expansions):
            if reducer is not None:
                # The reducer sees raw successors: its replay guard
                # steps real events from them.
                edges = reducer.filter(store.row(node), edges)
            perms = None
            if quotient is not None:
                own = store.row(node)
                perms = []
                rerouted = []
                for eid, packed in edges:
                    if packed is None:
                        packed = own
                    canonical, perm = quotient.canonicalize_with_perm(
                        packed
                    )
                    if canonical != packed:
                        stats.sym_canonical_hits += 1
                    rerouted.append((eid, canonical))
                    perms.append(perm)
                edges = rerouted
            probed = []
            probe = probed.append
            pending: dict[tuple[int, ...], int] = {}
            for eid, packed in edges:
                if packed is None:
                    probe((eid, None, node))
                    continue
                target = cache_get(packed)
                if target is None and packed not in pending:
                    target = find(packed)
                    if target is None:
                        pending[packed] = -1
                    else:
                        cache[packed] = target
                probe((eid, packed, target))
            if len(store) + len(pending) > max_configurations:
                # Budget refusal discards ``pending`` uncached — the
                # node stays unexpanded and nothing was interned.
                complete = False
                continue
            for packed in pending:
                fresh = add(packed)
                expanded.append(0)
                for value in decision_values(packed):
                    decision_nodes.setdefault(value, []).append(fresh)
                pending[packed] = fresh
                cache[packed] = fresh
                stats.interned += 1
                self._version += 1
            flat: list[int] = []
            for eid, packed, target in probed:
                if eid >= len(eid_map):
                    eid_map.extend([-1] * (eid + 1 - len(eid_map)))
                store_eid = eid_map[eid]
                if store_eid < 0:
                    store_eid = event_id(event_at(eid))
                    eid_map[eid] = store_eid
                flat.append(store_eid)
                flat.append(
                    pending[packed] if target is None else target
                )
            store.set_edges_flat(
                node,
                flat,
                None if perms is None else list(map(store.perm_id, perms)),
            )
            expanded[node] = 1
            stats.expansions += 1
            self._version += 1
        return complete

    # -- resilience --------------------------------------------------------------

    def _write_checkpoint(self, force: bool = False) -> None:
        """Snapshot to the configured path when the cadence says so.

        ``force=True`` bypasses the cadence (final snapshots on budget
        stops and interrupts); with no :class:`CheckpointConfig` this is
        always a no-op.
        """
        config = self.checkpoint_config
        if config is None:
            return
        if (
            self.last_checkpoint is not None
            and self.stats.expansions == self._expansions_at_checkpoint
        ):
            # Nothing expanded since the last snapshot: the file on disk
            # is already this graph.  Skipping keeps walks over covered
            # ground (a report re-reading a complete engine, a sticky
            # stop request hitting every root of a multi-root query)
            # from rewriting a large snapshot byte for byte.  The
            # cadence stays due, so the next expansion writes at once.
            return
        if not force:
            due = (
                config.every_levels > 0
                and self._levels_since_checkpoint >= config.every_levels
            )
            if not due and config.every_seconds > 0:
                last = self._last_checkpoint_time
                due = (
                    last is None
                    or time.monotonic() - last >= config.every_seconds
                )
            if not due:
                return
        from repro.core.checkpoint import save_checkpoint

        info = save_checkpoint(self, config.path)
        self.last_checkpoint = info
        self.stats.checkpoints_written += 1
        self.stats.checkpoint_time += info.elapsed_s
        self._levels_since_checkpoint = 0
        self._expansions_at_checkpoint = self.stats.expansions
        self._last_checkpoint_time = time.monotonic()

    def _record_stop(self, reason: str, guard: BudgetGuard) -> None:
        """Final snapshot + honest partial report for a stopped run."""
        self._write_checkpoint(force=True)
        expanded = sum(self._expanded)
        self.last_partial = PartialResult(
            reason=reason,
            nodes=len(self),
            expanded=expanded,
            frontier=len(self) - expanded,
            elapsed_s=guard.elapsed(),
            checkpoint_path=(
                self.last_checkpoint.path
                if self.last_checkpoint is not None
                else None
            ),
        )

    def _budget_stop(self, reason: str, guard: BudgetGuard) -> None:
        self.stats.budget_stops += 1
        self._record_stop(reason, guard)

    def fingerprint(self) -> str:
        """SHA-256 over the node table and edge lists, in id order.

        Two engines produce the same fingerprint iff they interned the
        same configurations under the same ids and recorded the same
        edges in the same order — the determinism contract behind both
        parallel expansion and checkpoint/resume.  Fingerprints are
        stable across processes: ids are first-seen-order ints.
        """
        digest = hashlib.sha256()
        store = self._store
        for node in range(len(store)):
            digest.update(repr(store.row(node)).encode())
            digest.update(repr(store.edge_list(node)).encode())
        return digest.hexdigest()

    def semantic_fingerprint(self) -> str:
        """SHA-256 over the graph with no interned id inside it.

        In node-id order, each node's decoded configuration (per process
        its name, input, output and data; the buffer as sorted
        ``(destination, value, count)`` triples) and its
        ``(event, target id)`` list, values in the JSON form of
        :func:`repro.adversary.bundle._encode_value`.  Node ids still
        count (they are BFS first-seen order), but state, buffer and
        event ids do not, so this pin holds across any change to how a
        packed row encodes a configuration, where :meth:`fingerprint`
        would move.
        """
        from repro.adversary.bundle import _encode_value

        consumed = self.protocol.consumed_message

        def event_form(event: Event) -> list:
            message = consumed(event)
            if message is None:
                return [event.process, "null", None]
            kind = (
                "deliver" if event.value == message.value
                else type(event.value).__name__
            )
            return [event.process, kind, _encode_value(message.value)]

        dumps = functools.partial(
            json.dumps, sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256()
        store = self._store
        for node in range(len(store)):
            configuration = self._codec.decode(store.row(node))
            states = [
                [name, state.input, state.output, _encode_value(state.data)]
                for name, state in configuration.states()
            ]
            buffer = sorted(
                (
                    [message.destination, _encode_value(message.value), count]
                    for message, count in configuration.buffer.items()
                ),
                key=dumps,
            )
            edges = [
                [event_form(event), target]
                for event, target in store.edge_list(node)
            ]
            digest.update(dumps([states, buffer, edges]).encode())
        return digest.hexdigest()

    # -- queries -----------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """Whether every discovered configuration is fully expanded."""
        return 0 not in self._expanded

    def frontier_ids(self) -> list[int]:
        """Ids discovered but never expanded (budget-limited edges)."""
        return [
            node
            for node, expanded in enumerate(self._expanded)
            if not expanded
        ]

    def decision_nodes(self, value: int) -> list[int]:
        """Ids of configurations having decision value *value*.

        Maintained incrementally at intern time — O(1) per query, no
        rescan of the configuration list.
        """
        return self._decision_nodes.get(value, [])

    def iter_edges(self) -> Iterator[tuple[int, Event, int]]:
        """Iterate over all recorded edges as ``(source, event, target)``."""
        return self._store.iter_edges()

    def reachable_from(self, node: int) -> GrowthResult:
        """Forward closure of *node* inside the explored region.

        Pure graph walk — never applies transitions.  ``complete`` is
        ``True`` iff the closure contains no unexpanded node.
        """
        visited = {node}
        queue: deque[int] = deque((node,))
        complete = True
        while queue:
            current = queue.popleft()
            if not self._expanded[current]:
                complete = False
                continue
            for target in self._store.edge_targets(current):
                if target not in visited:
                    visited.add(target)
                    queue.append(target)
        return GrowthResult(
            root=node, nodes=frozenset(visited), complete=complete
        )

    # -- reverse reachability ----------------------------------------------------

    def _reverse_csr(self) -> tuple[array, array]:
        """The packed reverse adjacency, rebuilt lazily on growth."""
        if self._csr_version != self._version:
            n = len(self)
            counts = [0] * (n + 1)
            edge_targets = self._store.edge_targets
            for source in range(n):
                for target in edge_targets(source):
                    counts[target + 1] += 1
            for i in range(n):
                counts[i + 1] += counts[i]
            indptr = array("l", counts)
            indices = array("l", bytes(indptr.itemsize * indptr[n]))
            cursor = counts[:n]
            for source in range(n):
                for target in edge_targets(source):
                    indices[cursor[target]] = source
                    cursor[target] += 1
            self._rev_indptr = indptr
            self._rev_indices = indices
            self._csr_version = self._version
            self.stats.csr_rebuilds += 1
        assert self._rev_indptr is not None
        assert self._rev_indices is not None
        return self._rev_indptr, self._rev_indices

    def reaching_mask(self, targets: Iterable[int]) -> bytearray:
        """Flat visited map of all nodes with a path into *targets*.

        The returned ``bytearray`` has one byte per node id; byte ``i``
        is 1 iff node ``i`` reaches some target (targets included):
        reverse BFS over the CSR index with flat memory and no
        per-element hashing.
        """
        started = time.perf_counter()
        indptr, indices = self._reverse_csr()
        mask = bytearray(len(self))
        stack: list[int] = []
        for target in targets:
            if not mask[target]:
                mask[target] = 1
                stack.append(target)
        while stack:
            node = stack.pop()
            for i in range(indptr[node], indptr[node + 1]):
                predecessor = indices[i]
                if not mask[predecessor]:
                    mask[predecessor] = 1
                    stack.append(predecessor)
        self.stats.reach_calls += 1
        self.stats.reach_time += time.perf_counter() - started
        return mask

    def nodes_reaching(self, targets: Iterable[int]) -> set[int]:
        """Set view of :meth:`reaching_mask` (compatibility helper)."""
        mask = self.reaching_mask(targets)
        return {node for node, hit in enumerate(mask) if hit}
