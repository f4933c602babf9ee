"""Valency: the decision values reachable from a configuration.

"Let C be a configuration and let V be the set of decision values of
configurations reachable from C.  C is *bivalent* if |V| = 2, *univalent*
if |V| = 1 — 0-valent or 1-valent according to the corresponding decision
value." (paper, Section 3)

For finite protocol instances valency is computable: build the reachable
graph and take reverse reachability from decision configurations.  The
analyzer does so incrementally — each pass examines only the nodes not
yet classified, reading every classified successor as an exact summary
of what it reaches.  For bounded explorations the analyzer returns
sound answers where the budget permits and an explicit
:attr:`Valency.UNKNOWN` otherwise — never a silent guess.
"""

from __future__ import annotations

import enum
import time
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Container

from repro.core.configuration import Configuration
from repro.core.events import Event, Schedule
from repro.core.exploration import (
    DEFAULT_MAX_CONFIGURATIONS,
    GlobalConfigurationGraph,
    GraphStats,
)
from repro.core.protocol import Protocol
from repro.core.values import ONE, ZERO

__all__ = [
    "Valency",
    "ValencyAnalyzer",
    "BivalenceWitness",
    "shortest_schedule",
]


class Valency(enum.Enum):
    """Classification of a configuration by its reachable decision set V."""

    #: V = {0}: every reachable decision is 0.
    ZERO_VALENT = "0-valent"
    #: V = {1}: every reachable decision is 1.
    ONE_VALENT = "1-valent"
    #: V = {0, 1}: both decisions remain reachable.
    BIVALENT = "bivalent"
    #: V = ∅: no decision is reachable at all.  Cannot occur in a totally
    #: correct protocol ("by the total correctness of P ... V ≠ ∅") but
    #: the analyzer must be honest about protocols that are not.
    NONE = "non-deciding"
    #: The exploration budget was insufficient to determine V.
    UNKNOWN = "unknown"

    @property
    def is_univalent(self) -> bool:
        return self in (Valency.ZERO_VALENT, Valency.ONE_VALENT)

    @property
    def decided_value(self) -> int | None:
        """The forced decision value for univalent classes, else ``None``."""
        if self is Valency.ZERO_VALENT:
            return ZERO
        if self is Valency.ONE_VALENT:
            return ONE
        return None

    @classmethod
    def of_values(cls, values: frozenset[int]) -> "Valency":
        """Classify an exactly-known decision-value set."""
        if values == frozenset((ZERO, ONE)):
            return cls.BIVALENT
        if values == frozenset((ZERO,)):
            return cls.ZERO_VALENT
        if values == frozenset((ONE,)):
            return cls.ONE_VALENT
        if not values:
            return cls.NONE
        raise ValueError(f"not a binary decision-value set: {values!r}")


@dataclass(frozen=True)
class BivalenceWitness:
    """Machine-checkable evidence that a configuration is bivalent.

    ``to_zero`` applied to ``configuration`` reaches a configuration with
    decision value 0; ``to_one`` likewise for 1.  ``verify`` replays both
    schedules through the protocol semantics.
    """

    configuration: Configuration
    to_zero: Schedule
    to_one: Schedule

    def verify(self, protocol: Protocol) -> bool:
        """Re-run both witness schedules and check the decisions."""
        zero_end = protocol.apply_schedule(self.configuration, self.to_zero)
        one_end = protocol.apply_schedule(self.configuration, self.to_one)
        return (
            ZERO in zero_end.decision_values()
            and ONE in one_end.decision_values()
        )


#: Reach bits of the classifier: the node reaches a 0-decision, a
#: 1-decision, an unexpanded (frontier) node.
_ZERO_BIT = 1
_ONE_BIT = 2
_FRONTIER_BIT = 4
_BOTH = _ZERO_BIT | _ONE_BIT
_REACH = _BOTH | _FRONTIER_BIT
#: Per-node classifier state: 0 while unexamined; an *open* node
#: (undetermined, it reaches the frontier) keeps its reach bits, 4-7;
#: a *settled* node is ``_SETTLED`` plus the decision bits it reaches,
#: 8-11.  Either way ``state & _REACH`` is exactly what the node
#: reaches, as long as its forward closure is unchanged.
_SETTLED = 8
_VALENCY_OF_STATE = (None,) * _SETTLED + (
    Valency.NONE,
    Valency.ZERO_VALENT,
    Valency.ONE_VALENT,
    Valency.BIVALENT,
)


class _DecisionView:
    """``node in view`` iff *node* carries the decision of *bit*: a
    membership view over the analyzer's per-node decision flags."""

    __slots__ = ("flags", "bit")

    def __init__(self, flags: bytearray, bit: int):
        self.flags = flags
        self.bit = bit

    def __contains__(self, node: int) -> bool:
        return bool(self.flags[node] & self.bit)


def shortest_schedule(
    graph: GlobalConfigurationGraph,
    source: int,
    targets: Container[int],
    renaming: tuple[int, ...] | None = None,
) -> Schedule | None:
    """Shortest concrete schedule from node *source* into *targets*.

    Breadth-first over :meth:`GlobalConfigurationGraph.edge_records`;
    ``None`` when no target is reachable from *source* inside the
    explored portion of the graph.  Each edge out of node ``K`` records
    the event ``e`` applied to ``K`` and the renaming ``σ`` taking the
    raw successor ``e(K)`` to the next node — the symmetry quotient's
    orbit reroute, the identity without a quotient.  Keeping the
    accumulated renaming ``τ`` with the invariant
    ``concrete_i = rename(K_i, τ_i)``, seeded ``τ_0 = ρ⁻¹`` from the
    *renaming* ``ρ`` that took the concrete start configuration to
    *source* (identity by default), each step lifts to the concrete
    event ``rename(e, τ_i)`` and ``τ`` advances by ``τ ∘ σ⁻¹``.
    Renaming is a validated protocol automorphism, so enabledness and
    decision values transfer step by step and the schedule replays from
    the concrete start through plain protocol semantics.
    """
    from repro.core.reduction import perm_compose, perm_invert

    path: list[tuple[Event, tuple[int, ...]]] | None = None
    if source in targets:
        path = []
    parents: dict[int, tuple[int, Event, tuple[int, ...]]] = {}
    queue: deque[int] = deque([source])
    seen = {source}
    while queue and path is None:
        node = queue.popleft()
        for event, successor, sigma in graph.edge_records(node):
            if successor in seen:
                continue
            parents[successor] = (node, event, sigma)
            if successor in targets:
                path = []
                while successor != source:
                    successor, via, perm = parents[successor]
                    path.append((via, perm))
                path.reverse()
                break
            seen.add(successor)
            queue.append(successor)
    if path is None:
        return None
    quotient = graph._quotient
    tau = perm_invert(renaming or tuple(range(graph.codec.width - 1)))
    events: list[Event] = []
    for event, sigma in path:
        if quotient is not None:
            event = quotient.rename_event(event, tau)
        events.append(event)
        tau = perm_compose(tau, perm_invert(sigma))
    return Schedule(events)


class ValencyAnalyzer:
    """Computes and caches valencies for one protocol.

    The analyzer owns one :class:`GlobalConfigurationGraph` and
    classifies it *incrementally*: the first query from a configuration
    grows the shared graph to cover that configuration's forward
    closure, then a reverse-reachability pass over the still
    undetermined nodes only — those interned since the last pass plus
    those left open because they reach the frontier — classifies every
    node whose valency is pinned down soundly (see :meth:`_classify`).
    Any later query whose configuration lies in the already-classified
    region — including every :meth:`bivalence_witness` lookup — is a
    pure cache hit: no second exploration.

    Classification is monotone-sound across growth: an expanded node's
    forward closure never changes (expansion records the complete
    successor set), so a valency assigned once stays valid as new roots
    extend the graph, and later passes read it as an exact summary.

    Parameters
    ----------
    protocol:
        The protocol whose semantics define reachability.
    max_configurations:
        Budget on the total number of interned configurations.  Larger
        state spaces produce sound answers where reverse reachability
        from decisions can be separated from the unexplored frontier,
        and :attr:`Valency.UNKNOWN` elsewhere; raising the budget later
        resumes exploration from the recorded frontier.
    workers:
        Opt-in ``multiprocessing`` pool size for frontier expansion
        (0/1 = serial).  Results are byte-identical to a serial run; the
        pool is shut down via :meth:`close` or engine finalization.
    resilience:
        Worker-recovery and budget-guard policy for the shared engine
        (see :class:`~repro.core.resilience.ResilienceConfig`).
    checkpoint:
        Snapshot cadence for the shared engine (see
        :class:`~repro.core.resilience.CheckpointConfig`).
    resume_from:
        Path of a checkpoint to restore the shared graph from before
        any query runs.  The snapshot decides the reduction policy
        (unless *reduction* overrides it), and valencies are
        reclassified from the restored graph on first query —
        classification state is derived, not checkpointed.
    reduction:
        Optional :class:`~repro.core.reduction.ReductionPolicy` for the
        shared engine (Lemma-1 ample sets / symmetry quotient).  Every
        valency verdict is identical to the unreduced graph's — that is
        the reduction's soundness contract, pinned by the zoo-wide
        property tests — and :meth:`bivalence_witness` works under the
        quotient too: every orbit edge records the renaming it applied,
        so a quotient path is *un-quotiented* back into a concrete
        schedule by composing the recorded renamings out (see
        :func:`shortest_schedule`).
    """

    def __init__(
        self,
        protocol: Protocol,
        max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
        *,
        workers: int = 0,
        resilience=None,
        checkpoint=None,
        resume_from: str | None = None,
        reduction=None,
        store=None,
    ):
        self.protocol = protocol
        self.max_configurations = max_configurations
        #: The one shared accessible-configuration graph.
        if resume_from is not None:
            from repro.core.checkpoint import load_checkpoint

            self.graph = load_checkpoint(
                resume_from,
                protocol,
                workers=workers,
                resilience=resilience,
                checkpoint=checkpoint,
                reduction=reduction,
                store=store,
            )
        else:
            self.graph = GlobalConfigurationGraph(
                protocol,
                workers=workers,
                resilience=resilience,
                checkpoint=checkpoint,
                reduction=reduction,
                store=store,
            )
        #: Classifier state per node id (see ``_VALENCY_OF_STATE``).
        self._state = bytearray()
        #: Ids below ``_seen`` that classification left open, and the
        #: unexpanded ones among them; every id at or past ``_seen`` is
        #: new since the last pass.
        self._open = array("i")
        self._open_frontier = array("i")
        self._seen = 0
        #: Scratch: each examined node's index within the current pass.
        self._local = array("i")
        #: Decision bits per node id, extended from the engine's
        #: id-ordered decision lists past the cursor of each value.
        self._decides = bytearray()
        self._decision_cursor = {ZERO: 0, ONE: 0}

    def close(self) -> None:
        """Release the engine's worker pool (no-op for serial engines)."""
        self.graph.close()

    @property
    def configurations_explored(self) -> int:
        """Total distinct configurations interned by the shared graph.

        Repeated queries over overlapping regions leave it unchanged.
        """
        return len(self.graph)

    @property
    def stats(self) -> GraphStats:
        """Engine observability counters (see :class:`GraphStats`).

        The kernel's counters, and a faulted protocol's fault counters,
        are mirrored in on every read, so they include work done outside
        :meth:`GlobalConfigurationGraph.explore` (the adversary's
        event-filtered searches do exactly that).
        """
        self.graph._sync_stats()
        stats = self.graph.stats
        fault_counters = getattr(self.protocol, "fault_counters", None)
        if fault_counters is not None:
            for key, value in fault_counters.as_dict().items():
                setattr(stats, key, value)
        return stats

    # -- queries ---------------------------------------------------------------

    def valency(
        self, configuration: "Configuration | tuple[int, ...]"
    ) -> Valency:
        """The valency of *configuration* (cached): a rich configuration
        or a packed row of this analyzer's engine."""
        cached = self._lookup(configuration)
        if cached is not None:
            self.graph.stats.cache_hits += 1
            return cached
        self.graph.stats.cache_misses += 1
        self.graph.explore(
            configuration, max_configurations=self.max_configurations
        )
        self._classify()
        node = self.graph.node_id(configuration)
        valency = _VALENCY_OF_STATE[self._state[node]]
        return valency if valency is not None else Valency.UNKNOWN

    def _lookup(
        self, configuration: "Configuration | tuple[int, ...]"
    ) -> Valency | None:
        """Cached valency without growing the graph, else ``None``."""
        node = self.graph.find(configuration)
        if node is None or node >= len(self._state):
            return None
        return _VALENCY_OF_STATE[self._state[node]]

    def peek(self, configuration: Configuration) -> Valency:
        """Cached valency, :attr:`Valency.UNKNOWN` if undetermined —
        never explores.  For census passes over already-grown regions."""
        cached = self._lookup(configuration)
        return cached if cached is not None else Valency.UNKNOWN

    def peek_node(self, node: int) -> Valency:
        """Cached valency by node id — no encode, no decode, no growth.

        The census path uses this to classify whole closures without
        materializing rich configurations from the packed engine.
        """
        if node >= len(self._state):
            return Valency.UNKNOWN
        cached = _VALENCY_OF_STATE[self._state[node]]
        return cached if cached is not None else Valency.UNKNOWN

    def decision_values(
        self, configuration: Configuration
    ) -> frozenset[int] | None:
        """The exact set V for *configuration*, or ``None`` if unknown."""
        valency = self.valency(configuration)
        if valency is Valency.UNKNOWN:
            return None
        if valency is Valency.BIVALENT:
            return frozenset((ZERO, ONE))
        if valency is Valency.NONE:
            return frozenset()
        return frozenset((valency.decided_value,))

    def bivalence_witness(
        self, configuration: Configuration
    ) -> BivalenceWitness | None:
        """Witness schedules to both decisions, or ``None`` if not
        (provably) bivalent.

        A pure lookup over the shared graph: BIVALENT was proved by
        reverse reachability over recorded edges, so both witness paths
        already exist in the explored region — no re-exploration.  The
        searches test targets against the classifier's decision flags,
        so no set of decision nodes is built per call.

        Under the symmetry quotient the recorded path connects orbit
        representatives; :func:`shortest_schedule` composes the per-edge
        renamings back out so the returned schedules replay concretely
        from *configuration* itself.
        """
        if self.valency(configuration) is not Valency.BIVALENT:
            return None
        graph = self.graph
        packed = graph.codec.encode(configuration)
        renaming = None
        if graph._quotient is not None:
            packed, renaming = graph._quotient.canonicalize_with_perm(packed)
        source = graph.store.find(packed)
        if source is None:  # pragma: no cover - valency interned it
            return None
        decides = self._sync_decisions()
        to_zero = shortest_schedule(
            graph, source, _DecisionView(decides, _ZERO_BIT), renaming
        )
        to_one = shortest_schedule(
            graph, source, _DecisionView(decides, _ONE_BIT), renaming
        )
        if to_zero is None or to_one is None:  # pragma: no cover - guarded
            return None
        return BivalenceWitness(configuration, to_zero, to_one)

    def classify_initials(self) -> dict[tuple[int, ...], Valency]:
        """Valency of every initial configuration, keyed by input vector."""
        result: dict[tuple[int, ...], Valency] = {}
        for initial in self.protocol.initial_configurations():
            result[self.protocol.input_vector(initial)] = self.valency(
                initial
            )
        return result

    # -- internals ---------------------------------------------------------------

    def _sync_decisions(self) -> bytearray:
        """The per-node decision flags, extended to the whole graph.

        The engine appends decision nodes at intern time, i.e. in id
        order, so only the entries past each value's cursor are new.
        """
        graph = self.graph
        decides = self._decides
        decides.extend(bytes(len(graph) - len(decides)))
        cursor = self._decision_cursor
        for value, bit in ((ZERO, _ZERO_BIT), (ONE, _ONE_BIT)):
            nodes = graph.decision_nodes(value)
            for node in nodes[cursor[value]:]:
                decides[node] |= bit
            cursor[value] = len(nodes)
        return decides

    def _classify(self) -> None:
        """Assign sound valencies to the nodes not yet classified.

        Only undetermined nodes are examined: those interned since the
        last pass, plus earlier ones left open because they reach the
        frontier — and those only when one of the open frontier nodes
        has been expanded since, since otherwise no open node's forward
        closure changed and its recorded reach bits still hold.  Each
        examined node gets reach bits — a 0-decision, a 1-decision, the
        frontier — seeded from its own decision values, from being
        unexpanded, and from every successor outside the examined set,
        read as an exact summary: BIVALENT reaches both values; 0-valent,
        1-valent and NONE reach what the label says and no frontier
        node, because their forward closure is fully expanded and never
        changes; an unchanged open node reaches what its bits say.  The
        bits then propagate backwards over the examined subgraph only
        (flat arrays, one worklist), and a node is classified when they
        pin V down:

        * reaches 0-decisions and 1-decisions  → BIVALENT (always sound);
        * reaches exactly one decision value and cannot reach the
          frontier → that univalent class;
        * reaches nothing and cannot reach the frontier → NONE;
        * anything else → left open (so a later query with a larger
          budget can improve it).

        The verdicts equal a reverse-reachability pass over the whole
        shared graph (``tests/reference.py`` keeps that pass as the
        oracle).  Classified nodes are never revisited: their forward
        closures are fixed (expansion records complete successor sets),
        so earlier verdicts remain sound as the graph grows.
        """
        graph = self.graph
        total = len(graph)
        started = time.perf_counter()
        decides = self._sync_decisions()
        state = self._state
        state.extend(bytes(total - len(state)))
        expanded = graph._expanded
        if any(expanded[node] for node in self._open_frontier):
            work = self._open
            self._open = array("i")
            self._open_frontier = array("i")
            for node in work:
                state[node] = 0
        else:
            work = array("i")
        work.extend(range(self._seen, total))
        self._seen = total
        count = len(work)
        graph.stats.classify_visits += count
        local = self._local
        local.frombytes(bytes(local.itemsize * (total - len(local))))
        for index, node in enumerate(work):
            local[node] = index

        # Seed reach bits; collect the edges inside the examined set
        # (state 0) as (target, source) local-index pairs.
        reach = bytearray(count)
        heads = array("i")
        tails = array("i")
        edge_targets = graph.store.edge_targets
        for index, node in enumerate(work):
            bits = decides[node]
            if not expanded[node]:
                bits |= _FRONTIER_BIT
            for target in edge_targets(node):
                summary = state[target]
                if summary:
                    bits |= summary & _REACH
                elif target != node:
                    heads.append(local[target])
                    tails.append(index)
            reach[index] = bits

        # Reverse adjacency of the examined subgraph, by counting sort.
        starts = array("i", bytes(4 * (count + 1)))
        for head in heads:
            starts[head + 1] += 1
        for index in range(count):
            starts[index + 1] += starts[index]
        fill = starts[:count]
        preds = array("i", bytes(4 * len(heads)))
        for head, tail in zip(heads, tails):
            preds[fill[head]] = tail
            fill[head] += 1
        del heads, tails, fill

        # Push every node's bits into its examined predecessors; a node
        # is queued again only when its bits grow, at most three times.
        stack = [index for index in range(count) if reach[index]]
        while stack:
            index = stack.pop()
            bits = reach[index]
            for k in range(starts[index], starts[index + 1]):
                pred = preds[k]
                if bits | reach[pred] != reach[pred]:
                    reach[pred] |= bits
                    stack.append(pred)

        for index, node in enumerate(work):
            bits = reach[index]
            if bits & _BOTH == _BOTH:
                state[node] = _SETTLED | _BOTH
            elif bits & _FRONTIER_BIT:
                state[node] = bits  # V not pinned down; stay honest.
                self._open.append(node)
                if not expanded[node]:
                    self._open_frontier.append(node)
            else:
                state[node] = _SETTLED | bits
        graph.stats.classify_time += time.perf_counter() - started
