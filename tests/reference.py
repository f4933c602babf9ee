"""Reference oracles, independent of the engine code they check.

:func:`explore` computes successors through the protocol's own
``enabled_events`` / ``apply_event`` and keys rich configurations in a
dict — an implementation independent of the kernel, the codec and the
store.  The helpers below it compare a
:class:`~repro.core.exploration.GlobalConfigurationGraph` against it.

:func:`brute_canonicalize` is the n! oracle for the symmetry quotient's
partition-refinement canonical labeling, and :func:`classify_whole_graph`
the whole-graph oracle for the valency analyzer's incremental
classification.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Iterator

from repro.core.configuration import Configuration
from repro.core.events import Event
from repro.core.exploration import DEFAULT_MAX_CONFIGURATIONS
from repro.core.protocol import Protocol
from repro.core.valency import Valency
from repro.core.values import ONE, ZERO


@dataclass
class ConfigurationGraph:
    """The explored portion of the configuration graph rooted at ``root``.

    Attributes
    ----------
    root:
        The configuration exploration started from.
    configurations:
        Every explored configuration, indexed by node id.  ``root`` is
        node 0.
    successors:
        ``successors[i]`` lists ``(event, j)`` pairs: applying ``event``
        to configuration ``i`` yields configuration ``j``.  Populated
        only for *expanded* nodes.
    predecessors:
        Reverse adjacency (node ids only), for reverse reachability.
    frontier:
        Node ids that were discovered but never expanded because the
        budget ran out.  Empty iff :attr:`complete`.
    complete:
        ``True`` iff the reachable set was exhausted — every discovered
        configuration was expanded.
    """

    root: Configuration
    configurations: list[Configuration] = field(default_factory=list)
    successors: list[list[tuple[Event, int]]] = field(default_factory=list)
    predecessors: list[list[int]] = field(default_factory=list)
    frontier: set[int] = field(default_factory=set)
    complete: bool = True
    _index: dict[Configuration, int] = field(default_factory=dict)

    def node_id(self, configuration: Configuration) -> int:
        """The id of *configuration* (KeyError if never discovered)."""
        return self._index[configuration]

    def __contains__(self, configuration: Configuration) -> bool:
        return configuration in self._index

    def __len__(self) -> int:
        return len(self.configurations)

    def nodes_reaching(self, targets: set[int]) -> set[int]:
        """All node ids with a path into *targets* (including targets)."""
        seen = set(targets)
        queue = deque(targets)
        while queue:
            node = queue.popleft()
            for predecessor in self.predecessors[node]:
                if predecessor not in seen:
                    seen.add(predecessor)
                    queue.append(predecessor)
        return seen

    def decision_nodes(self, value: int) -> set[int]:
        """Node ids of configurations having decision value *value*."""
        return {
            i
            for i, configuration in enumerate(self.configurations)
            if value in configuration.decision_values()
        }

    def iter_edges(self) -> Iterator[tuple[int, Event, int]]:
        """Iterate over all edges as ``(source, event, target)``."""
        for source, out in enumerate(self.successors):
            for event, target in out:
                yield source, event, target


def explore(
    protocol: Protocol,
    root: Configuration,
    max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
    event_filter: Callable[[Configuration, Event], bool] | None = None,
) -> ConfigurationGraph:
    """Breadth-first exploration of the configuration graph from *root*.

    Nodes are numbered in BFS first-seen order.  Past
    *max_configurations* distinct configurations the result has
    ``complete=False`` and the unexpanded nodes in ``frontier``.
    Events for which *event_filter* returns ``False`` are not taken:
    Lemma 3's set 𝒞 ("reachable from C without applying e") is
    exploration with the filter ``event != e``.
    """
    graph = ConfigurationGraph(root=root)
    graph.configurations.append(root)
    graph.successors.append([])
    graph.predecessors.append([])
    graph._index[root] = 0

    queue: deque[int] = deque([0])
    expanded: set[int] = set()

    while queue:
        node = queue.popleft()
        if node in expanded:
            continue
        expanded.add(node)
        configuration = graph.configurations[node]
        for event in protocol.enabled_events(configuration):
            if event_filter is not None and not event_filter(
                configuration, event
            ):
                continue
            successor = protocol.apply_event(configuration, event)
            existing = graph._index.get(successor)
            if existing is None:
                if len(graph.configurations) >= max_configurations:
                    # Budget exhausted: record the truthful partial result.
                    graph.complete = False
                    graph.frontier = {
                        n
                        for n in range(len(graph.configurations))
                        if n not in expanded
                    }
                    # The current node is only partially expanded.
                    graph.frontier.add(node)
                    return graph
                existing = len(graph.configurations)
                graph.configurations.append(successor)
                graph.successors.append([])
                graph.predecessors.append([])
                graph._index[successor] = existing
                queue.append(existing)
            graph.successors[node].append((event, existing))
            if node not in graph.predecessors[existing]:
                graph.predecessors[existing].append(node)

    return graph


def assert_same_graph(graph, protocol, root):
    """A fresh engine grown from *root* to closure equals ``explore()``
    node for node: same decoded configuration and same successor list
    under every id (both number nodes in BFS first-seen order)."""
    oracle = explore(protocol, root)
    assert oracle.complete
    assert graph.complete
    assert len(graph) == len(oracle)
    for node, configuration in enumerate(oracle.configurations):
        assert graph.configuration_at(node) == configuration
        assert graph.successors[node] == oracle.successors[node]


def closure_triples(protocol, root):
    """*root*'s closure as ``(configuration, event, configuration)``
    triples, computed by ``explore()``."""
    oracle = explore(protocol, root)
    assert oracle.complete
    at = oracle.configurations
    return {
        (at[source], event, at[target])
        for source, event, target in oracle.iter_edges()
    }


def engine_triples(graph, nodes):
    """The engine's edges out of *nodes*, as rich triples."""
    at = graph.configuration_at
    return {
        (at(source), event, at(target))
        for source in nodes
        for event, target in graph.successors[source]
    }


def brute_canonicalize(quotient, packed):
    """``(canonical, perm)``: the lexicographically smallest image of
    *packed* over all n! renamings, and a renaming reaching it.

    Images are built by ``quotient.apply_perm``, so the oracle shares
    only the codec's interning with the refinement search it checks.
    It may elect a different orbit representative than the quotient:
    compare the partitions the two induce, never the forms.
    """
    best, best_perm = packed, quotient.identity
    for perm in permutations(range(len(quotient.names))):
        candidate = quotient.apply_perm(packed, perm)
        if candidate < best:
            best, best_perm = candidate, perm
    return best, best_perm


def classify_whole_graph(graph, valencies: list) -> None:
    """One whole-graph classification pass over *graph*, in place.

    *valencies* holds a :class:`Valency` or ``None`` (undetermined) per
    node id and is extended to the graph's size.  Three
    reverse-reachability masks over the whole shared graph — into the
    0-decisions, the 1-decisions and the frontier — then a scan of
    every id: a node that reaches both decision values is BIVALENT; one
    that reaches the frontier stays undetermined; any other is the
    univalent class of what it reaches, or NONE.  Classified nodes are
    skipped, exactly as the analyzer never revisits them.
    """
    total = len(graph)
    valencies.extend([None] * (total - len(valencies)))
    reach_zero = graph.reaching_mask(graph.decision_nodes(ZERO))
    reach_one = graph.reaching_mask(graph.decision_nodes(ONE))
    frontier = graph.frontier_ids()
    reach_frontier = graph.reaching_mask(frontier) if frontier else None
    for node in range(total):
        if valencies[node] is not None:
            continue
        in_zero = reach_zero[node]
        in_one = reach_one[node]
        if in_zero and in_one:
            valencies[node] = Valency.BIVALENT
        elif reach_frontier is not None and reach_frontier[node]:
            continue
        elif in_zero:
            valencies[node] = Valency.ZERO_VALENT
        elif in_one:
            valencies[node] = Valency.ONE_VALENT
        else:
            valencies[node] = Valency.NONE
