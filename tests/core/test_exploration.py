"""Unit tests for the reference exploration in :mod:`tests.reference`."""

import pytest

from repro.protocols import ArbiterProcess, WaitForAllProcess, make_protocol
from tests.reference import explore


@pytest.fixture(scope="module")
def arbiter():
    return make_protocol(ArbiterProcess, 3)


@pytest.fixture(scope="module")
def arbiter_graph(arbiter):
    return explore(arbiter, arbiter.initial_configuration([0, 0, 1]))


class TestExplore:
    def test_root_is_node_zero(self, arbiter, arbiter_graph):
        root = arbiter.initial_configuration([0, 0, 1])
        assert arbiter_graph.configurations[0] == root
        assert arbiter_graph.node_id(root) == 0

    def test_finite_protocol_completes(self, arbiter_graph):
        assert arbiter_graph.complete
        assert not arbiter_graph.frontier

    def test_contains_and_len(self, arbiter, arbiter_graph):
        assert arbiter.initial_configuration([0, 0, 1]) in arbiter_graph
        assert len(arbiter_graph) > 1

    def test_every_edge_is_a_real_transition(self, arbiter, arbiter_graph):
        for source, event, target in arbiter_graph.iter_edges():
            src_config = arbiter_graph.configurations[source]
            assert event.is_applicable(src_config)
            assert (
                arbiter.apply_event(src_config, event)
                == arbiter_graph.configurations[target]
            )

    def test_predecessors_mirror_successors(self, arbiter_graph):
        for source, _event, target in arbiter_graph.iter_edges():
            assert source in arbiter_graph.predecessors[target]

    def test_budget_produces_honest_partial_result(self, arbiter):
        root = arbiter.initial_configuration([0, 0, 1])
        graph = explore(arbiter, root, max_configurations=5)
        assert not graph.complete
        assert graph.frontier
        assert len(graph) <= 5

    def test_event_filter_blocks_events(self, arbiter):
        root = arbiter.initial_configuration([0, 0, 1])
        # Forbid p1 from ever stepping: p1's claim never enters the
        # buffer, so the graph shrinks.
        filtered = explore(
            arbiter,
            root,
            event_filter=lambda _c, e: e.process != "p1",
        )
        unfiltered = explore(arbiter, root)
        assert len(filtered) < len(unfiltered)
        for _source, event, _target in filtered.iter_edges():
            assert event.process != "p1"


class TestReverseReachability:
    def test_nodes_reaching_includes_targets(self, arbiter_graph):
        targets = {len(arbiter_graph) - 1}
        reaching = arbiter_graph.nodes_reaching(targets)
        assert targets <= reaching

    def test_root_reaches_decisions(self, arbiter_graph):
        zero_nodes = arbiter_graph.decision_nodes(0)
        one_nodes = arbiter_graph.decision_nodes(1)
        assert zero_nodes and one_nodes  # mixed inputs: both reachable
        assert 0 in arbiter_graph.nodes_reaching(zero_nodes)
        assert 0 in arbiter_graph.nodes_reaching(one_nodes)

    def test_empty_targets(self, arbiter_graph):
        assert arbiter_graph.nodes_reaching(set()) == set()


class TestDeterminism:
    def test_same_exploration_twice(self, arbiter):
        root = arbiter.initial_configuration([0, 1, 0])
        a = explore(arbiter, root)
        b = explore(arbiter, root)
        assert a.configurations == b.configurations
        assert list(a.iter_edges()) == list(b.iter_edges())

    def test_wait_for_all_graph_size_is_stable(self):
        # Regression anchor: the wait-for-all/3 accessible set from one
        # initial configuration has a fixed size.
        protocol = make_protocol(WaitForAllProcess, 3)
        root = protocol.initial_configuration([0, 1, 1])
        assert len(explore(protocol, root)) == len(explore(protocol, root))
