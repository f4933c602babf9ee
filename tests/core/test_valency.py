"""Unit + property tests for valency classification.

The key invariants come straight from the paper:

* a configuration with a decision value v is univalent for v (write-once
  output + agreement);
* every successor of a 0-valent configuration is 0-valent;
* bivalent configurations have at least one successor per decision value
  somewhere downstream (witnessed by schedules).
"""

import pytest

from repro.core.events import Event
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.valency import Valency, ValencyAnalyzer, shortest_schedule
from repro.core.values import ONE, ZERO
from repro.protocols import (
    AlwaysZeroProcess,
    ArbiterProcess,
    WaitForAllProcess,
    make_protocol,
)
from tests.reference import explore


class TestValencyEnum:
    def test_of_values(self):
        assert Valency.of_values(frozenset({0, 1})) is Valency.BIVALENT
        assert Valency.of_values(frozenset({0})) is Valency.ZERO_VALENT
        assert Valency.of_values(frozenset({1})) is Valency.ONE_VALENT
        assert Valency.of_values(frozenset()) is Valency.NONE

    def test_of_values_rejects_garbage(self):
        with pytest.raises(ValueError):
            Valency.of_values(frozenset({2}))

    def test_is_univalent(self):
        assert Valency.ZERO_VALENT.is_univalent
        assert Valency.ONE_VALENT.is_univalent
        assert not Valency.BIVALENT.is_univalent
        assert not Valency.UNKNOWN.is_univalent

    def test_decided_value(self):
        assert Valency.ZERO_VALENT.decided_value == ZERO
        assert Valency.ONE_VALENT.decided_value == ONE
        assert Valency.BIVALENT.decided_value is None


class TestArbiterValencies:
    """The arbiter protocol's valency structure is known by design."""

    def test_mixed_inputs_bivalent(self, arbiter3, arbiter3_analyzer):
        initial = arbiter3.initial_configuration([0, 0, 1])
        assert arbiter3_analyzer.valency(initial) is Valency.BIVALENT

    def test_uniform_proposers_univalent(self, arbiter3, arbiter3_analyzer):
        # Proposers are p1, p2 (p0 is the arbiter, whose input is unused).
        all_zero = arbiter3.initial_configuration([1, 0, 0])
        all_one = arbiter3.initial_configuration([0, 1, 1])
        assert arbiter3_analyzer.valency(all_zero) is Valency.ZERO_VALENT
        assert arbiter3_analyzer.valency(all_one) is Valency.ONE_VALENT

    def test_decided_configuration_is_univalent(
        self, arbiter3, arbiter3_analyzer
    ):
        initial = arbiter3.initial_configuration([0, 0, 1])
        witness = arbiter3_analyzer.bivalence_witness(initial)
        decided = arbiter3.apply_schedule(initial, witness.to_zero)
        assert ZERO in decided.decision_values()
        assert arbiter3_analyzer.valency(decided) is Valency.ZERO_VALENT

    def test_decision_values_match_valency(
        self, arbiter3, arbiter3_analyzer
    ):
        initial = arbiter3.initial_configuration([0, 0, 1])
        assert arbiter3_analyzer.decision_values(initial) == frozenset(
            {0, 1}
        )
        uni = arbiter3.initial_configuration([0, 1, 1])
        assert arbiter3_analyzer.decision_values(uni) == frozenset({1})

    def test_successor_of_zero_valent_is_zero_valent(
        self, arbiter3, arbiter3_analyzer
    ):
        root = arbiter3.initial_configuration([1, 0, 0])
        graph = explore(arbiter3, root)
        for configuration in graph.configurations:
            assert (
                arbiter3_analyzer.valency(configuration)
                is Valency.ZERO_VALENT
            )

    def test_classify_initials_covers_hypercube(
        self, arbiter3, arbiter3_analyzer
    ):
        table = arbiter3_analyzer.classify_initials()
        assert len(table) == 8
        assert table[(0, 0, 1)] is Valency.BIVALENT
        assert table[(1, 0, 0)] is Valency.ZERO_VALENT


class TestWitnesses:
    def test_bivalence_witness_verifies(self, arbiter3, arbiter3_analyzer):
        initial = arbiter3.initial_configuration([0, 1, 0])
        witness = arbiter3_analyzer.bivalence_witness(initial)
        assert witness is not None
        assert witness.verify(arbiter3)

    def test_no_witness_for_univalent(self, arbiter3, arbiter3_analyzer):
        initial = arbiter3.initial_configuration([0, 0, 0])
        assert arbiter3_analyzer.bivalence_witness(initial) is None

    def test_witness_schedules_are_minimal_nonempty(
        self, arbiter3, arbiter3_analyzer
    ):
        initial = arbiter3.initial_configuration([0, 0, 1])
        witness = arbiter3_analyzer.bivalence_witness(initial)
        assert len(witness.to_zero) >= 1
        assert len(witness.to_one) >= 1


class TestBoundedHonesty:
    def test_tiny_budget_yields_unknown_not_lies(self, arbiter3):
        analyzer = ValencyAnalyzer(arbiter3, max_configurations=3)
        initial = arbiter3.initial_configuration([0, 0, 1])
        valency = analyzer.valency(initial)
        # With 3 configurations the decision structure cannot be pinned
        # down; the analyzer must say UNKNOWN or prove BIVALENT, never
        # claim univalence.
        assert valency in (Valency.UNKNOWN, Valency.BIVALENT)

    def test_unknown_not_cached_so_bigger_budget_improves(self, arbiter3):
        small = ValencyAnalyzer(arbiter3, max_configurations=3)
        initial = arbiter3.initial_configuration([0, 0, 1])
        first = small.valency(initial)
        small.max_configurations = 100_000
        second = small.valency(initial)
        assert second is Valency.BIVALENT
        assert first in (Valency.UNKNOWN, Valency.BIVALENT)


class TestNoneValency:
    def test_always_zero_cannot_reach_one(self):
        protocol = make_protocol(AlwaysZeroProcess, 2)
        analyzer = ValencyAnalyzer(protocol)
        initial = protocol.initial_configuration([1, 1])
        assert analyzer.valency(initial) is Valency.ZERO_VALENT


class TestWaitForAllValencies:
    def test_all_initials_univalent(
        self, wait_for_all3, wait_for_all3_analyzer
    ):
        table = wait_for_all3_analyzer.classify_initials()
        assert all(valency.is_univalent for valency in table.values())

    def test_valency_matches_tally(self, wait_for_all3, wait_for_all3_analyzer):
        table = wait_for_all3_analyzer.classify_initials()
        # Majority with ties to 1 over three inputs.
        assert table[(0, 0, 0)] is Valency.ZERO_VALENT
        assert table[(1, 1, 0)] is Valency.ONE_VALENT
        assert table[(1, 0, 0)] is Valency.ZERO_VALENT


class TestShortestSchedule:
    """On the engine's graph, where node 0 is the first root explored."""

    @staticmethod
    def _engine(protocol, root):
        graph = GlobalConfigurationGraph(protocol)
        assert graph.explore(root).complete
        return graph

    def test_trivial_when_source_in_targets(self, arbiter3):
        root = arbiter3.initial_configuration([0, 0, 1])
        graph = self._engine(arbiter3, root)
        assert shortest_schedule(graph, 0, {0}) is not None
        assert len(shortest_schedule(graph, 0, {0})) == 0

    def test_path_replays(self, arbiter3):
        root = arbiter3.initial_configuration([0, 0, 1])
        graph = self._engine(arbiter3, root)
        targets = graph.decision_nodes(1)
        schedule = shortest_schedule(graph, 0, targets)
        assert schedule is not None
        final = arbiter3.apply_schedule(root, schedule)
        assert 1 in final.decision_values()

    def test_unreachable_targets_return_none(self, arbiter3):
        root = arbiter3.initial_configuration([0, 0, 0])
        graph = self._engine(arbiter3, root)
        # No 1-decision exists with all-zero proposers.
        assert shortest_schedule(graph, 0, graph.decision_nodes(1)) is None
