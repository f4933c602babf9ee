"""Tests for the shared incremental configuration-graph engine.

The engine (:class:`repro.core.exploration.GlobalConfigurationGraph`)
replaces per-root re-exploration: configurations are interned to dense
ids exactly once, growth resumes from any root, and reverse
reachability runs over flat bytearray visited maps.  These tests pin
the contracts the valency analyzer and the adversary build on.
"""

import dataclasses

import pytest

from repro.adversary.flp import FLPAdversary
from repro.core.events import NULL, Event
from repro.core.exploration import GlobalConfigurationGraph, GraphStats
from repro.core.valency import Valency, ValencyAnalyzer
from repro.core.values import ONE, ZERO
from repro.protocols import (
    ArbiterProcess,
    ParityArbiterProcess,
    make_protocol,
)
from tests.reference import explore


class TestInterning:
    def test_ids_are_dense_and_stable(self, arbiter3):
        engine = GlobalConfigurationGraph(arbiter3)
        root = arbiter3.initial_configuration([0, 0, 1])
        first = engine.intern(root)
        assert first == 0
        assert engine.intern(root) == first  # stable across calls
        engine.explore(root)
        assert engine.intern(root) == first  # stable across growth
        assert sorted(
            engine.node_id(c) for c in engine.configurations
        ) == list(range(len(engine)))

    def test_find_does_not_allocate(self, arbiter3):
        engine = GlobalConfigurationGraph(arbiter3)
        root = arbiter3.initial_configuration([0, 0, 1])
        assert engine.find(root) is None
        assert len(engine) == 0
        engine.intern(root)
        assert engine.find(root) == 0

    def test_decision_nodes_maintained_incrementally(self, arbiter3):
        engine = GlobalConfigurationGraph(arbiter3)
        engine.explore(arbiter3.initial_configuration([0, 0, 1]))
        for value in (ZERO, ONE):
            expected = [
                node
                for node, configuration in enumerate(
                    engine.configurations
                )
                if value in configuration.decision_values()
            ]
            assert engine.decision_nodes(value) == expected
            assert expected  # mixed inputs reach both decisions


class TestIncrementalGrowth:
    def test_second_root_inside_closure_adds_nothing(self, arbiter3):
        engine = GlobalConfigurationGraph(arbiter3)
        root = arbiter3.initial_configuration([0, 0, 1])
        engine.explore(root)
        interned = len(engine)
        expansions = engine.stats.expansions
        successor = arbiter3.apply_event(root, Event("p1", NULL))
        result = engine.explore(successor)
        assert result.complete
        assert len(engine) == interned
        assert engine.stats.expansions == expansions

    def test_overlapping_roots_share_nodes(self, arbiter3):
        root = arbiter3.initial_configuration([0, 0, 1])
        mid = arbiter3.apply_event(root, Event("p1", NULL))
        shared = GlobalConfigurationGraph(arbiter3)
        shared.explore(root)
        root_only = len(shared)
        shared.explore(mid)
        separate = GlobalConfigurationGraph(arbiter3)
        separate.explore(mid)
        # mid's closure is a subset of root's, so the shared engine
        # interns exactly root's closure — not the sum of both.
        assert len(shared) == root_only
        assert len(shared) < root_only + len(separate)
        assert shared.explore(root).nodes >= shared.explore(mid).nodes

    def test_growth_result_nodes_are_forward_closure(self, arbiter3):
        engine = GlobalConfigurationGraph(arbiter3)
        root = arbiter3.initial_configuration([0, 0, 1])
        result = engine.explore(root)
        assert result.root == engine.node_id(root)
        assert engine.reachable_from(result.root).nodes == result.nodes
        assert result.nodes == frozenset(range(len(engine)))


class TestBudgetHonesty:
    def test_exhaustion_reports_incomplete_with_truthful_frontier(
        self, arbiter3
    ):
        engine = GlobalConfigurationGraph(arbiter3)
        root = arbiter3.initial_configuration([0, 0, 1])
        result = engine.explore(root, max_configurations=5)
        assert not result.complete
        assert not engine.complete
        assert len(engine) <= 5
        frontier = engine.frontier_ids()
        assert frontier
        for node in frontier:
            # Unexpanded nodes never carry a partial successor set.
            assert engine.successors[node] == []
            assert not engine.is_expanded(node)

    def test_raising_budget_resumes_from_frontier(self, arbiter3):
        engine = GlobalConfigurationGraph(arbiter3)
        root = arbiter3.initial_configuration([0, 0, 1])
        assert not engine.explore(root, max_configurations=5).complete
        resumed = engine.explore(root, max_configurations=100_000)
        assert resumed.complete
        assert engine.complete
        reference = explore(arbiter3, root)
        assert len(engine) == len(reference)


class TestBitsetReachability:
    @pytest.mark.parametrize(
        "process_cls", [ArbiterProcess, ParityArbiterProcess]
    )
    def test_matches_set_based_implementation(self, process_cls):
        protocol = make_protocol(process_cls, 3)
        root = protocol.initial_configuration([0, 0, 1])
        reference = explore(protocol, root)  # per-root, set-based
        engine = GlobalConfigurationGraph(protocol)
        engine.explore(root)
        assert len(engine) == len(reference)
        for value in (ZERO, ONE):
            old = {
                reference.configurations[node]
                for node in reference.nodes_reaching(
                    reference.decision_nodes(value)
                )
            }
            mask = engine.reaching_mask(engine.decision_nodes(value))
            new = {
                engine.configurations[node]
                for node, hit in enumerate(mask)
                if hit
            }
            assert new == old

    def test_set_view_matches_mask(self, arbiter3):
        engine = GlobalConfigurationGraph(arbiter3)
        engine.explore(arbiter3.initial_configuration([0, 0, 1]))
        targets = engine.decision_nodes(ZERO)
        mask = engine.reaching_mask(targets)
        assert engine.nodes_reaching(targets) == {
            node for node, hit in enumerate(mask) if hit
        }

    def test_empty_targets(self, arbiter3):
        engine = GlobalConfigurationGraph(arbiter3)
        engine.explore(arbiter3.initial_configuration([0, 0, 1]))
        assert engine.nodes_reaching([]) == set()


class TestAnalyzerCacheRegression:
    """The bugs this PR fixes: re-exploration on overlapping queries."""

    def test_witness_via_other_root_is_pure_lookup(self, arbiter3):
        analyzer = ValencyAnalyzer(arbiter3)
        initial = arbiter3.initial_configuration([0, 0, 1])
        analyzer.valency(initial)
        # A configuration classified via the initial's exploration —
        # previously a `_graph_for` miss triggering a second
        # exploration; now a lookup on the shared graph.
        successor = arbiter3.apply_event(initial, Event("p1", NULL))
        assert analyzer.peek(successor) is Valency.BIVALENT
        explored_before = analyzer.configurations_explored
        witness = analyzer.bivalence_witness(successor)
        assert witness is not None
        assert witness.verify(arbiter3)
        assert analyzer.configurations_explored == explored_before

    def test_adversary_stages_grow_graph_sublinearly(self):
        protocol = make_protocol(ParityArbiterProcess, 3)
        analyzer = ValencyAnalyzer(protocol)
        FLPAdversary(protocol, analyzer=analyzer).build_run(stages=3)
        after_short = analyzer.configurations_explored
        hits_short = analyzer.stats.cache_hits
        FLPAdversary(protocol, analyzer=analyzer).build_run(stages=12)
        after_long = analyzer.configurations_explored
        # Every stage configuration lies in the initial's closure, so
        # 4x the stages intern zero new configurations — the counter
        # growth is flat, not linear in stages.
        assert after_long == after_short
        assert analyzer.stats.cache_hits > hits_short

    def test_repeated_census_does_no_new_exploration(self, arbiter3):
        from repro.analysis.valency_map import build_valency_map

        analyzer = ValencyAnalyzer(arbiter3)
        root = arbiter3.initial_configuration([0, 0, 1])
        first = build_valency_map(arbiter3, root, analyzer=analyzer)
        explored = analyzer.configurations_explored
        explore_calls = analyzer.stats.explore_calls
        second = build_valency_map(arbiter3, root, analyzer=analyzer)
        assert analyzer.configurations_explored == explored
        assert analyzer.stats.explore_calls == explore_calls
        assert second.counts == first.counts
        assert second.critical_steps == first.critical_steps


class TestStatsSurface:
    def test_every_field_exported_exactly_once(self):
        # Distinct values make every exported value identify its field.
        stats = GraphStats()
        specs = dataclasses.fields(stats)
        for value, spec in enumerate(specs, start=1):
            is_seconds = spec.type == "float"
            setattr(stats, spec.name, float(value) if is_seconds else value)
        exported = stats.as_dict()
        exported.pop("worker_utilization")  # derived, not a field
        assert sorted(exported.values()) == list(range(1, len(specs) + 1))
        for spec in specs:
            if spec.type == "float":
                assert spec.name.endswith("_time")
            else:
                assert exported[spec.name] == getattr(stats, spec.name)

    def test_seconds_keys_and_rounding(self):
        stats = GraphStats(
            explore_time=1.23456789,
            worker_busy_time=2.5,
            parallel_time=1.25,
            workers=2,
            worker_batches=1,
        )
        exported = stats.as_dict()
        assert exported["explore_time_s"] == 1.234568
        assert exported["worker_busy_s"] == 2.5
        assert exported["parallel_wall_s"] == 1.25
        assert exported["worker_utilization"] == 1.0
        assert not any(key.endswith("_time") for key in exported)
