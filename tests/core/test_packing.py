"""Tests for the packed configuration codec.

The codec must be *semantically invisible*: encode/decode is lossless,
``apply_packed`` agrees with ``Protocol.apply_event`` on every event,
the kernel enumerates exactly ``Protocol.enabled_events``, and the
shared engine builds the graph the per-root ``explore()`` builds.  The
property test at the bottom checks Lemma 1's commutativity claim
directly at the packed-id level: disjoint schedules commute as literal
tuple equality.
"""

import random

import pytest

from repro.core.errors import UnknownProcess
from repro.core.events import NULL, Event
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.kernel import TransitionKernel
from repro.core.packing import PackedCodec
from repro.core.valency import Valency, ValencyAnalyzer
from repro.protocols import ArbiterProcess, make_protocol
from tests.core.test_census_fingerprints import CENSUS, INPUTS
from tests.reference import closure_triples, engine_triples, explore


@pytest.fixture(scope="module")
def codec(arbiter3):
    return PackedCodec(arbiter3)


@pytest.fixture(scope="module")
def explored(arbiter3):
    """Every reachable configuration of arbiter/3 from one root."""
    graph = explore(arbiter3, arbiter3.initial_configuration([0, 0, 1]))
    assert graph.complete
    return list(graph.configurations)


class TestEncodeDecode:
    def test_round_trip_is_lossless(self, codec, explored):
        for configuration in explored:
            packed = codec.encode(configuration)
            assert codec.decode(packed) == configuration
            assert hash(codec.decode(packed)) == hash(configuration)

    def test_packed_width(self, codec, explored):
        for configuration in explored:
            assert len(codec.encode(configuration)) == codec.width
        assert codec.width == 4  # 3 state slots + 1 buffer slot

    def test_encoding_is_injective(self, codec, explored):
        packed = {codec.encode(c) for c in explored}
        assert len(packed) == len(set(explored))

    def test_interning_is_stable(self, codec, explored):
        first = [codec.encode(c) for c in explored]
        second = [codec.encode(c) for c in explored]
        assert first == second

    def test_rejects_foreign_roster(self, codec):
        other = make_protocol(ArbiterProcess, 4)
        with pytest.raises(ValueError, match="do not match"):
            codec.encode(other.initial_configuration([0, 0, 1, 1]))

    def test_decision_values_without_decoding(self, codec, explored):
        for configuration in explored:
            packed = codec.encode(configuration)
            assert codec.decision_values(packed) == (
                configuration.decision_values()
            )


class TestPackedSemantics:
    def test_events_for_matches_enabled_events(self, arbiter3, explored):
        """The kernel's per-buffer event row is the protocol's enabled
        events, in order — for the base codec and for the faulted codec
        (dead processes excluded, drop edges after lossy deliveries)."""
        faulted = CENSUS["faulted-benor3@2000"][0]()
        faulted_closure = explore(
            faulted, faulted.initial_configuration(INPUTS)
        )
        assert faulted_closure.complete
        for protocol, configurations in (
            (arbiter3, explored),
            (faulted, faulted_closure.configurations),
        ):
            codec = protocol.packed_codec()
            kernel = TransitionKernel(codec)
            for configuration in configurations:
                row = kernel.expand_row(codec.encode(configuration))
                assert tuple(kernel.event_at(eid) for eid, _ in row) == (
                    protocol.enabled_events(configuration)
                )

    def test_apply_packed_matches_apply_event(
        self, arbiter3, codec, explored
    ):
        for configuration in explored:
            packed = codec.encode(configuration)
            for event in arbiter3.enabled_events(configuration):
                rich = arbiter3.apply_event(configuration, event)
                assert codec.decode(
                    codec.apply_packed(packed, event)
                ) == rich

    def test_apply_packed_memoizes_steps(self, arbiter3):
        codec = PackedCodec(arbiter3)
        packed = codec.encode(arbiter3.initial_configuration([0, 0, 1]))
        event = Event("p1", NULL)
        codec.apply_packed(packed, event)
        misses = codec.step_misses
        codec.apply_packed(packed, event)
        assert codec.step_misses == misses
        assert codec.step_hits >= 1

    def test_apply_packed_unknown_process(self, codec, explored):
        packed = codec.encode(explored[0])
        with pytest.raises(UnknownProcess):
            codec.apply_packed(packed, Event("p99", NULL))

    def test_apply_rich_round_trips(self, arbiter3, codec, explored):
        for configuration in explored[:8]:
            for event in arbiter3.enabled_events(configuration):
                assert codec.apply_rich(configuration, event) == (
                    arbiter3.apply_event(configuration, event)
                )


class TestEngineParity:
    """The shared engine, grown from several roots, agrees with the
    per-root ``explore()`` oracle on every root's closure."""

    ROOTS = ([0, 0, 1], [1, 0, 1], [0, 0, 0])

    @pytest.fixture(scope="class")
    def engines(self, arbiter3):
        """The grown engine, and ``(growth, oracle)`` per root."""
        graph = GlobalConfigurationGraph(arbiter3)
        closures = []
        for inputs in self.ROOTS:
            root = arbiter3.initial_configuration(inputs)
            closures.append((graph.explore(root), explore(arbiter3, root)))
        return graph, closures

    def test_same_nodes_same_ids(self, engines):
        graph, closures = engines
        # The first root's closure is interned first, in BFS order —
        # exactly the oracle's numbering.
        _growth, first = closures[0]
        for node, configuration in enumerate(first.configurations):
            assert graph.configuration_at(node) == configuration
        for growth, oracle in closures:
            assert growth.complete
            assert {graph.configuration_at(n) for n in growth.nodes} == (
                set(oracle.configurations)
            )

    def test_same_edges_in_same_order(self, engines, arbiter3):
        graph, closures = engines
        _growth, first = closures[0]
        for node in range(len(first)):
            assert graph.successors[node] == first.successors[node]
        for growth, oracle in closures:
            assert engine_triples(graph, growth.nodes) == (
                closure_triples(arbiter3, oracle.root)
            )

    def test_same_decision_nodes(self, engines):
        graph, closures = engines
        for value in (0, 1):
            expected = {
                configuration
                for _growth, oracle in closures
                for configuration in oracle.configurations
                if value in configuration.decision_values()
            }
            nodes = graph.decision_nodes(value)
            assert len(set(nodes)) == len(nodes)
            assert {graph.configuration_at(n) for n in nodes} == expected

    def test_census_parity(self, arbiter3):
        """Every valency in the root's closure equals the decision set
        the per-root oracle reaches from that configuration."""
        root = arbiter3.initial_configuration([0, 1, 1])
        analyzer = ValencyAnalyzer(arbiter3)
        analyzer.valency(root)
        engine = analyzer.graph
        closure = engine.reachable_from(engine.node_id(root))
        by_decisions = {
            frozenset({0}): Valency.ZERO_VALENT,
            frozenset({1}): Valency.ONE_VALENT,
            frozenset({0, 1}): Valency.BIVALENT,
            frozenset(): Valency.NONE,
        }
        for node in closure.nodes:
            oracle = explore(arbiter3, engine.configuration_at(node))
            reached = frozenset(
                value
                for configuration in oracle.configurations
                for value in configuration.decision_values()
            )
            assert analyzer.peek_node(node) == by_decisions[reached]


class TestLemma1PackedCommutativity:
    """Lemma 1 holds as literal tuple equality on packed ids.

    Property-based with the stdlib ``random`` module: sample random
    reachable configurations and random pairs of schedules over disjoint
    process sets, then check σ2(σ1(C)) == σ1(σ2(C)) *as packed tuples*.
    """

    def _applicable(self, codec, packed, schedule):
        """Apply *schedule*; None if some event is not applicable."""
        from repro.core.errors import InvalidEvent

        for event in schedule:
            if event.value is not NULL:
                message_values = {
                    m.value
                    for m in codec.buffer_at(packed[-1]).messages_for(
                        event.process
                    )
                }
                if event.value not in message_values:
                    return None
            try:
                packed = codec.apply_packed(packed, event)
            except InvalidEvent:  # pragma: no cover - guarded above
                return None
        return packed

    def _random_schedule(self, rng, codec, packed, processes, length):
        events = []
        for _ in range(length):
            process = rng.choice(processes)
            pending = codec.buffer_at(packed[-1]).messages_for(process)
            choices = [Event(process, NULL)]
            choices.extend(Event(process, m.value) for m in pending)
            event = rng.choice(choices)
            events.append(event)
            applied = self._applicable(codec, packed, [event])
            if applied is None:
                return None
            packed = applied
        return events

    def test_disjoint_schedules_commute(self, arbiter3, explored):
        rng = random.Random(0xF1)
        codec = PackedCodec(arbiter3)
        names = list(arbiter3.process_names)
        checked = 0
        for _ in range(200):
            configuration = rng.choice(explored)
            packed = codec.encode(configuration)
            rng.shuffle(names)
            split = rng.randrange(1, len(names))
            left, right = names[:split], names[split:]
            sigma1 = self._random_schedule(
                rng, codec, packed, left, rng.randrange(1, 4)
            )
            if sigma1 is None:
                continue
            sigma2 = self._random_schedule(
                rng, codec, packed, right, rng.randrange(1, 4)
            )
            if sigma2 is None:
                continue
            via1 = self._applicable(codec, packed, sigma1)
            via1 = (
                self._applicable(codec, via1, sigma2)
                if via1 is not None
                else None
            )
            via2 = self._applicable(codec, packed, sigma2)
            via2 = (
                self._applicable(codec, via2, sigma1)
                if via2 is not None
                else None
            )
            if via1 is None or via2 is None:
                continue
            assert via1 == via2  # literal packed-tuple equality
            checked += 1
        assert checked >= 50  # the sampler found enough commuting pairs
