"""Tests for the packed configuration codec.

The codec must be *semantically invisible*: encode/decode is lossless,
the kernel over it enumerates exactly ``Protocol.enabled_events`` and
its successors (``step`` and ``expand_row``) agree with
``Protocol.apply_event`` on every event, and the shared engine builds
the graph the per-root ``explore()`` builds.  The property test at the
bottom checks Lemma 1's commutativity claim directly at the packed-id
level: disjoint schedules commute as literal tuple equality.
"""

import random

import pytest

from repro.core.errors import InvalidEvent, UnknownProcess
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
def kernel(arbiter3):
    return TransitionKernel(PackedCodec(arbiter3))


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

    def test_step_matches_apply_event(self, arbiter3, kernel, explored):
        codec = kernel.codec
        for configuration in explored:
            packed = codec.encode(configuration)
            for event in arbiter3.enabled_events(configuration):
                rich = arbiter3.apply_event(configuration, event)
                successor = kernel.step(packed, kernel.event_id(event))
                assert codec.decode(successor) == rich

    def test_step_fills_each_table_slot_once(self, arbiter3):
        kernel = TransitionKernel(PackedCodec(arbiter3))
        packed = kernel.codec.encode(
            arbiter3.initial_configuration([0, 0, 1])
        )
        eid = kernel.event_id(Event("p1", NULL))
        first = kernel.step(packed, eid)
        fills, hits = kernel.fallback_steps, kernel.table_hits
        assert kernel.step(packed, eid) == first
        assert kernel.fallback_steps == fills
        assert kernel.table_hits == hits + 1

    def test_unknown_process_rejected(self, kernel):
        with pytest.raises(UnknownProcess):
            kernel.event_id(Event("p99", NULL))

    def test_step_rejects_missing_message(self, arbiter3, kernel):
        packed = kernel.codec.encode(
            arbiter3.initial_configuration([0, 0, 1])
        )
        eid = kernel.event_id(Event("p0", ("claim", "p1", 0)))
        with pytest.raises(InvalidEvent):
            kernel.step(packed, eid)

    def test_expand_row_matches_apply_event(self, arbiter3, kernel, explored):
        codec = kernel.codec
        for configuration in explored:
            for eid, successor in kernel.expand_row(
                codec.encode(configuration)
            ):
                expected = arbiter3.apply_event(
                    configuration, kernel.event_at(eid)
                )
                if successor is None:  # the self-loop sentinel
                    assert expected == configuration
                else:
                    assert codec.decode(successor) == expected


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

    def _applicable(self, kernel, packed, schedule):
        """Apply *schedule*; None if some event is not applicable."""
        codec = kernel.codec
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
                packed = kernel.step(packed, kernel.event_id(event))
            except InvalidEvent:  # pragma: no cover - guarded above
                return None
        return packed

    def _random_schedule(self, rng, kernel, packed, processes, length):
        codec = kernel.codec
        events = []
        for _ in range(length):
            process = rng.choice(processes)
            pending = codec.buffer_at(packed[-1]).messages_for(process)
            choices = [Event(process, NULL)]
            choices.extend(Event(process, m.value) for m in pending)
            event = rng.choice(choices)
            events.append(event)
            applied = self._applicable(kernel, packed, [event])
            if applied is None:
                return None
            packed = applied
        return events

    def test_disjoint_schedules_commute(self, arbiter3, explored):
        rng = random.Random(0xF1)
        kernel = TransitionKernel(PackedCodec(arbiter3))
        codec = kernel.codec
        names = list(arbiter3.process_names)
        checked = 0
        for _ in range(200):
            configuration = rng.choice(explored)
            packed = codec.encode(configuration)
            rng.shuffle(names)
            split = rng.randrange(1, len(names))
            left, right = names[:split], names[split:]
            sigma1 = self._random_schedule(
                rng, kernel, packed, left, rng.randrange(1, 4)
            )
            if sigma1 is None:
                continue
            sigma2 = self._random_schedule(
                rng, kernel, packed, right, rng.randrange(1, 4)
            )
            if sigma2 is None:
                continue
            via1 = self._applicable(kernel, packed, sigma1)
            via1 = (
                self._applicable(kernel, via1, sigma2)
                if via1 is not None
                else None
            )
            via2 = self._applicable(kernel, packed, sigma2)
            via2 = (
                self._applicable(kernel, via2, sigma1)
                if via2 is not None
                else None
            )
            if via1 is None or via2 is None:
                continue
            assert via1 == via2  # literal packed-tuple equality
            checked += 1
        assert checked >= 50  # the sampler found enough commuting pairs
