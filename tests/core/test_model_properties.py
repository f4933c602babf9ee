"""Property-based tests of the model's global invariants.

These run random walks over random zoo protocols and assert the
structural facts the proofs lean on:

* the output register is write-once along every run;
* in agreement-safe protocols no configuration ever carries two
  decision values;
* valency is monotone: a univalent configuration's successors share its
  valency, and a decided configuration's valency equals its decision;
* exploration is deterministic and closed (every edge target is a node);
* enabled events are exactly the applicable ones.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.valency import Valency, ValencyAnalyzer
from repro.protocols import (
    ArbiterProcess,
    ParityArbiterProcess,
    ThreePhaseCommitProcess,
    TwoPhaseCommitProcess,
    WaitForAllProcess,
    make_protocol,
)

SAFE_FACTORIES = {
    "arbiter": lambda: make_protocol(ArbiterProcess, 3),
    "parity": lambda: make_protocol(ParityArbiterProcess, 3),
    "wfa": lambda: make_protocol(WaitForAllProcess, 3),
    "2pc": lambda: make_protocol(TwoPhaseCommitProcess, 3),
    "3pc": lambda: make_protocol(ThreePhaseCommitProcess, 3),
}
_PROTOCOLS = {}
_ANALYZERS = {}


def get_protocol(name):
    if name not in _PROTOCOLS:
        _PROTOCOLS[name] = SAFE_FACTORIES[name]()
    return _PROTOCOLS[name]


def get_analyzer(name):
    if name not in _ANALYZERS:
        _ANALYZERS[name] = ValencyAnalyzer(get_protocol(name))
    return _ANALYZERS[name]


def random_walk(protocol, rng, max_steps=15):
    """Yield (config, event, next_config) along a random run."""
    inputs = [rng.randint(0, 1) for _ in protocol.process_names]
    config = protocol.initial_configuration(inputs)
    for _ in range(rng.randint(1, max_steps)):
        events = protocol.enabled_events(config)
        event = rng.choice(events)
        successor = protocol.apply_event(config, event)
        yield config, event, successor
        config = successor


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(SAFE_FACTORIES)),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_output_register_write_once_along_runs(name, seed):
    protocol = get_protocol(name)
    rng = random.Random(seed)
    for config, _event, successor in random_walk(protocol, rng):
        for process in protocol.process_names:
            before = config.state_of(process)
            after = successor.state_of(process)
            if before.decided:
                assert after.output == before.output
            assert after.input == before.input


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(SAFE_FACTORIES)),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_safe_protocols_never_disagree_on_random_walks(name, seed):
    protocol = get_protocol(name)
    rng = random.Random(seed)
    for _config, _event, successor in random_walk(protocol, rng, 25):
        assert len(successor.decision_values()) <= 1


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["arbiter", "parity", "wfa"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_valency_is_monotone_along_steps(name, seed):
    """Successors of a v-valent configuration are v-valent; successors
    of a bivalent one are never NONE-valent (for safe protocols some
    decision stays reachable)."""
    protocol = get_protocol(name)
    analyzer = get_analyzer(name)
    rng = random.Random(seed)
    for config, _event, successor in random_walk(protocol, rng, 10):
        before = analyzer.valency(config)
        after = analyzer.valency(successor)
        if before.is_univalent:
            assert after is before
        elif before is Valency.BIVALENT:
            assert after in (
                Valency.BIVALENT,
                Valency.ZERO_VALENT,
                Valency.ONE_VALENT,
            )


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["arbiter", "parity"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_decided_configuration_valency_matches_decision(name, seed):
    protocol = get_protocol(name)
    analyzer = get_analyzer(name)
    rng = random.Random(seed)
    for _config, _event, successor in random_walk(protocol, rng, 20):
        decisions = successor.decision_values()
        if decisions:
            value = next(iter(decisions))
            assert analyzer.valency(successor).decided_value == value


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SAFE_FACTORIES)),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_enabled_events_are_exactly_the_applicable_ones(name, seed):
    protocol = get_protocol(name)
    rng = random.Random(seed)
    for config, _event, _successor in random_walk(protocol, rng, 8):
        enabled = set(protocol.enabled_events(config))
        for event in enabled:
            assert event.is_applicable(config)
        # Null deliveries for every process must be present.
        from repro.core.events import NULL, Event

        for process in protocol.process_names:
            assert Event(process, NULL) in enabled


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(["arbiter", "2pc"]),
    bits=st.integers(min_value=0, max_value=7),
)
def test_exploration_is_closed_and_deterministic(name, bits):
    from tests.reference import explore

    protocol = get_protocol(name)
    vector = [(bits >> i) & 1 for i in range(3)]
    root = protocol.initial_configuration(vector)
    first = explore(protocol, root)
    second = explore(protocol, root)
    assert first.configurations == second.configurations
    node_count = len(first.configurations)
    for source, _event, target in first.iter_edges():
        assert 0 <= source < node_count
        assert 0 <= target < node_count


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(SAFE_FACTORIES)),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_buffer_conservation(name, seed):
    """Each step removes at most one message (the delivery) and adds
    exactly the step's sends: |buffer'| = |buffer| - delivered + sent."""
    protocol = get_protocol(name)
    rng = random.Random(seed)
    for config, event, successor in random_walk(protocol, rng, 12):
        delivered = 0 if event.is_null_delivery else 1
        state = config.state_of(event.process)
        transition = protocol.process(event.process).apply(
            state, event.value
        )
        assert len(successor.buffer) == (
            len(config.buffer) - delivered + len(transition.sends)
        )
