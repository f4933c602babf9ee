"""Batched transition kernel: the one successor relation, checked.

The kernel is the only way the shared engine computes successors, so
its correctness contract is checked against code it does not share:
the protocol's own ``enabled_events`` / ``apply_event`` edge by edge
(budget-cut instances included), the per-root
:func:`~repro.core.exploration.explore` node for node on closed
instances, and the pinned census fingerprints of
``tests/core/test_census_fingerprints.py`` where a fault plan or a
reduction shapes the graph.  Serial, crew and resumed runs must all
produce the same bytes.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.errors import InvalidEvent
from repro.core.events import Event
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.kernel import TransitionKernel
from repro.core.reduction import ReductionPolicy
from repro.faults.model import FaultedPackedCodec
from repro.protocols import (
    ArbiterProcess,
    BenOrProcess,
    ParityArbiterProcess,
    TwoPhaseCommitProcess,
    WaitForAllProcess,
    make_protocol,
)
from tests.core.test_census_fingerprints import (
    CENSUS,
    INPUTS,
    _faulted_benor,
    census_fingerprint,
)
from tests.reference import assert_same_graph, explore

#: The parity zoo: (factory, budget).  ``None`` = explore to closure.
#: Budgets keep the hypothesis suite fast while still crossing table
#: growth boundaries (each instance interns hundreds of states).
_ZOO = [
    (lambda: make_protocol(ArbiterProcess, 3), None),
    (lambda: make_protocol(ParityArbiterProcess, 3), None),
    (lambda: make_protocol(WaitForAllProcess, 3), 800),
    (lambda: make_protocol(TwoPhaseCommitProcess, 3), 800),
    (lambda: make_protocol(BenOrProcess, 3), 800),
]


def _explore(protocol, root, *, budget, **kwargs):
    graph = GlobalConfigurationGraph(protocol, **kwargs)
    try:
        graph.explore(
            root,
            **({} if budget is None else {"max_configurations": budget}),
        )
        return graph.fingerprint(), len(graph), graph
    finally:
        graph.close()


def _census_run(name):
    """Explore census instance *name*: ``(fingerprint, size, engine)``."""
    factory, budget, policy, _expected = CENSUS[name]
    protocol = factory()
    root = protocol.initial_configuration(INPUTS)
    return _explore(protocol, root, budget=budget, reduction=policy)


class TestScalarParity:
    """Kernel-expanded graphs == graphs built from scalar ``apply_event``.

    Node-for-node identity with the per-root oracle is successor-set
    identity plus interning-order identity — the strongest form of the
    claim.
    """

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_kernel_matches_scalar_across_zoo(self, seed):
        """Every expanded node's kernel edges are exactly the protocol's
        enabled events, in order, each leading to the configuration the
        scalar ``apply_event`` computes — budget-cut instances included."""
        rng = random.Random(seed)
        factory, budget = rng.choice(_ZOO)
        protocol = factory()
        n = len(protocol.process_names)
        inputs = [rng.randint(0, 1) for _ in range(n)]
        root = protocol.initial_configuration(inputs)
        _, _, graph = _explore(protocol, root, budget=budget)
        at = graph.configuration_at
        for node in range(len(graph)):
            if not graph.is_expanded(node):
                continue
            configuration = at(node)
            edges = graph.successors[node]
            assert tuple(event for event, _ in edges) == (
                protocol.enabled_events(configuration)
            )
            for event, target in edges:
                assert protocol.apply_event(configuration, event) == at(
                    target
                )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_kernel_graph_matches_dict_engine_successors(self, seed):
        """Cross-engine: the kernel's packed graph decodes to the same
        configurations with the same successor lists, id for id, as the
        per-root ``explore()``, which keys rich configurations in a dict
        (ids are BFS first-seen order in both)."""
        rng = random.Random(seed)
        factory, budget = rng.choice(_ZOO[:2])  # closed instances only
        protocol = factory()
        inputs = [rng.randint(0, 1) for _ in range(3)]
        root = protocol.initial_configuration(inputs)
        _, _, graph = _explore(protocol, root, budget=budget)
        assert_same_graph(graph, protocol, root)

    def test_faulted_protocol_parity(self):
        """Drop pseudo-events and dead-process filtering go through the
        kernel's tables too — the faulted graph matches the oracle run
        through ``FaultedProtocol.apply_event`` and the pinned census."""
        fingerprint, _, graph = _census_run("faulted-benor3@2000")
        protocol = graph.protocol
        # The fault fragment must actually shape the graph for this
        # test to mean anything.
        assert protocol.fault_counters.drop_edges > 0
        assert protocol.fault_counters.dead_exclusions > 0
        assert fingerprint == census_fingerprint("faulted-benor3@2000")
        assert_same_graph(
            graph, protocol, protocol.initial_configuration(INPUTS)
        )


#: Protocols for the inbox walks: plain Ben-Or/3, and Ben-Or/3 with a
#: crashed process and a lossy destination (drop events, dead
#: exclusions).
_WALKS = {
    "benor3": lambda: make_protocol(BenOrProcess, 3),
    "faulted-benor3": _faulted_benor,
}


def _pick(protocol, configuration, choice):
    """An enabled event of *configuration* chosen by *choice*: an odd
    choice picks among all events, an even one among the message
    deliveries (and drops) only, so walks pile up duplicate copies
    rather than idling on null steps."""
    events = protocol.enabled_events(configuration)
    if choice % 2 == 0:
        events = [e for e in events if not e.is_null_delivery] or events
    return events[(choice // 2) % len(events)]


class TestInboxBuffers:
    """The kernel keeps a buffer as per-destination inboxes; the id it
    composes from them must be the id the codec gives the rich
    buffer."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(_WALKS)),
        inputs=st.tuples(*[st.integers(0, 1)] * 3),
        seed=st.integers(min_value=0, max_value=10**6),
        length=st.integers(min_value=1, max_value=80),
        rich_every=st.integers(1, 5),
    )
    def test_inbox_composed_id_is_the_rich_buffer_id(
        self, name, inputs, seed, length, rich_every
    ):
        """A random walk of deliveries, drops and send batches through
        ``step`` (duplicate copies included): every successor's buffer
        id equals ``intern_buffer`` of the buffer ``apply_event``
        computes.  Every *rich_every*-th step the rich buffer is
        interned first, so rich-side and inbox-side allocation
        interleave."""
        protocol = _WALKS[name]()
        codec = protocol.packed_codec()
        kernel = TransitionKernel(codec)
        if name.startswith("faulted"):
            assert isinstance(codec, FaultedPackedCodec)
        rng = random.Random(seed)
        configuration = protocol.initial_configuration(inputs)
        row = codec.encode(configuration)
        for i in range(length):
            event = _pick(protocol, configuration, rng.getrandbits(16))
            configuration = protocol.apply_event(configuration, event)
            if i % rich_every == 0:
                expected = codec.intern_buffer(configuration.buffer)
                row = kernel.step(row, kernel.event_id(event))
            else:
                row = kernel.step(row, kernel.event_id(event))
                expected = codec.intern_buffer(configuration.buffer)
            assert row[-1] == expected
            assert codec.decode(row) == configuration

    @settings(max_examples=20, deadline=None)
    @given(
        inputs=st.tuples(*[st.integers(0, 1)] * 3),
        seed=st.integers(min_value=0, max_value=10**6),
        length=st.integers(min_value=1, max_value=40),
    )
    def test_step_rejects_unbuffered_message(self, inputs, seed, length):
        """``step`` raises :class:`InvalidEvent` for a delivery of a
        message the buffer does not hold, and allocates no buffer."""
        protocol = make_protocol(BenOrProcess, 3)
        codec = protocol.packed_codec()
        kernel = TransitionKernel(codec)
        configuration = protocol.initial_configuration(inputs)
        row = codec.encode(configuration)
        rng = random.Random(seed)
        seen = []
        for _ in range(length):
            event = _pick(protocol, configuration, rng.getrandbits(16))
            configuration = protocol.apply_event(configuration, event)
            row = kernel.step(row, kernel.event_id(event))
            seen.extend(configuration.buffer.distinct_messages())
        absent = [m for m in seen if m not in configuration.buffer]
        if not absent:
            return
        message = rng.choice(absent)
        eid = kernel.event_id(Event(message.destination, message.value))
        buffers = codec.interned_buffers
        with pytest.raises(InvalidEvent):
            kernel.step(row, eid)
        assert codec.interned_buffers == buffers

    @pytest.mark.parametrize(
        "factory, budget",
        [
            (lambda: make_protocol(BenOrProcess, 3), 5000),
            (_faulted_benor, 2000),
            (lambda: make_protocol(ParityArbiterProcess, 4), 5000),
        ],
        ids=["benor3@5k", "faulted-benor3@2000", "parity-arbiter4@5k"],
    )
    def test_row_events_are_enabled_events(self, factory, budget):
        """Every stored row's kernel event list, composed from its
        inboxes' event blocks, is ``Protocol.enabled_events`` of the
        decoded configuration, in order."""
        protocol = factory()
        n = len(protocol.process_names)
        root = protocol.initial_configuration((0,) * (n - 1) + (1,))
        _, _, graph = _explore(protocol, root, budget=budget)
        kernel = graph.kernel
        codec = graph.codec
        for node in range(len(graph)):
            row = graph.packed_at(node)
            events = tuple(
                kernel.event_at(eid) for eid, _ in kernel.expand_row(row)
            )
            assert events == protocol.enabled_events(codec.decode(row))


class TestReducerParity:
    def test_por_parity(self, wait_for_all3):
        """Every edge the ample reducer keeps is a real transition, and
        the reduced graph reaches exactly the full graph's decisions."""
        root = wait_for_all3.initial_configuration([0, 0, 1])
        _, _, graph = _explore(
            wait_for_all3, root, budget=None,
            reduction=ReductionPolicy(por=True),
        )
        assert graph.stats.por_pruned > 0
        full = explore(wait_for_all3, root)
        assert set(graph.configurations) <= set(full.configurations)
        for source, event, target in graph.iter_edges():
            assert wait_for_all3.apply_event(
                graph.configuration_at(source), event
            ) == graph.configuration_at(target)
        for value in (0, 1):
            assert bool(graph.decision_nodes(value)) == bool(
                full.decision_nodes(value)
            )

    @pytest.mark.parametrize(
        "name",
        [
            "benor3-round-symmetry@2000",
            "benor3-round-por+symmetry@2000",
        ],
        ids=["symmetry", "por+symmetry"],
    )
    def test_symmetry_parity(self, name):
        fingerprint, _, _ = _census_run(name)
        assert fingerprint == census_fingerprint(name)


class TestParallelParity:
    """The acceptance pin: serial, parallel, resumed, and reduced runs
    all produce the same bytes."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_match_serial_kernel(self, parity_arbiter3, workers):
        root = parity_arbiter3.initial_configuration([0, 0, 1])
        serial_fp, _, _ = _explore(parity_arbiter3, root, budget=None)
        parallel_fp, _, _ = _explore(
            parity_arbiter3, root, budget=None, workers=workers,
        )
        assert parallel_fp == serial_fp

    def test_parallel_scalar_and_kernel_agree(self, arbiter3):
        """Crew workers run their own kernels; the merged graph still
        equals the scalar oracle node for node."""
        root = arbiter3.initial_configuration([0, 0, 1])
        _, _, graph = _explore(
            arbiter3, root, budget=None, workers=2, min_batch_per_worker=1
        )
        assert graph.stats.worker_batches > 0
        assert_same_graph(graph, arbiter3, root)


class TestCheckpointResume:
    def _uninterrupted(self, protocol, root, budget):
        fp, _, _ = _explore(protocol, root, budget=budget)
        return fp

    def _partial(self, protocol, root, tmp_path, *, budget=150):
        graph = GlobalConfigurationGraph(protocol)
        graph.explore(root, max_configurations=budget)
        path = str(tmp_path / "partial.ckpt")
        save_checkpoint(graph, path)
        graph.close()
        return path

    def test_resume_mid_table_build(self, protocol_parity3, tmp_path):
        """A checkpoint taken while the step tables are half-filled
        restores table bytes and placeholder buffer reps, and the
        resumed run finishes byte-identical to an uninterrupted one."""
        protocol = protocol_parity3
        root = protocol.initial_configuration([0, 0, 1])
        clean = self._uninterrupted(protocol, root, 5000)
        path = self._partial(protocol, root, tmp_path)
        resumed = load_checkpoint(path, protocol)
        # The snapshot restored real table state, not a cold kernel.
        assert resumed.kernel.table_bytes > 0
        resumed.explore(root, max_configurations=5000)
        assert resumed.fingerprint() == clean

    @pytest.fixture()
    def protocol_parity3(self):
        return make_protocol(ParityArbiterProcess, 3)


class TestObservability:
    def test_table_bytes_counts_what_the_kernel_holds(self):
        """``table_bytes`` (``kernel_table_bytes`` in the stats) counts
        the kernel's tables deeply: step columns, inbox reps and
        tables, per-buffer inbox tuples and the index.  It must come
        close to what tracemalloc sees ``kernel.py`` allocate, which
        also holds the interned events and messages it leaves out."""
        import tracemalloc

        protocol = make_protocol(BenOrProcess, 3)
        tracemalloc.start()
        try:
            graph = GlobalConfigurationGraph(protocol)
            graph.explore(
                protocol.initial_configuration(INPUTS),
                max_configurations=5000,
            )
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        traced = sum(
            stat.size
            for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.endswith("core/kernel.py")
        )
        assert 0.75 * traced <= graph.kernel.table_bytes <= 1.1 * traced

    def test_kernel_counters_move(self, arbiter3):
        root = arbiter3.initial_configuration([0, 0, 1])
        graph = GlobalConfigurationGraph(arbiter3)
        graph.explore(root)
        stats = graph.stats
        assert stats.kernel_batch_expansions > 0
        assert stats.kernel_table_hits > 0
        assert stats.kernel_fallback_steps > 0
        assert stats.kernel_table_bytes > 0
        as_dict = stats.as_dict()
        for key in (
            "kernel_batch_expansions",
            "kernel_table_hits",
            "kernel_fallback_steps",
            "kernel_table_bytes",
        ):
            assert key in as_dict
