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
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.reduction import ReductionPolicy
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
    census_fingerprint,
)
from tests.core.test_checkpoint import save_without_kernel_tables
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

    def _partial(self, protocol, root, tmp_path, *, save, budget=150):
        graph = GlobalConfigurationGraph(protocol)
        graph.explore(root, max_configurations=budget)
        path = str(tmp_path / "partial.ckpt")
        save(graph, path)
        graph.close()
        return path

    def test_resume_mid_table_build(self, protocol_parity3, tmp_path):
        """A checkpoint taken while the step tables are half-filled
        restores table bytes and placeholder buffer reps, and the
        resumed run finishes byte-identical to an uninterrupted one."""
        protocol = protocol_parity3
        root = protocol.initial_configuration([0, 0, 1])
        clean = self._uninterrupted(protocol, root, 5000)
        path = self._partial(protocol, root, tmp_path, save=save_checkpoint)
        resumed = load_checkpoint(path, protocol)
        # The snapshot restored real table state, not a cold kernel.
        assert resumed.kernel.table_bytes > 0
        resumed.explore(root, max_configurations=5000)
        assert resumed.fingerprint() == clean

    def test_scalar_checkpoint_resumes_on_kernel_engine(
        self, protocol_parity3, tmp_path
    ):
        """A snapshot without kernel tables (written by an engine that
        expanded through the scalar step path): the kernel reindexes the
        restored codec (every buffer gets a rep) before its first
        batch, and the resumed run is byte-identical."""
        protocol = protocol_parity3
        root = protocol.initial_configuration([0, 0, 1])
        clean = self._uninterrupted(protocol, root, 5000)
        path = self._partial(
            protocol, root, tmp_path, save=save_without_kernel_tables
        )
        resumed = load_checkpoint(path, protocol)
        resumed.explore(root, max_configurations=5000)
        assert resumed.fingerprint() == clean

    @pytest.fixture()
    def protocol_parity3(self):
        return make_protocol(ParityArbiterProcess, 3)


class TestObservability:
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
