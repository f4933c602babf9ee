"""Determinism and honesty of the parallel frontier expansion.

The contract of ``workers > 1`` is strict: the resulting graph — node
ids, edge order, decision indexes, everything downstream (census,
witnesses, adversary schedules) — must be **byte-identical** to a
serial run.  The level-synchronized BFS with an in-order merge makes
that a structural property rather than a lucky accident; these tests
pin it down, along with the budget contract and the observability
counters.

``min_batch_per_worker=1`` forces even tiny test graphs through the
worker pool (the production default only ships batches big enough to
occupy every worker).
"""

import pytest

from repro.core.exploration import GlobalConfigurationGraph
from repro.core.resilience import ResilienceConfig
from repro.core.valency import ValencyAnalyzer
from repro.protocols import BenOrProcess, ParityArbiterProcess, make_protocol


def parallel_graph(protocol, workers=2):
    return GlobalConfigurationGraph(
        protocol, workers=workers, min_batch_per_worker=1
    )


@pytest.fixture(scope="module")
def parity3():
    return make_protocol(ParityArbiterProcess, 3)


class TestByteIdenticalWithSerial:
    @pytest.fixture(scope="class")
    def pair(self, parity3):
        roots = [
            parity3.initial_configuration(inputs)
            for inputs in ([0, 0, 1], [1, 1, 0])
        ]
        serial = GlobalConfigurationGraph(parity3)
        parallel = parallel_graph(parity3)
        try:
            for root in roots:
                serial_result = serial.explore(root)
                parallel_result = parallel.explore(root)
                assert serial_result == parallel_result
            yield serial, parallel
        finally:
            parallel.close()

    def test_pool_actually_engaged(self, pair):
        _serial, parallel = pair
        assert parallel.stats.workers == 2
        assert parallel.stats.worker_batches > 0
        assert parallel.stats.worker_batch_nodes > 0
        assert parallel.stats.worker_max_batch > 0

    def test_same_packed_tuples_same_ids(self, pair):
        serial, parallel = pair
        assert len(serial) == len(parallel)
        for node in range(len(serial)):
            assert serial.packed_at(node) == parallel.packed_at(node)

    def test_same_edge_lists(self, pair):
        serial, parallel = pair
        assert serial.successors == parallel.successors

    def test_same_decision_indexes(self, pair):
        serial, parallel = pair
        for value in (0, 1):
            assert serial.decision_nodes(value) == (
                parallel.decision_nodes(value)
            )

    def test_same_rich_configurations(self, pair):
        serial, parallel = pair
        for node in range(0, len(serial), 7):
            assert serial.configuration_at(node) == (
                parallel.configuration_at(node)
            )


class TestAnalyzerParity:
    def test_census_and_witness_identical(self, parity3):
        root = parity3.initial_configuration([0, 0, 1])
        outcomes = []
        for workers in (0, 2):
            analyzer = ValencyAnalyzer(parity3, workers=workers)
            # Force pool engagement on this small graph.
            analyzer.graph._min_batch_per_worker = 1
            try:
                valency = analyzer.valency(root)
                witness = analyzer.bivalence_witness(root)
                engine = analyzer.graph
                closure = engine.reachable_from(engine.node_id(root))
                census = sorted(
                    (node, analyzer.peek_node(node).value)
                    for node in closure.nodes
                )
                outcomes.append(
                    (valency, witness.to_zero.events,
                     witness.to_one.events, census)
                )
            finally:
                analyzer.close()
        assert outcomes[0] == outcomes[1]


class TestBudgetHonesty:
    def test_truthful_partial_answer(self, parity3):
        root = parity3.initial_configuration([0, 0, 1])
        graph = parallel_graph(parity3)
        try:
            result = graph.explore(root, max_configurations=10)
            assert not result.complete
            assert not graph.complete
            assert len(graph) <= 10
            frontier = graph.frontier_ids()
            assert frontier
            # Expanded nodes have their complete successor sets; frontier
            # nodes have none (expansion is all-or-nothing per node).
            for node in range(len(graph)):
                if node in frontier:
                    assert graph.successors[node] == []
                else:
                    assert graph.successors[node]
        finally:
            graph.close()

    def test_budget_cut_is_deterministic(self, parity3):
        root = parity3.initial_configuration([0, 0, 1])
        serial = GlobalConfigurationGraph(parity3)
        parallel = parallel_graph(parity3)
        try:
            serial.explore(root, max_configurations=25)
            parallel.explore(root, max_configurations=25)
            assert len(serial) == len(parallel)
            assert serial.successors == parallel.successors
            assert serial.frontier_ids() == parallel.frontier_ids()
        finally:
            parallel.close()


class TestPoolLifecycle:
    def test_close_is_idempotent(self, parity3):
        graph = parallel_graph(parity3)
        graph.explore(parity3.initial_configuration([0, 0, 1]))
        graph.close()
        graph.close()  # second close is a no-op

    def test_serial_close_is_noop(self, parity3):
        graph = GlobalConfigurationGraph(parity3)
        graph.close()

    def test_explore_works_after_close(self, parity3):
        # The pool is an optimization; a closed engine lazily reopens it.
        graph = parallel_graph(parity3)
        try:
            graph.explore(parity3.initial_configuration([0, 0, 1]))
            graph.close()
            result = graph.explore(
                parity3.initial_configuration([1, 1, 0])
            )
            assert result.complete
        finally:
            graph.close()


class TestStatsCounters:
    def test_kernel_work_outside_explore_surfaces_in_stats(self, parity3):
        analyzer = ValencyAnalyzer(parity3)
        root = parity3.initial_configuration([0, 0, 1])
        analyzer.valency(root)
        before = analyzer.stats.as_dict()
        # Step a transition outside explore(), the way Lemma 3's search
        # does, from a root the engine never reached: the first step
        # fills the kernel's tables, the second hits them, and both
        # movements show up in GraphStats on the next read.
        from repro.core.events import NULL, Event

        kernel = analyzer.graph.kernel
        elsewhere = analyzer.graph.codec.encode(
            parity3.initial_configuration([1, 1, 0])
        )
        eid = kernel.event_id(Event("p0", NULL))
        kernel.step(elsewhere, eid)
        kernel.step(elsewhere, eid)
        after = analyzer.stats.as_dict()
        assert after["kernel_fallback_steps"] > before["kernel_fallback_steps"]
        assert after["kernel_table_hits"] > before["kernel_table_hits"]


class TestCrewWire:
    def test_parent_builds_no_more_rich_buffers_than_serial(self):
        # Workers ship buffers as flat reps; the parent allocates them
        # as kernel placeholders, exactly like serial expansion does,
        # and never materializes a rich MessageBuffer to sync a mirror.
        protocol = make_protocol(BenOrProcess, 3)
        root = protocol.initial_configuration([0, 0, 1])
        tables = []
        for workers in (0, 2):
            graph = GlobalConfigurationGraph(protocol, workers=workers)
            try:
                graph.explore(root, max_configurations=20_000)
                assert len(graph) == 20_000
                assert (graph.stats.worker_batches > 0) == (workers > 0)
                buffers = graph.codec._buffers
                tables.append(
                    (len(buffers), sum(b is not None for b in buffers))
                )
            finally:
                graph.close()
        serial, crew = tables
        assert crew == serial
        assert serial[1] < serial[0] // 1000

    def test_more_workers_than_cores_stay_byte_identical(self):
        # Four workers interleave novel buffers and messages across
        # more chunks than cores: side tables overlap and worker
        # message ids diverge from the parent's.  A lost or reordered
        # allocation would move the fingerprint; a wedged crew trips
        # the timeout, which must never fire.
        protocol = make_protocol(BenOrProcess, 3)
        root = protocol.initial_configuration([1, 0, 0])
        serial = GlobalConfigurationGraph(protocol)
        serial.explore(root, max_configurations=5_000)
        crew = GlobalConfigurationGraph(
            protocol,
            workers=4,
            min_batch_per_worker=1,
            resilience=ResilienceConfig(batch_timeout_s=60.0),
        )
        try:
            crew.explore(root, max_configurations=5_000)
            assert crew.fingerprint() == serial.fingerprint()
            assert crew.stats.worker_chunks > 4 * crew.stats.worker_batches
            assert crew.stats.worker_timeouts == 0
            assert crew.stats.serial_fallbacks == 0
        finally:
            crew.close()
