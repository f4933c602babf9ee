"""Worker crash/hang recovery: no batch is ever silently dropped.

Each test injects a real fault into a real ``multiprocessing`` pool —
a SIGKILLed worker, a wedged worker, a timeout storm — and asserts two
things: the exploration still completes, and the resulting graph is
byte-identical to a serial run.  Identical fingerprints are the "no
silently dropped frontier batch" guarantee: a lost expansion would
change node ids, edges, or both.
"""

import os

import pytest

from repro.core.errors import ProtocolViolation, WorkerPoolError
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.process import Process, Transition
from repro.core.protocol import Protocol
from repro.core.resilience import (
    ChaosConfig,
    ResilienceConfig,
    run_chaos_suite,
)
from repro.protocols import ParityArbiterProcess, make_protocol

BUDGET = 2_000


@pytest.fixture(scope="module")
def protocol():
    return make_protocol(ParityArbiterProcess, 3)


def _root(protocol):
    return protocol.initial_configuration([0, 0, 1])


@pytest.fixture(scope="module")
def clean_fingerprint(protocol):
    graph = GlobalConfigurationGraph(protocol)
    graph.explore(_root(protocol), max_configurations=BUDGET)
    return graph.fingerprint()


def _faulted_graph(protocol, chaos, resilience):
    graph = GlobalConfigurationGraph(
        protocol,
        workers=2,
        min_batch_per_worker=1,
        resilience=resilience,
        chaos=chaos,
    )
    try:
        result = graph.explore(_root(protocol), max_configurations=BUDGET)
        return result, graph.fingerprint(), graph.stats
    finally:
        graph.close()


class TestWorkerKill:
    def test_sigkilled_worker_is_detected_and_batch_redispatched(
        self, protocol, clean_fingerprint, tmp_path
    ):
        sentinel = str(tmp_path / "kill.sentinel")
        result, fingerprint, stats = _faulted_graph(
            protocol,
            ChaosConfig(kill_once_path=sentinel),
            ResilienceConfig(batch_timeout_s=10.0, max_retries=3),
        )
        assert result.complete
        assert fingerprint == clean_fingerprint
        assert os.path.exists(sentinel), "fault was never injected"
        assert stats.worker_timeouts >= 1
        assert stats.pool_rebuilds >= 1
        assert stats.worker_retries >= 1


class TestWorkerHang:
    def test_hung_worker_times_out_and_recovers(
        self, protocol, clean_fingerprint, tmp_path
    ):
        sentinel = str(tmp_path / "hang.sentinel")
        result, fingerprint, stats = _faulted_graph(
            protocol,
            ChaosConfig(hang_once_path=sentinel, hang_seconds=30.0),
            ResilienceConfig(batch_timeout_s=1.0, max_retries=3),
        )
        assert result.complete
        assert fingerprint == clean_fingerprint
        assert os.path.exists(sentinel)
        assert stats.worker_timeouts >= 1


class TestTimeoutExhaustion:
    def test_retry_exhaustion_falls_back_to_serial(
        self, protocol, clean_fingerprint
    ):
        # An absurd timeout fails every dispatch; the engine must give
        # up on the pool and still finish inline, identically.
        result, fingerprint, stats = _faulted_graph(
            protocol,
            None,
            ResilienceConfig(
                batch_timeout_s=1e-6, max_retries=1, backoff_base_s=0.0
            ),
        )
        assert result.complete
        assert fingerprint == clean_fingerprint
        assert stats.serial_fallbacks >= 1
        assert stats.pool_disabled == 1

    def test_no_fallback_policy_raises_worker_pool_error(self, protocol):
        graph = GlobalConfigurationGraph(
            protocol,
            workers=2,
            min_batch_per_worker=1,
            resilience=ResilienceConfig(
                batch_timeout_s=1e-6,
                max_retries=0,
                backoff_base_s=0.0,
                serial_fallback=False,
            ),
        )
        try:
            with pytest.raises(WorkerPoolError, match="dispatch"):
                graph.explore(_root(protocol), max_configurations=BUDGET)
        finally:
            graph.close()


class GhostWriter(Process):
    """Counts its null steps; the third one sends to a process that
    does not exist — a model error, raised at BFS depth 3."""

    def initial_data(self, input_value):
        return 0

    def step(self, state, message_value):
        if message_value is not None or state.data >= 3:
            return Transition(state, ())
        nulls = state.data + 1
        sends = (self.send_to("ghost", "boo"),) if nulls == 3 else ()
        return Transition(state.with_data(nulls), sends)


class TestModelErrorsPropagate:
    """A model error a worker hits is the protocol's fault, not the
    crew's: it propagates unchanged, and no recovery counter moves."""

    @pytest.fixture(scope="class")
    def ghost(self):
        return Protocol([GhostWriter(f"p{i}") for i in range(3)])

    def test_serial_run_raises_the_violation(self, ghost):
        graph = GlobalConfigurationGraph(ghost)
        with pytest.raises(ProtocolViolation, match="ghost"):
            graph.explore(ghost.initial_configuration([0, 0, 1]))

    @pytest.mark.parametrize("serial_fallback", [True, False])
    def test_crew_raises_it_with_no_strike(
        self, ghost, serial_fallback, capfd
    ):
        graph = GlobalConfigurationGraph(
            ghost,
            workers=2,
            min_batch_per_worker=1,
            resilience=ResilienceConfig(serial_fallback=serial_fallback),
        )
        try:
            with pytest.raises(ProtocolViolation, match="ghost"):
                graph.explore(ghost.initial_configuration([0, 0, 1]))
            stats = graph.stats
        finally:
            graph.close()
        assert stats.worker_batches > 0
        assert stats.worker_timeouts == 0
        assert stats.worker_faults == 0
        assert stats.worker_retries == 0
        assert stats.pool_rebuilds == 0
        assert stats.serial_fallbacks == 0
        assert stats.pool_disabled == 0
        # No worker died printing a traceback on the way.
        assert "Traceback" not in capfd.readouterr().err


class TestFullSuite:
    def test_all_scenarios_recover_byte_identically(self, protocol):
        outcomes = run_chaos_suite(
            "parity-arbiter", n=3, workers=2, max_configurations=BUDGET
        )
        failed = [o.scenario for o in outcomes if not o.ok]
        assert not failed, f"chaos scenarios failed: {failed}"
