"""Tests for the parity-arbiter protocol (the staged-mode showcase)."""

from repro.core.events import NULL, Event
from repro.core.simulation import StopCondition, simulate
from repro.core.valency import Valency
from repro.schedulers import RandomScheduler, RoundRobinScheduler
from tests.reference import explore


class TestParityMechanics:
    def test_fresh_claim_commits(self, parity_arbiter3):
        protocol = parity_arbiter3
        config = protocol.initial_configuration([0, 0, 1])
        config = protocol.apply_event(config, Event("p1", NULL))
        config = protocol.apply_event(
            config, Event("p0", ("claim", "p1", 0, 0))
        )
        assert config.state_of("p0").output == 0

    def test_null_step_flips_parity(self, parity_arbiter3):
        protocol = parity_arbiter3
        config = protocol.initial_configuration([0, 0, 1])
        assert config.state_of("p0").data == ("judging", 0)
        config = protocol.apply_event(config, Event("p0", NULL))
        assert config.state_of("p0").data == ("judging", 1)

    def test_stale_claim_triggers_retry(self, parity_arbiter3):
        protocol = parity_arbiter3
        config = protocol.initial_configuration([0, 0, 1])
        config = protocol.apply_event(config, Event("p1", NULL))
        config = protocol.apply_event(config, Event("p0", NULL))  # flip
        config = protocol.apply_event(
            config, Event("p0", ("claim", "p1", 0, 0))
        )
        assert not config.state_of("p0").decided
        assert config.buffer.has_message_for("p1")
        retry = config.buffer.messages_for("p1")[0]
        assert retry.value == ("retry", 1)

    def test_retry_causes_reclaim_with_fresh_parity(self, parity_arbiter3):
        protocol = parity_arbiter3
        config = protocol.initial_configuration([0, 0, 1])
        config = protocol.apply_event(config, Event("p1", NULL))
        config = protocol.apply_event(config, Event("p0", NULL))
        config = protocol.apply_event(
            config, Event("p0", ("claim", "p1", 0, 0))
        )
        config = protocol.apply_event(config, Event("p1", ("retry", 1)))
        claims = [
            message
            for message in config.buffer.messages_for("p0")
            if message.value[0] == "claim"
        ]
        assert claims and claims[0].value == ("claim", "p1", 0, 1)

    def test_reclaimed_fresh_claim_commits(self, parity_arbiter3):
        protocol = parity_arbiter3
        config = protocol.initial_configuration([0, 0, 1])
        for event in (
            Event("p1", NULL),
            Event("p0", NULL),
            Event("p0", ("claim", "p1", 0, 0)),
            Event("p1", ("retry", 1)),
            Event("p0", ("claim", "p1", 0, 1)),
        ):
            config = protocol.apply_event(config, event)
        assert config.state_of("p0").output == 0


class TestGlobalProperties:
    def test_reachable_graph_is_finite(self, parity_arbiter3):
        graph = explore(
            parity_arbiter3,
            parity_arbiter3.initial_configuration([0, 0, 1]),
        )
        assert graph.complete

    def test_entire_predecision_region_is_bivalent(
        self, parity_arbiter3, parity_arbiter3_analyzer
    ):
        """The design property enabling eternal staged mode: every
        reachable undecided configuration keeps both outcomes open."""
        graph = explore(
            parity_arbiter3,
            parity_arbiter3.initial_configuration([0, 0, 1]),
        )
        for configuration in graph.configurations:
            valency = parity_arbiter3_analyzer.valency(configuration)
            if configuration.has_decision:
                assert valency.is_univalent
            else:
                assert valency is Valency.BIVALENT

    def test_liveness_under_round_robin(self, parity_arbiter3):
        result = simulate(
            parity_arbiter3,
            parity_arbiter3.initial_configuration([0, 1, 0]),
            RoundRobinScheduler(),
            max_steps=200,
        )
        assert result.decided
        assert result.agreement_holds

    def test_liveness_under_random(self, parity_arbiter3):
        for seed in range(10):
            result = simulate(
                parity_arbiter3,
                parity_arbiter3.initial_configuration([0, 0, 1]),
                RandomScheduler(seed=seed, null_probability=0.2),
                max_steps=3000,
                stop=StopCondition.ALL_DECIDED,
            )
            assert result.decided, seed
            assert result.agreement_holds
