"""Interrupt-at-every-level resume identity — the determinism pin.

A run killed at *any* BFS level and resumed from its latest checkpoint
must finish with a graph byte-identical to an uninterrupted run (same
roots, same configuration budget).  This is the contract that makes
checkpoints trustworthy: nothing downstream — valency classification,
adversary schedules, fingerprints — can tell the runs apart.
"""

import pytest

from repro.core.checkpoint import load_checkpoint
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.resilience import (
    ChaosConfig,
    CheckpointConfig,
    run_chaos_suite,
)
from repro.protocols import ParityArbiterProcess, make_protocol

BUDGET = 2_000


@pytest.fixture(scope="module")
def protocol():
    return make_protocol(ParityArbiterProcess, 3)


@pytest.fixture(scope="module")
def clean(protocol):
    graph = GlobalConfigurationGraph(protocol)
    graph.explore(
        protocol.initial_configuration([0, 0, 1]),
        max_configurations=BUDGET,
    )
    return graph


def _root(protocol):
    return protocol.initial_configuration([0, 0, 1])


class TestPackedEngine:
    def test_interrupt_at_every_level_resumes_identically(
        self, protocol, clean, tmp_path
    ):
        levels = clean.stats.explore_levels
        assert levels >= 3, "protocol too small to interrupt meaningfully"
        path = str(tmp_path / "resume.ckpt")
        for level in range(1, levels + 1):
            victim = GlobalConfigurationGraph(
                protocol,
                checkpoint=CheckpointConfig(path=path, every_levels=1),
                chaos=ChaosConfig(interrupt_after_level=level),
            )
            with pytest.raises(KeyboardInterrupt):
                victim.explore(_root(protocol), max_configurations=BUDGET)
            assert victim.last_partial is not None
            assert victim.last_partial.reason == "interrupt"
            assert victim.last_partial.checkpoint_path == path

            resumed = load_checkpoint(path, protocol)
            resumed.explore(_root(protocol), max_configurations=BUDGET)
            assert resumed.fingerprint() == clean.fingerprint(), (
                f"resume diverged after interrupt at level {level}"
            )

    def test_interrupt_past_budget_truncation_resumes_identically(
        self, protocol, tmp_path
    ):
        # Truncated runs exercise the all-or-nothing budget skips; with
        # the SAME budget the resumed run must still match single-shot.
        budget = 80
        clean = GlobalConfigurationGraph(protocol)
        result = clean.explore(_root(protocol), max_configurations=budget)
        assert not result.complete
        path = str(tmp_path / "truncated.ckpt")
        for level in range(1, clean.stats.explore_levels + 1):
            victim = GlobalConfigurationGraph(
                protocol,
                checkpoint=CheckpointConfig(path=path, every_levels=1),
                chaos=ChaosConfig(interrupt_after_level=level),
            )
            with pytest.raises(KeyboardInterrupt):
                victim.explore(_root(protocol), max_configurations=budget)
            resumed = load_checkpoint(path, protocol)
            resumed.explore(_root(protocol), max_configurations=budget)
            assert resumed.fingerprint() == clean.fingerprint()


class TestChaosSuiteEntryPoint:
    def test_interrupt_resume_scenario_via_public_api(self, protocol):
        outcomes = run_chaos_suite(
            "parity-arbiter",
            n=3,
            workers=1,  # worker scenarios skipped, deterministic + fast
            max_configurations=BUDGET,
        )
        by_name = {outcome.scenario: outcome for outcome in outcomes}
        assert by_name["interrupt-resume"].ok
        assert "skipped" in by_name["worker-kill"].detail

    def test_unknown_scenario_rejected(self, protocol):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            run_chaos_suite("parity-arbiter", scenarios=("nope",))
