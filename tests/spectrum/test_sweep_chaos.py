"""Sweep-kill chaos: SIGKILL mid-grid, resume, byte-identical answer."""

from repro.core.resilience import CHAOS_SCENARIOS, run_chaos_suite


class TestScenarioRegistration:
    def test_sweep_kill_is_a_chaos_scenario(self):
        assert "sweep-kill" in CHAOS_SCENARIOS


class TestSweepKill:
    def test_killed_sweep_resumes_identically(self, tmp_path):
        # The protocol name is irrelevant: the scenario always sweeps
        # the smoke grid.
        (outcome,) = run_chaos_suite(
            "benor", scenarios=("sweep-kill",), work_dir=str(tmp_path)
        )
        assert outcome.scenario == "sweep-kill"
        assert outcome.recovered
        assert outcome.fingerprint_match
        # The kill really landed mid-grid and the rerun really resumed
        # rather than recomputing from scratch.
        assert outcome.stats["mid_flight"] is True
        assert outcome.stats["resumed_cells"] >= 1
