"""Acceptance pin: SIGKILL the daemon mid-job, restart, byte-identical.

This is the PR's headline robustness claim, exercised against real
subprocesses: a daemon killed with ``SIGKILL`` (no drain, no warning)
while a 50k-node budget-capped exploration of ``benor``/3 is in
flight must, after restart on the same spool, resume the job from its
checkpoint and answer with a ``result`` block — census fingerprint
included — identical to an uninterrupted cold run.
"""

from repro.core.resilience import run_chaos_suite


class TestServerKill:
    def test_sigkill_mid_job_resumes_byte_identical(self, tmp_path):
        (outcome,) = run_chaos_suite(
            "benor",
            n=3,
            scenarios=("server-kill",),
            max_configurations=50_000,
            work_dir=str(tmp_path),
        )
        assert outcome.recovered, outcome.detail
        assert outcome.fingerprint_match, outcome.detail
        # The kill must land mid-flight (after at least one checkpoint,
        # before completion) for the resume path to be the thing under
        # test; 50k nodes of benor take seconds, so this is stable.
        assert outcome.stats["mid_flight"], outcome.detail
        assert outcome.stats["resumes"] >= 1

    def test_suite_entry_point_runs_with_protocol_name(self, tmp_path):
        outcomes = run_chaos_suite(
            "parity-arbiter",
            n=3,
            scenarios=("server-kill",),
            max_configurations=2_000,
            work_dir=str(tmp_path),
        )
        assert len(outcomes) == 1
        assert outcomes[0].ok, outcomes[0].detail
        # parity-arbiter at this budget finishes in milliseconds; the
        # kill may land before or after completion, but the recovered
        # answer must match the cold run either way.
        assert outcomes[0].fingerprint_match
