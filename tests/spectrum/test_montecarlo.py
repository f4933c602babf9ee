"""The sweep runtime: cells, checkpoints, budgets, phase expectations."""

import json

import pytest

from repro.core.errors import CheckpointCorrupt, CheckpointMismatch
from repro.spectrum.montecarlo import (
    SpectrumCell,
    SweepResult,
    SweepRunner,
    _wilson_interval,
    check_phase_expectations,
    default_grid,
    run_cell,
    smoke_grid,
)

FAST_BENOR = SpectrumCell(
    protocol="benor", n=3, f=1, grade="oblivious", samples=20, horizon=40,
    drop_probability=0.5,
)
FAST_ROTATING = SpectrumCell(
    protocol="rotating", n=3, f=1, grade="adaptive", gst=3, samples=10,
    horizon=12,
)


def _tiny_grid():
    return [FAST_BENOR, FAST_ROTATING]


class TestSpectrumCell:
    def test_rotating_requires_n_gt_2f(self):
        with pytest.raises(ValueError, match="N > 2f"):
            SpectrumCell(protocol="rotating", n=4, f=2, grade="none")

    def test_benor_allows_f_up_to_n_minus_one(self):
        cell = SpectrumCell(protocol="benor", n=3, f=2, grade="none")
        assert cell.f == 2

    def test_detector_only_on_rotating(self):
        with pytest.raises(ValueError, match="rotating cells only"):
            SpectrumCell(
                protocol="benor", n=3, f=1, grade="none", detector="perfect"
            )

    def test_bad_grade_and_gst_rejected(self):
        with pytest.raises(ValueError, match="grade"):
            SpectrumCell(protocol="benor", n=3, f=1, grade="byzantine")
        with pytest.raises(ValueError, match="gst"):
            SpectrumCell(protocol="benor", n=3, f=1, grade="none", gst=0)

    def test_key_distinguishes_gst_infinity(self):
        finite = FAST_ROTATING.key()
        infinite = SpectrumCell(
            **dict(FAST_ROTATING.to_dict(), gst=None)
        ).key()
        assert "gst-3" in finite and "gst-inf" in infinite

    def test_dict_round_trip(self):
        assert SpectrumCell.from_dict(FAST_BENOR.to_dict()) == FAST_BENOR


class TestStatistics:
    def test_wilson_degenerate_cases(self):
        assert _wilson_interval(0, 0) == (0.0, 1.0)
        low, high = _wilson_interval(50, 50)
        assert low > 0.9 and high == 1.0
        low, high = _wilson_interval(0, 50)
        assert low < 1e-12 and high < 0.1

    def test_wilson_brackets_the_estimate(self):
        low, high = _wilson_interval(30, 100)
        assert low < 0.3 < high


class TestRunCell:
    def test_deterministic_in_cell_and_seed(self):
        first = run_cell(FAST_BENOR, base_seed=7).to_dict()
        second = run_cell(FAST_BENOR, base_seed=7).to_dict()
        assert first == second

    def test_base_seed_changes_the_draw(self):
        a = run_cell(FAST_BENOR, base_seed=0).to_dict()
        b = run_cell(FAST_BENOR, base_seed=1).to_dict()
        assert a != b

    def test_safe_benor_cell_always_terminates(self):
        outcome = run_cell(FAST_BENOR)
        assert outcome.termination_rate == 1.0
        assert outcome.agreement_violations == 0
        assert outcome.validity_violations == 0
        assert outcome.fault_counters.get("fault_omission_drops", 0) > 0

    def test_rotating_decides_within_f_plus_one_post_gst(self):
        outcome = run_cell(FAST_ROTATING)
        assert outcome.termination_rate == 1.0
        assert outcome.max_post_gst is not None
        assert outcome.max_post_gst <= FAST_ROTATING.f + 1

    def test_flp_cell_never_terminates(self):
        cell = SpectrumCell(
            **dict(FAST_ROTATING.to_dict(), gst=None)
        )
        outcome = run_cell(cell)
        assert outcome.terminated == 0
        assert outcome.mean_rounds is None


class TestSweepRunner:
    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepRunner([FAST_BENOR, FAST_BENOR])

    def test_serial_sweep_completes_and_checkpoints(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        result = SweepRunner(
            _tiny_grid(), checkpoint_path=str(path)
        ).run()
        assert result.complete and result.partial is None
        data = json.loads(path.read_text())
        assert data["kind"] == "spectrum-sweep"
        assert len(data["completed"]) == 2

    def test_resume_skips_completed_cells(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        reference = SweepRunner(
            _tiny_grid(), checkpoint_path=str(path)
        ).run()
        resumed = SweepRunner(
            _tiny_grid(), checkpoint_path=str(path)
        ).run()
        assert resumed.resumed_cells == 2
        assert resumed.fingerprint() == reference.fingerprint()

    def test_checkpoint_with_other_seed_is_refused(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        SweepRunner(
            _tiny_grid(), base_seed=0, checkpoint_path=str(path)
        ).run()
        written = path.read_bytes()
        other = SweepRunner(
            _tiny_grid(), base_seed=1, checkpoint_path=str(path)
        )
        with pytest.raises(CheckpointMismatch, match="base seed 0"):
            other.run()
        # Refused, not restarted over: the file is left as it was.
        assert path.read_bytes() == written

    def test_corrupt_checkpoint_is_refused(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        path.write_text("{torn")
        runner = SweepRunner(_tiny_grid(), checkpoint_path=str(path))
        with pytest.raises(CheckpointCorrupt, match="unreadable"):
            runner.run()
        assert path.read_text() == "{torn"

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: dict(data, kind="other"),
            lambda data: dict(data, version=1),
            lambda data: dict(data, base_seed=7),
            lambda data: [data],
        ],
        ids=["kind", "version", "unchecksummed-edit", "not-object"],
    )
    def test_foreign_or_edited_checkpoint_is_refused(self, tmp_path, damage):
        path = tmp_path / "sweep.ckpt"
        SweepRunner(_tiny_grid(), checkpoint_path=str(path)).run()
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        written = path.read_bytes()
        runner = SweepRunner(_tiny_grid(), checkpoint_path=str(path))
        with pytest.raises(CheckpointCorrupt):
            runner.run()
        assert path.read_bytes() == written

    def test_cells_outside_the_grid_are_dropped(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        SweepRunner(_tiny_grid(), checkpoint_path=str(path)).run()
        resumed = SweepRunner(
            [FAST_BENOR], checkpoint_path=str(path)
        ).run()
        assert resumed.resumed_cells == 1 and resumed.complete

    def test_request_stop_degrades_to_partial(self):
        runner = SweepRunner(_tiny_grid())
        runner.request_stop("drain")
        result = runner.run()
        assert not result.complete
        assert result.partial is not None
        assert result.partial.reason == "drain"
        # The latch is sticky: later reasons do not overwrite it.
        runner.request_stop("interrupt")
        assert runner.stop_reason == "drain"

    def test_parallel_fingerprint_matches_serial(self, tmp_path):
        serial = SweepRunner(_tiny_grid()).run()
        parallel = SweepRunner(_tiny_grid(), workers=2).run()
        assert parallel.complete
        assert parallel.fingerprint() == serial.fingerprint()

    def test_fingerprint_ignores_resume_history(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        first = SweepRunner(
            _tiny_grid(), checkpoint_path=str(path)
        ).run()
        replay = SweepRunner(
            _tiny_grid(), checkpoint_path=str(path)
        ).run()
        assert replay.resumed_cells != first.resumed_cells
        assert (
            replay.to_dict()["fingerprint"]
            == first.to_dict()["fingerprint"]
        )


class TestGrids:
    def test_grid_sizes(self):
        assert len(default_grid()) == 24
        assert len(smoke_grid()) == 6

    def test_grid_keys_unique(self):
        keys = [cell.key() for cell in default_grid()]
        assert len(set(keys)) == len(keys)


class TestPhaseExpectations:
    def test_smoke_sweep_matches_the_paper(self):
        result = SweepRunner(smoke_grid()).run()
        assert check_phase_expectations(result) == []

    def test_agreement_violation_is_reported(self):
        result = SweepRunner([FAST_BENOR]).run()
        outcome = next(iter(result.outcomes.values()))
        outcome.agreement_violations = 3
        violations = check_phase_expectations(result)
        assert any("agreement" in v for v in violations)

    def test_nonterminating_safe_cell_is_reported(self):
        result = SweepRunner([FAST_BENOR]).run()
        outcome = next(iter(result.outcomes.values()))
        outcome.terminated = 0
        outcome.termination_rate = 0.0
        violations = check_phase_expectations(result)
        assert any("every sampled run" in v for v in violations)
