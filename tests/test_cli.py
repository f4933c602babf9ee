"""Tests for the ``python -m repro`` CLI."""

import pytest

import repro.cli as cli
from repro.cli import main
from repro.core.resilience import ChaosConfig


class TestList:
    def test_lists_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "parity-arbiter" in out
        assert "description" in out


class TestCheck:
    def test_safe_protocol_exits_zero(self, capsys):
        assert main(["check", "arbiter"]) == 0
        out = capsys.readouterr().out
        assert "partially correct" in out
        assert "bivalent" in out

    def test_unsafe_protocol_exits_one(self, capsys):
        assert main(["check", "quorum-vote"]) == 1
        out = capsys.readouterr().out
        assert "NOT partially correct" in out

    def test_unanalyzable_uses_simulation_sweep(self, capsys):
        assert main(["check", "benor"]) == 0
        out = capsys.readouterr().out
        assert "simulation sweep" in out
        assert "agreement=True" in out


class TestAttack:
    def test_staged_attack(self, capsys):
        assert main(["attack", "parity-arbiter", "--stages", "6"]) == 0
        out = capsys.readouterr().out
        assert "bivalence-preserving" in out
        assert "verified by replay: True" in out

    def test_fault_attack(self, capsys):
        assert main(["attack", "2pc", "--stages", "3"]) == 0
        out = capsys.readouterr().out
        assert "fault" in out

    def test_trace_flag(self, capsys):
        assert (
            main(
                ["attack", "arbiter", "--stages", "3", "--trace", "4"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "receives" in out

    def test_unanalyzable_refused(self, capsys):
        assert main(["attack", "benor"]) == 2
        err = capsys.readouterr().err
        assert "unbounded" in err

    def test_degenerate_protocol_reports_stuck(self, capsys):
        assert main(["attack", "always-zero"]) == 1
        err = capsys.readouterr().err
        assert "stuck" in err


class TestSimulate:
    def test_fault_free(self, capsys):
        assert main(["simulate", "wait-for-all", "--inputs", "101"]) == 0
        out = capsys.readouterr().out
        assert "decided" in out
        assert "agreement: holds" in out

    def test_crash_spec(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "wait-for-all",
                    "--inputs",
                    "111",
                    "--crash",
                    "p0@0",
                    "--max-steps",
                    "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "none" in out  # nobody decides

    def test_random_scheduler(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "arbiter",
                    "--scheduler",
                    "random",
                    "--seed",
                    "4",
                ]
            )
            == 0
        )

    def test_bad_inputs_length(self):
        with pytest.raises(SystemExit):
            main(["simulate", "arbiter", "--inputs", "10101"])


class TestMap:
    def test_map_summary(self, capsys):
        assert main(["map", "arbiter", "--inputs", "001"]) == 0
        out = capsys.readouterr().out
        assert "critical steps" in out

    def test_hypercube_flag(self, capsys):
        assert (
            main(["map", "arbiter", "--inputs", "001", "--hypercube"])
            == 0
        )
        out = capsys.readouterr().out
        assert "consecutive rows are adjacent" in out

    def test_dot_export(self, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        assert (
            main(
                ["map", "arbiter", "--inputs", "001", "--dot", str(target)]
            )
            == 0
        )
        assert target.read_text().startswith("digraph")


class TestStatsFlag:
    def test_check_stats(self, capsys):
        assert main(["check", "arbiter", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine counters:" in out
        assert "interned" in out
        assert "cache_hits" in out

    def test_stats_surface_cache_and_packed_counters(self, capsys):
        assert main(["check", "arbiter", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "kernel_table_hits" in out
        assert "kernel_fallback_steps" in out
        assert "packed_step_hits" in out
        assert "packed_step_misses" in out
        assert "workers" in out

    def test_map_stats(self, capsys):
        assert main(["map", "arbiter", "--inputs", "001", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine counters:" in out

    def test_attack_stats(self, capsys):
        assert (
            main(
                ["attack", "parity-arbiter", "--stages", "3", "--stats"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine counters:" in out
        assert "explore_time_s" in out


class TestWorkersFlag:
    def test_check_with_workers(self, capsys):
        assert main(["check", "arbiter", "--workers", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "partially correct" in out
        assert "workers" in out

    def test_map_with_workers_matches_serial(self, capsys):
        assert main(["map", "parity-arbiter", "--inputs", "001"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(
                [
                    "map",
                    "parity-arbiter",
                    "--inputs",
                    "001",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_attack_with_workers(self, capsys):
        assert (
            main(
                [
                    "attack",
                    "parity-arbiter",
                    "--stages",
                    "3",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "verified by replay: True" in out


class TestExperimentsPassthrough:
    def test_runs_single_experiment(self, capsys):
        assert main(["experiments", "E8"]) == 0
        out = capsys.readouterr().out
        assert "FloodSet" in out


class TestResilienceFlags:
    def test_checkpoint_then_resume(self, tmp_path, capsys):
        target = tmp_path / "check.ckpt"
        assert (
            main(
                [
                    "check",
                    "parity-arbiter",
                    "--checkpoint",
                    str(target),
                    "--checkpoint-every",
                    "0.001",
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert target.exists()
        assert (
            main(
                [
                    "check",
                    "parity-arbiter",
                    "--resume",
                    str(target),
                    "--stats",
                ]
            )
            == 0
        )
        resumed = capsys.readouterr().out
        # Same verdicts, and the stats prove the snapshot was loaded.
        assert "initial-configuration valencies:" in resumed
        for line in first.splitlines():
            if "valent" in line:
                assert line in resumed
        assert "resumed_nodes" in resumed

    def test_resume_with_wrong_protocol_is_one_friendly_line(
        self, tmp_path, capsys
    ):
        """A checkpoint from another protocol must produce a one-line
        error and exit 2, not a traceback."""
        target = tmp_path / "parity.ckpt"
        assert (
            main(
                [
                    "check",
                    "parity-arbiter",
                    "--checkpoint",
                    str(target),
                    "--checkpoint-every",
                    "0.001",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(["check", "arbiter", "--resume", str(target)]) == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("cannot resume:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_resume_of_dict_engine_checkpoint_is_one_friendly_line(
        self, tmp_path, capsys
    ):
        """A snapshot of the retired dict-keyed engine is refused with
        one line and exit 2."""
        from repro.protocols import ParityArbiterProcess, make_protocol
        from tests.core.test_checkpoint import write_dict_engine_checkpoint

        target = str(tmp_path / "dict.ckpt")
        write_dict_engine_checkpoint(
            make_protocol(ParityArbiterProcess, 3), target
        )
        assert main(["check", "parity-arbiter", "--resume", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot resume:")
        assert "dict" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_resume_of_brute_symmetry_checkpoint_is_one_friendly_line(
        self, tmp_path, capsys
    ):
        """A snapshot stamped by the retired brute canonicalizer is
        refused with one line and exit 2, with or without --symmetry."""
        from tests.core.test_checkpoint import (
            write_brute_symmetry_checkpoint,
        )

        target = str(tmp_path / "brute.ckpt")
        write_brute_symmetry_checkpoint(target)
        for flags in ([], ["--symmetry"]):
            code = main(["check", "wait-for-all", "--resume", target, *flags])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("cannot resume:")
            assert "brute" in err
            assert len(err.strip().splitlines()) == 1
            assert "Traceback" not in err

    def test_stats_surface_resilience_counters(self, capsys):
        assert main(["check", "arbiter", "--stats"]) == 0
        out = capsys.readouterr().out
        for counter in (
            "worker_timeouts",
            "pool_rebuilds",
            "serial_fallbacks",
            "budget_stops",
            "checkpoints_written",
        ):
            assert counter in out

    def test_map_accepts_budget_flags(self, capsys):
        assert (
            main(
                [
                    "map",
                    "arbiter",
                    "--inputs",
                    "001",
                    "--max-seconds",
                    "3600",
                    "--max-memory-mb",
                    "100000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "critical steps" in out


class TestInterruptExit:
    def test_interrupt_exits_130_with_partial_summary(
        self, tmp_path, capsys, monkeypatch
    ):
        target = tmp_path / "interrupted.ckpt"
        real = cli._make_analyzer

        def chaotic(protocol, args):
            analyzer = real(protocol, args)
            analyzer.graph.chaos = ChaosConfig(interrupt_after_level=2)
            return analyzer

        monkeypatch.setattr(cli, "_make_analyzer", chaotic)
        code = main(
            [
                "check",
                "parity-arbiter",
                "--checkpoint",
                str(target),
                "--checkpoint-every",
                "0.001",
            ]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "configurations" in err
        assert f"--resume {target}" in err
        assert target.exists()

    def test_interrupt_without_checkpoint_still_reports(
        self, capsys, monkeypatch
    ):
        real = cli._make_analyzer

        def chaotic(protocol, args):
            analyzer = real(protocol, args)
            analyzer.graph.chaos = ChaosConfig(interrupt_after_level=1)
            return analyzer

        monkeypatch.setattr(cli, "_make_analyzer", chaotic)
        assert main(["map", "parity-arbiter", "--inputs", "001"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "no checkpoint configured" in err


class TestChaosCommand:
    def test_serial_suite_passes(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "parity-arbiter",
                    "--workers",
                    "1",
                    "--max-configurations",
                    "500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "interrupt-resume" in out
        assert "byte-identical" in out

    def test_scenario_subset(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "parity-arbiter",
                    "--workers",
                    "1",
                    "--max-configurations",
                    "500",
                    "--scenarios",
                    "interrupt-resume",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "interrupt-resume" in out
        assert "worker-kill" not in out


class TestSurvive:
    def test_single_protocol_matrix(self, capsys):
        assert (
            main(
                [
                    "survive",
                    "wait-for-all",
                    "--fault-models",
                    "none",
                    "one-mid-crash",
                    "--max-steps",
                    "400",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fault model" in out
        assert "one-mid-crash" in out
        assert "all survivability expectations hold" in out

    def test_json_artifact(self, tmp_path, capsys):
        target = tmp_path / "matrix.json"
        assert (
            main(
                [
                    "survive",
                    "2pc",
                    "--fault-models",
                    "none",
                    "omission",
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        import json

        payload = json.loads(target.read_text())
        cells = {
            (cell["protocol"], cell["model"]): cell
            for cell in payload["cells"]
        }
        assert cells[("2pc", "none")]["termination"] == "holds"
        assert cells[("2pc", "omission")]["termination"] == "stalled"
        assert cells[("2pc", "omission")]["flagged"]["omission"] > 0

    def test_theorem2_predictions_via_cli(self, capsys):
        assert (
            main(
                [
                    "survive",
                    "initially-dead",
                    "--fault-models",
                    "initially-dead-minority",
                    "one-mid-crash",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stalled" in out      # the mid-run crash row
        assert "witnesses:" in out


class TestReductionFlags:
    def test_check_with_por_agrees_and_surfaces_counters(self, capsys):
        assert main(["check", "wait-for-all"]) == 0
        baseline = capsys.readouterr().out
        assert main(["check", "wait-for-all", "--por", "--stats"]) == 0
        reduced = capsys.readouterr().out
        # Same verdict lines; the reduced run adds the counter block.
        assert baseline.splitlines()[0] in reduced
        assert "por_pruned" in reduced

    def test_check_with_symmetry_on_a_symmetric_protocol(self, capsys):
        assert main(
            ["check", "wait-for-all", "--symmetry", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "sym_canonical_hits" in out

    def test_symmetry_on_undeclared_protocol_is_one_friendly_line(
        self, capsys
    ):
        assert main(["check", "arbiter", "--symmetry"]) == 2
        err = capsys.readouterr().err
        assert "cannot reduce" in err
        assert "Traceback" not in err

    def test_attack_symmetry_on_undeclared_protocol_refused(self, capsys):
        # The quotient itself refuses the asymmetric automata; the
        # attack command no longer pre-refuses --symmetry, because
        # witnesses un-quotient into concrete replayable schedules.
        assert main(["attack", "parity-arbiter", "--symmetry"]) == 2
        err = capsys.readouterr().err
        assert "cannot reduce" in err
        assert "Traceback" not in err

    def test_attack_with_por_still_verifies(self, capsys):
        assert (
            main(["attack", "parity-arbiter", "--stages", "3", "--por"])
            == 0
        )
        out = capsys.readouterr().out
        assert "verified by replay: True" in out

    def test_map_with_por_shrinks_but_classifies_the_same(self, capsys):
        import re

        def run(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            match = re.search(r"(\d+) configurations \((.*?)\)", out)
            count, classes = match.groups()
            # "0-valent=80" → the class names, sizes stripped: the
            # reduced map covers fewer nodes but the same verdict mix.
            return int(count), re.sub(r"=\d+", "", classes)

        full_count, full_classes = run(["map", "wait-for-all"])
        por_count, por_classes = run(["map", "wait-for-all", "--por"])
        assert por_classes == full_classes
        assert por_count < full_count

    def test_survive_notes_reduction_does_not_apply(self, capsys):
        assert (
            main(
                [
                    "survive",
                    "wait-for-all",
                    "--fault-models",
                    "none",
                    "--por",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "runs unreduced" in out
