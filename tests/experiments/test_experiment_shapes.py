"""Integration tests: every experiment reproduces the paper's shape.

These are the reproduction's acceptance tests — each experiment's
"expected" note, asserted.  They run the experiments in quick mode (the
suite completes in seconds) and check the *qualitative* claims: who
wins, what is always true, where the boundary sits.
"""

import pytest

from repro.core.exploration import GlobalConfigurationGraph
from repro.experiments.harness import run_experiment
from repro.protocols import ParityArbiterProcess, make_protocol


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(exp_id):
        if exp_id not in cache:
            cache[exp_id] = run_experiment(exp_id, quick=True, seed=0)
        return cache[exp_id]

    return get


class TestE1Lemma1:
    def test_every_diamond_closes(self, results):
        for row in results("E1").rows:
            assert row["failures"] == 0
            assert row["diamonds_closed"] == row["trials"]

    def test_nontrivial_schedules_tested(self, results):
        for row in results("E1").rows:
            assert row["both_nonempty"] > 0


class TestE2Lemma2:
    def test_order_sensitive_protocols_have_bivalent_initials(self, results):
        rows = {row["protocol"]: row for row in results("E2").rows}
        assert rows["arbiter/3"]["bivalent"] == 4
        assert rows["parity-arbiter/3"]["bivalent"] == 4

    def test_input_determined_protocols_have_boundaries(self, results):
        rows = {row["protocol"]: row for row in results("E2").rows}
        for label in ("wait-for-all/3", "2pc/3", "3pc/3"):
            assert rows[label]["bivalent"] == 0
            assert "boundary" in rows[label]["witness"]

    def test_everything_verified(self, results):
        for row in results("E2").rows:
            assert row["verified"]

    def test_hypercube_partition(self, results):
        for row in results("E2").rows:
            assert (
                row["bivalent"] + row["0-valent"] + row["1-valent"]
                == row["initials"]
            )


class TestE3Lemma3:
    def test_searches_split_into_success_and_case2(self, results):
        for row in results("E3").rows:
            assert (
                row["immediate"] + row["deferred"] + row["case2_failures"]
                == row["searches"]
            )

    def test_parity_arbiter_shows_deferred_case(self, results):
        rows = {row["protocol"]: row for row in results("E3").rows}
        assert rows["parity-arbiter/3"]["deferred"] > 0

    def test_plain_arbiter_shows_case2(self, results):
        rows = {row["protocol"]: row for row in results("E3").rows}
        assert rows["arbiter/3"]["case2_failures"] > 0


class TestE4Theorem1:
    def test_nobody_ever_decides(self, results):
        for row in results("E4").rows:
            assert row["decisions"] == 0
            assert row["verified"]

    def test_parity_arbiter_sustains_staged_mode(self, results):
        rows = [
            row
            for row in results("E4").rows
            if row["protocol"] == "parity-arbiter/3"
        ]
        for row in rows:
            assert row["mode"] == "bivalence-preserving"
            assert row["stages_achieved"] == row["stages_requested"]
            assert row["faulty"] == "-"

    def test_fault_mode_names_one_process(self, results):
        for row in results("E4").rows:
            if row["mode"] == "fault":
                assert row["faulty"] != "-"

    def test_prefix_grows_with_stages_in_staged_mode(self, results):
        staged = [
            row
            for row in results("E4").rows
            if row["mode"] == "bivalence-preserving"
        ]
        by_protocol = {}
        for row in staged:
            by_protocol.setdefault(row["protocol"], []).append(row)
        for rows in by_protocol.values():
            ordered = sorted(rows, key=lambda r: r["stages_requested"])
            events = [r["events"] for r in ordered]
            assert events == sorted(events)
            assert events[0] < events[-1]


class TestE5Theorem2:
    def test_minority_dead_always_decides(self, results):
        for row in results("E5").rows:
            if isinstance(row["dead"], int):
                assert row["all_live_decided"] == row["trials"]
                assert row["agreement"] == row["trials"]
                assert row["validity"] == row["trials"]

    def test_majority_dead_never_decides(self, results):
        majority_rows = [
            row
            for row in results("E5").rows
            if isinstance(row["dead"], str)
        ]
        assert majority_rows
        for row in majority_rows:
            assert row["all_live_decided"] == 0


class TestE6CommitWindow:
    def test_every_delay_blocks(self, results):
        for row in results("E6").rows:
            assert row["blocked"]
            assert row["stalled_undecided"] > 0

    def test_lifting_unblocks(self, results):
        for row in results("E6").rows:
            assert row["decides_after_lift"]
            assert row["lift_steps"] > row["baseline_steps"]


class TestE7BenOr:
    def test_terminates_every_trial(self, results):
        for row in results("E7").rows:
            assert row["terminated"] == row["trials"]

    def test_agreement_never_violated(self, results):
        for row in results("E7").rows:
            assert row["agreement"] == row["trials"]

    def test_shared_coin_beats_private_and_stays_flat(self, results):
        coin_rows = [
            row for row in results("E7").rows if row["panel"] == "coin"
        ]
        by_n = {}
        for row in coin_rows:
            by_n.setdefault(row["N"], {})[row["coin"]] = row
        for n, pair in by_n.items():
            assert (
                pair["shared"]["mean_rounds"]
                < pair["private"]["mean_rounds"]
            ), n
        # Private-coin rounds grow with N; shared stays ~flat.
        sizes = sorted(by_n)
        private_means = [by_n[n]["private"]["mean_rounds"] for n in sizes]
        shared_means = [by_n[n]["shared"]["mean_rounds"] for n in sizes]
        assert private_means == sorted(private_means)
        assert max(shared_means) - min(shared_means) <= 1.5


class TestE8Synchronous:
    def test_all_columns_perfect(self, results):
        for row in results("E8").rows:
            assert row["agreement"] == row["trials"]
            assert row["validity"] == row["trials"]
            assert row["all_live_decided"] == row["trials"]
            assert row["exact_rounds"] == row["trials"]

    def test_both_fault_models_present(self, results):
        panels = {row["panel"] for row in results("E8").rows}
        assert any("crash" in panel for panel in panels)
        assert any("byzantine" in panel for panel in panels)


class TestE9PartialSynchrony:
    def test_agreement_everywhere(self, results):
        for row in results("E9").rows:
            assert row["agreement"] == row["trials"]

    def test_finite_gst_decides_infinite_does_not(self, results):
        for row in results("E9").rows:
            if row["panel"] == "GST":
                if row["param"] == "inf":
                    assert row["all_decided"] == 0
                else:
                    assert row["all_decided"] == row["trials"]

    def test_decision_round_tracks_gst(self, results):
        gst_rows = [
            row
            for row in results("E9").rows
            if row["panel"] == "GST" and row["param"] != "inf"
        ]
        ordered = sorted(gst_rows, key=lambda r: r["param"])
        rounds = [r["mean_decision_round"] for r in ordered]
        assert rounds == sorted(rounds)
        for row in ordered:
            assert row["mean_decision_round"] >= row["param"] - 1


class TestAblations:
    def test_a1_big_budget_never_stuck(self, results):
        for row in results("A1").rows:
            if row["budget"] >= 100_000:
                assert row["outcome"] != "stuck (budget too small)"

    def test_a2_adversary_never_decides_benign_always(self, results):
        for row in results("A2").rows:
            if row["scheduler"] == "flp-adversary":
                assert row["decided"] == 0
            else:
                assert row["decided"] == row["runs"]

    def test_a4_timeouts_trade_blocking_for_disagreement(self, results):
        rows = {row["protocol"]: row for row in results("A4").rows}
        assert rows["arbiter/4"]["exhaustive_agreement"] is True
        assert (
            rows["timeout-arbiter/4"]["exhaustive_agreement"] is False
        )
        # Both look live under fair scheduling — the trap.
        for row in results("A4").rows:
            assert row["fair_decided"] == row["trials"]
            assert row["fair_agreed"] == row["trials"]

    def test_a3_explosion_is_real_at_n4(self):
        # Quick mode runs A3 at N = 3 only (154 configurations for the
        # parity arbiter); one N = 4 closure pins the growth the full
        # grid reports.
        protocol = make_protocol(ParityArbiterProcess, 4)
        growth = GlobalConfigurationGraph(protocol).explore(
            protocol.initial_configuration([0, 0, 1, 1])
        )
        assert growth.complete
        assert len(growth.nodes) == 2174

    def test_a3_graphs_nonempty_and_modes_sound(self, results):
        for row in results("A3").rows:
            assert row["max_graph"] > 1
            assert 0 <= row["bivalent_frac"] <= 1
            assert row["mode"] in ("bivalence-preserving", "fault")
            if row["protocol"] == "parity-arbiter":
                assert row["mode"] == "bivalence-preserving"
                # The fraction is over ALL 2^N initial hypercube roots,
                # uniform-input (univalent) ones included.
                assert row["bivalent_frac"] > 0.1
            if row["protocol"] == "wait-for-all":
                assert row["bivalent_frac"] == 0.0
