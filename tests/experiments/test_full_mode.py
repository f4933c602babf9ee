"""Opt-in full-parameter experiment runs.

The quick-mode shape tests run on every ``pytest``; the full grids take
minutes and are for release validation:

    FLPKIT_FULL=1 pytest tests/experiments/test_full_mode.py -q
"""

import os

import pytest

from repro.experiments.harness import available_experiments, run_experiment

FULL = os.environ.get("FLPKIT_FULL") == "1"

pytestmark = pytest.mark.skipif(
    not FULL, reason="set FLPKIT_FULL=1 to run the full grids"
)


@pytest.mark.parametrize("exp_id", sorted(available_experiments()))
def test_full_mode_runs_clean(exp_id):
    result = run_experiment(exp_id, quick=False, seed=0)
    assert result.rows
    assert not result.quick


def test_full_mode_theorem1_includes_theorem2_protocol():
    result = run_experiment("E4", quick=False, seed=0)
    protocols = {row["protocol"] for row in result.rows}
    assert "initially-dead/3" in protocols
    for row in result.rows:
        assert row["decisions"] == 0
        assert row["verified"]


def test_full_mode_a3_graphs_grow_with_n():
    result = run_experiment("A3", quick=False, seed=0)
    by_family = {}
    for row in result.rows:
        by_family.setdefault(row["protocol"], []).append(row)
    for rows in by_family.values():
        ordered = sorted(rows, key=lambda row: row["N"])
        graphs = [row["max_graph"] for row in ordered]
        assert graphs == sorted(graphs)
