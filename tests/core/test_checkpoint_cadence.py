"""Regression: checkpoint cadence means what the config says.

``every_levels`` counts BFS levels since the last snapshot — the
engine's consistency points — across ``explore`` calls.  Exploration
is deterministic, so the exact write counts below are stable; a
cadence regression moves them.
"""

import pytest

from repro.core.exploration import GlobalConfigurationGraph
from repro.core.resilience import CheckpointConfig
from repro.protocols import ParityArbiterProcess, make_protocol

#: parity-arbiter/3 from [0,0,1]: 154 expansions over 14 BFS levels —
#: the fixed workload every pinned count below is measured against.
EXPANSIONS = 154
LEVELS = 14


@pytest.fixture(scope="module")
def parity3():
    return make_protocol(ParityArbiterProcess, 3)


def _engine(parity3, path, **cadence):
    return GlobalConfigurationGraph(
        parity3,
        checkpoint=CheckpointConfig(path=str(path), **cadence),
    )


class TestPackedEngineCadence:
    def test_every_levels_writes_once_per_n_levels(
        self, parity3, tmp_path
    ):
        graph = _engine(parity3, tmp_path / "cadence.ckpt", every_levels=2)
        graph.explore(parity3.initial_configuration([0, 0, 1]))
        stats = graph.stats
        assert stats.expansions == EXPANSIONS
        assert stats.explore_levels == LEVELS
        assert stats.checkpoints_written == LEVELS // 2  # = 7


class TestCadenceSurvivesRepeatedCalls:
    def test_second_explore_call_does_not_double_count(
        self, parity3, tmp_path
    ):
        """A re-explore of covered ground expands nothing, so the
        snapshot on disk is already this graph: the walk keeps counting
        BFS levels (the documented cadence unit) but writes nothing.
        The cadence stays due, so the next expansion writes at once."""
        graph = _engine(parity3, tmp_path / "repeat.ckpt", every_levels=2)
        root = parity3.initial_configuration([0, 0, 1])
        graph.explore(root)
        written = graph.stats.checkpoints_written
        assert written == LEVELS // 2
        graph.explore(root)  # pure walk: zero new expansions
        assert graph.stats.expansions == EXPANSIONS
        assert graph.stats.checkpoints_written == written
        graph.explore(parity3.initial_configuration([1, 1, 1]))
        assert graph.stats.expansions > EXPANSIONS
        assert graph.stats.checkpoints_written > written
