"""Tests for the figure renderers and DOT export."""

from repro.adversary.lemmas import (
    commutativity_diamond,
    find_bivalent_successor,
)
from repro.analysis.diagrams import figure1, figure2, figure3, graph_to_dot
from repro.core.events import NULL, Event, Schedule
from repro.core.exploration import GlobalConfigurationGraph


def _engine(protocol, root):
    graph = GlobalConfigurationGraph(protocol)
    graph.explore(root)
    return graph


def _failure(arbiter3, arbiter3_analyzer):
    config = arbiter3.initial_configuration([0, 0, 1])
    config = arbiter3.apply_event(config, Event("p1", NULL))
    claim = Event("p0", ("claim", "p1", 0))
    outcome = find_bivalent_successor(
        arbiter3, arbiter3_analyzer, config, claim
    )
    return outcome.failure, claim


class TestFigure1:
    def test_renders_with_real_configurations(self, arbiter3):
        config = arbiter3.initial_configuration([0, 0, 1])
        witness = commutativity_diamond(
            arbiter3,
            config,
            Schedule([Event("p1", NULL)]),
            Schedule([Event("p2", NULL)]),
        )
        text = figure1(witness)
        assert "Figure 1" in text
        assert "C3" in text
        assert "verified" in text


class TestFigures2And3:
    def test_figure2_names_the_pivot(self, arbiter3, arbiter3_analyzer):
        failure, claim = _failure(arbiter3, arbiter3_analyzer)
        text = figure2(failure, claim)
        assert "Figure 2" in text
        assert "p0" in text
        assert "0-valent" in text and "1-valent" in text

    def test_figure3_explains_the_contradiction(
        self, arbiter3, arbiter3_analyzer
    ):
        failure, claim = _failure(arbiter3, arbiter3_analyzer)
        text = figure3(failure, claim)
        assert "Figure 3" in text
        assert "bivalent" in text
        assert "fault mode" in text


class TestDotExport:
    def test_dot_structure(self, arbiter3, arbiter3_analyzer):
        graph = _engine(arbiter3, arbiter3.initial_configuration([0, 0, 1]))
        dot = graph_to_dot(graph, arbiter3_analyzer)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "gold" in dot  # bivalent nodes colored
        assert "->" in dot

    def test_dot_without_analyzer(self, arbiter3):
        graph = _engine(arbiter3, arbiter3.initial_configuration([0, 0, 0]))
        dot = graph_to_dot(graph)
        assert "white" in dot

    def test_dot_respects_max_nodes(self, arbiter3):
        graph = _engine(arbiter3, arbiter3.initial_configuration([0, 0, 1]))
        dot = graph_to_dot(graph, max_nodes=3)
        assert "n3 [" not in dot
