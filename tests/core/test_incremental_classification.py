"""The analyzer's incremental classification against the whole-graph oracle.

After every classification pass — i.e. after every cache-missing
valency query — every node's valency must equal what
:func:`tests.reference.classify_whole_graph` assigns when it is run in
lockstep over the same shared graph: under budgets and raised budgets,
the reductions, a fault plan and a checkpoint resume.
"""

import pytest

from repro import registry
from repro.core.checkpoint import save_checkpoint
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.reduction import ReductionPolicy
from repro.core.valency import Valency, ValencyAnalyzer
from repro.faults import FaultedProtocol, FaultPlan, Omission
from repro.protocols import TwoPhaseCommitProcess, make_protocol
from tests.reference import classify_whole_graph


def _checked(analyzer):
    """Wrap *analyzer*'s classifier so that every pass is compared, node
    for node, with the oracle; returns the list of pass sizes."""
    oracle: list = []
    passes: list[int] = []
    classify = analyzer._classify

    def checked_classify():
        classify()
        graph = analyzer.graph
        classify_whole_graph(graph, oracle)
        passes.append(len(graph))
        for node, expected in enumerate(oracle):
            got = analyzer.peek_node(node)
            assert got is (expected or Valency.UNKNOWN), (
                f"pass {len(passes)}: node {node} is {got}, "
                f"oracle says {expected}"
            )

    analyzer._classify = checked_classify
    return passes


def _build(name, n):
    return registry.info(name).build(n)


def test_parity_arbiter4_census_matches_oracle_and_visits_each_node_once():
    analyzer = ValencyAnalyzer(_build("parity-arbiter", 4))
    passes = _checked(analyzer)
    census = analyzer.classify_initials()
    assert len(passes) == 16
    assert Valency.BIVALENT in census.values()
    # Closures are complete, so each pass settles everything it sees:
    # no node is examined twice.
    assert analyzer.stats.classify_visits == len(analyzer.graph)


def test_benor_raised_budget_reversed_queries_match_oracle():
    protocol = _build("benor", 3)
    analyzer = ValencyAnalyzer(protocol, max_configurations=3_000)
    passes = _checked(analyzer)
    initials = list(protocol.initial_configurations())
    for initial in initials:
        analyzer.valency(initial)
    assert len(analyzer.graph) >= 3_000
    visits_at_budget = analyzer.stats.classify_visits
    # Queries after the budget binds intern their roots and expand
    # nothing, so open nodes are not examined again.
    assert visits_at_budget == len(analyzer.graph)
    analyzer.max_configurations = 6_000
    for initial in reversed(initials):
        analyzer.valency(initial)
    assert len(analyzer.graph) >= 6_000
    assert len(passes) == 2 * len(initials)


@pytest.mark.parametrize("name", ["parity-arbiter", "quorum-vote"])
def test_staircase_budgets_match_oracle(name):
    # Small budget steps, cycling through the roots: passes where open
    # nodes get expanded alternate with passes where only new nodes
    # arrive, some of them leading into nodes an earlier pass left open.
    protocol = _build(name, 3)
    analyzer = ValencyAnalyzer(protocol, max_configurations=40)
    passes = _checked(analyzer)
    initials = list(protocol.initial_configurations())
    for step in range(48):
        analyzer.max_configurations += 37 * (step % 3)
        analyzer.valency(initials[step % len(initials)])
    assert len(passes) > len(initials)
    assert Valency.UNKNOWN not in analyzer.classify_initials().values()


def test_new_node_leading_into_open_nodes_matches_oracle():
    # Growth outside the analyzer adds one expanded node whose
    # successors all lie in the explored region, one of them expanded
    # but undetermined, and expands no frontier node: the next pass
    # examines the new node alone and must read the open successor's
    # recorded bits, frontier included.
    protocol = _build("parity-arbiter", 3)
    full = GlobalConfigurationGraph(protocol)
    for initial in protocol.initial_configurations():
        full.explore(initial)
    analyzer = ValencyAnalyzer(protocol, max_configurations=129)
    passes = _checked(analyzer)
    analyzer.classify_initials()
    graph = analyzer.graph

    def leads_into_open_nodes(node):
        if graph.find(full.configuration_at(node)) is not None:
            return False
        inside = [
            graph.find(full.configuration_at(target))
            for target in full.store.edge_targets(node)
            if target != node
        ]
        return None not in inside and any(
            graph.is_expanded(successor)
            and analyzer.peek_node(successor) is Valency.UNKNOWN
            for successor in inside
        )

    root = next(n for n in range(len(full)) if leads_into_open_nodes(n))
    frontier = graph.frontier_ids()
    graph.explore(
        full.configuration_at(root),
        max_configurations=len(graph) + 1,
        max_levels=1,
    )
    assert graph.frontier_ids() == frontier
    visits = analyzer.stats.classify_visits
    analyzer._classify()
    assert analyzer.stats.classify_visits == visits + 1
    assert analyzer.peek(full.configuration_at(root)) is Valency.UNKNOWN
    assert len(passes) == 9
    full.close()


@pytest.mark.parametrize(
    "policy",
    [
        ReductionPolicy(por=True),
        ReductionPolicy(symmetry=True),
        ReductionPolicy(por=True, symmetry=True),
    ],
    ids=["por", "symmetry", "por+symmetry"],
)
def test_reduced_wait_for_all_matches_oracle(policy):
    analyzer = ValencyAnalyzer(_build("wait-for-all", 3), reduction=policy)
    passes = _checked(analyzer)
    analyzer.classify_initials()
    assert passes


def test_faulted_protocol_matches_oracle():
    faulted = FaultedProtocol(
        make_protocol(TwoPhaseCommitProcess, 3),
        FaultPlan([Omission(destination="p0", budget=None)]),
    )
    analyzer = ValencyAnalyzer(faulted)
    passes = _checked(analyzer)
    census = analyzer.classify_initials()
    assert passes
    assert analyzer.stats.fault_drop_edges > 0
    assert set(census.values()) <= {
        Valency.ZERO_VALENT, Valency.ONE_VALENT, Valency.NONE
    }


def test_resumed_analyzer_matches_oracle(tmp_path):
    protocol = _build("benor", 3)
    graph = GlobalConfigurationGraph(protocol)
    graph.explore(
        protocol.initial_configuration([0, 1, 1]), max_configurations=2_500
    )
    path = str(tmp_path / "benor.ckpt")
    save_checkpoint(graph, path)
    graph.close()
    analyzer = ValencyAnalyzer(
        protocol, max_configurations=5_000, resume_from=path
    )
    assert analyzer.stats.resumed_nodes == 2_500
    passes = _checked(analyzer)
    analyzer.classify_initials()
    assert passes
    analyzer.close()
