"""Bench A3 — state explosion vs. N, plus direct N-scaling micro-benches."""

from repro.core.exploration import GlobalConfigurationGraph
from repro.protocols import ParityArbiterProcess, make_protocol


def test_a3_table(benchmark, run_and_render):
    result = run_and_render(benchmark, "A3", rounds=1)
    by_family = {}
    for row in result.rows:
        by_family.setdefault(row["protocol"], []).append(row)
    for rows in by_family.values():
        sizes = sorted(rows, key=lambda r: r["N"])
        graphs = [r["max_graph"] for r in sizes]
        assert graphs == sorted(graphs)  # monotone growth in N


def test_explore_parity_arbiter_n4(benchmark):
    protocol = make_protocol(ParityArbiterProcess, 4)
    root = protocol.initial_configuration([0, 0, 1, 1])

    def grow():
        return GlobalConfigurationGraph(protocol).explore(root)

    growth = benchmark(grow)
    assert growth.complete
    assert len(growth.nodes) > 1000  # the explosion is real
