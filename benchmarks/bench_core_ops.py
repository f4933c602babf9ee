"""Micro-benchmarks of the core model operations.

Not tied to a paper table; these quantify the substrate the proof
machinery stands on — event application, exploration, and valency — so
regressions in the hot paths are visible.

Run directly (``python benchmarks/bench_core_ops.py``) to emit the
``BENCH_core_ops.json`` artifact: it times repeated valency/witness
queries over overlapping regions on the shared incremental engine and
records the engine counters, so the perf trajectory is tracked from
one change to the next.  The last measurements of the retired per-root
re-exploration baseline (a fresh analyzer per query, and the per-root
``explore()`` on arbiter/3) are carried forward unchanged on refresh,
as history.
"""

import json

from repro.core.events import NULL, Event
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.valency import Valency, ValencyAnalyzer
from repro.protocols import (
    ArbiterProcess,
    ParityArbiterProcess,
    WaitForAllProcess,
    make_protocol,
)


def _overlapping_roots(protocol, max_depth: int = 2):
    """The initial hypercube plus every configuration within
    *max_depth* steps — heavily overlapping forward closures."""
    roots = []
    seen = set()
    frontier = list(protocol.initial_configurations())
    for depth in range(max_depth + 1):
        next_frontier = []
        for configuration in frontier:
            if configuration in seen:
                continue
            seen.add(configuration)
            roots.append(configuration)
            if depth < max_depth:
                for event in protocol.enabled_events(configuration):
                    next_frontier.append(
                        protocol.apply_event(configuration, event)
                    )
        frontier = next_frontier
    return roots


def _grow(protocol, root):
    """A fresh engine grown to *root*'s closure."""
    graph = GlobalConfigurationGraph(protocol)
    return graph, graph.explore(root)


def test_apply_event(benchmark):
    protocol = make_protocol(WaitForAllProcess, 3)
    config = protocol.initial_configuration([0, 1, 1])

    after = benchmark(protocol.apply_event, config, Event("p0", NULL))
    assert len(after.buffer) == 2


def test_apply_100_event_schedule(benchmark):
    protocol = make_protocol(ParityArbiterProcess, 3)
    from repro.adversary.flp import FLPAdversary

    certificate = FLPAdversary(protocol).build_run(stages=90)
    config = certificate.initial
    schedule = certificate.schedule[:100]
    assert len(schedule) == 100

    final = benchmark(protocol.apply_schedule, config, schedule)
    assert not final.has_decision


def test_explore_arbiter3(benchmark):
    protocol = make_protocol(ArbiterProcess, 3)
    root = protocol.initial_configuration([0, 0, 1])

    _graph, growth = benchmark(_grow, protocol, root)
    assert growth.complete


def test_explore_wait_for_all3(benchmark):
    protocol = make_protocol(WaitForAllProcess, 3)
    root = protocol.initial_configuration([0, 1, 1])

    _graph, growth = benchmark(_grow, protocol, root)
    assert growth.complete


def test_valency_cold(benchmark):
    protocol = make_protocol(ArbiterProcess, 3)
    root = protocol.initial_configuration([0, 0, 1])

    def classify():
        return ValencyAnalyzer(protocol).valency(root)

    valency = benchmark(classify)
    assert valency.value == "bivalent"


def test_valency_warm_cache(benchmark):
    protocol = make_protocol(ArbiterProcess, 3)
    analyzer = ValencyAnalyzer(protocol)
    root = protocol.initial_configuration([0, 0, 1])
    analyzer.valency(root)

    valency = benchmark(analyzer.valency, root)
    assert valency.value == "bivalent"


def test_valency_overlapping_roots_shared_engine(benchmark):
    """Classify + witness every overlapping root on one shared graph.

    This is the workload the seed re-explored per root; on the shared
    engine everything after the first miss is cache hits.
    """
    protocol = make_protocol(ArbiterProcess, 3)
    roots = _overlapping_roots(protocol)
    analyzer = ValencyAnalyzer(protocol)
    _query_all(analyzer, roots)  # warm: graph fully grown

    def query():
        return _query_all(analyzer, roots)

    bivalent = benchmark(query)
    assert bivalent > 0


def _query_all(analyzer, roots):
    bivalent = 0
    for root in roots:
        if analyzer.valency(root) is Valency.BIVALENT:
            analyzer.bivalence_witness(root)
            bivalent += 1
    return bivalent


def test_enabled_events(benchmark):
    protocol = make_protocol(WaitForAllProcess, 3)
    config = protocol.initial_configuration([0, 1, 1])
    for name in protocol.process_names:
        config = protocol.apply_event(config, Event(name, NULL))

    events = benchmark(protocol.enabled_events, config)
    assert len(events) >= 6


# ---------------------------------------------------------------------------
# Artifact emission (python benchmarks/bench_core_ops.py)
# ---------------------------------------------------------------------------


#: Artifact section holding the retired per-root baseline's last
#: measurements, and the fields it was first recorded under in the
#: ``overlapping_valency_queries`` section.
BASELINE_SECTION = "per_root_baseline"
BASELINE_FIELDS = (
    "shared_engine_s",
    "per_root_reexploration_s",
    "speedup",
    "explore_arbiter3_s",
)


def collect() -> dict:
    """Measure the overlapping-query workload on the shared engine."""
    from artifact import best_of

    protocol = make_protocol(ArbiterProcess, 3)
    roots = _overlapping_roots(protocol)

    def shared_engine():
        analyzer = ValencyAnalyzer(protocol)
        return _query_all(analyzer, roots)

    shared_s = best_of(shared_engine)

    analyzer = ValencyAnalyzer(protocol)
    _query_all(analyzer, roots)
    counters = analyzer.stats.as_dict()

    explore_root = protocol.initial_configuration([0, 0, 1])
    return {
        "protocol": "arbiter/3",
        "query_roots": len(roots),
        "shared_engine_s": round(shared_s, 6),
        "engine_explore_arbiter3_s": round(
            best_of(lambda: _grow(protocol, explore_root)), 6
        ),
        "engine_counters": counters,
    }


def carried_baseline() -> dict | None:
    """The per-root baseline as last recorded in the committed artifact."""
    from artifact import artifact_path

    previous = artifact_path("core_ops")
    if not previous.exists():
        return None
    committed = json.loads(previous.read_text())
    if committed.get(BASELINE_SECTION) is not None:
        return committed[BASELINE_SECTION]
    recorded = committed.get("overlapping_valency_queries", {})
    if "per_root_reexploration_s" not in recorded:
        return None
    return {key: recorded[key] for key in BASELINE_FIELDS if key in recorded}


def main(argv=None) -> int:
    import sys

    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        # CI smoke: exercise the workload once, write no artifact.
        protocol = make_protocol(ArbiterProcess, 3)
        roots = _overlapping_roots(protocol)
        analyzer = ValencyAnalyzer(protocol)
        bivalent = _query_all(analyzer, roots)
        assert bivalent > 0
        counters = analyzer.stats.as_dict()
        print(
            f"smoke ok: {bivalent} bivalent roots of {len(roots)}, "
            f"{counters['interned']} configurations interned"
        )
        return 0

    from artifact import write_artifact

    import bench_lemma3

    sections = {
        "overlapping_valency_queries": collect(),
        "lemma3_staged_adversary": bench_lemma3.collect(),
    }
    baseline = carried_baseline()
    if baseline is not None:
        sections[BASELINE_SECTION] = baseline
    path = write_artifact(sections)
    print(f"wrote {path}")
    shared_s = sections["overlapping_valency_queries"]["shared_engine_s"]
    print(f"shared engine: {shared_s}s for the overlapping queries")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
