#!/usr/bin/env python3
"""Theorem 1, step by step: watch the adversary think.

This walkthrough narrates the staged construction from Section 3 of the
paper against the parity-arbiter protocol:

* Lemma 2 finds a bivalent initial configuration (and we print the
  valency census of the whole initial hypercube);
* each stage forces the queue-head process to receive its earliest
  message — after a Lemma-3 search steers to a point where that forced
  event preserves bivalence;
* the paper's figures are rendered from the actual configurations the
  search produced;
* the final certificate is replayed and verified.

Run:  python examples/adversary_walkthrough.py
"""

from repro import FLPAdversary, make_protocol
from repro.adversary.lemmas import find_bivalent_successor, find_lemma2
from repro.analysis.diagrams import figure1, figure2, figure3, graph_to_dot
from repro.analysis.valency_map import build_valency_map
from repro.adversary.lemmas import commutativity_diamond, random_disjoint_schedules
from repro.core.events import NULL, Event
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.valency import ValencyAnalyzer
from repro.protocols import ArbiterProcess, ParityArbiterProcess

import random


def main() -> None:
    protocol = make_protocol(ParityArbiterProcess, 3)
    analyzer = ValencyAnalyzer(protocol)

    print("== Lemma 2: the initial hypercube (Gray-code walk) ==")
    from repro.analysis.diagrams import hypercube_diagram

    lemma2 = find_lemma2(protocol, analyzer)
    print(hypercube_diagram(lemma2.classification))
    start = lemma2.certificate.bivalent_initial
    print(f"  starting from bivalent initial {start!r}")

    print()
    print("== Figure 1: Lemma 1's diamond, from live data ==")
    rng = random.Random(1)
    sigma1, sigma2 = random_disjoint_schedules(protocol, start, rng)
    print(figure1(commutativity_diamond(protocol, start, sigma1, sigma2)))

    print()
    print("== The staged construction (Theorem 1) ==")
    adversary = FLPAdversary(protocol, analyzer=analyzer)
    certificate = adversary.build_run(stages=12)
    for record in certificate.stages:
        print(
            f"  stage {record.index:2d}: force {record.forced_event!r} "
            f"via σ of length {record.schedule_length - 1} "
            f"({record.case.value}; examined "
            f"{record.configurations_examined} configurations)"
        )
    print(f"  outcome: {certificate.summary()}")
    print(f"  verified by replay: {certificate.verify(protocol)}")

    print()
    print("== The same run as a space-time diagram ==")
    from repro.analysis.spacetime import spacetime_diagram

    print(
        spacetime_diagram(
            protocol, certificate.initial, certificate.schedule,
            max_rows=10,
        )
    )

    print()
    print("== Valency census of the reachable graph ==")
    vmap = build_valency_map(protocol, start, analyzer=analyzer)
    print(f"  {vmap.summary()}")
    print(
        "  the adversary lives in the bivalent region "
        f"({vmap.bivalent_fraction:.0%} of the graph) and never takes "
        f"one of the {len(vmap.critical_steps)} critical steps."
    )

    print()
    print("== Figures 2-3: what a Lemma-3 failure looks like ==")
    print(
        "  (The parity arbiter never fails the search; its plain cousin"
    )
    print("  fails at the fresh-claim delivery — the serialization point.)")
    plain = make_protocol(ArbiterProcess, 3)
    plain_analyzer = ValencyAnalyzer(plain)
    config = plain.initial_configuration([0, 0, 1])
    config = plain.apply_event(config, Event("p1", NULL))
    claim = Event("p0", ("claim", "p1", 0))
    outcome = find_bivalent_successor(plain, plain_analyzer, config, claim)
    print(figure2(outcome.failure, claim))
    print()
    print(figure3(outcome.failure, claim))

    print()
    print("== Bonus: DOT export of the reachable graph ==")
    graph = GlobalConfigurationGraph(plain)
    graph.explore(plain.initial_configuration([0, 0, 1]))
    dot = graph_to_dot(graph, plain_analyzer)
    path = "arbiter_configurations.dot"
    with open(path, "w") as handle:
        handle.write(dot)
    print(
        f"  wrote {path} ({len(graph)} nodes) — render with "
        "`dot -Tsvg` to see the gold bivalent region."
    )


if __name__ == "__main__":
    main()
