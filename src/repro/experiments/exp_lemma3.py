"""E3 — Lemma 3 / Figures 2-3: bivalent successors under forced events.

From sampled bivalent configurations C and every applicable event e,
search 𝒞 for a member whose e-successor is bivalent.  Three outcomes are
possible against real (non-totally-correct) protocols:

* **found/immediate** — e(C) itself is bivalent (σ = ∅);
* **found/deferred** — a nonempty avoiding schedule was needed;
* **case-2 failure** — every configuration in e(𝒞) is univalent, and the
  checker recovers the paper's Figure-2/3 pivot structure, certifying
  that silencing e's process stalls the protocol.

The paper proves a totally correct protocol would *always* land in
"found"; the failures we observe are therefore exactly the protocol's
windows of vulnerability, localized to a process.
"""

from __future__ import annotations

from repro.adversary.lemmas import find_bivalent_successor
from repro.core.valency import Valency, ValencyAnalyzer
from repro.experiments.harness import ExperimentResult, experiment
from repro.experiments.zoo import bivalent_zoo
from repro.adversary.certificates import Lemma3Case

__all__ = ["run"]


@experiment("E3", "Lemma 3 (Figures 2-3): bivalent successors")
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    sample_limit = 40 if quick else 200
    rows = []
    for label, protocol in bivalent_zoo(quick):
        analyzer = ValencyAnalyzer(protocol)
        # Collect bivalent configurations from every initial hypercube
        # corner, breadth-first, up to the sample budget.  Roots reach
        # disjoint sets (inputs are part of every state), so each
        # root's ids are in its own BFS discovery order.
        graph = analyzer.graph
        bivalent_configurations = []
        for initial in protocol.initial_configurations():
            for node in sorted(graph.explore(initial).nodes):
                configuration = graph.configuration_at(node)
                if analyzer.valency(configuration) is Valency.BIVALENT:
                    bivalent_configurations.append(configuration)
        # Deduplicate while preserving order, then trim.
        seen = set()
        sampled = []
        for configuration in bivalent_configurations:
            if configuration not in seen:
                seen.add(configuration)
                sampled.append(configuration)
            if len(sampled) >= sample_limit:
                break

        searches = found_immediate = found_deferred = failures = 0
        total_depth = 0
        total_examined = 0
        for configuration in sampled:
            for event in protocol.enabled_events(configuration):
                searches += 1
                outcome = find_bivalent_successor(
                    protocol, analyzer, configuration, event
                )
                total_examined += outcome.configurations_examined
                if outcome.certificate is not None:
                    if outcome.certificate.case is Lemma3Case.IMMEDIATE:
                        found_immediate += 1
                    else:
                        found_deferred += 1
                    total_depth += outcome.certificate.search_depth
                elif outcome.failure is not None:
                    failures += 1
        rows.append(
            {
                "protocol": label,
                "bivalent_configs": len(sampled),
                "searches": searches,
                "immediate": found_immediate,
                "deferred": found_deferred,
                "case2_failures": failures,
                "avg_sigma_len": (
                    total_depth / max(found_immediate + found_deferred, 1)
                ),
                "avg_examined": total_examined / max(searches, 1),
            }
        )
    return ExperimentResult(
        exp_id="E3",
        title="Lemma 3 (Figures 2-3): bivalent successors",
        rows=tuple(rows),
        notes=(
            "immediate + deferred = stages the adversary can extend; "
            "case2_failures localize the protocol's vulnerability to "
            "one process (Figure 3's argument), handing the adversary "
            "its single fault",
            "a totally correct protocol would show case2_failures == 0 "
            "for every event — Theorem 1 says no such protocol exists",
        ),
        seed=seed,
        quick=quick,
    )
