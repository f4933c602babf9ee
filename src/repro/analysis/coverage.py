"""Scheduler coverage: how much of the state space does testing see?

Experiment A4's punchline is that the timeout protocol "looks fine"
under schedulers that decide quickly: its disagreeing configurations
are reachable but rarely *reached*.  This module quantifies that
blind spot: run a scheduler from one initial configuration across many
seeds, collect the set of configurations visited, and compare against
the exhaustively known reachable set.

The resulting number — visited / reachable — is the honest answer to
"how much did my test suite actually exercise?", and its typically tiny
value for random testing is the empirical case for the exhaustive
machinery this library is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.configuration import Configuration
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.protocol import Protocol
from repro.core.simulation import StopCondition, simulate

__all__ = ["CoverageReport", "measure_coverage"]


@dataclass(frozen=True)
class CoverageReport:
    """Visited-vs-reachable accounting for one scheduler family."""

    reachable: int
    visited: int
    runs: int
    decided_runs: int
    #: Reachable configurations carrying a decision that were visited.
    decision_configs_reachable: int
    decision_configs_visited: int

    @property
    def fraction(self) -> float:
        """Share of the reachable set any run ever touched."""
        if self.reachable == 0:
            return 0.0
        return self.visited / self.reachable

    @property
    def decision_fraction(self) -> float:
        """Share of *deciding* configurations touched — the corner
        where safety violations hide."""
        if self.decision_configs_reachable == 0:
            return 0.0
        return (
            self.decision_configs_visited
            / self.decision_configs_reachable
        )

    def summary(self) -> str:
        return (
            f"{self.visited}/{self.reachable} configurations visited "
            f"({self.fraction:.1%}) over {self.runs} runs; "
            f"decision configurations: "
            f"{self.decision_configs_visited}/"
            f"{self.decision_configs_reachable} "
            f"({self.decision_fraction:.1%})"
        )


def measure_coverage(
    protocol: Protocol,
    initial: Configuration,
    scheduler_factory: Callable[[int], object],
    runs: int = 50,
    max_steps: int = 400,
    max_configurations: int = 200_000,
) -> CoverageReport:
    """Measure state-space coverage of a scheduler family.

    Parameters
    ----------
    scheduler_factory:
        ``seed -> scheduler``; one fresh scheduler per run.
    runs:
        Number of seeded runs to union over.
    """
    graph = GlobalConfigurationGraph(protocol)
    growth = graph.explore(initial, max_configurations=max_configurations)
    reachable = {graph.configuration_at(node) for node in growth.nodes}
    deciding_reachable = {
        configuration
        for configuration in reachable
        if configuration.has_decision
    }

    visited: set[Configuration] = {initial}
    decided_runs = 0
    for seed in range(runs):
        result = simulate(
            protocol,
            initial,
            scheduler_factory(seed),
            max_steps=max_steps,
            stop=StopCondition.ALL_DECIDED,
        )
        current = initial
        for event in result.schedule:
            current = protocol.apply_event(current, event)
            visited.add(current)
        if result.decided:
            decided_runs += 1

    # Visited configurations outside the explored graph can only occur
    # when exploration was budget-bounded; clamp to the known set so the
    # fraction stays a fraction.
    visited &= reachable

    return CoverageReport(
        reachable=len(reachable),
        visited=len(visited),
        runs=runs,
        decided_runs=decided_runs,
        decision_configs_reachable=len(deciding_reachable),
        decision_configs_visited=len(visited & deciding_reachable),
    )
