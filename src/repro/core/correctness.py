"""Partial-correctness checking (paper, Section 2).

"A consensus protocol is *partially correct* if it satisfies two
conditions: (1) no accessible configuration has more than one decision
value; (2) for each v ∈ {0, 1}, some accessible configuration has
decision value v."

For finite protocol instances both conditions are decidable by exhausting
the accessible set.  This module also provides the standard *validity*
check (every reachable decision value is some process's input), which is
stronger than condition (2) and satisfied by all non-degenerate protocols
in the zoo; the paper's trivial always-0 protocol fails condition (2) and
serves as this module's negative control.

Both checks read per-root closures off one engine, grown from every
initial configuration in turn.  Each grows a fresh engine by default;
given ``graph=``, they read (and grow as needed) that engine instead,
so ``repro check`` explores the accessible set once for both reports
and the valency census.  The engine must be unreduced: partial-order
reduction prunes the accessible set and the symmetry quotient folds it,
so their explored counts are not the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.configuration import Configuration
from repro.core.exploration import (
    DEFAULT_MAX_CONFIGURATIONS,
    GlobalConfigurationGraph,
    GrowthResult,
)
from repro.core.protocol import Protocol
from repro.core.values import ONE, ZERO

__all__ = [
    "PartialCorrectnessReport",
    "check_partial_correctness",
    "ValidityReport",
    "check_validity",
    "DeterminismReport",
    "check_determinism",
]


@dataclass(frozen=True)
class PartialCorrectnessReport:
    """Outcome of checking the two partial-correctness conditions.

    Attributes
    ----------
    agreement_ok:
        Condition (1): no explored accessible configuration carries two
        different decision values.
    zero_reachable, one_reachable:
        Condition (2), per value: some accessible configuration decides
        that value.
    complete:
        Whether the accessible set was explored exhaustively.  If
        ``False``, a ``True`` verdict on agreement is only "no violation
        found within budget".
    disagreement_witness:
        An accessible configuration with |decision values| ≥ 2, when one
        was found.
    configurations_explored:
        Total distinct configurations examined, over all 2^N initial
        configurations.
    """

    agreement_ok: bool
    zero_reachable: bool
    one_reachable: bool
    complete: bool
    disagreement_witness: Configuration | None
    configurations_explored: int

    @property
    def is_partially_correct(self) -> bool:
        """Both of the paper's conditions hold (within the explored set)."""
        return self.agreement_ok and self.zero_reachable and self.one_reachable

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verdict = (
            "partially correct"
            if self.is_partially_correct
            else "NOT partially correct"
        )
        caveat = "" if self.complete else " (bounded exploration)"
        return (
            f"{verdict}{caveat}: agreement={self.agreement_ok}, "
            f"0-reachable={self.zero_reachable}, "
            f"1-reachable={self.one_reachable}, "
            f"explored={self.configurations_explored}"
        )


def _root_closures(
    graph: GlobalConfigurationGraph, max_configurations: int
) -> Iterator[tuple[Configuration, GrowthResult]]:
    """Grow *graph* from every initial configuration in turn.

    Yields ``(initial, growth)`` per root, in hypercube order.
    Each root may intern *max_configurations* configurations on top of
    what the engine already holds, so the budget is per root; on a
    complete engine each root is a pure walk.  Node ids follow
    breadth-first discovery order from the root that first reached
    them and decision lists grow in id order, so the first match in a
    root's closure is the one its search meets first.
    """
    for initial in graph.protocol.initial_configurations():
        growth = graph.explore(
            initial, max_configurations=len(graph) + max_configurations
        )
        yield initial, growth


def check_partial_correctness(
    protocol: Protocol,
    max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
    *,
    graph: GlobalConfigurationGraph | None = None,
) -> PartialCorrectnessReport:
    """Check the paper's partial-correctness conditions by exploration.

    Explores the accessible set from every initial configuration (all
    2^N input vectors) under the given per-root budget, on *graph* (an
    unreduced engine of *protocol*) or a fresh engine.
    """
    agreement_ok = True
    witness: Configuration | None = None
    zero_reachable = one_reachable = False
    complete = True
    explored = 0
    if graph is None:
        graph = GlobalConfigurationGraph(protocol)
    for _initial, growth in _root_closures(graph, max_configurations):
        nodes = growth.nodes
        explored += len(nodes)
        complete = complete and growth.complete
        zeros = [n for n in graph.decision_nodes(ZERO) if n in nodes]
        ones = {n for n in graph.decision_nodes(ONE) if n in nodes}
        zero_reachable = zero_reachable or bool(zeros)
        one_reachable = one_reachable or bool(ones)
        split = next((n for n in zeros if n in ones), None)
        if witness is None and split is not None:
            agreement_ok = False
            witness = graph.configuration_at(split)

    return PartialCorrectnessReport(
        agreement_ok=agreement_ok,
        zero_reachable=zero_reachable,
        one_reachable=one_reachable,
        complete=complete,
        disagreement_witness=witness,
        configurations_explored=explored,
    )


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the (stronger than the paper's) validity check.

    Validity: in every accessible configuration, every decided value was
    some process's input.  In particular, with all-zero inputs the only
    reachable decision is 0, and symmetrically for 1.
    """

    valid: bool
    complete: bool
    violation_witness: Configuration | None
    violating_value: int | None
    configurations_explored: int


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of spot-checking transition-function determinism.

    The paper's model *requires* deterministic processes ("p acts
    deterministically according to a transition function"), and every
    soundness argument in the adversary leans on it, but Python cannot
    enforce it statically — a custom protocol reading wall-clock time
    or an unseeded RNG would silently break everything downstream.
    :func:`check_determinism` re-executes sampled transitions and
    compares results.
    """

    deterministic: bool
    transitions_checked: int
    violation_process: str | None
    violation_detail: str | None

    def summary(self) -> str:
        if self.deterministic:
            return (
                f"deterministic across {self.transitions_checked} "
                "re-executed transitions"
            )
        return (
            f"NONDETERMINISTIC: process {self.violation_process} — "
            f"{self.violation_detail}"
        )


def check_determinism(
    protocol: Protocol,
    walks: int = 20,
    max_steps: int = 15,
    seed: int = 0,
) -> DeterminismReport:
    """Spot-check that every sampled transition replays identically.

    Random walks from random initial configurations; at each step the
    chosen event's transition is computed twice (fresh calls into the
    process automaton) and the resulting ``(state, sends)`` pairs must
    match exactly.  A probabilistic check, but one that catches the
    common nondeterminism bugs (clocks, unseeded RNGs, dict-order
    dependence under hash randomization within a process' own logic).
    """
    import random as _random

    rng = _random.Random(seed)
    checked = 0
    for _ in range(walks):
        inputs = [rng.randint(0, 1) for _ in protocol.process_names]
        configuration = protocol.initial_configuration(inputs)
        for _ in range(rng.randint(1, max_steps)):
            events = protocol.enabled_events(configuration)
            event = rng.choice(events)
            process = protocol.process(event.process)
            state = configuration.state_of(event.process)
            first = process.apply(state, event.value)
            second = process.apply(state, event.value)
            checked += 1
            if first != second:
                return DeterminismReport(
                    deterministic=False,
                    transitions_checked=checked,
                    violation_process=event.process,
                    violation_detail=(
                        f"transition on {event!r} returned two "
                        "different results"
                    ),
                )
            configuration = protocol.apply_event(configuration, event)
    return DeterminismReport(
        deterministic=True,
        transitions_checked=checked,
        violation_process=None,
        violation_detail=None,
    )


def check_validity(
    protocol: Protocol,
    max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
    *,
    graph: GlobalConfigurationGraph | None = None,
) -> ValidityReport:
    """Check validity over the accessible set of every initial config.

    Stops at the first violating root; *graph* as for
    :func:`check_partial_correctness`.
    """
    complete = True
    explored = 0
    if graph is None:
        graph = GlobalConfigurationGraph(protocol)
    for initial, growth in _root_closures(graph, max_configurations):
        nodes = growth.nodes
        explored += len(nodes)
        complete = complete and growth.complete
        allowed = set(protocol.input_vector(initial))
        for value in (ZERO, ONE):
            if value in allowed:
                continue
            node = next(
                (n for n in graph.decision_nodes(value) if n in nodes), None
            )
            if node is not None:
                return ValidityReport(
                    valid=False,
                    complete=complete,
                    violation_witness=graph.configuration_at(node),
                    violating_value=value,
                    configurations_explored=explored,
                )
    return ValidityReport(
        valid=True,
        complete=complete,
        violation_witness=None,
        violating_value=None,
        configurations_explored=explored,
    )
