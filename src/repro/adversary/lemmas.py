"""Executable checkers for Lemmas 1, 2, and 3.

Each checker turns one of the paper's lemmas into a decision procedure
over a finite protocol instance and returns a certificate (see
:mod:`repro.adversary.certificates`) that can be re-verified by replay.

* **Lemma 1** (commutativity): :func:`commutativity_diamond` closes the
  Figure-1 diamond for any two disjoint applicable schedules;
  :func:`random_disjoint_schedules` generates test instances.
* **Lemma 2** (bivalent initial configuration): :func:`find_lemma2`
  classifies all 2^N initial configurations and extracts either a
  bivalent one (with witness schedules) or — when the protocol's
  decisions are a pure function of its inputs — the adjacent
  0-valent/1-valent *boundary pair* that the proof of Lemma 2
  manipulates, which is exactly what the adversary's fault mode needs.
* **Lemma 3** (bivalent successor): :func:`find_bivalent_successor`
  searches 𝒞 (the configurations reachable without applying ``e``) for a
  member whose ``e``-successor is bivalent.  When the protocol is not
  totally correct the search can fail; the failure analysis then
  recovers the proof's Case-2 structure — a configuration ``E0`` and a
  pivot event ``e'`` of the *same* process with opposite-valent
  ``e``-successors — which certifies that silencing that process stalls
  the protocol.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro.core.configuration import Configuration
from repro.core.errors import AdversaryStuck, FLPError
from repro.core.events import Event, Schedule
from repro.core.protocol import Protocol
from repro.core.valency import Valency, ValencyAnalyzer
from repro.adversary.certificates import (
    CommutativityWitness,
    Lemma2Certificate,
    Lemma3Case,
    Lemma3Certificate,
)

__all__ = [
    "commutativity_diamond",
    "random_disjoint_schedules",
    "Lemma2Result",
    "find_lemma2",
    "Lemma3Failure",
    "Lemma3Outcome",
    "find_bivalent_successor",
]


# ---------------------------------------------------------------------------
# Lemma 1
# ---------------------------------------------------------------------------


def commutativity_diamond(
    protocol: Protocol,
    configuration: Configuration,
    sigma1: Schedule,
    sigma2: Schedule,
) -> CommutativityWitness:
    """Close the Figure-1 diamond for two disjoint applicable schedules.

    Raises
    ------
    ValueError
        If the schedules share a stepping process (Lemma 1's hypothesis
        is violated, so the lemma asserts nothing).
    FLPError
        If the two application orders disagree — impossible under these
        semantics, so it would indicate a model bug.
    """
    if not sigma1.is_disjoint_from(sigma2):
        raise ValueError(
            "Lemma 1 requires the schedules' process sets to be disjoint: "
            f"{sorted(sigma1.processes())} vs {sorted(sigma2.processes())}"
        )
    corner1 = protocol.apply_schedule(configuration, sigma1)
    corner2 = protocol.apply_schedule(configuration, sigma2)
    meet_via_1 = protocol.apply_schedule(corner1, sigma2)
    meet_via_2 = protocol.apply_schedule(corner2, sigma1)
    if meet_via_1 != meet_via_2:
        raise FLPError(
            "Lemma 1 violated: disjoint schedules did not commute — "
            "this indicates a bug in the step semantics"
        )
    return CommutativityWitness(
        configuration=configuration,
        sigma1=sigma1,
        sigma2=sigma2,
        corner1=corner1,
        corner2=corner2,
        meet=meet_via_1,
    )


def random_disjoint_schedules(
    protocol: Protocol,
    configuration: Configuration,
    rng: random.Random,
    max_events: int = 6,
) -> tuple[Schedule, Schedule]:
    """Generate two random disjoint schedules, each applicable to
    *configuration*.

    The roster is split into two nonempty groups; each schedule walks
    forward from *configuration* using only its group's events (so the
    disjointness and applicability hypotheses of Lemma 1 hold by
    construction — applicability of each to the *other's* corner is then
    the lemma's content).
    """
    names = list(protocol.process_names)
    rng.shuffle(names)
    split = rng.randint(1, len(names) - 1)
    groups = (frozenset(names[:split]), frozenset(names[split:]))

    schedules: list[Schedule] = []
    for group in groups:
        events: list[Event] = []
        current = configuration
        for _ in range(rng.randint(0, max_events)):
            candidates = [
                event
                for event in protocol.enabled_events(current)
                if event.process in group
            ]
            if not candidates:
                break
            event = rng.choice(candidates)
            events.append(event)
            current = protocol.apply_event(current, event)
        schedules.append(Schedule(events))
    return schedules[0], schedules[1]


# ---------------------------------------------------------------------------
# Lemma 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma2Result:
    """Everything the Lemma 2 search learned about the initial hypercube.

    Attributes
    ----------
    certificate:
        A bivalent initial configuration with witness — present exactly
        when the protocol has one (Lemma 2 guarantees it for totally
        correct protocols; order-insensitive protocols have none).
    boundary:
        ``(C0, C1, p)``: adjacent initial configurations, 0-valent and
        1-valent respectively, differing only in process *p*'s input.
        This is the proof's pivot object and the adversary's fault-mode
        entry point.  Present whenever the classification contains both
        univalent classes with an adjacent pair.
    none_valent:
        An initial configuration from which *no* decision is reachable,
        if one exists (broken protocols only): the adversary's dead-end
        shortcut.
    classification:
        Valency of every initial configuration, keyed by input vector
        (in :attr:`Protocol.process_names` order).
    """

    certificate: Lemma2Certificate | None
    boundary: tuple[Configuration, Configuration, str] | None
    none_valent: Configuration | None
    classification: dict[tuple[int, ...], Valency]


def _adjacent_pairs(
    protocol: Protocol,
) -> list[tuple[Configuration, Configuration, str]]:
    """All ordered pairs of initial configurations differing in exactly
    one process's input, tagged with that process's name."""
    names = protocol.process_names
    pairs = []
    n = len(names)
    for bits in range(2**n):
        vector = [(bits >> i) & 1 for i in range(n)]
        for index in range(n):
            if vector[index] == 0:
                flipped = list(vector)
                flipped[index] = 1
                pairs.append(
                    (
                        protocol.initial_configuration(vector),
                        protocol.initial_configuration(flipped),
                        names[index],
                    )
                )
    return pairs


def find_lemma2(
    protocol: Protocol, analyzer: ValencyAnalyzer
) -> Lemma2Result:
    """Classify the initial hypercube and extract Lemma 2's objects."""
    classification = analyzer.classify_initials()

    bivalent_certificate: Lemma2Certificate | None = None
    none_valent: Configuration | None = None
    for initial in protocol.initial_configurations():
        valency = classification[protocol.input_vector(initial)]
        if valency is Valency.NONE and none_valent is None:
            none_valent = initial
        if valency is Valency.BIVALENT and bivalent_certificate is None:
            # Pure lookup: the classification above already grew the
            # shared graph past this initial, so the witness schedules
            # are read off recorded edges (no second exploration).
            witness = analyzer.bivalence_witness(initial)
            if witness is None:  # pragma: no cover - guarded by valency
                continue
            bivalent_certificate = Lemma2Certificate(
                bivalent_initial=initial, witness=witness
            )

    boundary: tuple[Configuration, Configuration, str] | None = None
    adjacent_zero = adjacent_one = None
    differing = None
    for low, high, process in _adjacent_pairs(protocol):
        low_valency = classification[protocol.input_vector(low)]
        high_valency = classification[protocol.input_vector(high)]
        pair = {low_valency, high_valency}
        if pair == {Valency.ZERO_VALENT, Valency.ONE_VALENT}:
            if low_valency is Valency.ZERO_VALENT:
                boundary = (low, high, process)
                adjacent_zero, adjacent_one = low, high
            else:
                boundary = (high, low, process)
                adjacent_zero, adjacent_one = high, low
            differing = process
            break

    if bivalent_certificate is not None and adjacent_zero is not None:
        bivalent_certificate = Lemma2Certificate(
            bivalent_initial=bivalent_certificate.bivalent_initial,
            witness=bivalent_certificate.witness,
            adjacent_zero_valent=adjacent_zero,
            adjacent_one_valent=adjacent_one,
            differing_process=differing,
        )

    return Lemma2Result(
        certificate=bivalent_certificate,
        boundary=boundary,
        none_valent=none_valent,
        classification=classification,
    )


# ---------------------------------------------------------------------------
# Lemma 3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma3Failure:
    """The Case-2 structure recovered when no bivalent successor exists.

    ``anchor`` (the proof's ``C0``) lies in 𝒞; ``pivot_event`` (``e'``)
    steps the *same* process as the forced event ``e``, and the
    ``e``-successors of ``anchor`` and ``pivot_event(anchor)`` are
    univalent with *opposite* values.  By the paper's Case-2 argument, no
    deciding run from ``anchor`` avoids that process — silencing it
    stalls the protocol forever.
    """

    anchor: Configuration
    pivot_event: Event
    schedule_to_anchor: Schedule
    anchor_valency: Valency
    neighbor_valency: Valency
    faulty_process: str
    configurations_examined: int


@dataclass(frozen=True)
class Lemma3Outcome:
    """Result of the bivalent-successor search for one ``(C, e)`` pair.

    Exactly one of ``certificate`` (success), ``failure`` (Case-2
    structure), or ``dead_end`` (a NONE-valent successor — broken
    protocols only) is set; all ``None`` means the search was inexact
    (budget exhausted or unknown valencies) and nothing can be asserted.
    """

    certificate: Lemma3Certificate | None = None
    failure: Lemma3Failure | None = None
    dead_end: tuple[Schedule, Configuration] | None = None
    exact: bool = True
    configurations_examined: int = 0

    @property
    def found(self) -> bool:
        return self.certificate is not None


def find_bivalent_successor(
    protocol: Protocol,
    analyzer: ValencyAnalyzer,
    configuration: Configuration,
    event: Event,
    max_configurations: int = 100_000,
) -> Lemma3Outcome:
    """Search 𝒞 for a configuration whose ``event``-successor is bivalent.

    𝒞 is explored breadth-first *incrementally*: each discovered member's
    ``e``-successor is classified immediately, so the common case — a
    bivalent successor within a step or two of C — returns without
    materializing the rest of 𝒞, and the certificate's avoiding schedule
    is shortest by BFS order.  Only the failure analysis (Case 2) needs
    𝒞 in full.

    The paper's observation that "e is applicable to every E ∈ 𝒞" holds
    by construction: the only way to consume ``e``'s message is to apply
    ``e`` itself, which the avoidance constraint forbids.

    The search runs on packed rows of the analyzer's engine (so
    *protocol* must be the analyzer's protocol): each member steps
    ``e`` through the engine's transition kernel, the analyzer answers
    the successor's valency for the packed row, and then the member's
    full kernel row, minus ``e``, extends 𝒞 — in that order, so state
    and buffer ids allocate exactly as the engine's own successor order
    dictates.  Rich configurations are decoded only for the returned
    outcome.  𝒞 is searched here rather than read off the engine's
    edges: under ``--por`` / ``--symmetry`` those edges are pruned or
    quotiented.

    Per-stage cost rides on the analyzer's shared engine: every
    valency query classifies against the one global configuration
    graph, so successive stages of the staged adversary — whose 𝒞
    regions overlap heavily — resolve almost entirely from cache
    instead of re-exploring (watch ``analyzer.stats``).
    """
    graph = analyzer.graph
    kernel = graph.kernel
    decode = graph.codec.decode
    step = kernel.step
    forced = kernel.event_id(event)

    # Incremental BFS state over packed rows.  parents[i] = (parent id,
    # kernel event id of the edge); edges are (source, eid, target).
    members: list[tuple[int, ...]] = [graph.codec.encode(configuration)]
    index: dict[tuple[int, ...], int] = {members[0]: 0}
    parents: dict[int, tuple[int, int]] = {}
    edges: list[tuple[int, int, int]] = []
    queue: deque[int] = deque([0])
    successor_valency: dict[int, Valency] = {}
    dead_end_node: int | None = None
    exact = True

    def path_to(node: int) -> Schedule:
        steps: list[Event] = []
        while node != 0:
            node, eid = parents[node]
            steps.append(kernel.event_at(eid))
        steps.reverse()
        return Schedule(steps)

    while queue:
        node = queue.popleft()
        member = members[node]
        # Raises InvalidEvent if `event`'s message is missing — the
        # model invariant above makes that impossible inside 𝒞.
        valency = analyzer.valency(step(member, forced))
        successor_valency[node] = valency
        if valency is Valency.BIVALENT:
            avoiding = path_to(node)
            successor = decode(step(member, forced))
            witness = analyzer.bivalence_witness(successor)
            assert witness is not None  # valency said BIVALENT
            certificate = Lemma3Certificate(
                configuration=configuration,
                event=event,
                avoiding_schedule=avoiding,
                result=successor,
                witness=witness,
                case=(
                    Lemma3Case.IMMEDIATE
                    if len(avoiding) == 0
                    else Lemma3Case.DEFERRED
                ),
                configurations_examined=len(members),
                search_depth=len(avoiding),
            )
            return Lemma3Outcome(
                certificate=certificate,
                exact=True,
                configurations_examined=len(members),
            )
        if valency is Valency.UNKNOWN:
            exact = False
        elif valency is Valency.NONE and dead_end_node is None:
            dead_end_node = node
        # Expand the node within 𝒞 (never applying `event`).
        for eid, successor in kernel.expand_row(member):
            if eid == forced:
                continue
            if successor is None:
                successor = member
            existing = index.get(successor)
            if existing is None:
                if len(members) >= max_configurations:
                    exact = False
                    continue
                existing = len(members)
                members.append(successor)
                index[successor] = existing
                parents[existing] = (node, eid)
                queue.append(existing)
            edges.append((node, eid, existing))

    if dead_end_node is not None:
        return Lemma3Outcome(
            dead_end=(
                path_to(dead_end_node).then(event),
                decode(step(members[dead_end_node], forced)),
            ),
            exact=exact,
            configurations_examined=len(members),
        )

    if not exact:
        return Lemma3Outcome(
            exact=False, configurations_examined=len(members)
        )

    # No bivalent successor anywhere in e(𝒞): recover the Case-2 pivot.
    for source, via_eid, target in edges:
        source_valency = successor_valency[source]
        target_valency = successor_valency[target]
        if (
            source_valency.is_univalent
            and target_valency.is_univalent
            and source_valency is not target_valency
        ):
            via = kernel.event_at(via_eid)
            if via.process != event.process:
                # Lemma 1 makes this impossible: with p' != p the
                # diamond would give a v-valent successor of a
                # (1-v)-valent configuration.
                raise FLPError(
                    "Lemma 3 Case-1 anomaly: opposite-valent neighbors "
                    f"via foreign process {via.process!r} — model bug"
                )
            return Lemma3Outcome(
                failure=Lemma3Failure(
                    anchor=decode(members[source]),
                    pivot_event=via,
                    schedule_to_anchor=path_to(source),
                    anchor_valency=source_valency,
                    neighbor_valency=target_valency,
                    faulty_process=event.process,
                    configurations_examined=len(members),
                ),
                exact=True,
                configurations_examined=len(members),
            )

    # All successors univalent with the SAME value while C is bivalent
    # would contradict the Fi argument of the proof; reaching here means
    # C was not bivalent in the first place.
    raise AdversaryStuck(
        f"no bivalent successor, no opposite-valent pivot for {event!r}: "
        "the starting configuration is not bivalent (or valency data is "
        "inconsistent)"
    )
