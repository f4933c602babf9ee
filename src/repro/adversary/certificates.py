"""Machine-checkable evidence objects for the paper's lemmas and theorem.

Every checker in :mod:`repro.adversary.lemmas` and the adversary in
:mod:`repro.adversary.flp` returns a *certificate*: a frozen record of
the witnessing schedules and configurations, carrying its own
``verify(protocol)`` method that replays the evidence through the
protocol semantics from scratch.  Tests and benchmarks re-verify
certificates independently of the machinery that produced them — the
reproduction's answer to "how do we know the adversary isn't cheating?".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.configuration import Configuration
from repro.core.events import Event, Schedule
from repro.core.protocol import Protocol
from repro.core.valency import BivalenceWitness
from repro.core.values import ONE, ZERO

__all__ = [
    "CommutativityWitness",
    "Lemma2Certificate",
    "Lemma3Case",
    "Lemma3Certificate",
    "AdversaryMode",
    "StageRecord",
    "NonDecidingRunCertificate",
]


@dataclass(frozen=True)
class CommutativityWitness:
    """Lemma 1 / Figure 1: one concrete commuting diamond.

    From ``configuration``, the disjoint schedules ``sigma1`` and
    ``sigma2`` lead to ``corner1`` and ``corner2``; applying the *other*
    schedule to each corner closes the diamond at ``meet``.
    """

    configuration: Configuration
    sigma1: Schedule
    sigma2: Schedule
    corner1: Configuration
    corner2: Configuration
    meet: Configuration

    def verify(self, protocol: Protocol) -> bool:
        """Replay the diamond: disjointness + all four sides + equality."""
        if not self.sigma1.is_disjoint_from(self.sigma2):
            return False
        corner1 = protocol.apply_schedule(self.configuration, self.sigma1)
        corner2 = protocol.apply_schedule(self.configuration, self.sigma2)
        meet_via_1 = protocol.apply_schedule(corner1, self.sigma2)
        meet_via_2 = protocol.apply_schedule(corner2, self.sigma1)
        return (
            corner1 == self.corner1
            and corner2 == self.corner2
            and meet_via_1 == self.meet
            and meet_via_2 == self.meet
        )


@dataclass(frozen=True)
class Lemma2Certificate:
    """Lemma 2: a bivalent initial configuration, with the chain context.

    ``bivalent_initial`` is the found configuration; ``witness`` holds
    schedules reaching both decisions.  When the search also located an
    adjacent 0-valent/1-valent pair on the input hypercube (the objects
    the proof manipulates), they are recorded for the narrative.
    """

    bivalent_initial: Configuration
    witness: BivalenceWitness
    adjacent_zero_valent: Configuration | None = None
    adjacent_one_valent: Configuration | None = None
    differing_process: str | None = None

    def verify(self, protocol: Protocol) -> bool:
        """Check the configuration is initial and the witness replays."""
        if self.bivalent_initial.buffer != type(
            self.bivalent_initial.buffer
        ).empty():
            return False
        if any(
            state.decided
            for _, state in self.bivalent_initial.states()
        ):
            return False
        return self.witness.verify(protocol)


class Lemma3Case(enum.Enum):
    """Which part of Lemma 3's structure a witness instantiates."""

    #: ``e(C)`` itself is bivalent — the trivial (and most common) case.
    IMMEDIATE = "immediate"
    #: A nonempty avoiding schedule σ was needed: the bivalent member of
    #: e(𝒞) is ``e(σ(C))`` with σ ≠ ∅.
    DEFERRED = "deferred"


@dataclass(frozen=True)
class Lemma3Certificate:
    """Lemma 3: a bivalent configuration in ``e(𝒞)``.

    ``avoiding_schedule`` (σ) never applies ``event`` (e); the claimed
    bivalent configuration is ``e(σ(C))``, witnessed by ``witness``.
    Search-cost fields feed the A1 ablation.
    """

    configuration: Configuration
    event: Event
    avoiding_schedule: Schedule
    result: Configuration
    witness: BivalenceWitness
    case: Lemma3Case
    configurations_examined: int = 0
    search_depth: int = 0

    def verify(self, protocol: Protocol) -> bool:
        """Replay: σ avoids e, e applies after σ, result matches, and the
        bivalence witness checks out from the result."""
        if any(step == self.event for step in self.avoiding_schedule):
            return False
        staged = protocol.apply_schedule(
            self.configuration, self.avoiding_schedule
        )
        if not self.event.is_applicable(staged):
            return False
        result = protocol.apply_event(staged, self.event)
        if result != self.result or result != self.witness.configuration:
            return False
        return self.witness.verify(protocol)


class AdversaryMode(enum.Enum):
    """How the adversary defeated the protocol."""

    #: The Theorem-1 staged construction: every stage ends bivalent, no
    #: process ever crashes, fairness is maintained by the queue
    #: discipline.  The prefix extends forever.
    BIVALENCE_PRESERVING = "bivalence-preserving"
    #: The fault fallback: one process is silenced (the single allowed
    #: fault) at a point where no deciding run without it exists, and the
    #: others run fairly forever without deciding.
    FAULT = "fault"
    #: The protocol walked itself into a configuration whose valency is
    #: NONE (no decision reachable at all).  Only non-totally-correct
    #: protocols admit this; the adversary then simply runs everyone
    #: fairly — no fault needed.
    DEAD_END = "dead-end"


@dataclass(frozen=True)
class StageRecord:
    """One stage of the staged construction (for reports and ablation)."""

    index: int
    scheduled_process: str
    forced_event: Event
    schedule_length: int
    configurations_examined: int
    search_depth: int
    case: Lemma3Case


@dataclass(frozen=True)
class NonDecidingRunCertificate:
    """Theorem 1's deliverable: a finite run prefix with no decision.

    ``schedule`` applied to ``initial`` must produce a run in which *no*
    configuration has a decision value.  In FAULT mode, ``faulty_process``
    takes no step at or after ``fault_point`` (its index in the
    schedule); at most this one process is faulty, as the theorem allows.

    The certificate does not claim the prefix is *admissible*: nothing
    here, and nothing :meth:`verify` checks, says that every nonfaulty
    process keeps stepping or that every message to one is eventually
    received.  Fairness of the prefix is measured separately by
    :func:`repro.analysis.admissibility.analyze_admissibility` (the
    ``fairness:`` line of ``repro attack``), which reports step gaps and
    delivery lags rather than a verdict on an infinite run.
    """

    initial: Configuration
    schedule: Schedule
    final: Configuration
    mode: AdversaryMode
    stages: tuple[StageRecord, ...] = ()
    faulty_process: str | None = None
    fault_point: int | None = None
    steps_per_process: dict[str, int] = field(default_factory=dict)

    @property
    def length(self) -> int:
        return len(self.schedule)

    def verify(self, protocol: Protocol) -> bool:
        """Replay the run and check what the certificate claims.

        Exactly these checks: every event is applicable when it is
        applied; in FAULT mode the faulty process takes no step at or
        after ``fault_point``; no configuration along the run (the
        initial one excepted) has a decision value; and the replay ends
        at ``final``.  Fairness is not checked — see
        :func:`repro.analysis.admissibility.analyze_admissibility`.
        """
        current = self.initial
        for index, event in enumerate(self.schedule):
            if (
                self.mode is AdversaryMode.FAULT
                and self.fault_point is not None
                and index >= self.fault_point
                and event.process == self.faulty_process
            ):
                return False  # The "dead" process took a step.
            if not event.is_applicable(current):
                return False
            current = protocol.apply_event(current, event)
            if current.has_decision:
                return False  # Somebody decided: the adversary failed.
        if current != self.final:
            return False
        if ZERO in current.decision_values() or ONE in current.decision_values():
            return False  # pragma: no cover - implied by has_decision
        return True

    def summary(self) -> str:
        """One-line report row."""
        fault = (
            f", faulty={self.faulty_process} at step {self.fault_point}"
            if self.mode is AdversaryMode.FAULT
            else ""
        )
        return (
            f"{self.mode.value}: {len(self.schedule)} events, "
            f"{len(self.stages)} stages{fault}, no process ever decided"
        )
