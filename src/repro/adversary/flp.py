"""The FLP adversary: Theorem 1 as a constructive scheduler.

The proof of Theorem 1 shows that a totally correct protocol cannot
exist by exhibiting, for any partially correct protocol, an *admissible
run that never decides*.  This module makes that construction
executable.  Given a finite protocol instance, :class:`FLPAdversary`
produces a :class:`~repro.adversary.certificates.NonDecidingRunCertificate`
— an arbitrarily long run prefix, replayable and independently
verifiable, in which no process ever reaches a decision state — via the
proof's own case analysis:

**Staged bivalence preservation** (the run constructed at the end of
Section 3).  If a bivalent initial configuration exists (Lemma 2), the
adversary maintains a process queue and, stage by stage, forces the head
process to receive its earliest pending message — but only after
steering, by a Lemma-3 search, to a point where that forced event lands
on a *bivalent* configuration.  "In any infinite sequence of such stages
every process takes infinitely many steps and receives every message
sent to it.  The run is therefore admissible" — and since every stage
ends bivalent, no decision is ever reached.  No process is ever faulty
in this mode.

**Fault mode** (the arguments inside Lemma 2 and Lemma 3's Case 2).
Real protocols are not totally correct, so one of two things eventually
happens, and each hands the adversary its single allowed fault:

* *No bivalent initial configuration*: decisions are a pure function of
  the inputs.  The initial hypercube then contains an adjacent 0-valent /
  1-valent pair ``(C0, C1)`` differing only in process ``p``'s input.
  Any deciding run from ``C0`` without ``p`` would run identically from
  ``C1`` and decide the same value, contradicting one side's valency —
  so silencing ``p`` from ``C0`` stalls the protocol forever.
* *The Lemma-3 search fails* at a forced event ``e = (p, m)``: then 𝒞
  contains an anchor ``E0`` and a pivot ``e' = (p, m')`` with
  ``e(E0)`` and ``e(e'(E0))`` univalent of opposite values.  Any p-free
  deciding run σ from ``E0`` would, by Lemma 1, commute with both ``e``
  and ``e'``, making its (decided!) endpoint ``A = σ(E0)`` an ancestor
  of both a 0-valent and a 1-valent configuration — a contradiction.
  So no p-free run from ``E0`` decides: the adversary navigates to the
  anchor and silences ``p``.

In both fault cases the adversary finishes with a *fair tail*: all other
processes take steps round-robin with FIFO delivery, forever (up to the
requested prefix length) — every message to a nonfaulty process gets
delivered, at most one process is faulty, and still nobody decides.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.configuration import Configuration
from repro.core.errors import AdversaryStuck
from repro.core.events import NULL, Event, Schedule
from repro.core.protocol import Protocol
from repro.core.valency import Valency, ValencyAnalyzer
from repro.adversary.certificates import (
    AdversaryMode,
    NonDecidingRunCertificate,
    StageRecord,
)
from repro.adversary.lemmas import Lemma2Result, find_bivalent_successor, find_lemma2
from repro.schedulers.base import FifoTracker

__all__ = ["FLPAdversary", "DEFAULT_FAIR_TAIL_STEPS"]

#: Fair-tail length when entering fault/dead-end mode, per live process.
DEFAULT_FAIR_TAIL_STEPS = 30


@dataclass
class _RunState:
    """Mutable run-construction state shared by the adversary's phases."""

    configuration: Configuration
    events: list[Event]
    fifo: FifoTracker
    steps_per_process: dict[str, int]

    def apply(self, protocol: Protocol, event: Event) -> None:
        self.configuration = protocol.apply_event(self.configuration, event)
        if self.configuration.has_decision:
            raise AdversaryStuck(
                f"a process decided after {event!r} — the adversary's "
                "valency data must be wrong (inexact exploration?)"
            )
        self.events.append(event)
        self.fifo.observe(self.configuration.buffer)
        self.steps_per_process[event.process] = (
            self.steps_per_process.get(event.process, 0) + 1
        )


class FLPAdversary:
    """Constructs admissible non-deciding runs against a protocol.

    Parameters
    ----------
    protocol:
        A finite protocol instance (small N, bounded messages) so that
        exact valency analysis is feasible.
    analyzer:
        Optional pre-warmed :class:`ValencyAnalyzer` to share the global
        configuration graph across calls.  All stage-by-stage valency
        queries and witness lookups run against that one shared
        incremental graph, so the total configurations interned across
        an entire staged run grows sublinearly in the number of stages
        (later stages are almost pure cache hits — see
        ``analyzer.stats``).
    max_configurations:
        Budget for each Lemma-3 search and for valency exploration.

    Attributes
    ----------
    last_lemma2:
        The :class:`~repro.adversary.lemmas.Lemma2Result` of the most
        recent :meth:`build_run` that started from scratch.
    """

    def __init__(
        self,
        protocol: Protocol,
        analyzer: ValencyAnalyzer | None = None,
        max_configurations: int = 100_000,
    ):
        self.protocol = protocol
        self.analyzer = analyzer or ValencyAnalyzer(
            protocol, max_configurations=max_configurations
        )
        self.max_configurations = max_configurations
        self.last_lemma2: Lemma2Result | None = None

    # -- public API --------------------------------------------------------------

    def build_run(
        self,
        stages: int = 20,
        initial: Configuration | None = None,
        fair_tail_steps: int | None = None,
    ) -> NonDecidingRunCertificate:
        """Construct a non-deciding run prefix (its fairness is
        measured separately, by
        :func:`~repro.analysis.admissibility.analyze_admissibility`).

        Parameters
        ----------
        stages:
            Number of bivalence-preserving stages to execute (when the
            protocol admits them).  Each stage forces one
            earliest-message delivery, so the prefix grows without bound
            as ``stages`` does — the finite shadow of "runs forever".
        initial:
            Start here instead of searching the initial hypercube; must
            be a (provably) bivalent configuration.
        fair_tail_steps:
            Events to execute after entering fault or dead-end mode;
            defaults to ``DEFAULT_FAIR_TAIL_STEPS × N``.

        Raises
        ------
        AdversaryStuck
            If the protocol is not partially correct in a way that
            leaves nothing to stall (e.g. it decides instantly from
            every initial configuration with no communication), or if
            exploration budgets made valency inexact.
        """
        if fair_tail_steps is None:
            fair_tail_steps = DEFAULT_FAIR_TAIL_STEPS * len(
                self.protocol.process_names
            )

        if initial is not None:
            if self.analyzer.valency(initial) is not Valency.BIVALENT:
                raise ValueError(
                    "explicit starting configuration must be bivalent"
                )
            return self._run_staged(initial, stages, fair_tail_steps)

        lemma2 = find_lemma2(self.protocol, self.analyzer)
        self.last_lemma2 = lemma2

        if lemma2.none_valent is not None:
            # Broken protocol: an initial configuration from which no
            # decision is reachable at all.  Fair-run everyone.
            return self._run_tail(
                _RunState(
                    lemma2.none_valent, [], FifoTracker(), {}
                ),
                initial=lemma2.none_valent,
                mode=AdversaryMode.DEAD_END,
                stage_records=(),
                faulty=None,
                fault_point=None,
                steps=fair_tail_steps,
            )

        if lemma2.certificate is not None:
            return self._run_staged(
                lemma2.certificate.bivalent_initial,
                stages,
                fair_tail_steps,
            )

        if lemma2.boundary is not None:
            zero_valent, _one_valent, process = lemma2.boundary
            state = _RunState(zero_valent, [], FifoTracker(), {})
            return self._run_tail(
                state,
                initial=zero_valent,
                mode=AdversaryMode.FAULT,
                stage_records=(),
                faulty=process,
                fault_point=0,
                steps=fair_tail_steps,
            )

        raise AdversaryStuck(
            "no bivalent initial, no 0/1 boundary, no dead end: the "
            "protocol is not partially correct (check with "
            "check_partial_correctness)"
        )

    # -- staged construction --------------------------------------------------------

    def _run_staged(
        self,
        start: Configuration,
        stages: int,
        fair_tail_steps: int,
    ) -> NonDecidingRunCertificate:
        state = _RunState(start, [], FifoTracker(), {})
        state.fifo.observe(start.buffer)
        queue: deque[str] = deque(self.protocol.process_names)
        records: list[StageRecord] = []

        for stage_index in range(stages):
            process = queue[0]
            earliest = state.fifo.earliest_for(process)
            forced = Event(
                process, earliest.value if earliest is not None else NULL
            )
            outcome = find_bivalent_successor(
                self.protocol,
                self.analyzer,
                state.configuration,
                forced,
                max_configurations=self.max_configurations,
            )

            if outcome.certificate is not None:
                certificate = outcome.certificate
                for event in certificate.avoiding_schedule.then(forced):
                    state.apply(self.protocol, event)
                queue.rotate(-1)
                records.append(
                    StageRecord(
                        index=stage_index,
                        scheduled_process=process,
                        forced_event=forced,
                        schedule_length=len(certificate.avoiding_schedule)
                        + 1,
                        configurations_examined=(
                            certificate.configurations_examined
                        ),
                        search_depth=certificate.search_depth,
                        case=certificate.case,
                    )
                )
                continue

            if outcome.dead_end is not None:
                schedule, _target = outcome.dead_end
                for event in schedule:
                    state.apply(self.protocol, event)
                return self._run_tail(
                    state,
                    initial=start,
                    mode=AdversaryMode.DEAD_END,
                    stage_records=tuple(records),
                    faulty=None,
                    fault_point=None,
                    steps=fair_tail_steps,
                )

            if outcome.failure is not None:
                failure = outcome.failure
                for event in failure.schedule_to_anchor:
                    state.apply(self.protocol, event)
                return self._run_tail(
                    state,
                    initial=start,
                    mode=AdversaryMode.FAULT,
                    stage_records=tuple(records),
                    faulty=failure.faulty_process,
                    fault_point=len(state.events),
                    steps=fair_tail_steps,
                )

            raise AdversaryStuck(
                f"Lemma-3 search for {forced!r} was inexact "
                f"(examined {outcome.configurations_examined} "
                "configurations, shared engine interned "
                f"{self.analyzer.configurations_explored}); raise "
                "max_configurations"
            )

        return NonDecidingRunCertificate(
            initial=start,
            schedule=Schedule(state.events),
            final=state.configuration,
            mode=AdversaryMode.BIVALENCE_PRESERVING,
            stages=tuple(records),
            faulty_process=None,
            fault_point=None,
            steps_per_process=dict(state.steps_per_process),
        )

    # -- fair tail -------------------------------------------------------------------

    def _run_tail(
        self,
        state: _RunState,
        initial: Configuration,
        mode: AdversaryMode,
        stage_records: tuple[StageRecord, ...],
        faulty: str | None,
        fault_point: int | None,
        steps: int,
    ) -> NonDecidingRunCertificate:
        """Round-robin + FIFO over the non-faulty processes for *steps*
        events.  Raises :class:`AdversaryStuck` if anyone decides (the
        construction's soundness argument says they cannot)."""
        state.fifo.observe(state.configuration.buffer)
        participants = [
            name
            for name in self.protocol.process_names
            if name != faulty
        ]
        for index in range(steps):
            process = participants[index % len(participants)]
            earliest = state.fifo.earliest_for(process)
            event = Event(
                process, earliest.value if earliest is not None else NULL
            )
            state.apply(self.protocol, event)
        return NonDecidingRunCertificate(
            initial=initial,
            schedule=Schedule(state.events),
            final=state.configuration,
            mode=mode,
            stages=stage_records,
            faulty_process=faulty,
            fault_point=fault_point,
            steps_per_process=dict(state.steps_per_process),
        )
