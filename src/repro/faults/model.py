"""FaultedProtocol: bake a plan's static fragment into step semantics.

Exhaustive valency exploration walks the *reachable configuration
graph*, which is memoryless: a configuration does not remember how many
steps produced it.  Only the time-independent projection of a fault
plan — :meth:`FaultPlan.static_fragment` — can therefore be explored
exhaustively:

* **initially dead** processes take no events and receive no sends
  (Section 4's fault model, exactly);
* **lossy destinations** (unbounded deterministic omission) add a
  nondeterministic *drop edge* per buffered copy: the graph branches on
  "the message arrives" vs "the channel eats it", the standard way
  omission faults enter a model-checking transition relation;
* **severed links** (never-healing partitions) filter sends at the
  source — a copy that can never be delivered is equivalent, for
  reachability, to a copy never sent.

The wrapper subclasses :class:`~repro.core.protocol.Protocol` and
overrides :meth:`enabled_events` and :meth:`apply_event`, so every
consumer that routes steps through the protocol (simulation, schedule
replay) honours the faults with no further wiring.  The exploration
engine speaks through a codec rather than protocol methods, so
:meth:`FaultedProtocol.packed_codec` supplies
:class:`FaultedPackedCodec` — the same fault fragment expressed at the
packed-id level, through the transition kernel's event-row and step
hooks — and faulted exploration, serial or on the crew, runs the kernel
like everything else.  The test suite's reference exploration over
the protocol methods is the cross-check.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.configuration import Configuration
from repro.core.errors import ProtocolViolation, UnknownProcess
from repro.core.events import NULL, Event
from repro.core.messages import Message
from repro.core.packing import PackedCodec
from repro.core.protocol import Protocol
from repro.faults.plan import FaultCounters, FaultPlan

__all__ = ["Drop", "FaultedPackedCodec", "FaultedProtocol"]


class Drop:
    """Marker wrapping a message value: "the channel loses this copy".

    An event ``(p, Drop(m))`` consumes the buffered message ``(p, m)``
    without delivering it — the lossy-channel branch of the transition
    relation.  Hashable and comparable so drop events memoize in the
    transition cache like any other event.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Hashable):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("repro.faults.Drop", value)))

    def __setattr__(self, name, value):
        raise AttributeError("Drop is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Drop):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Drop, (self.value,))

    def __repr__(self) -> str:
        return f"Drop({self.value!r})"


class FaultedProtocol(Protocol):
    """*base* with *plan*'s static fault fragment baked into its steps.

    Raises :class:`~repro.core.errors.FaultModelError` when the plan
    contains time-dependent clauses (mid-run crashes, recovery windows,
    bounded budgets, healing partitions) — those are simulation-only;
    see :class:`~repro.schedulers.faulty.FaultyScheduler`.
    """

    def __init__(self, base: Protocol, plan: FaultPlan):
        super().__init__(
            [base.process(name) for name in base.process_names]
        )
        plan.validate_for(base.process_names)
        self.base = base
        self.plan = plan
        dead, lossy, severed = plan.static_fragment(base.process_names)
        self._dead = dead
        self._lossy = lossy
        self._severed = severed
        self.fault_counters = FaultCounters()

    # -- step semantics ----------------------------------------------------

    def enabled_events(
        self, configuration: Configuration, include_null: bool = True
    ) -> tuple[Event, ...]:
        """Applicable events under the fault fragment.

        Dead processes contribute nothing; each buffered copy to a
        lossy destination contributes a drop edge alongside its
        delivery edge.
        """
        counters = self.fault_counters
        events: list[Event] = []
        if include_null:
            for name in self.process_names:
                if name in self._dead:
                    counters.dead_exclusions += 1
                    continue
                events.append(Event(name, NULL))
        for message in configuration.buffer.distinct_messages():
            if message.destination in self._dead:
                counters.dead_exclusions += 1
                continue
            events.append(Event(message.destination, message.value))
            if message.destination in self._lossy:
                events.append(
                    Event(message.destination, Drop(message.value))
                )
        return tuple(events)

    def apply_event(
        self, configuration: Configuration, event: Event
    ) -> Configuration:
        if isinstance(event.value, Drop):
            # The channel eats the copy: remove it from the buffer,
            # nobody's state changes.
            buffer = configuration.buffer.deliver(
                Message(event.process, event.value.value)
            )
            self.fault_counters.drop_edges += 1
            return configuration.with_buffer(buffer)
        # Same two-phase step as Protocol.apply_event, with the plan
        # filtering the send phase.
        if event.process not in self.process_names:
            raise UnknownProcess(event.process)
        state = configuration.state_of(event.process)
        if event.is_null_delivery:
            buffer = configuration.buffer
        else:
            buffer = configuration.buffer.deliver(event.message)
        transition = self.process(event.process).apply(state, event.value)
        counters = self.fault_counters
        sends = []
        for message in transition.sends:
            if message.destination not in self.process_names:
                raise ProtocolViolation(
                    f"process {event.process} sent a message to unknown "
                    f"process {message.destination!r}"
                )
            if message.destination in self._dead:
                # A copy to a dead process can never be delivered;
                # filtering it at the source keeps the graph small
                # without changing reachability.
                counters.dead_exclusions += 1
                continue
            if (event.process, message.destination) in self._severed:
                counters.send_blocks += 1
                continue
            sends.append(message)
        buffer = buffer.send_all(sends)
        return configuration.replace(event.process, transition.state, buffer)

    def consumed_message(self, event: Event) -> Message | None:
        """The buffered message *event* consumes — unwrapping drops."""
        if isinstance(event.value, Drop):
            return Message(event.process, event.value.value)
        return super().consumed_message(event)

    def packed_codec(self) -> "FaultedPackedCodec":
        return FaultedPackedCodec(self)

    def __repr__(self) -> str:
        return (
            f"FaultedProtocol(N={self.num_processes}, "
            f"plan={self.plan.describe()})"
        )


class FaultedPackedCodec(PackedCodec):
    """Packed codec speaking :class:`FaultedProtocol`'s step semantics.

    The codec computes no successors itself; it overrides the
    transition kernel's hooks, one per clause of the static fault
    fragment:

    * :meth:`kernel_null_events` / :meth:`kernel_message_events`
      reproduce the faulted :meth:`~FaultedProtocol.enabled_events`
      order exactly — dead processes excluded, a :class:`Drop` edge
      after each delivery to a lossy destination — so the kernel
      interns the same successors in the same order as a breadth-first
      search over the protocol methods;
    * :meth:`kernel_step` makes a drop pseudo-event a pure buffer
      transition (the stepping process's state id is untouched, nothing
      is sent); the kernel tags a drop with the message it unwraps, so
      it shares the delivery table with the corresponding real delivery
      — removing a copy is the same buffer operation whether the
      process or the channel consumed it;
    * :meth:`_outgoing` filters sends to dead destinations and across
      severed links at step-table fills (sound: the filter depends only
      on the static ``(sender, destination)`` pair).

    Fault counters bump only when the kernel fills a table slot or
    builds an event row, so their exact values differ from a run
    through the protocol methods; the invariant consumers rely on — a
    fault clause that shaped the graph has a nonzero counter — holds
    either way.
    """

    def __init__(self, protocol: FaultedProtocol):
        super().__init__(protocol)
        self._dead = protocol._dead
        self._lossy = protocol._lossy
        self._severed = protocol._severed
        self._counters = protocol.fault_counters

    def kernel_step(
        self, position: int, state_id: int, event: Event
    ) -> "tuple[int, tuple[Message, ...]]":
        """Drop pseudo-events are pure buffer transitions: the stepping
        process's state id is unchanged and nothing is sent, so their
        dense step-table rows are the identity with the empty batch.
        The drop counter bumps at fill time only."""
        if isinstance(event.value, Drop):
            self._counters.drop_edges += 1
            return state_id, ()
        return super().kernel_step(position, state_id, event)

    def kernel_null_events(self) -> tuple[Event, ...]:
        counters = self._counters
        enabled: list[Event] = []
        for name in self._names:
            if name in self._dead:
                counters.dead_exclusions += 1
                continue
            enabled.append(Event(name, NULL))
        return tuple(enabled)

    def kernel_message_events(self, message: Message) -> tuple[Event, ...]:
        if message.destination in self._dead:
            self._counters.dead_exclusions += 1
            return ()
        events = [Event(message.destination, message.value)]
        if message.destination in self._lossy:
            events.append(Event(message.destination, Drop(message.value)))
        return tuple(events)

    def _outgoing(
        self, sender: str, sends: tuple[Message, ...]
    ) -> tuple[Message, ...]:
        sends = super()._outgoing(sender, sends)
        counters = self._counters
        kept = []
        for message in sends:
            if message.destination in self._dead:
                counters.dead_exclusions += 1
                continue
            if (sender, message.destination) in self._severed:
                counters.send_blocks += 1
                continue
            kept.append(message)
        return tuple(kept)
