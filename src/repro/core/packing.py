"""Packed configuration encoding: flat integer tuples for the hot paths.

The exploration engine spends its time hashing and comparing
configurations.  A rich :class:`~repro.core.configuration.Configuration`
hashes via a sorted tuple of ``(name, ProcessState)`` items plus a
frozenset-of-items buffer hash — Python-object work on every dictionary
probe.  This module interns every distinct :class:`ProcessState` and
:class:`MessageBuffer` to a dense integer id *once*, so a configuration
becomes a flat ``tuple[int, ...]``::

    (state_id[p0], state_id[p1], ..., state_id[pN-1], buffer_id)

which hashes and compares in C.  The round-trip is lossless:
:meth:`PackedCodec.decode` rebuilds the identical rich configuration for
traces, witnesses, and ``describe()``.

On top of the encoding, :meth:`PackedCodec.apply_packed` applies one
event to a packed configuration without constructing rich objects at
all, by memoizing the three independent ingredients of a step:

* the *process step* ``(process, state_id, message value) ->
  (new state_id, sends)`` — the transition function is deterministic,
  so this is shared across every configuration in which that process
  sits in that state;
* the *delivery* ``(buffer_id, message) -> buffer_id``;
* the *send batch* ``(buffer_id, sends) -> buffer_id``.

A successor is then tuple surgery on small ints.  Only genuinely novel
(state, message) steps and buffer transitions ever touch the rich
objects — and each exactly once per codec lifetime.

Soundness: every memoized ingredient is a pure function of its key
(process determinism is the model's own hypothesis), so the packed
application and :meth:`~repro.core.protocol.Protocol.apply_event` agree
on every event — which the test suite asserts, including Lemma 1's
commutativity at the packed-id level.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.configuration import Configuration
from repro.core.errors import ProtocolViolation, UnknownProcess
from repro.core.events import NULL, Event
from repro.core.messages import Message, MessageBuffer
from repro.core.process import ProcessState
from repro.core.protocol import Protocol

__all__ = ["PackedCodec", "PackedConfiguration"]

#: A packed configuration: per-process state ids + trailing buffer id.
PackedConfiguration = "tuple[int, ...]"


class PackedCodec:
    """Interning codec between rich configurations and packed tuples.

    Bound to one protocol (the process roster fixes tuple positions:
    index ``i`` holds the state id of the ``i``-th process in sorted
    name order, the last slot holds the buffer id).  All ids are dense
    and allocated in first-seen order, so the encoding is deterministic
    for a deterministic exploration order — independent of
    ``PYTHONHASHSEED``.
    """

    def __init__(self, protocol: Protocol):
        self.protocol = protocol
        self._names = protocol.process_names
        self._position = {name: i for i, name in enumerate(self._names)}
        self._automata = [protocol.process(name) for name in self._names]
        # State interning: id -> rich, rich -> id, id -> output register
        # (None while undecided) for O(1) packed decision queries.
        self._states: list[ProcessState] = []
        self._state_ids: dict[ProcessState, int] = {}
        self._state_output: list[int | None] = []
        # Buffer interning.  With a transition kernel attached,
        # ``_buffers`` slots may hold ``None``: the kernel allocated the
        # id from a flat rep and the rich buffer materializes on first
        # ``buffer_at``.
        self._buffers: list[MessageBuffer | None] = []
        self._buffer_ids: dict[MessageBuffer, int] = {}
        self._kernel = None
        # Transition memos (see module docstring).
        self._steps: dict[
            tuple[int, int, Hashable], tuple[int, tuple[Message, ...]]
        ] = {}
        self._deliveries: dict[tuple[int, Message], int] = {}
        self._sends: dict[tuple[int, tuple[Message, ...]], int] = {}
        #: Packed step applications answered from the memo / computed
        #: fresh through the rich transition function.
        self.step_hits = 0
        self.step_misses = 0

    # -- interning ---------------------------------------------------------

    @property
    def width(self) -> int:
        """Length of a packed tuple: N state slots + 1 buffer slot."""
        return len(self._names) + 1

    @property
    def process_names(self) -> tuple[str, ...]:
        """Process names in tuple-position order (slot ``i`` holds the
        state id of ``process_names[i]``)."""
        return self._names

    def position_of(self, process: str) -> int:
        """Tuple index of *process*'s state slot."""
        return self._position[process]

    def intern_state(self, state: ProcessState) -> int:
        """The dense id of *state*, allocating one if new."""
        sid = self._state_ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._state_ids[state] = sid
            self._states.append(state)
            self._state_output.append(
                state.output if state.decided else None
            )
        return sid

    def intern_buffer(self, buffer: MessageBuffer) -> int:
        """The dense id of *buffer*, allocating one if new.

        With a kernel attached, a rich-side miss routes through the
        kernel's rep index: the multiset may already own an id as an
        unmaterialized placeholder, and allocating a second id would
        break the first-seen-order contract every fingerprint rests on.
        """
        bid = self._buffer_ids.get(buffer)
        if bid is None:
            if self._kernel is not None:
                return self._kernel.intern_rich_buffer(buffer)
            bid = len(self._buffers)
            self._buffer_ids[buffer] = bid
            self._buffers.append(buffer)
        return bid

    def attach_kernel(self, kernel) -> None:
        """Bind a :class:`~repro.core.kernel.TransitionKernel` as this
        codec's lazy-buffer owner (at most one per codec)."""
        self._kernel = kernel

    def state_at(self, state_id: int) -> ProcessState:
        """The rich state interned at *state_id*."""
        return self._states[state_id]

    def buffer_at(self, buffer_id: int) -> MessageBuffer:
        """The rich buffer interned at *buffer_id*, materializing a
        kernel-allocated placeholder on demand."""
        buffer = self._buffers[buffer_id]
        if buffer is None:
            buffer = self._kernel.materialize_buffer(buffer_id)
        return buffer

    def __len__(self) -> int:
        """Distinct interned states (buffers tracked separately)."""
        return len(self._states)

    @property
    def interned_buffers(self) -> int:
        return len(self._buffers)

    # -- encode / decode ---------------------------------------------------

    def encode(self, configuration: Configuration) -> tuple[int, ...]:
        """The packed form of *configuration* (interning as needed)."""
        names = self._names
        if configuration.process_names != names:
            raise ValueError(
                f"configuration processes {configuration.process_names!r} "
                f"do not match the codec's protocol {names!r}"
            )
        intern_state = self.intern_state
        ids = [
            intern_state(state) for _name, state in configuration.states()
        ]
        ids.append(self.intern_buffer(configuration.buffer))
        return tuple(ids)

    def decode(self, packed: tuple[int, ...]) -> Configuration:
        """The rich configuration for *packed* (lossless round-trip)."""
        states = self._states
        return Configuration(
            {
                name: states[sid]
                for name, sid in zip(self._names, packed)
            },
            self.buffer_at(packed[-1]),
        )

    def decision_values(self, packed: tuple[int, ...]) -> frozenset[int]:
        """Decision values of *packed* without decoding it."""
        output = self._state_output
        return frozenset(
            value
            for sid in packed[:-1]
            if (value := output[sid]) is not None
        )

    def has_decision(self, packed: tuple[int, ...]) -> bool:
        """Whether any process in *packed* has decided (no set built —
        this sits on the ample reducer's per-edge visibility path)."""
        output = self._state_output
        for sid in packed[:-1]:
            if output[sid] is not None:
                return True
        return False

    # -- packed step semantics ---------------------------------------------

    def _outgoing(
        self, sender: str, sends: tuple[Message, ...]
    ) -> tuple[Message, ...]:
        """The send batch actually placed in the buffer by *sender*.

        The base codec only validates destinations; fault-aware codecs
        override this to filter sends (dead destinations, severed
        links).  Runs at step-memo misses only, so any filtering must be
        a pure function of ``(sender, destination)`` — which the static
        fault fragment guarantees.
        """
        for message in sends:
            if message.destination not in self._position:
                raise ProtocolViolation(
                    f"process {sender} sent a message to "
                    f"unknown process {message.destination!r}"
                )
        return sends

    # -- batched-kernel hooks ----------------------------------------------

    def kernel_step(
        self, position: int, state_id: int, event: Event
    ) -> tuple[int, tuple[Message, ...]]:
        """The step component of *event*: ``(new_state_id, sends)``.

        The :class:`~repro.core.kernel.TransitionKernel`'s fill oracle
        for its dense step tables.  Shares ``_steps`` with
        :meth:`apply_packed`, so the kernel and the POR replay / shared
        transition cache fill each other's memo and state-id allocation
        order does not depend on which of them asked first.
        Fault-aware codecs override this for their pseudo-events.
        """
        step_key = (position, state_id, event.value)
        step = self._steps.get(step_key)
        if step is None:
            self.step_misses += 1
            transition = self._automata[position].apply(
                self._states[state_id], event.value
            )
            step = (
                self.intern_state(transition.state),
                self._outgoing(event.process, transition.sends),
            )
            self._steps[step_key] = step
        else:
            self.step_hits += 1
        return step

    def kernel_null_events(self) -> tuple[Event, ...]:
        """The null-delivery events, in enabled-event order — the fixed
        prefix of every kernel event row."""
        return tuple(Event(name, NULL) for name in self._names)

    def kernel_message_events(self, message: Message) -> tuple[Event, ...]:
        """The events one distinct buffered *message* contributes to the
        enabled-event row (fault-aware codecs add drop edges / exclude
        dead destinations here)."""
        return (Event(message.destination, message.value),)

    def apply_packed(
        self, packed: tuple[int, ...], event: Event
    ) -> tuple[int, ...]:
        """``e(C)`` on packed tuples; rich objects only on memo misses."""
        try:
            position = self._position[event.process]
        except KeyError:
            raise UnknownProcess(event.process) from None
        state_id = packed[position]
        step_key = (position, state_id, event.value)
        step = self._steps.get(step_key)
        if step is None:
            self.step_misses += 1
            transition = self._automata[position].apply(
                self._states[state_id], event.value
            )
            step = (
                self.intern_state(transition.state),
                self._outgoing(event.process, transition.sends),
            )
            self._steps[step_key] = step
        else:
            self.step_hits += 1
        new_state_id, sends = step

        buffer_id = packed[-1]
        if event.value is not NULL:
            message = Message(event.process, event.value)
            delivery_key = (buffer_id, message)
            delivered = self._deliveries.get(delivery_key)
            if delivered is None:
                delivered = self.intern_buffer(
                    self.buffer_at(buffer_id).deliver(message)
                )
                self._deliveries[delivery_key] = delivered
            buffer_id = delivered
        if sends:
            send_key = (buffer_id, sends)
            sent = self._sends.get(send_key)
            if sent is None:
                sent = self.intern_buffer(
                    self.buffer_at(buffer_id).send_all(sends)
                )
                self._sends[send_key] = sent
            buffer_id = sent

        successor = list(packed)
        successor[position] = new_state_id
        successor[-1] = buffer_id
        return tuple(successor)

    def apply_rich(
        self, configuration: Configuration, event: Event
    ) -> Configuration:
        """``e(C)`` on rich configurations, routed through the packed
        memos — lets rich-level searches (Lemma 3's 𝒞) reuse everything
        the exploration engine already computed."""
        return self.decode(self.apply_packed(self.encode(configuration), event))

    # -- checkpointing ------------------------------------------------------

    def snapshot_state(self) -> dict[str, object]:
        """Picklable snapshot of every interning table and memo.

        The id lists are the load-bearing part — packed tuples reference
        states and buffers by dense id, and future interning must
        continue the same first-seen-order allocation for resumed
        explorations to stay byte-identical with uninterrupted ones.
        The transition memos are included too so a resume does not pay
        the rich-object cost again for already-seen steps.  Buffer slots
        a kernel allocated lazily snapshot as ``None``; the kernel's own
        snapshot carries their reps.
        """
        return {
            "states": list(self._states),
            "buffers": list(self._buffers),
            "steps": dict(self._steps),
            "deliveries": dict(self._deliveries),
            "sends": dict(self._sends),
            "step_hits": self.step_hits,
            "step_misses": self.step_misses,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Install a :meth:`snapshot_state` payload into this codec.

        Derived tables (reverse id maps, per-state outputs) are rebuilt
        rather than stored: they are pure functions of the id lists, and
        rebuilding keeps the snapshot small and impossible to
        de-synchronize.
        """
        self._states = list(state["states"])
        self._state_ids = {s: i for i, s in enumerate(self._states)}
        self._state_output = [
            s.output if s.decided else None for s in self._states
        ]
        self._buffers = list(state["buffers"])
        # Placeholder slots (a kernel checkpoint's lazily-allocated
        # buffers) stay out of the rich index; the kernel's restored rep
        # index is their identity until they materialize.
        self._buffer_ids = {
            b: i for i, b in enumerate(self._buffers) if b is not None
        }
        self._steps = dict(state["steps"])
        self._deliveries = dict(state["deliveries"])
        self._sends = dict(state["sends"])
        self.step_hits = int(state["step_hits"])
        self.step_misses = int(state["step_misses"])
