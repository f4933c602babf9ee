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

The codec does not compute successors itself: the
:class:`~repro.core.kernel.TransitionKernel` attached to it does, from
dense tables over these ids.  The codec supplies the kernel's hooks —
:meth:`PackedCodec.kernel_step`, the uncached scalar oracle that runs a
process's rich transition function on a table miss, and the
enabled-event hooks that fix each row's event order — and fault-aware
codecs override exactly those hooks.  Every hook is a pure function of
its arguments (process determinism is the model's own hypothesis), so
kernel successors and :meth:`~repro.core.protocol.Protocol.apply_event`
agree on every event, which the test suite asserts, including Lemma 1's
commutativity at the packed-id level.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.errors import ProtocolViolation
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
        # id from its per-destination inboxes and the rich buffer
        # materializes on first ``buffer_at``.
        self._buffers: list[MessageBuffer | None] = []
        self._buffer_ids: dict[MessageBuffer, int] = {}
        self._kernel = None

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
        kernel's buffer index: the multiset may already own an id as an
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
        links).  Runs at kernel step-table fills only, so any filtering
        must be a pure function of ``(sender, destination)`` — which the
        static fault fragment guarantees.
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
        for its dense step tables, uncached: the kernel asks once per
        ``(event id, state id)`` and keeps the answer.  Fault-aware
        codecs override this for their pseudo-events.
        """
        transition = self._automata[position].apply(
            self._states[state_id], event.value
        )
        return (
            self.intern_state(transition.state),
            self._outgoing(event.process, transition.sends),
        )

    def kernel_null_events(self) -> tuple[Event, ...]:
        """The null-delivery events, in enabled-event order — the fixed
        prefix of every kernel event row."""
        return tuple(Event(name, NULL) for name in self._names)

    def kernel_message_events(self, message: Message) -> tuple[Event, ...]:
        """The events one distinct buffered *message* contributes to the
        enabled-event row (fault-aware codecs add drop edges / exclude
        dead destinations here)."""
        return (Event(message.destination, message.value),)

    # -- checkpointing ------------------------------------------------------

    def snapshot_state(self) -> dict[str, object]:
        """Picklable snapshot of the interning tables.

        The id lists are the whole state — packed tuples reference
        states and buffers by dense id, and future interning must
        continue the same first-seen-order allocation for resumed
        explorations to stay byte-identical with uninterrupted ones.
        Buffer slots a kernel allocated lazily snapshot as ``None``;
        the kernel's own snapshot carries their inboxes.
        """
        return {
            "states": list(self._states),
            "buffers": list(self._buffers),
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
