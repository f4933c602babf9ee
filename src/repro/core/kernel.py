"""The transition kernel: the engine's one definition of successors.

Every successor the engine computes — frontier expansion (serial or in a
crew worker), the POR replay guard's Lemma-1 diamonds, Lemma 3's search
over 𝒞 — comes from this module's dense integer tables, lazily filled
and permanently reusable.  Profiling benor/3@50k before the tables
existed put ~70% of serial exploration in per-edge rich-object work
(``Message.__init__`` per edge, ``MessageBuffer.deliver``/``send_all``
on ~76%-miss memos, 12.8M ``Message.__hash__`` calls); the tables
replace it:

* **Kernel event ids.**  Every distinct :class:`Event` the exploration
  enumerates is interned once; per event id the kernel keeps the
  stepping process's tuple position and the id of the message the event
  consumes (``-1`` for null deliveries — drop pseudo-events consume
  their unwrapped message like the real delivery does).
* **Step tables.**  Per event id, two flat ``array('q')`` columns
  indexed by state id: the successor state id and the interned
  *send-batch* id (``-1`` marks an unfilled slot, batch 0 is the empty
  batch).  A hit is two C-level gathers; a miss calls
  :meth:`PackedCodec.kernel_step`, the uncached scalar oracle that runs
  the rich transition function once per ``(event id, state id)``.
* **Buffer transition tables.**  Deliveries and send batches become
  dicts keyed by one composite int ``buffer_id * STRIDE + message_id``
  (resp. batch id) — no tuple allocation, no Message hashing on the hot
  path.
* **Buffer reps.**  To fill a buffer-transition miss *without*
  constructing a rich buffer, every buffer id gets a *rep*: a flat
  ``(message_id, count, ...)`` tuple sorted by the
  ``(destination, repr(value))`` key that
  :meth:`MessageBuffer.distinct_messages` sorts by.  A delivery is a
  count decrement, a send batch a sorted merge; the resulting rep is
  probed against a rep->buffer-id dict, and a *genuinely novel*
  multiset allocates the next codec buffer id as an unmaterialized
  placeholder — the rich :class:`MessageBuffer` (a dict plus a
  frozenset hash) is built only if something actually asks for it
  (:meth:`PackedCodec.buffer_at`, decoding).  The
  kernel keeps the rep index *complete* — every codec buffer id has a
  registered rep, rich-path interning routes through
  :meth:`intern_rich_buffer` — so a rep miss proves novelty and id
  allocation is byte-for-byte the first-seen order of the successor
  relation (pinned by ``tests/core/test_census_fingerprints.py``).
* **Per-buffer event rows.**  The enabled-event list of a buffer is a
  tuple of kernel event ids derived from its rep through the codec's
  :meth:`~PackedCodec.kernel_null_events` /
  :meth:`~PackedCodec.kernel_message_events` hooks — the exact order of
  :meth:`~repro.core.protocol.Protocol.enabled_events`, including the
  faulted codec's dead-process exclusions and lossy-channel drop edges.

Two entry points read the tables: :meth:`TransitionKernel.expand_row`
(all edges of a row, the hot loop, kept inlined) and
:meth:`TransitionKernel.step` (one event on one row).  Both fill misses
through the same ``_fill_step``/``_fill_deliver``/``_fill_sends``, so
state and buffer ids allocate in the order the successors are asked
for, whoever asks.

Everything here is ``array``/``dict``/``tuple`` — no third-party
dependencies, per the core's rule.  The kernel is owned by one codec;
:meth:`snapshot_state`/:meth:`restore_state` ride inside checkpoint v2
so resumed runs reuse every filled table row instead of re-deriving it.
"""

from __future__ import annotations

import sys
from array import array
from typing import TYPE_CHECKING

from repro.core.errors import InvalidEvent, UnknownProcess
from repro.core.messages import MessageBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import Event
    from repro.core.packing import PackedCodec

__all__ = ["TransitionKernel"]

#: Composite-key stride for the deliver/sends tables: the key is
#: ``buffer_id * _STRIDE + message_or_batch_id``.  2^20 distinct message
#: values / send batches per protocol is far beyond any finite instance
#: (benor/3 has 53 and 33); :meth:`_intern_message` guards the bound.
_STRIDE = 1 << 20


class TransitionKernel:
    """Dense transition tables over one :class:`PackedCodec`.

    The kernel never allocates ids of its own for states or buffers —
    those stay codec-owned, so the kernel, rich-side interning (encode,
    the symmetry quotient's images) and the crew's decoded chunks
    interleave freely over one id space.
    """

    def __init__(self, codec: "PackedCodec"):
        self.codec = codec
        codec.attach_kernel(self)
        # Kernel event interning + per-event-id metadata columns.
        self._events: list["Event"] = []
        self._event_ids: dict["Event", int] = {}
        self._ev_pos = array("q")
        self._ev_mid = array("q")
        # Message interning; the sort key mirrors distinct_messages().
        self._msgs: list = []
        self._msg_ids: dict = {}
        self._msg_keys: list[tuple[str, str]] = []
        self._mid_eids: list[tuple[int, ...] | None] = []
        # Send-batch interning; batch 0 is the empty batch.
        self._batches: list[tuple] = [()]
        self._batch_ids: dict = {(): 0}
        self._batch_deltas: list[tuple] = [()]
        # Step tables: per event id, state_id -> successor state id and
        # state_id -> send-batch id (-1 = unfilled).
        self._step_state: list[array | None] = []
        self._step_batch: list[array | None] = []
        # Buffer transitions, composite-int keyed.
        self._deliver: dict[int, int] = {}
        self._sends: dict[int, int] = {}
        # Buffer reps and the rep -> buffer id dedup index.
        self._reps: list[tuple[int, ...] | None] = []
        self._rep_ids: dict[tuple[int, ...], int] = {}
        # Per-buffer-id enabled-event rows (kernel event ids).
        self._ev_rows: list[tuple[int, ...] | None] = []
        self._null_eids: tuple[int, ...] | None = None
        #: Rows expanded through the kernel.
        self.batch_expansions = 0
        #: Edges whose step component was a dense-table gather hit.
        self.table_hits = 0
        #: Scalar-oracle consultations: step-table fills plus
        #: novel-buffer allocations (the work a table hit avoids).
        self.fallback_steps = 0
        self.reindex()

    # -- observability -----------------------------------------------------

    @property
    def table_bytes(self) -> int:
        """Resident bytes of the flat tables: the dense step columns
        plus the (shallow) dict footprint of the buffer-transition and
        rep indexes.  Rep tuples and interned rich objects are codec
        memory, not counted here."""
        total = sum(
            col.itemsize * len(col)
            for col in self._step_state
            if col is not None
        )
        total += sum(
            col.itemsize * len(col)
            for col in self._step_batch
            if col is not None
        )
        total += sys.getsizeof(self._deliver)
        total += sys.getsizeof(self._sends)
        total += sys.getsizeof(self._rep_ids)
        return total

    # -- interning ---------------------------------------------------------

    def event_at(self, eid: int) -> "Event":
        """The rich event interned at kernel event id *eid*."""
        return self._events[eid]

    def event_id(self, event: "Event") -> int:
        """The kernel event id of *event*, interning it if new."""
        eid = self._event_ids.get(event)
        if eid is None:
            try:
                position = self.codec.position_of(event.process)
            except KeyError:
                raise UnknownProcess(event.process) from None
            eid = len(self._events)
            self._event_ids[event] = eid
            self._events.append(event)
            self._ev_pos.append(position)
            message = self.codec.protocol.consumed_message(event)
            self._ev_mid.append(
                -1 if message is None else self._intern_message(message)
            )
            self._step_state.append(None)
            self._step_batch.append(None)
        return eid

    def _intern_message(self, message) -> int:
        mid = self._msg_ids.get(message)
        if mid is None:
            mid = len(self._msgs)
            if mid >= _STRIDE:  # pragma: no cover - absurd instance
                raise RuntimeError(
                    f"kernel supports at most {_STRIDE} distinct "
                    "messages per protocol"
                )
            self._msg_ids[message] = mid
            self._msgs.append(message)
            self._msg_keys.append(
                (message.destination, repr(message.value))
            )
            self._mid_eids.append(None)
        return mid

    def _intern_batch(self, sends: tuple) -> int:
        batch = len(self._batches)
        if batch >= _STRIDE:  # pragma: no cover - absurd instance
            raise RuntimeError(
                f"kernel supports at most {_STRIDE} distinct send "
                "batches per protocol"
            )
        self._batch_ids[sends] = batch
        self._batches.append(sends)
        self._batch_deltas.append(self._batch_delta(sends))
        return batch

    def _batch_delta(self, sends: tuple) -> tuple:
        """*sends* as ``((message_id, count), ...)`` in rep-key order."""
        agg: dict[int, int] = {}
        for message in sends:
            mid = self._intern_message(message)
            agg[mid] = agg.get(mid, 0) + 1
        keys = self._msg_keys
        return tuple(sorted(agg.items(), key=lambda kv: keys[kv[0]]))

    # -- buffer reps -------------------------------------------------------

    def reindex(self) -> None:
        """(Re)build rep coverage for every buffer the codec holds.

        The lazy-allocation soundness invariant: *every* codec buffer id
        has a registered rep, so a rep-index miss proves the multiset is
        novel and the kernel may allocate the next id without consulting
        the rich index.  Called at attach time and whenever the codec's
        tables were replaced behind the kernel's back (a checkpoint
        restored without kernel tables)."""
        for bid in range(self.codec.interned_buffers):
            if bid >= len(self._reps) or self._reps[bid] is None:
                self._build_rep(bid)

    def _build_rep(self, bid: int) -> tuple[int, ...]:
        """Derive and register the rep of an already-rich buffer."""
        intern = self._intern_message
        pairs = [
            (intern(message), count)
            for message, count in self.codec.buffer_at(bid).items()
        ]
        keys = self._msg_keys
        pairs.sort(key=lambda kv: keys[kv[0]])
        rep = tuple(v for pair in pairs for v in pair)
        self._register_rep(bid, rep)
        return rep

    def _register_rep(self, bid: int, rep: tuple[int, ...]) -> None:
        reps = self._reps
        if bid >= len(reps):
            reps.extend([None] * (bid + 1 - len(reps)))
        reps[bid] = rep
        self._rep_ids[rep] = bid

    def _alloc_rep(self, rep: tuple[int, ...]) -> int:
        """Allocate the next codec buffer id for a novel multiset.

        No rich buffer is built: the codec slot holds ``None`` until
        :meth:`materialize_buffer` is asked for it.  Sound because the
        rep index is complete (:meth:`reindex`), so the caller's miss
        already proved no engine has seen this multiset — the id the
        rich path would have allocated is exactly this one.
        """
        codec = self.codec
        bid = len(codec._buffers)
        codec._buffers.append(None)
        self._register_rep(bid, rep)
        self.fallback_steps += 1
        return bid

    def intern_rich_buffer(self, buffer: MessageBuffer) -> int:
        """Rich-side interning, routed here by the codec on a rich-index
        miss: the multiset may already own an id as a placeholder.  If
        so, *buffer* fills the slot; otherwise it allocates the next id
        and registers its rep, keeping the index complete."""
        intern = self._intern_message
        pairs = [
            (intern(message), count) for message, count in buffer.items()
        ]
        keys = self._msg_keys
        pairs.sort(key=lambda kv: keys[kv[0]])
        rep = tuple(v for pair in pairs for v in pair)
        codec = self.codec
        bid = self._rep_ids.get(rep)
        if bid is None:
            bid = len(codec._buffers)
            codec._buffers.append(buffer)
            self._register_rep(bid, rep)
        else:
            codec._buffers[bid] = buffer
        codec._buffer_ids[buffer] = bid
        return bid

    def materialize_buffer(self, bid: int) -> MessageBuffer:
        """Build the rich buffer for a lazily-allocated id and install
        it in the codec's tables (the deferred half of
        :meth:`_alloc_rep`; ids and reps are already fixed, so *when*
        this runs cannot change any allocation)."""
        rep = self._reps[bid]
        msgs = self._msgs
        counts = {}
        for i in range(0, len(rep), 2):
            counts[msgs[rep[i]]] = rep[i + 1]
        buffer = MessageBuffer._trusted(counts)
        codec = self.codec
        codec._buffers[bid] = buffer
        codec._buffer_ids[buffer] = bid
        return buffer

    def _merge_rep(self, rep: tuple[int, ...], delta: tuple) -> tuple:
        """*rep* plus a send-batch *delta*, order preserved."""
        keys = self._msg_keys
        out = list(rep)
        for mid, count in delta:
            key = keys[mid]
            for i in range(0, len(out), 2):
                omid = out[i]
                if omid == mid:
                    out[i + 1] += count
                    break
                if keys[omid] > key:
                    out[i:i] = (mid, count)
                    break
            else:
                out.append(mid)
                out.append(count)
        return tuple(out)

    # -- enabled-event rows ------------------------------------------------

    def _ev_row(self, bid: int) -> tuple[int, ...]:
        """The kernel event ids enabled for buffer *bid*, cached — the
        exact order of :meth:`Protocol.enabled_events`."""
        rows = self._ev_rows
        if bid >= len(rows):
            rows.extend([None] * (bid + 1 - len(rows)))
        row = rows[bid]
        if row is None:
            codec = self.codec
            if self._null_eids is None:
                self._null_eids = tuple(
                    self.event_id(event)
                    for event in codec.kernel_null_events()
                )
            eids = list(self._null_eids)
            rep = self._reps[bid]
            mid_eids = self._mid_eids
            for i in range(0, len(rep), 2):
                mid = rep[i]
                block = mid_eids[mid]
                if block is None:
                    block = tuple(
                        self.event_id(event)
                        for event in codec.kernel_message_events(
                            self._msgs[mid]
                        )
                    )
                    mid_eids[mid] = block
                eids.extend(block)
            row = tuple(eids)
            rows[bid] = row
        return row

    # -- fills (the scalar oracle) -----------------------------------------

    def _fill_step(self, eid: int, sid: int) -> tuple[int, int]:
        """Fill the step-table slot ``(eid, sid)`` through the codec's
        scalar step oracle; returns ``(new_state_id, batch_id)``."""
        codec = self.codec
        new_sid, sends = codec.kernel_step(
            self._ev_pos[eid], sid, self._events[eid]
        )
        batch = self._batch_ids.get(sends)
        if batch is None:
            batch = self._intern_batch(sends)
        col = self._step_state[eid]
        needed = max(sid, new_sid) + 1
        if col is None or len(col) < needed:
            size = max(needed, 64, 0 if col is None else 2 * len(col))
            grown = array("q", [-1]) * size
            bgrown = array("q", [-1]) * size
            if col is not None:
                grown[: len(col)] = col
                bgrown[: len(col)] = self._step_batch[eid]
            self._step_state[eid] = col = grown
            self._step_batch[eid] = bgrown
        col[sid] = new_sid
        self._step_batch[eid][sid] = batch
        self.fallback_steps += 1
        return new_sid, batch

    def _fill_deliver(self, bid: int, mid: int, key: int) -> int:
        rep = self._reps[bid]
        for i in range(0, len(rep), 2):
            if rep[i] == mid:
                if rep[i + 1] > 1:
                    new_rep = rep[:i + 1] + (rep[i + 1] - 1,) + rep[i + 2:]
                else:
                    new_rep = rep[:i] + rep[i + 2:]
                break
        else:  # only step() can ask: expand_row's rows derive from the rep
            raise InvalidEvent(
                f"{self._msgs[mid]!r} is not in the message buffer"
            )
        delivered = self._rep_ids.get(new_rep)
        if delivered is None:
            delivered = self._alloc_rep(new_rep)
        self._deliver[key] = delivered
        return delivered

    def _fill_sends(self, bid: int, batch: int, key: int) -> int:
        new_rep = self._merge_rep(
            self._reps[bid], self._batch_deltas[batch]
        )
        sent = self._rep_ids.get(new_rep)
        if sent is None:
            sent = self._alloc_rep(new_rep)
        self._sends[key] = sent
        return sent

    # -- expansion ---------------------------------------------------------

    def step(self, row: tuple[int, ...], eid: int) -> tuple[int, ...]:
        """``e(C)`` for kernel event *eid* on the packed row *row*.

        One edge of :meth:`expand_row`, computed the same way (step
        gather, delivery, send batch, each filled on miss), except that
        a self-loop returns the row itself rather than ``None``.  Raises
        :class:`~repro.core.errors.InvalidEvent` when the event consumes
        a message the row's buffer does not hold.
        """
        pos = self._ev_pos[eid]
        sid = row[pos]
        col = self._step_state[eid]
        new_sid = col[sid] if col is not None and sid < len(col) else -1
        if new_sid < 0:
            new_sid, batch = self._fill_step(eid, sid)
        else:
            batch = self._step_batch[eid][sid]
            self.table_hits += 1
        b = row[-1]
        mid = self._ev_mid[eid]
        if mid >= 0:
            key = b * _STRIDE + mid
            delivered = self._deliver.get(key)
            b = (
                self._fill_deliver(b, mid, key)
                if delivered is None
                else delivered
            )
        if batch:
            key = b * _STRIDE + batch
            sent = self._sends.get(key)
            b = self._fill_sends(b, batch, key) if sent is None else sent
        successor = list(row)
        successor[pos] = new_sid
        successor[-1] = b
        return tuple(successor)

    def expand_row(
        self, row: tuple[int, ...]
    ) -> list[tuple[int, tuple[int, ...] | None]]:
        """All ``(kernel_event_id, successor)`` edges of a packed row,
        in canonical enabled-event order.

        A self-loop — a null delivery that leaves the state unchanged
        and sends nothing — yields ``None`` as its successor: the caller
        already holds the row, and the sentinel lets the merge skip both
        the tuple construction and the index probe for what is, on
        quiescent frontiers, a large fraction of all edges."""
        bid = row[-1]
        rows = self._ev_rows
        eids = rows[bid] if bid < len(rows) else None
        if eids is None:
            eids = self._ev_row(bid)
        self.batch_expansions += 1
        ev_pos = self._ev_pos
        ev_mid = self._ev_mid
        step_state = self._step_state
        step_batch = self._step_batch
        deliver_get = self._deliver.get
        sends_get = self._sends.get
        base = list(row)
        out = []
        append = out.append
        hits = 0
        for eid in eids:
            pos = ev_pos[eid]
            sid = row[pos]
            col = step_state[eid]
            new_sid = (
                col[sid] if col is not None and sid < len(col) else -1
            )
            if new_sid < 0:
                new_sid, batch = self._fill_step(eid, sid)
            else:
                batch = step_batch[eid][sid]
                hits += 1
            mid = ev_mid[eid]
            if mid < 0:
                if not batch:
                    if new_sid == sid:
                        append((eid, None))
                        continue
                    b = bid
                else:
                    key = bid * _STRIDE + batch
                    b = sends_get(key)
                    if b is None:
                        b = self._fill_sends(bid, batch, key)
            else:
                key = bid * _STRIDE + mid
                b = deliver_get(key)
                if b is None:
                    b = self._fill_deliver(bid, mid, key)
                if batch:
                    key = b * _STRIDE + batch
                    sent = sends_get(key)
                    if sent is None:
                        sent = self._fill_sends(b, batch, key)
                    b = sent
            successor = base.copy()
            successor[pos] = new_sid
            successor[-1] = b
            append((eid, tuple(successor)))
        self.table_hits += hits
        return out

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict[str, object]:
        """Picklable snapshot: interning lists, the dense step columns
        as raw bytes, the int-keyed transition tables, and the buffer
        reps (a placeholder slot in the codec snapshot has *only* its
        rep as identity, so reps are load-bearing, not a cache).
        Per-buffer event rows rebuild lazily from the reps."""
        return {
            "reps": list(self._reps),
            "events": list(self._events),
            "ev_pos": self._ev_pos.tobytes(),
            "ev_mid": self._ev_mid.tobytes(),
            "msgs": list(self._msgs),
            "batches": list(self._batches),
            "step_state": [
                None if col is None else col.tobytes()
                for col in self._step_state
            ],
            "step_batch": [
                None if col is None else col.tobytes()
                for col in self._step_batch
            ],
            "deliver": dict(self._deliver),
            "sends": dict(self._sends),
            "counters": (
                self.batch_expansions,
                self.table_hits,
                self.fallback_steps,
            ),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Install a :meth:`snapshot_state` payload (codec restored
        first — message/event identity is content-based, so the rebuilt
        id maps land on the same ids)."""
        self._events = list(state["events"])
        self._event_ids = {e: i for i, e in enumerate(self._events)}
        self._ev_pos = array("q")
        self._ev_pos.frombytes(state["ev_pos"])
        self._ev_mid = array("q")
        self._ev_mid.frombytes(state["ev_mid"])
        self._msgs = list(state["msgs"])
        self._msg_ids = {m: i for i, m in enumerate(self._msgs)}
        self._msg_keys = [
            (m.destination, repr(m.value)) for m in self._msgs
        ]
        self._mid_eids = [None] * len(self._msgs)
        self._batches = list(state["batches"])
        self._batch_ids = {b: i for i, b in enumerate(self._batches)}
        self._batch_deltas = [
            self._batch_delta(batch) for batch in self._batches
        ]
        self._step_state = []
        for blob in state["step_state"]:
            if blob is None:
                self._step_state.append(None)
            else:
                col = array("q")
                col.frombytes(blob)
                self._step_state.append(col)
        self._step_batch = []
        for blob in state["step_batch"]:
            if blob is None:
                self._step_batch.append(None)
            else:
                col = array("q")
                col.frombytes(blob)
                self._step_batch.append(col)
        self._deliver = dict(state["deliver"])
        self._sends = dict(state["sends"])
        self._reps = list(state["reps"])
        self._rep_ids = {
            rep: bid
            for bid, rep in enumerate(self._reps)
            if rep is not None
        }
        self._ev_rows = []
        self._null_eids = None
        counters = state["counters"]
        self.batch_expansions = int(counters[0])
        self.table_hits = int(counters[1])
        self.fallback_steps = int(counters[2])
        # Codec and kernel snapshot atomically, so coverage should
        # already be complete; reindex is a cheap no-op then, and
        # restores the invariant if the codec grew in between.
        self.reindex()

