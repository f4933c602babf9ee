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
* **Inboxes.**  The paper's message buffer is a multiset of ``(p, m)``
  pairs, so it splits by destination with no loss.  The kernel keeps a
  buffer id as a tuple of *inbox ids*, one per destination slot in
  sorted process order (the packed row's order).  An inbox's *rep* is a
  flat ``(message_id, count, ...)`` tuple sorted by ``repr(value)``;
  the reps of a buffer's inboxes, concatenated, are the multiset in the
  ``(destination, repr(value))`` order of
  :meth:`MessageBuffer.distinct_messages`.  Few inboxes recur under
  many buffers (benor/3 at 50k configurations: 2,764 inboxes under
  157,317 buffer ids).
* **Inbox transition tables.**  A delivery is a count decrement in one
  inbox, keyed ``inbox_id * STRIDE + message_id``; a send batch is
  split into per-destination *pieces*, each a sorted merge into one
  inbox, keyed ``inbox_id * STRIDE + piece_id``.  Both are dicts of
  composite ints — no tuple allocation, no Message hashing — and nearly
  every lookup hits.  A step then rebuilds the inbox tuple with the
  changed slots and probes the tuple -> buffer-id index.
* **Lazy buffers.**  A *genuinely novel* inbox tuple allocates the next
  codec buffer id as an unmaterialized placeholder — the rich
  :class:`MessageBuffer` (a dict plus a frozenset hash) is built only if
  something actually asks for it (:meth:`PackedCodec.buffer_at`,
  decoding).  The kernel keeps the index *complete* — every codec
  buffer id has its inbox tuple, rich-path interning routes through
  :meth:`intern_rich_buffer` — so an index miss proves novelty.  A
  delivery that also sends probes (and, if novel, allocates) its
  post-delivery intermediate before the post-send buffer, so id
  allocation is byte-for-byte the first-seen order of the successor
  relation (pinned by ``tests/core/test_census_fingerprints.py``).
* **Event rows.**  The enabled-event list of a buffer is the null
  events' ids followed by each inbox's cached block of message events,
  derived through the codec's
  :meth:`~PackedCodec.kernel_null_events` /
  :meth:`~PackedCodec.kernel_message_events` hooks — the exact order of
  :meth:`~repro.core.protocol.Protocol.enabled_events`, including the
  faulted codec's dead-process exclusions and lossy-channel drop edges.

Two entry points read the tables: :meth:`TransitionKernel.expand_row`
(all edges of a row, the hot loop) and :meth:`TransitionKernel.step`
(one event on one row).  Both fill misses through the same
``_fill_step``/``_fill_deliver``/``_fill_sends`` and allocate novel
buffers through ``_alloc_buffer``, so state and buffer ids allocate in
the order the successors are asked for, whoever asks.  The
crew ships buffers between kernels as *wire reps*
(:meth:`~TransitionKernel.wire_encoder`,
:meth:`~TransitionKernel.resolve_wire_reps`); only this module knows
their format.

Everything here is ``array``/``dict``/``tuple`` — no third-party
dependencies, per the core's rule.  The kernel is owned by one codec;
:meth:`snapshot_state`/:meth:`restore_state` ride inside checkpoint v2
so resumed runs reuse every filled table row instead of re-deriving it.
"""

from __future__ import annotations

import sys
from array import array
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.core.errors import InvalidEvent, UnknownProcess
from repro.core.messages import MessageBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import Event
    from repro.core.packing import PackedCodec

__all__ = ["TransitionKernel"]

#: Composite-key stride for the inbox deliver/sends tables: the key is
#: ``inbox_id * _STRIDE + message_or_piece_id``.  2^20 distinct message
#: values / send pieces per protocol is far beyond any finite instance
#: (benor/3 has 53 messages); :meth:`_intern_message` guards the bound.
_STRIDE = 1 << 20


def _mapped(rep: tuple[int, ...], translate: Callable[[int], int]) -> tuple:
    """*rep* with every message id passed through *translate*."""
    out = list(rep)
    out[0::2] = map(translate, rep[0::2])
    return tuple(out)


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
        self._slots = len(codec.process_names)
        # Kernel event interning + per-event-id metadata columns.
        self._events: list["Event"] = []
        self._event_ids: dict["Event", int] = {}
        self._ev_pos = array("q")
        self._ev_mid = array("q")
        # Message interning: the sort key mirrors distinct_messages(),
        # the slot is the destination's tuple position.
        self._msgs: list = []
        self._msg_ids: dict = {}
        self._msg_keys: list[tuple[str, str]] = []
        self._msg_slot: list[int] = []
        self._mid_eids: list[tuple[int, ...] | None] = []
        # Send-batch interning (batch 0 is the empty batch); per batch,
        # its ``(slot, piece_id)`` pieces in slot order.
        self._batches: list[tuple] = [()]
        self._batch_ids: dict = {(): 0}
        self._batch_pieces: list[tuple] = [()]
        self._pieces: list[tuple[int, ...]] = []
        self._piece_ids: dict[tuple[int, ...], int] = {}
        # Step tables: per event id, state_id -> successor state id and
        # state_id -> send-batch id (-1 = unfilled).
        self._step_state: list[array | None] = []
        self._step_batch: list[array | None] = []
        # Inboxes (inbox 0 is the empty one), their event blocks, and
        # the composite-int keyed inbox transitions.
        self._inbox_reps: list[tuple[int, ...]] = [()]
        self._inbox_ids: dict[tuple[int, ...], int] = {(): 0}
        self._inbox_eids: list[tuple[int, ...] | None] = [None]
        self._deliver: dict[int, int] = {}
        self._sends: dict[int, int] = {}
        # Per buffer id its inbox tuple, and the inbox tuple -> buffer
        # id index.
        self._buf_inboxes: list[tuple[int, ...] | None] = []
        self._buf_index: dict[tuple[int, ...], int] = {}
        self._null_eids: tuple[int, ...] | None = None
        # Running byte counts of what table_bytes cannot size cheaply.
        self._object_bytes = sys.getsizeof(())
        self._key_bytes = 0
        self._entry_bytes = sys.getsizeof((1 << 29,) * self._slots) + (
            sys.getsizeof(1 << 29)
        )
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
        """Resident bytes the kernel's buffer and step tables hold: the
        dense step columns, the inbox reps, event blocks and transition
        tables (composite keys included), and per buffer id its inbox
        tuple, its int id and its index slot.  Interned rich objects
        (events, messages, batches) are not counted."""
        getsizeof = sys.getsizeof
        total = sum(
            getsizeof(col)
            for columns in (self._step_state, self._step_batch)
            for col in columns
            if col is not None
        )
        for table in (
            self._deliver, self._sends, self._inbox_ids,
            self._inbox_reps, self._inbox_eids,
            self._buf_inboxes, self._buf_index,
        ):
            total += getsizeof(table)
        total += self._object_bytes + self._key_bytes
        total += len(self._buf_index) * self._entry_bytes
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
            try:
                slot = self.codec.position_of(message.destination)
            except KeyError:
                raise UnknownProcess(message.destination) from None
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
            self._msg_slot.append(slot)
            self._mid_eids.append(None)
        return mid

    def _intern_batch(self, sends: tuple) -> int:
        batch = len(self._batches)
        self._batch_ids[sends] = batch
        self._batches.append(sends)
        self._batch_pieces.append(self._split_batch(sends))
        return batch

    def _split_batch(self, sends: tuple) -> tuple:
        """*sends* as ``((slot, piece_id), ...)`` in slot order, a piece
        being one destination's flat ``(message_id, count, ...)`` share
        in rep order."""
        agg: dict[int, int] = {}
        for message in sends:
            mid = self._intern_message(message)
            agg[mid] = agg.get(mid, 0) + 1
        per_slot = self._group(agg.items())
        pieces = []
        for slot, rep in enumerate(per_slot):
            if rep:
                piece = self._piece_ids.get(rep)
                if piece is None:
                    piece = len(self._pieces)
                    if piece >= _STRIDE:  # pragma: no cover - absurd
                        raise RuntimeError(
                            f"kernel supports at most {_STRIDE} distinct "
                            "send pieces per protocol"
                        )
                    self._piece_ids[rep] = piece
                    self._pieces.append(rep)
                pieces.append((slot, piece))
        return tuple(pieces)

    def _group(
        self, pairs: Iterable[tuple[int, int]]
    ) -> list[tuple[int, ...]]:
        """``(message_id, count)`` pairs as one flat rep per slot."""
        per_slot: list[list] = [[] for _ in range(self._slots)]
        slot_of = self._msg_slot
        for pair in pairs:
            per_slot[slot_of[pair[0]]].append(pair)
        keys = self._msg_keys
        reps = []
        for group in per_slot:
            group.sort(key=lambda kv: keys[kv[0]])
            reps.append(tuple(v for pair in group for v in pair))
        return reps

    # -- inboxes and buffers -----------------------------------------------

    def _intern_inbox(self, rep: tuple[int, ...]) -> int:
        iid = self._inbox_ids.get(rep)
        if iid is None:
            iid = len(self._inbox_reps)
            self._inbox_ids[rep] = iid
            self._inbox_reps.append(rep)
            self._inbox_eids.append(None)
            self._object_bytes += sys.getsizeof(rep)
        return iid

    def _rich_inboxes(self, buffer: MessageBuffer) -> tuple[int, ...]:
        """The inbox tuple of a rich buffer."""
        intern = self._intern_message
        pairs = ((intern(message), count) for message, count in buffer.items())
        return tuple(map(self._intern_inbox, self._group(pairs)))

    def reindex(self) -> None:
        """(Re)build inbox coverage for every buffer the codec holds.

        The lazy-allocation soundness invariant: *every* codec buffer id
        has its inbox tuple in the index, so an index miss proves the
        multiset is novel and the kernel may allocate the next id
        without consulting the rich index.  Called at attach time and
        after a checkpoint restore."""
        inboxes = self._buf_inboxes
        for bid in range(self.codec.interned_buffers):
            if bid >= len(inboxes) or inboxes[bid] is None:
                self._register(
                    bid, self._rich_inboxes(self.codec.buffer_at(bid))
                )

    def _register(self, bid: int, inboxes: tuple[int, ...]) -> None:
        table = self._buf_inboxes
        if bid >= len(table):
            table.extend([None] * (bid + 1 - len(table)))
        table[bid] = inboxes
        self._buf_index[inboxes] = bid

    def _alloc_buffer(self, inboxes: tuple[int, ...]) -> int:
        """Allocate the next codec buffer id for a novel multiset.

        No rich buffer is built: the codec slot holds ``None`` until
        :meth:`materialize_buffer` is asked for it.  Sound because the
        index is complete (:meth:`reindex`), so the caller's miss
        already proved no engine has seen this multiset — the id the
        rich path would have allocated is exactly this one.
        """
        codec = self.codec
        bid = len(codec._buffers)
        codec._buffers.append(None)
        self._buf_inboxes.append(inboxes)
        self._buf_index[inboxes] = bid
        self.fallback_steps += 1
        return bid

    def intern_rich_buffer(self, buffer: MessageBuffer) -> int:
        """Rich-side interning, routed here by the codec on a rich-index
        miss: the multiset may already own an id as a placeholder.  If
        so, *buffer* fills the slot; otherwise it allocates the next id
        and registers its inboxes, keeping the index complete."""
        inboxes = self._rich_inboxes(buffer)
        codec = self.codec
        bid = self._buf_index.get(inboxes)
        if bid is None:
            bid = len(codec._buffers)
            codec._buffers.append(buffer)
            self._register(bid, inboxes)
        else:
            codec._buffers[bid] = buffer
        codec._buffer_ids[buffer] = bid
        return bid

    def materialize_buffer(self, bid: int) -> MessageBuffer:
        """Build the rich buffer for a lazily-allocated id and install
        it in the codec's tables (the deferred half of
        :meth:`_alloc_buffer`; ids and inboxes are already fixed, so
        *when* this runs cannot change any allocation)."""
        msgs = self._msgs
        reps = self._inbox_reps
        counts = {}
        for iid in self._buf_inboxes[bid]:
            rep = reps[iid]
            for i in range(0, len(rep), 2):
                counts[msgs[rep[i]]] = rep[i + 1]
        buffer = MessageBuffer._trusted(counts)
        codec = self.codec
        codec._buffers[bid] = buffer
        codec._buffer_ids[buffer] = bid
        return buffer

    # -- wire reps (the crew's buffer format) ------------------------------

    def wire_encoder(
        self, translate: Callable[[int], int] | None = None
    ) -> Callable[[int], tuple]:
        """A function from a buffer id to its *wire rep*, the form
        another kernel resolves (:meth:`resolve_wire_reps`): one flat
        ``(message_id, count, ...)`` tuple per destination slot, no
        inbox ids, message ids passed through *translate* if given.
        Translating keeps every inbox sorted: rep order is by message
        content, not by id.  Each inbox is translated once per encoder,
        so *translate* must not change while the encoder is in use."""
        reps = self._inbox_reps
        buf_inboxes = self._buf_inboxes
        if translate is None:
            return lambda bid: tuple(reps[iid] for iid in buf_inboxes[bid])
        translated: dict[int, tuple] = {}

        def wire_rep(bid: int) -> tuple:
            out = []
            for iid in buf_inboxes[bid]:
                rep = translated.get(iid)
                if rep is None:
                    rep = translated[iid] = _mapped(reps[iid], translate)
                out.append(rep)
            return tuple(out)

        return wire_rep

    def resolve_wire_reps(
        self,
        wires: Iterable[tuple],
        translate: Callable[[int], int] | None = None,
    ) -> Iterator[int]:
        """Yield the buffer id of each wire rep (:meth:`wire_encoder`)
        in *wires*, in
        order (message ids passed through *translate* into this
        kernel's), allocating the next id as a placeholder for a novel
        multiset.  Lazy, so a caller can interleave the allocations with
        its own; *translate* must not change while it runs."""
        inbox_of: dict[tuple, int] = {}
        known = inbox_of.get

        def local_inbox(rep: tuple) -> int:
            iid = known(rep)
            if iid is None:
                iid = inbox_of[rep] = self._intern_inbox(
                    rep if translate is None else _mapped(rep, translate)
                )
            return iid

        index_get = self._buf_index.get
        for wire in wires:
            inboxes = tuple(map(known, wire))
            if None in inboxes:
                inboxes = tuple(map(local_inbox, wire))
            bid = index_get(inboxes)
            yield self._alloc_buffer(inboxes) if bid is None else bid

    def intermediate_buffer(self, bid: int, eid: int) -> int | None:
        """The post-delivery, pre-send buffer id of event *eid* on
        buffer *bid*, or ``None`` when the event consumes no message.
        A lookup only: the step that delivered it allocated it."""
        mid = self._ev_mid[eid]
        if mid < 0:
            return None
        inboxes = self._buf_inboxes[bid]
        pos = self._ev_pos[eid]
        delivered = self._deliver[inboxes[pos] * _STRIDE + mid]
        return self._buf_index[
            inboxes[:pos] + (delivered,) + inboxes[pos + 1:]
        ]

    # -- enabled events ----------------------------------------------------

    def _row_eids(self, inboxes: tuple[int, ...]) -> tuple[int, ...]:
        """The kernel event ids enabled for a buffer with *inboxes* —
        the exact order of :meth:`Protocol.enabled_events`."""
        eids = self._null_eids
        if eids is None:
            eids = self._null_eids = tuple(
                self.event_id(event)
                for event in self.codec.kernel_null_events()
            )
        blocks = self._inbox_eids
        for iid in inboxes:
            if iid:
                block = blocks[iid]
                if block is None:
                    block = self._inbox_block(iid)
                eids += block
        return eids

    def _inbox_block(self, iid: int) -> tuple[int, ...]:
        codec = self.codec
        mid_eids = self._mid_eids
        rep = self._inbox_reps[iid]
        eids: list[int] = []
        for mid in rep[0::2]:
            block = mid_eids[mid]
            if block is None:
                block = mid_eids[mid] = tuple(
                    self.event_id(event)
                    for event in codec.kernel_message_events(
                        self._msgs[mid]
                    )
                )
            eids.extend(block)
        block = self._inbox_eids[iid] = tuple(eids)
        self._object_bytes += sys.getsizeof(block)
        return block

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

    def _fill_deliver(self, iid: int, mid: int, key: int) -> int:
        rep = self._inbox_reps[iid]
        for i in range(0, len(rep), 2):
            if rep[i] == mid:
                if rep[i + 1] > 1:
                    new_rep = rep[:i + 1] + (rep[i + 1] - 1,) + rep[i + 2:]
                else:
                    new_rep = rep[:i] + rep[i + 2:]
                break
        else:  # only step() can ask: expand_row's rows derive from inboxes
            raise InvalidEvent(
                f"{self._msgs[mid]!r} is not in the message buffer"
            )
        delivered = self._deliver[key] = self._intern_inbox(new_rep)
        self._key_bytes += sys.getsizeof(key)
        return delivered

    def _fill_sends(self, iid: int, piece: int, key: int) -> int:
        """Merge send piece *piece* into inbox *iid*, order preserved."""
        keys = self._msg_keys
        rep = self._inbox_reps[iid]
        delta = self._pieces[piece]
        out: list[int] = []
        i, n = 0, len(rep)
        for j in range(0, len(delta), 2):
            mid = delta[j]
            key_j = keys[mid]
            while i < n and rep[i] != mid and keys[rep[i]] <= key_j:
                out += rep[i:i + 2]
                i += 2
            if i < n and rep[i] == mid:
                out += (mid, rep[i + 1] + delta[j + 1])
                i += 2
            else:
                out += (mid, delta[j + 1])
        out += rep[i:]
        sent = self._sends[key] = self._intern_inbox(tuple(out))
        self._key_bytes += sys.getsizeof(key)
        return sent

    def _buffer_of(self, inboxes: list[int]) -> int:
        """The buffer id of an inbox list, allocated if novel."""
        inboxes = tuple(inboxes)
        bid = self._buf_index.get(inboxes)
        return self._alloc_buffer(inboxes) if bid is None else bid

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
        if mid >= 0 or batch:
            after = list(self._buf_inboxes[b])
        if mid >= 0:
            iid = after[pos]
            key = iid * _STRIDE + mid
            delivered = self._deliver.get(key)
            after[pos] = (
                self._fill_deliver(iid, mid, key)
                if delivered is None else delivered
            )
            b = self._buffer_of(after)
        if batch:
            for slot, piece in self._batch_pieces[batch]:
                iid = after[slot]
                key = iid * _STRIDE + piece
                sent = self._sends.get(key)
                after[slot] = (
                    self._fill_sends(iid, piece, key) if sent is None else sent
                )
            b = self._buffer_of(after)
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
        inboxes = self._buf_inboxes[bid]
        eids = self._row_eids(inboxes)
        self.batch_expansions += 1
        ev_pos = self._ev_pos
        ev_mid = self._ev_mid
        step_state = self._step_state
        step_batch = self._step_batch
        batch_pieces = self._batch_pieces
        deliver_get = self._deliver.get
        sends_get = self._sends.get
        index_get = self._buf_index.get
        base = list(row)
        out = []
        append = out.append
        hits = 0
        # step()'s delivery and send code, inlined: the hot loop.
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
            if mid >= 0:
                after = list(inboxes)
                iid = inboxes[pos]
                key = iid * _STRIDE + mid
                delivered = deliver_get(key)
                after[pos] = (
                    self._fill_deliver(iid, mid, key)
                    if delivered is None else delivered
                )
                inboxes_b = tuple(after)
                b = index_get(inboxes_b)
                if b is None:
                    b = self._alloc_buffer(inboxes_b)
            elif batch:
                after = list(inboxes)
            elif new_sid == sid:
                append((eid, None))
                continue
            else:
                b = bid
            if batch:
                for slot, piece in batch_pieces[batch]:
                    iid = after[slot]
                    key = iid * _STRIDE + piece
                    sent = sends_get(key)
                    after[slot] = (
                        self._fill_sends(iid, piece, key)
                        if sent is None else sent
                    )
                inboxes_b = tuple(after)
                b = index_get(inboxes_b)
                if b is None:
                    b = self._alloc_buffer(inboxes_b)
            successor = base.copy()
            successor[pos] = new_sid
            successor[-1] = b
            append((eid, tuple(successor)))
        self.table_hits += hits
        return out

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict[str, object]:
        """Picklable snapshot: interning lists, the dense step columns
        as raw bytes, the inbox reps and their int-keyed transition
        tables, and per buffer id its inbox tuple (a placeholder slot in
        the codec snapshot has *only* its inboxes as identity, so they
        are load-bearing, not a cache).  Event blocks rebuild lazily."""
        return {
            "events": list(self._events),
            "ev_pos": self._ev_pos.tobytes(),
            "ev_mid": self._ev_mid.tobytes(),
            "msgs": list(self._msgs),
            "batches": list(self._batches),
            "pieces": list(self._pieces),
            "step_state": [
                None if col is None else col.tobytes()
                for col in self._step_state
            ],
            "step_batch": [
                None if col is None else col.tobytes()
                for col in self._step_batch
            ],
            "inbox_reps": list(self._inbox_reps),
            "inbox_deliver": dict(self._deliver),
            "inbox_sends": dict(self._sends),
            "buffer_inboxes": list(self._buf_inboxes),
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
        self._msgs = []
        self._msg_ids = {}
        self._msg_keys = []
        self._msg_slot = []
        self._mid_eids = []
        for message in state["msgs"]:
            self._intern_message(message)
        self._pieces = list(state["pieces"])
        self._piece_ids = {p: i for i, p in enumerate(self._pieces)}
        self._batches = list(state["batches"])
        self._batch_ids = {b: i for i, b in enumerate(self._batches)}
        self._batch_pieces = [
            self._split_batch(batch) for batch in self._batches
        ]
        self._step_state = []
        self._step_batch = []
        for blobs, columns in (
            (state["step_state"], self._step_state),
            (state["step_batch"], self._step_batch),
        ):
            for blob in blobs:
                if blob is None:
                    columns.append(None)
                else:
                    col = array("q")
                    col.frombytes(blob)
                    columns.append(col)
        self._inbox_reps = [()]
        self._inbox_ids = {(): 0}
        self._inbox_eids = [None]
        self._object_bytes = sys.getsizeof(())
        self._key_bytes = 0
        self._buf_inboxes = []
        self._buf_index = {}
        for rep in state["inbox_reps"]:
            self._intern_inbox(rep)
        self._deliver = dict(state["inbox_deliver"])
        self._sends = dict(state["inbox_sends"])
        getsizeof = sys.getsizeof
        self._key_bytes = sum(
            getsizeof(key)
            for table in (self._deliver, self._sends)
            for key in table
        )
        for bid, inboxes in enumerate(state["buffer_inboxes"]):
            if inboxes is not None:
                self._register(bid, inboxes)
        self._null_eids = None
        counters = state["counters"]
        self.batch_expansions = int(counters[0])
        self.table_hits = int(counters[1])
        self.fallback_steps = int(counters[2])
        # Codec and kernel snapshot together, so coverage is already
        # complete and this is a cheap check of the invariant.
        self.reindex()
