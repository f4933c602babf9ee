"""Opt-in shared-memory frontier expansion for the exploration engine.

The configuration graph grows by expanding BFS frontiers, and each
node's expansion is independent: enumerate the enabled events, apply the
(pure, deterministic) transition function, report the successors.  That
makes frontier levels embarrassingly parallel — *provided* interning
stays centralized.  The contract here:

* The parent stages each level's packed rows in one
  ``multiprocessing.shared_memory`` block that persistent workers index
  directly — no per-level pickling of configurations.  The level is cut
  into chunks on a shared queue that idle workers pull from (work
  stealing, no per-level ``Pool.map`` barrier).
* Workers mirror the parent's tables in the kernel's own format, synced
  once per level (:func:`_table_delta`): new states, kernel messages
  and kernel events rich (there are few), new buffers as the kernel's
  *wire reps* (:meth:`~repro.core.kernel.TransitionKernel.wire_encoder`)
  in parent message ids, installed as placeholders in the worker's
  :class:`~repro.core.kernel.TransitionKernel`.  No rich
  :class:`~repro.core.messages.MessageBuffer` crosses the wire, and
  only the kernel knows the wire rep's format.
* Per chunk a worker returns flat ``(event, state, final buffer)`` id
  triples in parent ids.  What the parent had not interned at the sync
  is a reference ``~k`` into a per-chunk side table (states, events
  and unseen messages rich, buffers as wire reps in parent message
  ids), listed in first-seen order with each post-delivery intermediate
  before the buffer its send batch produces — the order
  :meth:`TransitionKernel.expand_row` allocates ids in.
  :func:`decode_chunk` resolves a row's entries just before that row is
  merged, so state and buffer ids allocate in exactly the serial order
  and the merged graph is byte-identical to a serial run.  Kernel
  message and event ids are not observable (store event ids are
  assigned at first edge write), so their order is free.
* A model error (:class:`~repro.core.errors.FLPError`) a worker raises
  comes back as its chunk's result, after the rows that completed, and
  the parent re-raises it unchanged: it is the protocol's, not a crew
  failure.
* Expansion is all-or-nothing per node: the parent applies the budget
  while merging, exactly like the serial path.

Worker kernels live for the lifetime of the crew, so repeated levels
amortize their filled tables.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import time
from array import array
from itertools import islice
from typing import Iterator

from repro.core.errors import FLPError
from repro.core.kernel import TransitionKernel
from repro.core.protocol import Protocol
from repro.core.resilience import ChaosConfig

__all__ = [
    "CrewFailure",
    "WorkStealingCrew",
    "decode_chunk",
]


def _claim_sentinel(path: str) -> bool:
    """Atomically claim *path*; True for exactly one claimant ever."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _maybe_inject_fault(chaos: ChaosConfig | None) -> None:
    """Run the worker-side chaos faults, each at most once per path.

    ``kill_once_path``: die by SIGKILL — the parent sees a batch that
    never completes, exactly like a real OOM-killed or crashed worker.
    ``hang_once_path``: sleep far past the batch timeout, modeling a
    wedged worker; the parent's recovery path is identical.  Respawned
    workers share the sentinel files, so each fault fires once per crew
    lifetime, not once per process.
    """
    if chaos is None:
        return
    if chaos.kill_once_path and _claim_sentinel(chaos.kill_once_path):
        os.kill(os.getpid(), signal.SIGKILL)
    if chaos.hang_once_path and _claim_sentinel(chaos.hang_once_path):
        time.sleep(chaos.hang_seconds)


# ---------------------------------------------------------------------------
# The wire: worker-side mirror and encoder, parent-side decoder
# ---------------------------------------------------------------------------


#: Component kinds, in sync-delta and side-table order.
_STATE, _MSG, _EVENT, _BUFFER = range(4)


def _table_delta(kernel: TransitionKernel, marks: tuple) -> tuple:
    """The parent's mirror sync: everything *kernel* and its codec
    interned since *marks* (one count per kind), and the new marks.

    States, kernel messages and kernel events go rich, buffers as their
    wire reps in the parent's message ids.  No buffer materializes: the
    kernel's buffer index is complete, so every buffer id has a wire
    rep.
    """
    tables = (kernel.codec._states, kernel._msgs, kernel._events)
    delta = tuple(table[mark:] for table, mark in zip(tables, marks))
    buffers = kernel.codec.interned_buffers
    wire_rep = kernel.wire_encoder()
    delta += ([wire_rep(bid) for bid in range(marks[_BUFFER], buffers)],)
    return delta, (*map(len, tables), buffers)


class _Mirror:
    """A worker's kernel plus its id maps to and from the parent's.

    Per component kind, ``p2l`` lists map parent ids to local ones
    (dense, synced in parent allocation order) and ``l2p`` lists map
    local ids back, ``-1`` (or past the end) until the parent has
    interned that component and synced it here.
    """

    def __init__(self, protocol: Protocol):
        self.codec = protocol.packed_codec()
        self.kernel = TransitionKernel(self.codec)
        self.p2l: tuple[list[int], ...] = ([], [], [], [])
        self.l2p: tuple[list[int], ...] = ([], [], [], [])

    def apply(self, marks: tuple, delta: tuple) -> None:
        """Install one :func:`_table_delta` (the parent's tables from
        *marks* on).  A buffer's wire rep registers as a kernel
        placeholder unless the worker already holds that multiset."""
        if marks != tuple(map(len, self.p2l)):
            raise RuntimeError(
                "codec table sync out of order; parent will rebuild "
                "the crew"
            )
        states, messages, events, reps = delta
        kernel = self.kernel
        # Lazy maps, consumed in order: messages link before any rep
        # is translated.
        for p2l, l2p, local_ids in zip(self.p2l, self.l2p, (
            map(self.codec.intern_state, states),
            map(kernel._intern_message, messages),
            map(kernel.event_id, events),
            kernel.resolve_wire_reps(reps, self.p2l[_MSG].__getitem__),
        )):
            for local in local_ids:
                if local >= len(l2p):
                    l2p.extend([-1] * (local + 1 - len(l2p)))
                l2p[local] = len(p2l)
                p2l.append(local)

    def expand_chunk(
        self, view, width: int, start: int, end: int,
        chaos: ChaosConfig | None,
    ) -> tuple:
        """Expand frontier rows ``start..end`` into one chunk payload.

        ``(marks, triples, side, error)``: per row its edge count and
        the side-state and side-rep table lengths after it, the flat
        ``(event, state, final buffer)`` triples in parent ids or ``~k``
        side references, the side tables (states, messages and events
        rich, buffer wire reps in parent message ids), and the
        :class:`FLPError` that stopped the chunk (rows before it are
        complete), or ``None``.
        """
        kernel = self.kernel
        expand_row = kernel.expand_row
        ev_pos, msgs = kernel._ev_pos, kernel._msgs
        intermediate_buffer = kernel.intermediate_buffer
        state_at, event_at = self.codec.state_at, kernel.event_at
        p2l_state, _, _, p2l_buffer = self.p2l
        l2p_state, l2p_msg, l2p_event, l2p_buffer = self.l2p
        n_state, n_msg, n_event, n_buffer = map(len, self.l2p)
        marks = array("q")
        triples: list[int] = []
        side: tuple[list, ...] = ([], [], [], [])
        refs: tuple[dict, ...] = ({}, {}, {}, {})

        def ref(kind: int, local: int, rich) -> int:
            """The side reference of a component the parent lacked at
            the sync, entered on first use."""
            found = refs[kind].get(local)
            if found is None:
                found = refs[kind][local] = ~len(side[kind])
                side[kind].append(rich(local))
            return found

        def parent_mid(mid: int) -> int:
            parent = l2p_msg[mid] if mid < n_msg else -1
            return parent if parent >= 0 else ref(_MSG, mid, msgs.__getitem__)

        parent_rep = kernel.wire_encoder(parent_mid)

        error = None
        n_len = width - 1
        try:
            for r in range(start, end):
                _maybe_inject_fault(chaos)
                prow = view[r * width:(r + 1) * width].tolist()
                bid = p2l_buffer[prow[n_len]]
                local_row = [p2l_state[s] for s in prow[:n_len]]
                local_row.append(bid)
                edges = expand_row(tuple(local_row))
                for eid, successor in edges:
                    parent_eid = l2p_event[eid] if eid < n_event else -1
                    if parent_eid < 0:
                        parent_eid = ref(_EVENT, eid, event_at)
                    pos = ev_pos[eid]
                    if successor is None:
                        triples += (parent_eid, prow[pos], prow[n_len])
                        continue
                    sid = successor[pos]
                    state = l2p_state[sid] if sid < n_state else -1
                    if state < 0:
                        state = ref(_STATE, sid, state_at)
                    b = successor[n_len]
                    # A novel post-delivery intermediate enters the side
                    # table before the post-send buffer.
                    delivered = intermediate_buffer(bid, eid)
                    if delivered is not None and delivered != b and (
                        delivered >= n_buffer
                        or l2p_buffer[delivered] < 0
                    ):
                        ref(_BUFFER, delivered, parent_rep)
                    final = l2p_buffer[b] if b < n_buffer else -1
                    if final < 0:
                        final = ref(_BUFFER, b, parent_rep)
                    triples += (parent_eid, state, final)
                marks.extend(
                    (len(edges), len(side[_STATE]), len(side[_BUFFER]))
                )
        except FLPError as raised:
            error = raised
        return marks, array("q", triples), side, error


def decode_chunk(
    kernel: TransitionKernel, rows: list[tuple[int, ...]], payload: tuple
) -> Iterator[list[tuple[int, tuple[int, ...] | None]]]:
    """The parent end of the wire: yield each of *rows*' kernel-shaped
    edge lists (``(kernel_event_id, successor)``, ``None`` for a
    self-loop) from one chunk payload of :meth:`_Mirror.expand_chunk`.

    Before a row's edges are yielded, the side states and buffers that
    row introduced resolve in the worker's first-seen order: a state
    through the codec's interning, a buffer's wire rep through
    :meth:`~repro.core.kernel.TransitionKernel.resolve_wire_reps`, a
    novel one allocating the next buffer id as a placeholder.  That is
    the order, and the allocation, of the parent's own ``expand_row`` on
    that row, and it happens after the merge of the rows before it
    (whose reduction layers may intern too), exactly as in serial mode.
    Side events and messages resolve up front: their kernel ids are not
    observable.  A worker's model error re-raises after the rows that
    completed.
    """
    marks, triples, side, error = payload
    side_states, messages, events, side_reps = side
    mids = list(map(kernel._intern_message, messages))
    events = list(map(kernel.event_id, events))
    intern_state = kernel.codec.intern_state
    resolved = kernel.resolve_wire_reps(
        side_reps,
        (lambda mid: mids[~mid] if mid < 0 else mid) if mids else None,
    )
    states: list[int] = []
    buffers: list[int] = []
    ev_pos = kernel._ev_pos
    it = iter(triples)
    flat = zip(it, it, it)
    for row, j in zip(rows, range(0, len(marks), 3)):
        count, n_states, n_reps = marks[j:j + 3]
        states.extend(map(intern_state, side_states[len(states):n_states]))
        buffers.extend(islice(resolved, n_reps - len(buffers)))
        bid = row[-1]
        base = list(row)
        edges = []
        append = edges.append
        for eid, state, final in islice(flat, count):
            if eid < 0:
                eid = events[~eid]
            if state < 0:
                state = states[~state]
            if final < 0:
                final = buffers[~final]
            pos = ev_pos[eid]
            if final == bid and state == row[pos]:
                append((eid, None))
                continue
            successor = base.copy()
            successor[pos] = state
            successor[-1] = final
            append((eid, tuple(successor)))
        yield edges
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# The shared-memory work-stealing crew
# ---------------------------------------------------------------------------


class CrewFailure(Exception):
    """One dispatch wait failed.

    ``kind`` is ``"timeout"`` (no chunk completed in time, or a worker
    process died — a dead worker's claimed chunk never completes, which
    is observationally a timeout) or ``"fault"`` (the result channel
    itself broke).  The engine maps these onto its recovery counters
    and decides between rebuild-and-retry and serial fallback.
    """

    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind


def _crew_worker(protocol, chaos, task_q, result_q, sync_q) -> None:
    """Worker loop: steal chunks, expand rows straight from shared memory.

    Before its first chunk of a level the worker installs that level's
    table sync (cumulative and in dispatch order) into its
    :class:`_Mirror`; the reported busy time of that chunk includes the
    sync, so ``worker_busy_s`` covers everything the worker did.
    """
    from multiprocessing import resource_tracker, shared_memory

    # Workers only ever *attach* to parent-owned frontier segments, but
    # ``SharedMemory(name=...)`` registers the segment with the resource
    # tracker anyway (CPython gh-82300).  A worker's register message
    # can race the parent's unlink bookkeeping in the shared tracker
    # process, leaving phantom "leaked shared_memory" entries at
    # shutdown — so suppress shared-memory registration in this process
    # entirely (ownership and unlinking stay with the parent).
    original_register = resource_tracker.register

    def register_for_parent_owned_segments(name, rtype):
        if rtype != "shared_memory":
            original_register(name, rtype)

    resource_tracker.register = register_for_parent_owned_segments

    mirror = _Mirror(protocol)
    shm = None
    view = None
    shm_name = None
    applied = -1
    width = 0
    try:
        while True:
            task = task_q.get()
            if task is None:
                break
            dispatch_id, chunk_idx, start, end = task
            started = time.perf_counter()
            while applied < dispatch_id:
                sync_id, name, sync_width, marks, delta = sync_q.get()
                mirror.apply(marks, delta)
                applied = sync_id
                width = sync_width
                if name != shm_name:
                    if view is not None:
                        view.release()
                    if shm is not None:
                        shm.close()
                    shm = shared_memory.SharedMemory(name=name)
                    shm_name = name
                    view = memoryview(shm.buf).cast("q")
            payload = mirror.expand_chunk(view, width, start, end, chaos)
            busy = time.perf_counter() - started
            result_q.put((dispatch_id, chunk_idx, busy, payload))
    except (KeyboardInterrupt, EOFError, OSError):  # pragma: no cover
        pass  # parent teardown mid-wait; nothing to salvage
    finally:
        if view is not None:
            view.release()
        if shm is not None:
            shm.close()


class _Dispatch:
    """Bookkeeping for one in-flight frontier level."""

    __slots__ = ("id", "chunks", "pending", "results", "width")

    def __init__(
        self,
        dispatch_id: int,
        chunks: list[tuple[int, int]],
        width: int,
    ):
        self.id = dispatch_id
        self.chunks = chunks
        self.pending = set(range(len(chunks)))
        self.results: dict[int, tuple[float, tuple]] = {}
        self.width = width


class WorkStealingCrew:
    """Persistent expansion workers fed through shared memory.

    One crew per engine: spawned lazily on the first big-enough
    frontier, reused across levels (worker kernels and table mirrors
    amortize), torn down by :meth:`close`.  The parent owns one frontier
    segment, grown geometrically and reused — workers re-attach only
    when its name changes.  :meth:`rebuild` replaces every process *and*
    every queue (a worker terminated mid-``put`` can leave a queue's
    pipe unusable) and resets the sync watermarks so the next dispatch
    carries full tables to the fresh mirrors.
    """

    #: Liveness-check granularity while waiting on results.
    _POLL_S = 0.05

    #: Chunks per worker and level: enough to balance and overlap the
    #: parent's merge with the workers, few enough to amortize IPC.
    _CHUNKS_PER_WORKER = 4

    def __init__(
        self,
        workers: int,
        protocol: Protocol,
        chaos: ChaosConfig | None = None,
    ):
        self._workers = max(2, workers)
        self._protocol = protocol
        self._chaos = chaos
        self._ctx = multiprocessing.get_context()
        self._seq = 0
        self._shm = None
        self._shm_view = None
        self._pool: list = []
        self._spawn()

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> None:
        ctx = self._ctx
        self._task_q = ctx.Queue()
        self._result_q = ctx.Queue()
        self._sync_qs = [ctx.Queue() for _ in range(self._workers)]
        self._synced = (0, 0, 0, 0)
        self._pool = []
        for sync_q in self._sync_qs:
            process = ctx.Process(
                target=_crew_worker,
                args=(
                    self._protocol, self._chaos,
                    self._task_q, self._result_q, sync_q,
                ),
                daemon=True,
            )
            process.start()
            self._pool.append(process)

    def _terminate(self) -> None:
        for process in self._pool:
            if process.is_alive():
                process.terminate()
        for process in self._pool:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck in D state
                process.kill()
                process.join(timeout=1.0)
        for q in (self._task_q, self._result_q, *self._sync_qs):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - already closed
                pass
        self._pool = []

    def rebuild(self) -> None:
        """Tear everything down and respawn (post-fault recovery)."""
        self._terminate()
        self._spawn()

    def close(self) -> None:
        """Terminate the crew and free the frontier segment."""
        self._terminate()
        if self._shm_view is not None:
            self._shm_view.release()
            self._shm_view = None
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None

    # -- dispatch ----------------------------------------------------------

    def _frontier_segment(self, slots: int):
        from multiprocessing import shared_memory

        needed = max(slots * 8, 1 << 16)
        if self._shm is None or self._shm.size < slots * 8:
            if self._shm is not None:
                needed = max(needed, self._shm.size * 2)
                self._shm_view.release()
                self._shm.close()
                self._shm.unlink()
            self._shm = shared_memory.SharedMemory(
                create=True, size=needed
            )
            self._shm_view = memoryview(self._shm.buf).cast("q")
        return self._shm

    def begin(
        self,
        flat_rows: array,
        n_rows: int,
        width: int,
        kernel: TransitionKernel,
    ) -> _Dispatch:
        """Stage one level and enqueue its chunks; returns the handle."""
        self._frontier_segment(len(flat_rows))
        self._shm_view[: len(flat_rows)] = flat_rows
        self._seq += 1
        chunk = max(
            1, -(-n_rows // (self._workers * self._CHUNKS_PER_WORKER))
        )
        chunks = [
            (start, min(start + chunk, n_rows))
            for start in range(0, n_rows, chunk)
        ]
        dispatch = _Dispatch(self._seq, chunks, width)
        self._sync(dispatch, kernel)
        self._enqueue(dispatch, dispatch.pending)
        return dispatch

    def redispatch(
        self, dispatch: _Dispatch, kernel: TransitionKernel
    ) -> None:
        """Re-enqueue only the unfinished chunks after a :meth:`rebuild`.

        Completed chunk results are kept — their payloads are pure
        functions of the frontier rows and the tables synced for the
        level, and the rows still sit untouched in the shared segment.
        A new dispatch id fences out any stale results the dead crew
        may have left in flight.
        """
        self._seq += 1
        dispatch.id = self._seq
        self._sync(dispatch, kernel)
        self._enqueue(dispatch, dispatch.pending)

    def _sync(self, dispatch: _Dispatch, kernel: TransitionKernel) -> None:
        marks = self._synced
        delta, self._synced = _table_delta(kernel, marks)
        message = (dispatch.id, self._shm.name, dispatch.width, marks, delta)
        for sync_q in self._sync_qs:
            sync_q.put(message)

    def _enqueue(self, dispatch: _Dispatch, chunk_ids) -> None:
        for idx in sorted(chunk_ids):
            start, end = dispatch.chunks[idx]
            self._task_q.put((dispatch.id, idx, start, end))

    # -- collection --------------------------------------------------------

    def collect(
        self, dispatch: _Dispatch, timeout_s: float | None
    ) -> int:
        """Wait for any one pending chunk; record it and return its index.

        *timeout_s* bounds the wait for the **next** completion (a
        healthy crew streaming chunks keeps resetting it); ``None``
        waits forever but still notices dead workers at poll
        granularity.
        """
        deadline = (
            None if timeout_s is None
            else time.monotonic() + timeout_s
        )
        while True:
            wait = self._POLL_S
            if deadline is not None:
                wait = max(0.0, min(wait, deadline - time.monotonic()))
            try:
                item = self._result_q.get(timeout=wait)
            except queue_module.Empty:
                if any(not p.is_alive() for p in self._pool):
                    raise CrewFailure(
                        "timeout",
                        "expansion worker died; its chunk is lost",
                    ) from None
                if (
                    deadline is not None
                    and time.monotonic() >= deadline
                ):
                    raise CrewFailure(
                        "timeout",
                        f"no chunk completed within {timeout_s}s",
                    ) from None
                continue
            except (OSError, EOFError, ConnectionError) as error:
                raise CrewFailure(
                    "fault", f"result channel failed: {error}"
                ) from None
            dispatch_id, idx, busy, payload = item
            if dispatch_id != dispatch.id or idx not in dispatch.pending:
                continue  # stale pre-rebuild result, or a duplicate
            dispatch.pending.discard(idx)
            dispatch.results[idx] = (busy, payload)
            return idx
