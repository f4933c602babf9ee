"""Flat int64 storage for the packed exploration engine.

The packed engine used to keep one Python tuple per node plus a dict
keyed by those tuples — ~560 bytes/node of object headers and hash
links for a 4-slot configuration whose information content is 32 bytes.
This module replaces that representation with three flat structures:

* :class:`PackedArena` — every packed configuration, row-major in one
  contiguous int64 buffer with a fixed stride (``PackedCodec.width``).
  Node ``i`` **is** rows ``[i*stride, (i+1)*stride)``; ids are implicit.
* :class:`PackedIndex` — the visited set, an open-addressed hash table
  of two parallel int64 arrays (stored hash, node id + 1) probing over
  the arena.  Keys are never copied: a probe compares the candidate
  tuple against the arena row in place.  Hashes come from Python's
  ``hash()`` of int tuples, which is a pure function of the values
  (``PYTHONHASHSEED`` only perturbs str/bytes hashing), so the table
  layout — and everything downstream — is process-independent.
* :class:`EdgeStore` — the successor lists, an append-only CSR: one
  ``(offset, count)`` per node into a flat buffer of ``(event_id,
  target)`` int64 pairs.  Expansion is all-or-nothing per node, so a
  node's pairs are written exactly once and contiguously; events are
  interned to small dense ids in a side table.

The arena and the edge-pair buffer are :class:`Int64Buffer` instances:
they start as in-RAM ``array('q')`` and migrate to an anonymous
temp-file-backed ``mmap`` once they outgrow a configurable RAM budget
(``mode="mmap"``), which is what lets multi-million-node explorations
run on commodity RAM.  Spilling changes *where* bytes live, never what
they are — fingerprints are byte-identical across ram/mmap/spilled
stores, which ``tests/core/test_store.py`` pins.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import Event

__all__ = [
    "DEFAULT_SPILL_BUDGET_MB",
    "EdgeStore",
    "GraphStore",
    "Int64Buffer",
    "PackedArena",
    "PackedIndex",
    "StoreConfig",
]

#: Default per-engine RAM budget before flat buffers spill to disk
#: (``mode="mmap"`` only; ``mode="ram"`` never spills).
DEFAULT_SPILL_BUDGET_MB = 512.0

#: 63-bit mask: stored hashes must fit a signed int64 slot.
_HASH_MASK = (1 << 63) - 1

#: Minimum mmap capacity (int64 slots) so tiny spills do not thrash.
_MIN_MMAP_SLOTS = 1 << 13


@dataclass(frozen=True)
class StoreConfig:
    """How a :class:`GraphStore` keeps its flat buffers.

    ``mode="ram"`` pins everything in process memory (the default, and
    the exact memory profile small runs had before).  ``mode="mmap"``
    spills the two big buffers — the configuration arena and the edge
    pairs — to unlinked temp-file-backed memory maps once their
    combined in-RAM footprint crosses :attr:`spill_budget_mb`; the
    kernel then pages the cold tail instead of the process holding it.
    """

    mode: str = "ram"
    spill_budget_mb: float = DEFAULT_SPILL_BUDGET_MB
    spill_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("ram", "mmap"):
            raise ValueError(
                f"store mode must be 'ram' or 'mmap', got {self.mode!r}"
            )
        if self.spill_budget_mb < 0:
            raise ValueError("spill_budget_mb must be >= 0")

    @classmethod
    def coerce(
        cls, value: "StoreConfig | str | None"
    ) -> "StoreConfig":
        """Accept a config, a bare mode string, or ``None`` (ram)."""
        if value is None:
            return cls()
        if isinstance(value, str):
            return cls(mode=value)
        return value


class Int64Buffer:
    """A growable int64 buffer that can migrate from RAM to a mmap.

    Starts as an ``array('q')``; once the in-RAM footprint exceeds
    *spill_threshold_bytes* the contents move to an anonymous (created
    then unlinked) temp file mapped with :mod:`mmap`, and all further
    growth happens on disk via ``ftruncate`` + remap.  A threshold of
    ``None`` disables spilling entirely.  Values are plain Python ints
    throughout; reads return tuples, so callers never see the backing.
    """

    __slots__ = (
        "_ram", "_mm", "_view", "_fd", "_len", "_cap",
        "_threshold", "_dir", "_on_spill",
    )

    def __init__(
        self,
        spill_threshold_bytes: int | None = None,
        spill_dir: str | None = None,
        on_spill: Callable[[int], None] | None = None,
    ):
        self._ram: array | None = array("q")
        self._mm: mmap.mmap | None = None
        self._view: memoryview | None = None
        self._fd: int | None = None
        self._len = 0  # used int64 slots
        self._cap = 0  # mmap capacity in int64 slots
        self._threshold = spill_threshold_bytes
        self._dir = spill_dir
        self._on_spill = on_spill

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._len

    @property
    def nbytes(self) -> int:
        """Bytes of live data (not capacity)."""
        return self._len * 8

    @property
    def ram_bytes(self) -> int:
        """Bytes currently held in process memory (0 once spilled)."""
        return 0 if self._ram is None else len(self._ram) * 8

    @property
    def spilled(self) -> bool:
        return self._mm is not None

    # -- growth ------------------------------------------------------------

    def extend(self, values: Iterable[int]) -> None:
        """Append *values* (any iterable of ints) at the end."""
        if self._ram is not None:
            self._ram.extend(values)
            self._len = len(self._ram)
            if (
                self._threshold is not None
                and self._len * 8 > self._threshold
            ):
                self.spill()
            return
        chunk = array("q", values)
        end = self._len + len(chunk)
        if end > self._cap:
            self._grow(end)
        assert self._view is not None
        self._view[self._len:end] = chunk
        self._len = end

    def spill(self) -> None:
        """Migrate to a temp-file-backed mmap now (idempotent)."""
        if self._mm is not None:
            return
        assert self._ram is not None
        slots = max(len(self._ram), _MIN_MMAP_SLOTS)
        fd, path = tempfile.mkstemp(
            prefix="flpkit-store-", suffix=".bin", dir=self._dir
        )
        # Unlink immediately: the mapping (and the open fd used for
        # ftruncate growth) keeps the blocks alive; process death —
        # clean or not — reclaims them without litter.
        os.unlink(path)
        os.ftruncate(fd, slots * 8)
        self._fd = fd
        self._mm = mmap.mmap(fd, slots * 8)
        self._cap = slots
        view = memoryview(self._mm).cast("q")
        if self._ram:
            view[: len(self._ram)] = self._ram
        self._view = view
        self._ram = None
        if self._on_spill is not None:
            self._on_spill(self._len * 8)

    def _grow(self, needed_slots: int) -> None:
        new_cap = max(self._cap * 2, needed_slots, _MIN_MMAP_SLOTS)
        assert self._fd is not None and self._mm is not None
        assert self._view is not None
        self._view.release()
        os.ftruncate(self._fd, new_cap * 8)
        self._mm.resize(new_cap * 8)
        self._view = memoryview(self._mm).cast("q")
        self._cap = new_cap

    # -- reads -------------------------------------------------------------

    def read(self, start: int, count: int) -> tuple[int, ...]:
        """``count`` values starting at slot ``start``, as a tuple."""
        if self._ram is not None:
            return tuple(self._ram[start:start + count])
        assert self._view is not None
        return tuple(self._view[start:start + count])

    def __getitem__(self, slot: int) -> int:
        if self._ram is not None:
            return self._ram[slot]
        assert self._view is not None
        return self._view[slot]

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """The live contents as raw little-endian int64 bytes."""
        if self._ram is not None:
            return self._ram.tobytes()
        assert self._view is not None
        return bytes(self._view[: self._len])

    def load_bytes(self, data: bytes) -> None:
        """Replace the contents with *data* (from :meth:`to_bytes`).

        The spill policy re-applies: a restored buffer larger than the
        threshold migrates straight to disk.
        """
        if len(data) % 8:
            raise ValueError(
                f"int64 buffer payload of {len(data)} bytes is not a "
                "multiple of 8"
            )
        self.close()
        self._ram = array("q")
        self._ram.frombytes(data)
        self._len = len(self._ram)
        if self._threshold is not None and self._len * 8 > self._threshold:
            self.spill()

    def close(self) -> None:
        """Release the mmap and its temp file (idempotent)."""
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._ram = None
        self._len = 0
        self._cap = 0

    def __del__(self):  # pragma: no cover - GC-ordering dependent
        try:
            self.close()
        except Exception:
            pass


class PackedArena:
    """Packed configurations, row-major with a fixed stride."""

    __slots__ = ("stride", "_buffer", "_rows")

    def __init__(self, stride: int, buffer: Int64Buffer):
        if stride < 2:
            raise ValueError("packed stride is at least 2 (state+buffer)")
        self.stride = stride
        self._buffer = buffer
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    @property
    def buffer(self) -> Int64Buffer:
        return self._buffer

    def append(self, row: tuple[int, ...]) -> int:
        """Store *row*, returning its node id (dense, append order)."""
        self._buffer.extend(row)
        node = self._rows
        self._rows += 1
        return node

    def row(self, node: int) -> tuple[int, ...]:
        """The packed tuple stored for *node*."""
        return self._buffer.read(node * self.stride, self.stride)

    def rows_flat(self, nodes: Iterable[int]) -> array:
        """The rows of *nodes* concatenated into one flat ``array('q')``
        (shared-memory frontier staging)."""
        flat = array("q")
        for node in nodes:
            flat.extend(self._buffer.read(node * self.stride, self.stride))
        return flat

    def load(self, data: bytes) -> None:
        """Restore the arena from :meth:`Int64Buffer.to_bytes` output."""
        self._buffer.load_bytes(data)
        slots = len(self._buffer)
        if slots % self.stride:
            raise ValueError(
                f"arena payload of {slots} slots is not a multiple of "
                f"stride {self.stride}"
            )
        self._rows = slots // self.stride


class PackedIndex:
    """Open-addressed int64 hash table over a :class:`PackedArena`.

    Two parallel ``array('q')`` slots per bucket: the stored 63-bit
    hash and the node id + 1 (0 marks an empty bucket).  Linear
    probing, power-of-two capacity, resize at 2/3 load.  The arena owns
    the keys; lookups compare the probe tuple against the arena row
    only on a stored-hash match.
    """

    __slots__ = ("_arena", "_hashes", "_nodes", "_mask", "_size")

    _INITIAL = 1 << 10

    def __init__(self, arena: PackedArena):
        self._arena = arena
        self._hashes = array("q", bytes(8 * self._INITIAL))
        self._nodes = array("q", bytes(8 * self._INITIAL))
        self._mask = self._INITIAL - 1
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def get(self, row: tuple[int, ...]) -> int | None:
        """The node id of *row*, or ``None``."""
        h = hash(row) & _HASH_MASK
        mask = self._mask
        nodes = self._nodes
        hashes = self._hashes
        arena_row = self._arena.row
        i = h & mask
        while True:
            slot = nodes[i]
            if slot == 0:
                return None
            if hashes[i] == h and arena_row(slot - 1) == row:
                return slot - 1
            i = (i + 1) & mask

    def insert_new(self, row: tuple[int, ...], node: int) -> None:
        """Record *row* -> *node*.  The caller guarantees absence."""
        if (self._size + 1) * 3 >= (self._mask + 1) * 2:
            self._resize()
        self._insert_hash(hash(row) & _HASH_MASK, node)
        self._size += 1

    def _insert_hash(self, h: int, node: int) -> None:
        mask = self._mask
        nodes = self._nodes
        i = h & mask
        while nodes[i] != 0:
            i = (i + 1) & mask
        nodes[i] = node + 1
        self._hashes[i] = h

    def _resize(self) -> None:
        old_hashes = self._hashes
        old_nodes = self._nodes
        capacity = (self._mask + 1) * 2
        self._hashes = array("q", bytes(8 * capacity))
        self._nodes = array("q", bytes(8 * capacity))
        self._mask = capacity - 1
        for h, slot in zip(old_hashes, old_nodes):
            if slot != 0:
                self._insert_hash(h, slot - 1)

    def rebuild(self) -> None:
        """Repopulate from the arena (checkpoint restore path)."""
        n = len(self._arena)
        capacity = self._INITIAL
        while capacity * 2 < n * 3:
            capacity *= 2
        self._hashes = array("q", bytes(8 * capacity))
        self._nodes = array("q", bytes(8 * capacity))
        self._mask = capacity - 1
        self._size = 0
        arena_row = self._arena.row
        for node in range(n):
            self._insert_hash(hash(arena_row(node)) & _HASH_MASK, node)
            self._size += 1


class EdgeStore:
    """Append-only CSR successor lists over interned event ids.

    Per node: an offset (-1 until expanded) and a pair count into the
    flat ``(event_id, target)`` buffer.  The offset/count side tables
    stay in RAM (16 bytes/node, constantly probed); the pair buffer —
    the bulk, typically ~8 pairs/node — rides an :class:`Int64Buffer`
    and spills with it.

    An optional *perm side table* rides along for symmetry-quotient
    graphs: one interned renaming id per edge pair, kept in a parallel
    ``Int64Buffer`` indexed by ``pair offset // 2``.  Tracking is
    all-or-nothing — it must be enabled before the first edge is
    recorded, so the parallel buffer is aligned with the pair buffer by
    construction and every edge has a renaming (identity included).
    """

    __slots__ = ("_flat", "_offsets", "_counts", "_perms")

    def __init__(self, flat: Int64Buffer, perms: Int64Buffer | None = None):
        self._flat = flat
        self._offsets = array("q")
        self._counts = array("q")
        self._perms = perms

    def __len__(self) -> int:
        return len(self._offsets)

    @property
    def flat(self) -> Int64Buffer:
        return self._flat

    @property
    def total_pairs(self) -> int:
        return len(self._flat) // 2

    @property
    def tracking_perms(self) -> bool:
        return self._perms is not None

    def enable_perms(self, perms: Int64Buffer) -> None:
        """Attach the perm side table (before any edges exist)."""
        if self._perms is not None:
            return
        if len(self._flat):
            raise ValueError(
                "perm tracking must be enabled before edges are recorded"
            )
        self._perms = perms

    def add_node(self) -> None:
        self._offsets.append(-1)
        self._counts.append(0)

    def set_edges(
        self,
        node: int,
        flat_pairs: Iterable[int],
        perm_ids: Iterable[int] | None = None,
    ) -> None:
        """Record *node*'s complete edge list (exactly once)."""
        if self._offsets[node] != -1:
            raise ValueError(f"node {node} already has recorded edges")
        offset = len(self._flat)
        self._flat.extend(flat_pairs)
        self._offsets[node] = offset
        count = (len(self._flat) - offset) // 2
        self._counts[node] = count
        if self._perms is not None:
            if perm_ids is None:
                raise ValueError(
                    "perm tracking is on: every edge needs a renaming id"
                )
            self._perms.extend(perm_ids)
            if len(self._perms) != len(self._flat) // 2:
                raise ValueError(
                    f"node {node}: {count} edges but perm side table "
                    "is misaligned (one renaming id per edge required)"
                )

    def perm_ids(self, node: int) -> tuple[int, ...]:
        """*node*'s per-edge renaming ids (``()`` when unexpanded).

        Only meaningful with tracking on; edge ``k`` of the node pairs
        with id ``perm_ids(node)[k]``.
        """
        if self._perms is None:
            return ()
        offset = self._offsets[node]
        if offset < 0:
            return ()
        return self._perms.read(offset // 2, self._counts[node])

    def pairs(self, node: int) -> tuple[int, ...]:
        """*node*'s flat ``(event_id, target, ...)`` pairs (``()`` when
        unexpanded)."""
        offset = self._offsets[node]
        if offset < 0:
            return ()
        return self._flat.read(offset, self._counts[node] * 2)

    def snapshot(self) -> dict[str, bytes]:
        state = {
            "flat": self._flat.to_bytes(),
            "offsets": self._offsets.tobytes(),
            "counts": self._counts.tobytes(),
        }
        if self._perms is not None:
            state["perms"] = self._perms.to_bytes()
        return state

    def restore(self, state: dict[str, bytes]) -> None:
        self._flat.load_bytes(state["flat"])
        self._offsets = array("q")
        self._offsets.frombytes(state["offsets"])
        self._counts = array("q")
        self._counts.frombytes(state["counts"])
        if self._perms is not None and "perms" in state:
            self._perms.load_bytes(state["perms"])


class GraphStore:
    """The packed engine's node table, visited set, and edge lists.

    One facade over :class:`PackedArena` + :class:`PackedIndex` +
    :class:`EdgeStore`, plus the event-id interning table that keys CSR
    pairs back to rich :class:`~repro.core.events.Event` objects.  The
    spill budget (``mode="mmap"``) is split evenly between the arena
    and the edge-pair buffer — edges dominate at scale, but an even
    split keeps both bounded without tuning knobs.
    """

    def __init__(
        self,
        stride: int,
        config: StoreConfig | None = None,
        on_spill: Callable[[int], None] | None = None,
    ):
        self.config = config = StoreConfig.coerce(config)
        if config.mode == "mmap":
            threshold = int(config.spill_budget_mb * 1024 * 1024) // 2
        else:
            threshold = None
        self._threshold = threshold
        self._on_spill = on_spill
        self.arena = PackedArena(
            stride,
            Int64Buffer(threshold, config.spill_dir, on_spill),
        )
        self.index = PackedIndex(self.arena)
        self.edges = EdgeStore(
            Int64Buffer(threshold, config.spill_dir, on_spill)
        )
        self._events: list["Event"] = []
        self._event_ids: dict["Event", int] = {}
        # Renaming interning for the per-edge perm side table (symmetry
        # quotient only).  Ids are dense first-seen; they key memo and
        # storage slots only, never canonical forms, so first-seen
        # order is determinism-safe.
        self._perm_table: list[tuple[int, ...]] = []
        self._perm_ids: dict[tuple[int, ...], int] = {}

    def __len__(self) -> int:
        return len(self.arena)

    # -- nodes -------------------------------------------------------------

    def find(self, row: tuple[int, ...]) -> int | None:
        return self.index.get(row)

    def add(self, row: tuple[int, ...]) -> int:
        """Intern a *new* row (the caller has already probed)."""
        node = self.arena.append(row)
        self.index.insert_new(row, node)
        self.edges.add_node()
        return node

    def row(self, node: int) -> tuple[int, ...]:
        return self.arena.row(node)

    # -- events ------------------------------------------------------------

    def event_id(self, event: "Event") -> int:
        eid = self._event_ids.get(event)
        if eid is None:
            eid = len(self._events)
            self._event_ids[event] = eid
            self._events.append(event)
        return eid

    def event_at(self, eid: int) -> "Event":
        return self._events[eid]

    # -- renamings (symmetry quotient) -------------------------------------

    @property
    def tracking_perms(self) -> bool:
        return self.edges.tracking_perms

    def enable_perm_tracking(self) -> None:
        """Turn on the per-edge renaming side table.

        Must happen before any edges are recorded (the engine enables
        it right after the symmetry quotient is built, before the first
        expansion), so every edge slot has a renaming and the parallel
        buffer never desynchronizes.
        """
        self.edges.enable_perms(
            Int64Buffer(self._threshold, self.config.spill_dir,
                        self._on_spill)
        )

    def perm_id(self, perm: tuple[int, ...]) -> int:
        pid = self._perm_ids.get(perm)
        if pid is None:
            pid = len(self._perm_table)
            self._perm_ids[perm] = pid
            self._perm_table.append(perm)
        return pid

    def edge_perms(self, node: int) -> list[tuple[int, ...]]:
        """*node*'s per-edge renamings, aligned with :meth:`edge_list`."""
        table = self._perm_table
        return [table[pid] for pid in self.edges.perm_ids(node)]

    # -- edges -------------------------------------------------------------

    def set_edges_flat(
        self,
        node: int,
        flat_pairs: list[int],
        perm_ids: list[int] | None = None,
    ) -> None:
        """Record *node*'s complete edge list from pre-interned
        ``(event_id, target)`` pairs.

        With perm tracking on, *perm_ids* carries one interned renaming
        id (:meth:`perm_id`) per edge: what the symmetry quotient
        applied to the edge's raw successor.
        """
        self.edges.set_edges(node, flat_pairs, perm_ids)

    def edge_list(self, node: int) -> list[tuple["Event", int]]:
        """*node*'s successors as ``[(Event, target), ...]``."""
        pairs = self.edges.pairs(node)
        events = self._events
        return [
            (events[pairs[i]], pairs[i + 1])
            for i in range(0, len(pairs), 2)
        ]

    def edge_targets(self, node: int) -> tuple[int, ...]:
        """*node*'s successor ids only (frontier walks, reverse CSR)."""
        pairs = self.edges.pairs(node)
        return pairs[1::2]

    def iter_edges(self) -> Iterator[tuple[int, "Event", int]]:
        events = self._events
        for node in range(len(self.arena)):
            pairs = self.edges.pairs(node)
            for i in range(0, len(pairs), 2):
                yield node, events[pairs[i]], pairs[i + 1]

    # -- observability / lifecycle -----------------------------------------

    @property
    def spilled(self) -> bool:
        return self.arena.buffer.spilled or self.edges.flat.spilled

    @property
    def nbytes(self) -> int:
        """Live data bytes across the two big buffers."""
        return self.arena.buffer.nbytes + self.edges.flat.nbytes

    @property
    def arena_bytes(self) -> int:
        return self.arena.buffer.nbytes

    @property
    def edge_bytes(self) -> int:
        return self.edges.flat.nbytes

    def close(self) -> None:
        self.arena.buffer.close()
        self.edges.flat.close()

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Picklable snapshot: arena bytes, CSR bytes, event table.

        The index is *not* stored — it is a pure function of the arena
        and is rebuilt on restore, which keeps the payload minimal and
        impossible to de-synchronize.
        """
        state: dict[str, object] = {
            "arena": self.arena.buffer.to_bytes(),
            "edges": self.edges.snapshot(),
            "events": list(self._events),
        }
        if self.edges.tracking_perms:
            state["perm_table"] = list(self._perm_table)
        return state

    def restore(self, state: dict[str, object]) -> None:
        if "perm_table" in state:
            # Enable tracking before edges load so the perm buffer
            # exists to receive the snapshot's side table.
            self.enable_perm_tracking()
            self._perm_table = list(state["perm_table"])
            self._perm_ids = {
                perm: pid for pid, perm in enumerate(self._perm_table)
            }
        self.arena.load(state["arena"])
        self.index.rebuild()
        self.edges.restore(state["edges"])
        self._events = list(state["events"])
        self._event_ids = {e: i for i, e in enumerate(self._events)}
