"""Versioned on-disk snapshots of the exploration engine.

A checkpoint captures everything needed to continue growing a
:class:`~repro.core.exploration.GlobalConfigurationGraph` in a fresh
process: the node table (packed tuples), the recorded edges, the
expanded/frontier partition, the packed codec's interning tables and
transition memos, the transition kernel's tables, and the cumulative
:class:`~repro.core.exploration.GraphStats`.

Resume is *byte-identical*: node ids, edge order, and packed encodings
are a pure function of the protocol, the exploration roots, and the
configuration budget, and the snapshot preserves every id-allocation
table, so a run interrupted at an arbitrary BFS level and resumed from
its checkpoint **with the same ``max_configurations``** produces exactly
the fingerprint of an uninterrupted run (pinned by ``tests/chaos/``).
Resuming with a *larger* budget is supported and sound (the frontier is
simply re-attempted), but is not guaranteed byte-identical to a
single-shot run at the larger budget: a budget-truncated run may have
skipped node A yet expanded a later, smaller node B at the same level,
interning B's successors before A's — an id-allocation order no
single-shot run reproduces.

File format (version 2)::

    <one-line JSON header>\n<pickle payload>

Version 2 stores the engine's node/edge tables as the flat-buffer
store's raw byte snapshots (arena bytes, CSR offset/count/pair bytes,
event table) instead of per-node Python tuples — the payload for a
million-node graph is a few contiguous ``bytes`` blobs rather than a
million tuple pickles.  The visited-set hash index is *not* stored; it
is a pure function of the arena and is rebuilt on restore.  Version-1
snapshots are refused with :class:`~repro.core.errors.CheckpointMismatch`
(re-explore to regenerate — exploration is deterministic, so the rebuilt
graph is byte-identical).

The header carries a magic string, the format version, the engine mode
(always ``"packed"``; snapshots of the retired dict-keyed engine are
refused with :class:`~repro.core.errors.CheckpointMismatch`), protocol
identity (repr + process names/types), node/edge counts, and a
SHA-256 of the payload.  Loading verifies the checksum before unpickling
and the protocol identity before installing, raising
:class:`~repro.core.errors.CheckpointCorrupt` /
:class:`~repro.core.errors.CheckpointMismatch` instead of silently
resuming from the wrong or a damaged snapshot.  Writes go to a sibling
temp file and ``os.replace`` onto the target, so a crash mid-write never
clobbers the previous good checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.errors import (
    CheckpointCorrupt,
    CheckpointError,
    CheckpointMismatch,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.exploration import GlobalConfigurationGraph
    from repro.core.protocol import Protocol

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointInfo",
    "save_checkpoint",
    "load_checkpoint",
    "restore_checkpoint",
    "read_checkpoint_header",
]

CHECKPOINT_MAGIC = "flpkit-checkpoint"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class CheckpointInfo:
    """Metadata of one written or loaded snapshot."""

    path: str
    engine: str
    nodes: int
    edges: int
    payload_bytes: int
    sha256: str
    elapsed_s: float

    def summary(self) -> str:
        return (
            f"{self.engine} checkpoint {self.path}: {self.nodes} nodes, "
            f"{self.edges} edges, {self.payload_bytes} bytes "
            f"({self.elapsed_s:.3f}s)"
        )


def _protocol_identity(protocol: "Protocol") -> dict[str, object]:
    return {
        "protocol": repr(protocol),
        "process_names": list(protocol.process_names),
        "process_types": [
            type(protocol.process(name)).__name__
            for name in protocol.process_names
        ],
    }


#: The engine mode every snapshot this build writes or reads carries.
_ENGINE = "packed"


def _snapshot(graph: "GlobalConfigurationGraph") -> dict[str, object]:
    """The picklable payload for *graph*."""
    state: dict[str, object] = {
        "engine": _ENGINE,
        "expanded": bytes(graph._expanded),
        "stats": graph.stats,
        "store": graph._store.snapshot(),
        "codec": graph.codec.snapshot_state(),
        # The kernel's dense tables, payload-checksummed with everything
        # else under the same header scheme — resumed runs rebuild
        # nothing.  Optional on restore: snapshots written before the
        # kernel was the only engine may lack them.
        "kernel": graph.kernel.snapshot_state(),
    }
    if graph._reducer is not None:
        # The replay-sample position: a resumed reduced exploration must
        # sample the same diamonds an uninterrupted one would.  (The
        # symmetry quotient needs no snapshot of its own — its memo
        # tables are pure functions of the codec's, which are captured
        # above, and the per-edge renaming side table that makes orbit
        # paths replayable rides inside the store snapshot.)
        state["reducer"] = graph._reducer.snapshot_state()
    return state


def _reduction_stamp(graph: "GlobalConfigurationGraph") -> dict[str, object]:
    """The graph-shaping reduction switches, for header compatibility."""
    if graph.reduction is None:
        return {"por": False, "symmetry": False}
    return graph.reduction.describe()


def save_checkpoint(
    graph: "GlobalConfigurationGraph", path: str
) -> CheckpointInfo:
    """Atomically snapshot *graph* to *path*; returns the metadata."""
    started = time.perf_counter()
    payload = pickle.dumps(
        _snapshot(graph), protocol=pickle.HIGHEST_PROTOCOL
    )
    edges = graph._store.edges.total_pairs
    header = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "engine": _ENGINE,
        "nodes": len(graph),
        "edges": edges,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "created_unix": round(time.time(), 3),
        "reduction": _reduction_stamp(graph),
        **_protocol_identity(graph.protocol),
    }
    header_line = json.dumps(header, sort_keys=True).encode()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(header_line)
        handle.write(b"\n")
        handle.write(payload)
    os.replace(tmp, path)
    return CheckpointInfo(
        path=path,
        engine=header["engine"],
        nodes=header["nodes"],
        edges=edges,
        payload_bytes=len(payload),
        sha256=header["payload_sha256"],
        elapsed_s=time.perf_counter() - started,
    )


def _read(path: str) -> tuple[dict[str, object], bytes]:
    """Header + verified payload bytes of the checkpoint at *path*."""
    try:
        with open(path, "rb") as handle:
            header_line = handle.readline()
            payload = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}")
    try:
        header = json.loads(header_line)
    except ValueError:
        raise CheckpointCorrupt(
            f"{path}: malformed checkpoint header"
        ) from None
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointCorrupt(f"{path}: not a flpkit checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointMismatch(
            f"{path}: checkpoint format version "
            f"{header.get('version')!r}, this build reads "
            f"{CHECKPOINT_VERSION}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointCorrupt(
            f"{path}: payload checksum mismatch "
            f"(expected {header.get('payload_sha256')}, got {digest})"
        )
    return header, payload


def read_checkpoint_header(path: str) -> dict[str, object]:
    """The verified header of the checkpoint at *path* (no unpickling)."""
    header, _payload = _read(path)
    return header


def restore_checkpoint(
    graph: "GlobalConfigurationGraph", path: str
) -> CheckpointInfo:
    """Install the snapshot at *path* into the *empty* engine *graph*.

    The engine must be freshly constructed (nothing interned yet) and
    must match the snapshot's protocol identity and reduction policy,
    and the snapshot must be of the packed engine.  The engine's codec
    is restored in place, so existing references to it stay valid.
    """
    started = time.perf_counter()
    header, payload = _read(path)
    return _install(graph, path, header, payload, started)


def _install(
    graph: "GlobalConfigurationGraph",
    path: str,
    header: dict[str, object],
    payload: bytes,
    started: float,
) -> CheckpointInfo:
    """Install the verified *header* and *payload* read from *path*."""
    if len(graph) != 0:
        raise CheckpointError(
            "restore target must be a fresh engine (it already has "
            f"{len(graph)} configurations)"
        )
    if header.get("engine") != _ENGINE:
        raise CheckpointMismatch(
            f"{path}: snapshot is {header.get('engine')!r}-keyed; this "
            f"build resumes only {_ENGINE!r} snapshots (re-explore to "
            "regenerate it)"
        )
    identity = _protocol_identity(graph.protocol)
    for key in ("process_names", "process_types"):
        if header.get(key) != identity[key]:
            raise CheckpointMismatch(
                f"{path}: snapshot {key} {header.get(key)!r} does not "
                f"match protocol {identity[key]!r}"
            )
    # A graph explored under one reduction policy is a *different graph*
    # from one explored under another (fewer edges, rerouted targets);
    # resuming across the boundary would silently mix them.  Headers
    # from before the reduction stamp read as "no reductions".  The
    # stamp includes the canonicalization algorithm when the quotient is
    # on: snapshots of the retired brute canonicalizer (stamped
    # "brute") chose different orbit representatives, and pre-refine
    # symmetry snapshots lack the per-edge renaming side table, so a
    # symmetry header that is not stamped "refine" can never match and
    # is refused here rather than mixed.
    recorded = header.get("reduction", {"por": False, "symmetry": False})
    requested = _reduction_stamp(graph)
    if recorded != requested:
        raise CheckpointMismatch(
            f"{path}: snapshot was explored with reduction {recorded!r}, "
            f"engine is configured with {requested!r}"
        )
    state = pickle.loads(payload)

    graph._expanded = bytearray(state["expanded"])
    graph._store.restore(state["store"])
    graph._rich = {}
    graph.codec.restore_state(state["codec"])
    kernel_state = state.get("kernel")
    if kernel_state is not None:
        # After the codec: kernel ids resolve against the restored
        # interning tables.
        graph.kernel.restore_state(kernel_state)
    else:
        # Written without kernel tables (by an engine that expanded
        # through the scalar path): give every restored buffer a rep so
        # the kernel's lazy allocation stays sound; the tables refill
        # on demand.
        graph.kernel.reindex()
    graph._kernel_store_eids = []
    decisions_of = graph.codec.decision_values
    n_nodes = len(graph._store)
    node_at = graph._store.row
    if len(graph._expanded) != n_nodes:
        raise CheckpointCorrupt(
            f"{path}: expanded map covers {len(graph._expanded)} nodes, "
            f"table has {n_nodes}"
        )

    # Decision indexes are appended at intern time, i.e. in id order, so
    # an id-order rebuild reproduces them exactly.
    graph._decision_nodes = {}
    for node in range(n_nodes):
        for value in decisions_of(node_at(node)):
            graph._decision_nodes.setdefault(value, []).append(node)

    stats = state["stats"]
    stats.workers = graph.workers
    stats.resumed_nodes = n_nodes
    graph.stats = stats
    # Cadence baseline: a resumed run owes its next checkpoint after
    # *new* expansions, not immediately because of the inherited total.
    graph._expansions_at_checkpoint = stats.expansions
    if graph._reducer is not None:
        graph._reducer._stats = stats
        reducer_state = state.get("reducer")
        if reducer_state is not None:
            graph._reducer.restore_state(reducer_state)
    # Invalidate any CSR index and mark growth state fresh.
    graph._version += 1
    return CheckpointInfo(
        path=path,
        engine=_ENGINE,
        nodes=n_nodes,
        edges=graph._store.edges.total_pairs,
        payload_bytes=len(payload),
        sha256=header["payload_sha256"],
        elapsed_s=time.perf_counter() - started,
    )


def load_checkpoint(
    path: str,
    protocol: "Protocol",
    *,
    workers: int = 0,
    resilience=None,
    checkpoint=None,
    reduction=None,
    store=None,
):
    """Build a fresh engine for *protocol* and restore *path* into it.

    The reduction policy is taken from the snapshot header unless
    *reduction* overrides it (an
    override that disagrees with the header raises
    :class:`~repro.core.errors.CheckpointMismatch` during restore);
    *workers*, *resilience*, *checkpoint* and *store* configure the
    resumed engine exactly like the
    :class:`~repro.core.exploration.GlobalConfigurationGraph`
    constructor — in particular a snapshot written from a RAM-backed
    store restores cleanly into an mmap-backed one and vice versa (the
    snapshot is raw buffer bytes either way).
    """
    from repro.core.exploration import GlobalConfigurationGraph

    started = time.perf_counter()
    header, payload = _read(path)
    if reduction is None:
        stamp = header.get("reduction", {"por": False, "symmetry": False})
        if stamp.get("por") or stamp.get("symmetry"):
            from repro.core.reduction import ReductionPolicy

            reduction = ReductionPolicy(
                por=bool(stamp.get("por")),
                symmetry=bool(stamp.get("symmetry")),
            )
    graph = GlobalConfigurationGraph(
        protocol,
        workers=workers,
        resilience=resilience,
        checkpoint=checkpoint,
        reduction=reduction,
        store=store,
    )
    _install(graph, path, header, payload, started)
    return graph
