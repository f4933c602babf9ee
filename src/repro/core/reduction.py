"""Lemma-1 partial-order reduction and the process-symmetry quotient.

The exploration engine's cost is interleaving blowup: Lemma 1 of the
paper says schedules over disjoint process sets commute, so most of the
n! orderings of cross-process deliveries reach configurations the graph
has already seen — or will see — by another route.  This module turns
that observation into two opt-in reductions for the packed engine:

**Ample sets** (:class:`AmpleReducer`).  At a frontier node ``C`` the
reducer may record only an *ample subset* of the enabled events — all
events of one chosen process ``p`` — deferring the other processes'
events to ``C``'s descendants, where they remain enabled (in this model
a step by ``p`` can never disable another process's event: deliveries
consume per-destination messages and null steps are always enabled).
The clause-by-clause correspondence with Lemma 1 and with the classical
ample-set conditions is spelled out in ``MODEL.md`` ("Reduction
soundness"); operationally the reducer enforces:

* **non-emptiness** — a reduced node keeps every event of the chosen
  process, nulls included, so no enabled behaviour of ``p`` is lost and
  the reduced node is expanded iff the full node would be;
* **invisibility** — reduction is refused at any node that carries a
  decision or has a successor that gains one (pruning there could hide
  a decision value from the valency classifier);
* **commutation** — on a deterministic sample of reduced nodes the
  Lemma-1 diamond is replayed concretely: for kept event ``a`` and
  pruned event ``b``, ``b(a(C)) == a(b(C))`` on packed tuples.  A
  violation (impossible for conforming protocols, cheap insurance
  against custom step semantics) disables the reducer for the rest of
  the run and is counted in ``GraphStats.replay_violations``.

The invisibility clause is checkable locally; the deferral itself is
heuristic for protocols where a deferred step can send *new* mail to
the chosen process (see MODEL.md for the honest discussion), which is
why verdict identity against the unreduced graph is additionally pinned
by the zoo-wide property tests.

**Symmetry quotient** (:class:`SymmetryQuotient`).  For protocols whose
automata declare ``symmetric = True``, configurations are canonicalized
under process-name permutation before interning.  Canonicalization runs
a nauty-style *partition-refinement* canonical labeling directly on the
packed int tuple: the partition is seeded with per-process local
invariants (a name-scrubbed digest of the process's state and of the
multiset of messages buffered for it), refined to equitability with a
Weisfeiler–Lehman pass over name-scrubbed pairwise relations, and ties
are broken by individualizing the smallest non-singleton cell with
automorphism-discovery pruning.  In the common case the seed colors are
already discrete and canonicalization is a single sort plus one image
construction — polynomial (near-linear) instead of the factorial sweep
the quotient used to pay per configuration.  The n! sweep it replaced
survives only as the test suite's cross-check oracle.

The quotient is *replayable*: :meth:`~SymmetryQuotient
.canonicalize_with_perm` reports the renaming it chose, the engine
records that renaming per edge in the flat store's perm side table, and
witness extraction composes the recorded renamings back out to recover
a concrete, auditor-checkable schedule from any quotient path (see
:func:`repro.core.valency.ValencyAnalyzer.bivalence_witness`).

The declaration is *validated* — a transition-level automorphism check
replays ``π(e(C)) == π(e)(π(C))`` over a bounded sample before the
quotient is trusted; equivariance is checked for a generating set of
S_n (adjacent transpositions plus one n-cycle), which suffices because
equivariant renamings compose.  A protocol that declares symmetry but
fails the check falls back to the identity quotient with a warning,
and a protocol that never declared it is rejected with
:class:`~repro.core.errors.SymmetryError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import TYPE_CHECKING, Hashable

from repro.core.configuration import Configuration
from repro.core.errors import FLPError, SymmetryError
from repro.core.events import Event
from repro.core.messages import Message, MessageBuffer
from repro.core.process import ProcessState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.exploration import GraphStats
    from repro.core.packing import PackedCodec
    from repro.core.protocol import Protocol

__all__ = [
    "ReductionPolicy",
    "AmpleReducer",
    "SymmetryQuotient",
    "declares_symmetry",
    "validate_symmetry",
    "symmetry_generator_mappings",
    "rename_value",
    "rename_configuration",
    "perm_compose",
    "perm_invert",
]

@dataclass(frozen=True)
class ReductionPolicy:
    """What reductions to apply, and how paranoid to be about them.

    Attributes
    ----------
    por:
        Enable the Lemma-1 ample-set reducer.
    symmetry:
        Enable the process-permutation quotient (requires the protocol's
        automata to declare ``symmetric = True``).
    replay_every:
        Replay the commutation diamond at the first reduced node and
        every *replay_every*-th one after it.  Deterministic (a node
        counter, not a clock), so serial, parallel, and resumed runs
        sample identically.
    replay_pairs:
        Kept×pruned event pairs verified per sampled node.
    """

    por: bool = False
    symmetry: bool = False
    replay_every: int = 64
    replay_pairs: int = 4

    @property
    def enabled(self) -> bool:
        return self.por or self.symmetry

    def describe(self) -> dict[str, object]:
        """The checkpoint-header form: just the graph-shaping switches.

        Sampling cadence does not change which nodes exist, only which
        diamonds get double-checked, so it is not part of compatibility.
        The canonicalization algorithm *is* stamped when the quotient is
        on: snapshots canonicalized by the retired brute n! sweep picked
        different orbit representatives, so their ``"brute"`` stamp
        never matches and they are refused on resume.
        """
        stamp: dict[str, object] = {"por": self.por, "symmetry": self.symmetry}
        if self.symmetry:
            stamp["symmetry_algorithm"] = "refine"
        return stamp


# ---------------------------------------------------------------------------
# Renaming (shared by the quotient and its validator)
# ---------------------------------------------------------------------------


def rename_value(value: Hashable, mapping: dict[str, str]) -> Hashable:
    """Rewrite process names inside a protocol value.

    Descends through tuples and frozensets (the containers protocols use
    for hashable state) and maps any string equal to a process name to
    its image.  Everything else passes through untouched.  Protocols
    whose *non-name* string values collide with process names would be
    mis-renamed — the transition-level automorphism check catches that
    (the renamed transition no longer matches) and the quotient falls
    back.
    """
    if isinstance(value, str):
        return mapping.get(value, value)
    if isinstance(value, tuple):
        return tuple(rename_value(item, mapping) for item in value)
    if isinstance(value, frozenset):
        return frozenset(rename_value(item, mapping) for item in value)
    return value


def _rename_state(state: ProcessState, mapping: dict[str, str]) -> ProcessState:
    """*state* with process names rewritten inside its data field.

    Input and output registers are name-free by the model, so renaming
    preserves decision values by construction.
    """
    return ProcessState(
        state.input, state.output, rename_value(state.data, mapping)
    )


def _rename_buffer(
    buffer: MessageBuffer, mapping: dict[str, str]
) -> MessageBuffer:
    counts: dict[Message, int] = {}
    for message, count in buffer.items():
        renamed = Message(
            mapping.get(message.destination, message.destination),
            rename_value(message.value, mapping),
        )
        counts[renamed] = counts.get(renamed, 0) + count
    return MessageBuffer(counts)


def rename_configuration(
    configuration: Configuration, mapping: dict[str, str]
) -> Configuration:
    """The image ``π(C)``: process ``π(p)`` holds ``p``'s renamed state."""
    return Configuration(
        {
            mapping[name]: _rename_state(state, mapping)
            for name, state in configuration.states()
        },
        _rename_buffer(configuration.buffer, mapping),
    )


# ---------------------------------------------------------------------------
# Position permutations (the replayable form of a renaming)
# ---------------------------------------------------------------------------
#
# A renaming is stored as a tuple ``perm`` over codec positions:
# ``perm[i] = j`` means the process at position ``i`` is renamed to the
# process name at position ``j``.  ``perm_compose(a, b)`` is "apply
# ``b``, then ``a``" — the function composition ``a ∘ b`` — so that
# ``rename(rename(C, b), a) == rename(C, perm_compose(a, b))``.


def perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The composite renaming ``a ∘ b`` (apply *b* first, then *a*)."""
    return tuple(a[j] for j in b)


def perm_invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse renaming: ``perm_compose(perm, inverse) == identity``."""
    inverse = [0] * len(perm)
    for i, j in enumerate(perm):
        inverse[j] = i
    return tuple(inverse)


def declares_symmetry(protocol: "Protocol") -> bool:
    """Whether every automaton in *protocol* declares ``symmetric = True``."""
    return all(
        getattr(protocol.process(name), "symmetric", False)
        for name in protocol.process_names
    )


def symmetry_generator_mappings(names: list[str]) -> list[dict[str, str]]:
    """Renamings generating S_n: adjacent transpositions + one n-cycle.

    Checking transition equivariance on a generating set suffices for
    the whole group: if stepping commutes with renamings π and σ it
    commutes with π∘σ, and every permutation is a product of these
    generators.
    """
    mappings: list[dict[str, str]] = []
    n = len(names)
    for i in range(n - 1):
        image = list(names)
        image[i], image[i + 1] = image[i + 1], image[i]
        mappings.append(dict(zip(names, image)))
    if n > 2:
        mappings.append(dict(zip(names, names[1:] + names[:1])))
    return mappings


def validate_symmetry(
    protocol: "Protocol", sample_limit: int = 200
) -> list[str]:
    """Transition-level automorphism check for a declared symmetry.

    Replays ``π(e(C)) == π(e)(π(C))`` for a *generating set* of
    renamings (adjacent transpositions plus one n-cycle — see
    :func:`symmetry_generator_mappings`; equivariance is closed under
    composition, so the generators carry the whole of S_n) over a
    breadth-first sample of at most *sample_limit* configurations drawn
    from every initial configuration.  Returns a list of human-readable
    problems — empty iff the sample found the declaration consistent.
    """
    names = list(protocol.process_names)
    mappings = symmetry_generator_mappings(names)
    problems: list[str] = []
    seen: set[Configuration] = set()
    queue: list[Configuration] = list(protocol.initial_configurations())
    for configuration in queue:
        seen.add(configuration)
    cursor = 0
    while cursor < len(queue) and len(seen) <= sample_limit:
        configuration = queue[cursor]
        cursor += 1
        for event in protocol.enabled_events(configuration):
            successor = protocol.apply_event(configuration, event)
            if successor not in seen and len(seen) < sample_limit:
                seen.add(successor)
                queue.append(successor)
            for mapping in mappings:
                image = rename_configuration(configuration, mapping)
                image_event = Event(
                    mapping[event.process],
                    rename_value(event.value, mapping),
                )
                via_rename = rename_configuration(successor, mapping)
                via_step = protocol.apply_event(image, image_event)
                if via_rename != via_step:
                    problems.append(
                        "automorphism check failed: "
                        f"renaming {mapping!r} does not commute with "
                        f"{event!r} (the automata are not "
                        "permutation-equivariant)"
                    )
                    return problems
    return problems


# ---------------------------------------------------------------------------
# The ample-set reducer
# ---------------------------------------------------------------------------


class AmpleReducer:
    """Per-node ample-subset filter for the packed engine's edge lists.

    Called by the engine inside the (node-ordered) merge, so serial,
    parallel, and resumed explorations reduce identically.  The filter
    is a pure function of the node, its full edge list, and the
    deterministic sample counter — all of which the checkpoint captures.
    """

    def __init__(
        self,
        codec: "PackedCodec",
        policy: ReductionPolicy,
        stats: "GraphStats",
    ):
        self._codec = codec
        self._policy = policy
        self._stats = stats
        #: False after a replay violation: the rest of the run expands
        #: fully (the honest response to a protocol whose steps do not
        #: commute the way the model promises).
        self.active = True
        #: Reduced nodes seen, driving the deterministic replay sample.
        self.reduced_nodes = 0

    def filter(
        self,
        packed: tuple[int, ...],
        edges: list[tuple[Event, tuple[int, ...]]],
    ) -> list[tuple[Event, tuple[int, ...]]]:
        """The edges to record for *packed*: ample subset or all of them."""
        if not self.active or len(edges) <= 1:
            return edges
        codec = self._codec
        stats = self._stats
        # Invisibility: a decided node, or any successor that gains a
        # decision, pins the node to full expansion — pruning here could
        # hide a decision value from the valency classifier.
        if codec.has_decision(packed):
            return edges
        position_of = codec.position_of
        candidate: int | None = None
        for event, successor in edges:
            if codec.has_decision(successor):
                stats.ample_fallbacks += 1
                return edges
            if not event.is_null_delivery:
                position = position_of(event.process)
                if candidate is None or position < candidate:
                    candidate = position
        if candidate is None:
            # Null-only phase: every process has exactly its null step,
            # there is no interleaving to collapse.
            return edges
        ample = [
            (event, successor)
            for event, successor in edges
            if position_of(event.process) == candidate
        ]
        if len(ample) == len(edges):
            return edges
        self.reduced_nodes += 1
        if (
            self.reduced_nodes == 1
            or self.reduced_nodes % self._policy.replay_every == 0
        ):
            pruned = [
                (event, successor)
                for event, successor in edges
                if position_of(event.process) != candidate
            ]
            if not self._diamonds_commute(ample, pruned):
                stats.replay_violations += 1
                stats.ample_fallbacks += 1
                self.active = False
                return edges
        stats.por_pruned += len(edges) - len(ample)
        return ample

    def _diamonds_commute(self, ample, pruned) -> bool:
        """Replay Lemma-1 diamonds between kept and pruned events.

        Every pair steps *different* processes by construction, so the
        lemma asserts the two orders meet at one configuration; checking
        it concretely on packed tuples guards against step semantics
        that break the model's commutation promise.
        """
        apply_packed = self._codec.apply_packed
        stats = self._stats
        budget = self._policy.replay_pairs
        checked = 0
        for kept_event, kept_successor in ample:
            for pruned_event, pruned_successor in pruned:
                if checked >= budget:
                    return True
                checked += 1
                stats.replay_checks += 1
                meet_via_kept = apply_packed(kept_successor, pruned_event)
                meet_via_pruned = apply_packed(pruned_successor, kept_event)
                if meet_via_kept != meet_via_pruned:
                    return False
        return True

    # -- checkpointing ------------------------------------------------------

    def snapshot_state(self) -> dict[str, object]:
        """Picklable sample-position state (the codec snapshots itself)."""
        return {
            "active": self.active,
            "reduced_nodes": self.reduced_nodes,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self.active = bool(state["active"])
        self.reduced_nodes = int(state["reduced_nodes"])


# ---------------------------------------------------------------------------
# The symmetry quotient
# ---------------------------------------------------------------------------

#: Scrub tokens.  ``\x00`` cannot appear in a UTF-8 process name's
#: first byte position without being an explicit NUL — the prefix keeps
#: tokens disjoint from ordinary serialized strings.
_TOKEN_SELF = b"\x00S"
_TOKEN_FOCUS = b"\x00F"
_TOKEN_OTHER = b"\x00O"

#: A "self" that matches no process name: scrubbing with this sentinel
#: yields the focus-only serialization shared by every non-embedded
#: observer (process names are non-empty printable identifiers).
_NO_NAME = "\x00"
_NO_NAMES: frozenset[str] = frozenset()


def _digest(data: bytes) -> int:
    """64-bit deterministic digest (never the builtin ``hash``)."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK63 = 0x7FFFFFFFFFFFFFFF


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a deterministic avalanche over 64 bits.

    The refinement loop combines already-uniform blake2b digests, so a
    cheap arithmetic mixer is enough there — hashing bytes again per WL
    row tripled the canonicalization cost for no extra distinguishing
    power.  Like the digests it mixes, collisions are possible in
    principle, but they cannot make the quotient unsound: a canonical
    form is always ``rename(packed, perm)`` — a genuine member of the
    argument's orbit — so a collision can at worst make two members of
    one orbit elect different representatives (a finer quotient, never
    an identification of distinct orbits).
    """
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


class SymmetryQuotient:
    """Canonicalize packed configurations under process-name permutation.

    Partition-refinement canonical labeling produces a canonical orbit
    member and the renaming that reaches it.  Per-process colors are
    seeded from name-scrubbed digests of the process's state and its
    buffered mail (memoized per state id / buffer id, so the
    per-configuration cost is a handful of dict probes).  When the seed
    colors are already discrete — the common case — the canonical form
    is one sort plus one image construction.  Otherwise colors are
    refined to equitability with a WL pass over scrubbed pairwise
    relations and remaining ties are broken by individualize-and-refine
    branching with automorphism-discovery pruning; the canonical form
    is the lexicographically smallest leaf image, a well-defined
    function of the orbit because the branching explores equivariantly
    chosen cells exhaustively (up to discovered automorphisms, which by
    definition do not change images).

    The representative may differ from the lexicographic minimum over
    all n! renamings (the test suite's oracle), so the checkpoint
    header stamps the algorithm.  All derived tables are pure functions
    of the codec's interning tables and the packed tuples themselves —
    no builtin string hashing, no first-seen-order interning — so
    canonical forms are identical across processes, ``PYTHONHASHSEED``
    values, and checkpoint/resume boundaries.

    Construct via :meth:`build`, which enforces the declaration and the
    automorphism validation.
    """

    def __init__(self, codec: "PackedCodec", names: list[str]):
        self._codec = codec
        #: Process names in codec-position order: position ``i`` of a
        #: packed tuple is ``names[i]``'s state slot.
        self._names = sorted(names, key=codec.position_of)
        self._name_set = frozenset(self._names)
        self._n = len(self._names)
        self.identity: tuple[int, ...] = tuple(range(self._n))
        #: packed -> (canonical, perm) with canonical == rename(packed, perm).
        self._orbit: dict[
            tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]
        ] = {}
        # Perm interning: mapping dicts and per-perm image memos keyed
        # by a dense perm id.  Ids are memo bookkeeping only — they
        # never influence canonical forms, so first-use order is safe.
        self._perm_ids: dict[tuple[int, ...], int] = {}
        self._perm_list: list[tuple[int, ...]] = []
        self._perm_mappings: list[dict[str, str]] = []
        self._perm_state_images: list[dict[int, int]] = []
        self._perm_buffer_images: list[dict[int, int]] = []
        #: Message-level rename memo per perm id.  Buffers are fresh
        #: nearly every canonicalization, but their *messages* repeat
        #: across thousands of buffers, so the one-or-two leaf images
        #: per miss become dict probes.
        self._perm_message_images: list[dict[Message, Message]] = []
        # Refinement memos: seed color digests per (position, state id)
        # and per buffer id; pairwise relation digests for the WL pass;
        # scrubbed serializations per (value, roles) — protocol values
        # (message payloads, report sets) repeat across thousands of
        # configurations, so the serializer is memo-dominated.
        self._state_profiles: list[dict[int, int]] = [
            {} for _ in range(self._n)
        ]
        self._buffer_profiles: dict[int, tuple[int, ...]] = {}
        self._pair_state: dict[tuple[int, int, int], int] = {}
        self._pair_buffer: dict[tuple[int, int, int], int] = {}
        self._sig_memo: dict[tuple, bytes] = {}
        # Per-(message, count) precomputations: buffers are fresh nearly
        # every canonicalization, but their *messages* repeat across
        # thousands of buffers, so both the per-position mail profile
        # and the pairwise mail relations reduce to dict probes.
        self._position_of: dict[str, int] = {
            name: i for i, name in enumerate(self._names)
        }
        self._message_profile_entries: dict[
            tuple[Message, int], tuple[int | None, int]
        ] = {}
        self._message_pair_rows: dict[
            tuple[Message, int],
            tuple[int | None, int, int, dict[int, tuple[int, int]]],
        ] = {}
        self._embedded_memo: dict[Hashable, frozenset[str]] = {}
        # Observability (the engine mirrors misses and images into
        # GraphStats; tests pin all three work counters).
        self.canonical_calls = 0
        self.canonical_misses = 0
        self.leaf_images = 0
        self.refine_branches = 0

    @property
    def names(self) -> list[str]:
        """Process names in codec-position order."""
        return list(self._names)

    @classmethod
    def build(
        cls, protocol: "Protocol", codec: "PackedCodec"
    ) -> "tuple[SymmetryQuotient | None, str | None]":
        """``(quotient, fallback_reason)`` for *protocol*.

        Raises :class:`SymmetryError` when the protocol never declared
        symmetry (an operator error: the flag asserts something about
        the protocol that its author did not).  A *declared* symmetry
        that fails validation is a soft failure: ``(None, reason)`` so
        the engine can warn and run unreduced.
        """
        names = list(protocol.process_names)
        if not declares_symmetry(protocol):
            raise SymmetryError(
                "the symmetry quotient needs every process automaton to "
                "declare `symmetric = True`; "
                f"{type(protocol.process(names[0])).__name__} does not — "
                "refusing to canonicalize an asymmetric protocol"
            )
        problems = validate_symmetry(protocol)
        if problems:
            return None, problems[0]
        return cls(codec, names), None

    # -- canonical forms ----------------------------------------------------

    def canonicalize(self, packed: tuple[int, ...]) -> tuple[int, ...]:
        """The orbit representative of *packed* (memoized)."""
        return self.canonicalize_with_perm(packed)[0]

    def canonicalize_with_perm(
        self, packed: tuple[int, ...]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(canonical, perm)`` with ``canonical == rename(packed, perm)``.

        The perm is what the edge side table records: it is exactly the
        renaming a witness extractor must invert to map a canonical
        path step back onto the concrete run it stands for.
        """
        self.canonical_calls += 1
        hit = self._orbit.get(packed)
        if hit is not None:
            return hit
        self.canonical_misses += 1
        best, best_perm = self._refine_canonical(packed)
        if best == packed:
            # The search may have reached the representative through a
            # non-trivial automorphism; normalize so "already canonical"
            # always pairs with the identity renaming.
            best_perm = self.identity
        if best != packed and self._codec.decision_values(
            best
        ) != self._codec.decision_values(packed):
            raise FLPError(
                "symmetry canonicalization changed the decision set — "
                "renaming must never touch output registers (model bug)"
            )
        result = (best, best_perm)
        self._orbit[packed] = result
        if best != packed and best not in self._orbit:
            # Canonical functions are idempotent: f(f(C)) == f(C), so
            # the representative's own entry is free — and probed often
            # (every lookup of an already-canonical row lands here).
            self._orbit[best] = (best, self.identity)
        return result

    def orbit_perm_of(self, packed: tuple[int, ...]) -> tuple[int, ...]:
        """The renaming taking *packed* to its canonical representative."""
        return self.canonicalize_with_perm(packed)[1]

    # -- renaming helpers ---------------------------------------------------

    def mapping_of(self, perm: tuple[int, ...]) -> dict[str, str]:
        """The name-level mapping of a position permutation (memoized)."""
        return self._perm_mappings[self._perm_id(perm)]

    def rename_event(self, event: Event, perm: tuple[int, ...]) -> Event:
        """``π(e)``: the event renamed by *perm* (identity = unchanged)."""
        if perm == self.identity:
            return event
        mapping = self.mapping_of(perm)
        return Event(
            mapping[event.process], rename_value(event.value, mapping)
        )

    def apply_perm(
        self, packed: tuple[int, ...], perm: tuple[int, ...]
    ) -> tuple[int, ...]:
        """``rename(packed, perm)`` through the codec's interning tables."""
        if perm == self.identity:
            return packed
        return self._image(packed, self._perm_id(perm))

    # -- internals: perm interning and images -------------------------------

    def _perm_id(self, perm: tuple[int, ...]) -> int:
        pid = self._perm_ids.get(perm)
        if pid is None:
            pid = len(self._perm_list)
            self._perm_ids[perm] = pid
            self._perm_list.append(perm)
            names = self._names
            self._perm_mappings.append(
                {names[i]: names[perm[i]] for i in range(self._n)}
            )
            self._perm_state_images.append({})
            self._perm_buffer_images.append({})
            self._perm_message_images.append({})
        return pid

    def _image(self, packed: tuple[int, ...], pid: int) -> tuple[int, ...]:
        """The packed image of *packed* under the interned perm *pid*."""
        self.leaf_images += 1
        perm = self._perm_list[pid]
        states = self._perm_state_images[pid]
        slots = [0] * len(packed)
        for i in range(self._n):
            sid = packed[i]
            image = states.get(sid)
            if image is None:
                image = self._image_state(sid, pid)
            slots[perm[i]] = image
        bid = packed[-1]
        image = self._perm_buffer_images[pid].get(bid)
        if image is None:
            image = self._image_buffer(bid, pid)
        slots[-1] = image
        return tuple(slots)

    def _image_state(self, state_id: int, pid: int) -> int:
        renamed = _rename_state(
            self._codec.state_at(state_id), self._perm_mappings[pid]
        )
        image = self._codec.intern_state(renamed)
        self._perm_state_images[pid][state_id] = image
        return image

    def _image_buffer(self, buffer_id: int, pid: int) -> int:
        mapping = self._perm_mappings[pid]
        message_images = self._perm_message_images[pid]
        counts: dict[Message, int] = {}
        for message, count in self._codec.buffer_at(buffer_id).items():
            renamed_message = message_images.get(message)
            if renamed_message is None:
                renamed_message = Message(
                    mapping.get(message.destination, message.destination),
                    rename_value(message.value, mapping),
                )
                message_images[message] = renamed_message
            counts[renamed_message] = counts.get(renamed_message, 0) + count
        image = self._codec.intern_buffer(MessageBuffer._trusted(counts))
        self._perm_buffer_images[pid][buffer_id] = image
        return image

    # -- internals: partition refinement ------------------------------------

    def _sig(
        self,
        value: Hashable,
        self_name: str,
        focus_name: str | None = None,
    ) -> bytes:
        """Renaming-equivariant serialization of a protocol value.

        *self_name* scrubs to SELF, *focus_name* (pair relations) to
        FOCUS, every other process name to OTHER — so two values that
        differ only by a renaming consistent with those roles serialize
        identically.  Frozensets serialize order-independently by
        sorting member serializations (``repr`` order would follow
        ``PYTHONHASHSEED`` for strings, which must never influence
        canonical forms).  Containers are memoized per (value, roles):
        message payloads and report sets repeat across thousands of
        configurations, so serialization is dict-probe-dominated.
        """
        if isinstance(value, str):
            if value == self_name:
                return _TOKEN_SELF
            if value == focus_name:
                return _TOKEN_FOCUS
            if value in self._name_set:
                return _TOKEN_OTHER
            return b"s" + value.encode("utf-8", "surrogatepass")
        if isinstance(value, bool):
            return b"b1" if value else b"b0"
        if isinstance(value, int):
            return b"i%d" % value
        if isinstance(value, tuple):
            key = (value, self_name, focus_name)
            cached = self._sig_memo.get(key)
            if cached is None:
                cached = (
                    b"("
                    + b",".join(
                        self._sig(item, self_name, focus_name)
                        for item in value
                    )
                    + b")"
                )
                self._sig_memo[key] = cached
            return cached
        if isinstance(value, frozenset):
            key = (value, self_name, focus_name)
            cached = self._sig_memo.get(key)
            if cached is None:
                cached = (
                    b"{"
                    + b",".join(
                        sorted(
                            self._sig(item, self_name, focus_name)
                            for item in value
                        )
                    )
                    + b"}"
                )
                self._sig_memo[key] = cached
            return cached
        if value is None:
            return b"n"
        return b"r" + repr(value).encode("utf-8", "surrogatepass")

    def _state_profile(self, position: int, state_id: int) -> int:
        """Seed color contribution of holding *state_id* at *position*."""
        state = self._codec.state_at(state_id)
        name = self._names[position]
        data = (
            self._sig(state.input, name)
            + b"|"
            + self._sig(state.output, name)
            + b"|"
            + self._sig(state.data, name)
        )
        digest = _digest(data)
        self._state_profiles[position][state_id] = digest
        return digest

    def _embedded_names(self, value: Hashable) -> frozenset[str]:
        """Process names occurring anywhere inside *value* (memoized).

        The pair-relation scrub of a value against focus ``names[k]``
        can only differ from the focus-free scrub when ``names[k]``
        actually occurs in the value — so knowing the embedded names
        lets the buffer scan serialize each message O(1) times instead
        of once per pair."""
        if isinstance(value, str):
            if value in self._name_set:
                return frozenset((value,))
            return _NO_NAMES
        if isinstance(value, (tuple, frozenset)):
            cached = self._embedded_memo.get(value)
            if cached is None:
                found: set[str] = set()
                for item in value:
                    found.update(self._embedded_names(item))
                cached = frozenset(found) if found else _NO_NAMES
                self._embedded_memo[value] = cached
            return cached
        return _NO_NAMES

    def _buffer_profile(self, buffer_id: int) -> tuple[int, ...]:
        """Per-position digests of the mail buffered for each process.

        Each ``(message, count)`` contributes a memoized 64-bit entry
        digest; a position's profile is the masked *sum* of its entries
        — an order-independent multiset combine, so no per-buffer
        sorting or re-hashing (see :func:`_mix64` on collisions).
        """
        buffer = self._codec.buffer_at(buffer_id)
        sums = [0] * self._n
        entries = self._message_profile_entries
        for message, count in buffer.items():
            key = (message, count)
            entry = entries.get(key)
            if entry is None:
                position = self._position_of.get(message.destination)
                entry = (
                    position,
                    0
                    if position is None
                    else _digest(
                        self._sig(message.value, message.destination)
                        + b"#%d" % count
                    ),
                )
                entries[key] = entry
            position, data = entry
            if position is None:  # pragma: no cover - foreign destination
                continue
            sums[position] += data
        profile = tuple(total & _MASK64 for total in sums)
        self._buffer_profiles[buffer_id] = profile
        return profile

    def _initial_colors(self, packed: tuple[int, ...]) -> list[int]:
        bid = packed[-1]
        buffer_profile = self._buffer_profiles.get(bid)
        if buffer_profile is None:
            buffer_profile = self._buffer_profile(bid)
        profiles = self._state_profiles
        colors = []
        for i in range(self._n):
            sid = packed[i]
            state_digest = profiles[i].get(sid)
            if state_digest is None:
                state_digest = self._state_profile(i, sid)
            # Deterministic arithmetic mix — cheap, equivariant, and a
            # pure function of the two digests.
            colors.append(
                (state_digest * 0x9E3779B97F4A7C15 + buffer_profile[i])
                & 0x7FFFFFFFFFFFFFFF
            )
        return colors

    def _perm_from_colors(self, colors: list[int]) -> tuple[int, ...]:
        """The discrete partition's renaming: color rank = new position."""
        order = sorted(range(self._n), key=colors.__getitem__)
        perm = [0] * self._n
        for rank, position in enumerate(order):
            perm[position] = rank
        return tuple(perm)

    # The WL pass relates position *i* to position *j* through two
    # scrubbed digests.  State part: *i*'s data with ``names[i]`` →
    # SELF, ``names[j]`` → FOCUS, other names → OTHER (captures "my
    # state mentions *that* process").  Buffer part: the mail addressed
    # to either of the two, with the same scrub.  Both are equivariant:
    # renaming the configuration and the pair together leaves the
    # digests fixed.  The probes live inline in :meth:`_refine`; these
    # helpers are the memo-miss slow paths.

    def _pair_state_digest(self, sid: int, i: int, j: int) -> int:
        state = self._codec.state_at(sid)
        digest = _digest(
            self._sig(state.data, self._names[i], self._names[j])
        )
        self._pair_state[(sid, i, j)] = digest
        return digest

    def _message_pair_row(
        self, message: Message, count: int
    ) -> tuple[int | None, int, int, dict[int, tuple[int, int]]]:
        """``(dest, S-default, F-default, specials)`` for one message.

        A message to position ``d`` contributes a SELF-scrubbed entry to
        every pair ``(d, k)`` and a FOCUS-scrubbed entry to every pair
        ``(k, d)``.  Those entries can only depend on ``k`` when
        ``names[k]`` occurs *inside* the payload, so one default pair of
        entry digests plus a ``specials`` override per embedded name
        covers all ``2(n-1)`` cells — and the whole row is memoized per
        ``(message, count)``, which repeat across thousands of buffers.
        """
        names = self._names
        sig = self._sig
        d = self._position_of.get(message.destination)
        if d is None:  # pragma: no cover - foreign destination
            row = (None, 0, 0, {})
            self._message_pair_rows[(message, count)] = row
            return row
        value = message.value
        suffix = b"#%d" % count
        name_d = names[d]
        s_default = _digest(b"S>" + sig(value, name_d) + suffix)
        f_default = _digest(b"F>" + sig(value, _NO_NAME, name_d) + suffix)
        specials: dict[int, tuple[int, int]] = {}
        for name in self._embedded_names(value):
            k = self._position_of[name]
            if k == d:
                continue
            specials[k] = (
                _digest(b"S>" + sig(value, name_d, name) + suffix),
                _digest(b"F>" + sig(value, name, name_d) + suffix),
            )
        row = (d, s_default, f_default, specials)
        self._message_pair_rows[(message, count)] = row
        return row

    def _fill_pair_buffer(self, buffer_id: int) -> None:
        """All ``(i, j)`` buffer-relation digests of one buffer, in a
        single scan (buffers are fresh nearly every canonicalization;
        20 independent scans per configuration at n=5 dominated the WL
        pass before this).  A cell's digest is the masked sum of its
        memoized per-message entry digests — order-independent, so no
        sorting and no per-cell re-hash."""
        n = self._n
        rows = self._message_pair_rows
        cells = [0] * (n * n)
        for message, count in self._codec.buffer_at(buffer_id).items():
            row = rows.get((message, count))
            if row is None:
                row = self._message_pair_row(message, count)
            d, s_default, f_default, specials = row
            if d is None:  # pragma: no cover - foreign destination
                continue
            base = d * n
            for k in range(n):
                if k == d:
                    continue
                if specials:
                    special = specials.get(k)
                    if special is not None:
                        s_entry, f_entry = special
                    else:
                        s_entry, f_entry = s_default, f_default
                else:
                    s_entry, f_entry = s_default, f_default
                # Mail to i=d, seen by the (d, k) pair: d is SELF.
                cells[base + k] += s_entry
                # Mail to j=d, seen by the (k, d) pair: d is FOCUS.
                cells[k * n + d] += f_entry
        table = self._pair_buffer
        for i in range(n):
            base = i * n
            for k in range(n):
                if i != k:
                    table[(buffer_id, i, k)] = cells[base + k] & _MASK64

    def _refine(
        self, packed: tuple[int, ...], colors: list[int]
    ) -> list[int]:
        """WL refinement of *colors* to equitability (or discreteness).

        Each pass remixes a position's color with the multiset of
        (neighbor color, pair relation) rows, combined as a masked sum
        of row mixes (order-independent, so no sorting).  The pass is
        repeated while it strictly increases the number of color
        classes, so it terminates in at most n passes; all inputs are
        equivariant digests, so the refined coloring is too.
        """
        n = self._n
        count = len(set(colors))
        mix = _mix64
        # Inlined pair-relation probes: this doubly-nested loop runs on
        # every non-fast-path miss, and the function-call overhead of
        # going through _pair_relation per (i, j) was measurable.
        pair_state = self._pair_state
        pair_buffer = self._pair_buffer
        bid = packed[-1]
        while count < n:
            refined = []
            for i in range(n):
                acc = 0
                sid = packed[i]
                for j in range(n):
                    if j == i:
                        continue
                    state_digest = pair_state.get((sid, i, j))
                    if state_digest is None:
                        state_digest = self._pair_state_digest(sid, i, j)
                    buffer_digest = pair_buffer.get((bid, i, j))
                    if buffer_digest is None:
                        self._fill_pair_buffer(bid)
                        buffer_digest = pair_buffer[(bid, i, j)]
                    acc += mix(
                        colors[j] * 0x9E3779B97F4A7C15
                        + state_digest * 0xC2B2AE3D27D4EB4F
                        + buffer_digest
                    )
                refined.append(
                    mix(colors[i] * 0xFF51AFD7ED558CCD + acc) & _MASK63
                )
            refined_count = len(set(refined))
            if refined_count <= count:
                return colors
            colors = refined
            count = refined_count
        return colors

    def _refine_canonical(
        self, packed: tuple[int, ...]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n = self._n
        colors = self._initial_colors(packed)
        if len(set(colors)) == n:
            # Fast path: seed invariants already tell the processes
            # apart — one sort, one image.
            perm = self._perm_from_colors(colors)
            if perm == self.identity:
                return packed, perm
            return self._image(packed, self._perm_id(perm)), perm
        colors = self._refine(packed, colors)
        if len(set(colors)) == n:
            perm = self._perm_from_colors(colors)
            if perm == self.identity:
                return packed, perm
            return self._image(packed, self._perm_id(perm)), perm
        # Individualize-and-refine with automorphism pruning.
        self.refine_branches += 1
        best: list = [None, None]
        automorphisms: list[tuple[int, ...]] = []

        def search(colors: list[int], path: tuple[int, ...]) -> None:
            # *colors* arrive refined (by the caller or the child
            # individualization below) — no duplicate WL pass here.
            cells: dict[int, list[int]] = {}
            for position, color in enumerate(colors):
                cells.setdefault(color, []).append(position)
            branch: list[int] | None = None
            for color in sorted(cells):
                members = cells[color]
                if len(members) > 1 and (
                    branch is None or len(members) < len(branch)
                ):
                    branch = members
            if branch is None:
                perm = self._perm_from_colors(colors)
                image = self._image(packed, self._perm_id(perm))
                if best[0] is None or image < best[0]:
                    best[0], best[1] = image, perm
                elif image == best[0] and perm != best[1]:
                    # Two leaf renamings with equal images compose to
                    # an automorphism of *packed* — the pruning fuel.
                    automorphisms.append(
                        perm_compose(perm_invert(best[1]), perm)
                    )
                return
            explored: list[int] = []
            for position in branch:
                if explored and self._pruned_by_automorphism(
                    position, explored, path, automorphisms
                ):
                    continue
                explored.append(position)
                child = list(colors)
                individualized = _mix64(
                    colors[position] + 0xA24BAED4963EE407 * (len(path) + 1)
                )
                while individualized in child:
                    individualized = _mix64(individualized + 1)
                child[position] = individualized
                search(self._refine(packed, child), path + (position,))

        search(colors, ())
        return best[0], best[1]

    @staticmethod
    def _pruned_by_automorphism(
        position: int,
        explored: list[int],
        path: tuple[int, ...],
        automorphisms: list[tuple[int, ...]],
    ) -> bool:
        """McKay pruning: skip a branch cell member whose orbit (under
        discovered automorphisms fixing the individualized path) already
        contains an explored member — its subtree yields the same
        images."""
        applicable = [
            perm
            for perm in automorphisms
            if all(perm[fixed] == fixed for fixed in path)
        ]
        if not applicable:
            return False
        orbit = {position}
        frontier = [position]
        while frontier:
            member = frontier.pop()
            for perm in applicable:
                image = perm[member]
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        return any(member in orbit for member in explored)
