"""The paper's figures, regenerated from *actual computed* configurations.

FLP's three figures are proof diagrams:

* **Figure 1** — the Lemma 1 commutativity diamond;
* **Figure 2** — Lemma 3, Case 1: neighbors ``C0 --e'--> C1`` whose
  ``e``-successors would have to be 0- and 1-valent, closed into an
  impossible diamond by Lemma 1;
* **Figure 3** — Lemma 3, Case 2: the deciding run σ from ``C0``
  avoiding ``p``, against which ``e`` and ``e'`` commute, forcing the
  decided endpoint ``A`` to be bivalent.

This module renders each figure as ASCII art *instantiated with real
configurations produced by the checkers* — the diagram you see is not a
stock picture but a replayable instance — plus a Graphviz DOT export of
any explored configuration graph with valency coloring.
"""

from __future__ import annotations

from repro.core.exploration import GlobalConfigurationGraph
from repro.core.valency import Valency, ValencyAnalyzer
from repro.adversary.certificates import CommutativityWitness
from repro.adversary.lemmas import Lemma3Failure

__all__ = [
    "figure1",
    "figure2",
    "figure3",
    "graph_to_dot",
    "hypercube_diagram",
]


def _label(schedule_or_event) -> str:
    from repro.core.events import Event, Schedule

    if isinstance(schedule_or_event, Event):
        value = (
            "0" if schedule_or_event.is_null_delivery
            else repr(schedule_or_event.value)
        )
        return f"({schedule_or_event.process},{value})"
    if isinstance(schedule_or_event, Schedule):
        return f"σ({len(schedule_or_event)} events)"
    return str(schedule_or_event)


def figure1(witness: CommutativityWitness) -> str:
    """Render the Lemma 1 diamond from a concrete commutativity witness.

    ::

                      C
                σ1  /   \\  σ2
                  C1     C2
                σ2  \\   /  σ1
                      C3
    """
    s1 = _label(witness.sigma1)
    s2 = _label(witness.sigma2)
    return "\n".join(
        [
            "Figure 1 (Lemma 1): disjoint schedules commute",
            "",
            "                  C",
            f"        σ1={s1:<14s} σ2={s2}",
            "               /     \\",
            "             C1       C2",
            "               \\     /",
            f"        σ2={s2:<14s} σ1={s1}",
            "                  C3",
            "",
            f"  C  = {witness.configuration!r}",
            f"  C1 = {witness.corner1!r}",
            f"  C2 = {witness.corner2!r}",
            f"  C3 = {witness.meet!r}",
            "  verified: σ2(σ1(C)) == σ1(σ2(C)) == C3",
        ]
    )


def figure2(failure: Lemma3Failure, forced_event) -> str:
    """Render the Case-1/Case-2 neighborhood of a Lemma-3 failure.

    The found structure is the paper's Figure-2 situation: neighbors
    ``C0 --e'--> C1`` with opposite-valent ``e``-successors ``D0, D1``.
    Lemma 1 rules out ``p' != p`` (the diamond would make ``D1`` a
    successor of ``D0``), which is why the failure's pivot is always a
    step of the forced event's own process.
    """
    e = _label(forced_event)
    ep = _label(failure.pivot_event)
    return "\n".join(
        [
            "Figure 2 (Lemma 3, neighbor structure at a failure):",
            "",
            f"        C0 ──e'={ep}──▶ C1",
            f"        │                      │",
            f"      e={e:<18s}  e={e}",
            f"        ▼                      ▼",
            f"        D0 ({failure.anchor_valency.value})"
            f"          D1 ({failure.neighbor_valency.value})",
            "",
            f"  C0 = {failure.anchor!r}",
            f"  pivot process p = p' = {failure.faulty_process!r} "
            "(Lemma 1 forbids p' != p here)",
        ]
    )


def figure3(failure: Lemma3Failure, forced_event) -> str:
    """Render the Case-2 square: why silencing ``p`` stalls the protocol.

    Any deciding run σ from ``C0`` in which ``p`` takes no steps would
    commute (Lemma 1) with both ``e`` and ``e'``, making its endpoint
    ``A`` an ancestor of both a 0-valent ``E0`` and a 1-valent ``E1`` —
    but a decided configuration cannot be bivalent.  So no such σ
    exists, and the adversary's fault mode is sound.
    """
    e = _label(forced_event)
    ep = _label(failure.pivot_event)
    p = failure.faulty_process
    return "\n".join(
        [
            "Figure 3 (Lemma 3, Case 2): no deciding run avoids p",
            "",
            f"        C0 ───────e'={ep}──────▶ C1",
            f"        │ \\                            │",
            f"        │  σ (p={p} takes no steps)    │",
            f"        │   \\                          │",
            f"      e={e}  ▼                      e={e}",
            f"        ▼     A (deciding?!)            ▼",
            f"        D0 ── σ ──▶ E0={_label('σ(D0)')} "
            f"   D1 ── σ ──▶ E1",
            "",
            f"  e(A)  = σ(D0) is {failure.anchor_valency.value}",
            f"  e(e'(A)) = σ(D1) is {failure.neighbor_valency.value}",
            "  ⇒ A reaches both decision values ⇒ A is bivalent,",
            "    contradicting that the run to A was deciding.",
            f"  ⇒ silencing {p!r} from C0 yields an admissible,",
            "    never-deciding run (the adversary's fault mode).",
        ]
    )


_VALENCY_GLYPHS = {
    Valency.BIVALENT: "±",
    Valency.ZERO_VALENT: "0",
    Valency.ONE_VALENT: "1",
    Valency.NONE: "∅",
    Valency.UNKNOWN: "?",
}


def hypercube_diagram(
    classification: dict[tuple[int, ...], Valency]
) -> str:
    """Render Lemma 2's initial hypercube as an adjacency walk.

    Input vectors are listed in Gray-code order, so consecutive lines
    are *adjacent* initial configurations (they differ in exactly one
    process's input) — the chain the proof of Lemma 2 walks.  The
    valency column makes the 0-valent/1-valent boundary (or the
    bivalent interior) visible at a glance.
    """
    if not classification:
        return "(empty classification)"
    n = len(next(iter(classification)))
    lines = ["inputs  valency   (consecutive rows are adjacent)"]
    previous = None
    for index in range(2**n):
        gray = index ^ (index >> 1)
        vector = tuple((gray >> i) & 1 for i in range(n))
        valency = classification[vector]
        bits = "".join(str(b) for b in vector)
        flip = ""
        if previous is not None:
            changed = [
                i for i in range(n) if vector[i] != previous[i]
            ]
            flip = f"   (flip p{changed[0]})"
        glyph = _VALENCY_GLYPHS[valency]
        lines.append(f"  {bits}    [{glyph}] {valency.value}{flip}")
        previous = vector
    return "\n".join(lines)


_VALENCY_COLORS = {
    Valency.BIVALENT: "gold",
    Valency.ZERO_VALENT: "lightblue",
    Valency.ONE_VALENT: "lightpink",
    Valency.NONE: "gray",
    Valency.UNKNOWN: "white",
}


def graph_to_dot(
    graph: GlobalConfigurationGraph,
    analyzer: ValencyAnalyzer | None = None,
    max_nodes: int = 400,
) -> str:
    """Export an explored configuration graph as Graphviz DOT.

    Nodes are colored by valency when an analyzer is supplied (gold =
    bivalent, blue = 0-valent, pink = 1-valent).  The bivalent→univalent
    frontier — the "critical steps" the adversary must forever avoid —
    is exactly the gold/colored boundary in the rendered picture.
    """
    lines = [
        "digraph configurations {",
        "  rankdir=TB;",
        '  node [shape=circle, style=filled, fontsize=9];',
    ]
    count = min(len(graph.configurations), max_nodes)
    for node in range(count):
        configuration = graph.configurations[node]
        color = "white"
        label = str(node)
        if analyzer is not None:
            valency = analyzer.valency(configuration)
            color = _VALENCY_COLORS[valency]
            if valency.is_univalent:
                label = f"{node}\\n{valency.decided_value}-val"
            elif valency is Valency.BIVALENT:
                label = f"{node}\\nbi"
        lines.append(
            f'  n{node} [label="{label}", fillcolor="{color}"];'
        )
    for source, event, target in graph.iter_edges():
        if source >= count or target >= count:
            continue
        value = "0̸" if event.is_null_delivery else str(event.value)
        lines.append(
            f'  n{source} -> n{target} '
            f'[label="{event.process}:{value}", fontsize=7];'
        )
    lines.append("}")
    return "\n".join(lines)
