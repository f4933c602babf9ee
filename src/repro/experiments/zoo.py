"""Shared protocol instances for the experiment suite.

Centralizing the instances keeps experiment tables comparable: every
experiment that says "arbiter/3" means exactly the same protocol object
shape, and the quick/full switch scales N in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.protocol import Protocol
from repro.protocols import (
    ArbiterProcess,
    BenOrProcess,
    InitiallyDeadProcess,
    InputEchoProcess,
    ParityArbiterProcess,
    QuorumVoteProcess,
    ThreePhaseCommitProcess,
    TwoPhaseCommitProcess,
    WaitForAllProcess,
    make_protocol,
)

__all__ = [
    "safe_zoo",
    "bivalent_zoo",
    "broken_zoo",
    "commit_zoo",
    "symmetric_zoo",
    "SymmetricInstance",
]


def safe_zoo(quick: bool = True) -> list[tuple[str, Protocol]]:
    """Partially correct asynchronous protocols — Theorem 1's subjects."""
    members = [
        ("arbiter/3", make_protocol(ArbiterProcess, 3)),
        ("parity-arbiter/3", make_protocol(ParityArbiterProcess, 3)),
        ("wait-for-all/3", make_protocol(WaitForAllProcess, 3)),
        ("2pc/3", make_protocol(TwoPhaseCommitProcess, 3)),
        ("3pc/3", make_protocol(ThreePhaseCommitProcess, 3)),
    ]
    if not quick:
        members.extend(
            [
                ("arbiter/4", make_protocol(ArbiterProcess, 4)),
                ("2pc/4", make_protocol(TwoPhaseCommitProcess, 4)),
                # Theorem 2's own protocol is finite-state at N=3 and,
                # like everything else, falls to Theorem 1: its stage-1
                # hearing order makes initial configurations bivalent,
                # and the fault mode is exactly a "death during
                # execution", which Section 4's hypotheses exclude.
                (
                    "initially-dead/3",
                    make_protocol(InitiallyDeadProcess, 3),
                ),
            ]
        )
    return members


def bivalent_zoo(quick: bool = True) -> list[tuple[str, Protocol]]:
    """Safe protocols that actually have bivalent initial configurations
    (order-sensitive decisions) — Lemma 3's subjects."""
    members = [
        ("arbiter/3", make_protocol(ArbiterProcess, 3)),
        ("parity-arbiter/3", make_protocol(ParityArbiterProcess, 3)),
    ]
    if not quick:
        members.extend(
            [
                ("arbiter/4", make_protocol(ArbiterProcess, 4)),
                ("parity-arbiter/4", make_protocol(ParityArbiterProcess, 4)),
            ]
        )
    return members


def broken_zoo(quick: bool = True) -> list[tuple[str, Protocol]]:
    """Protocols that fail partial correctness — negative controls."""
    return [
        ("quorum-vote/3", make_protocol(QuorumVoteProcess, 3)),
        ("input-echo/2", make_protocol(InputEchoProcess, 2)),
    ]


def commit_zoo(quick: bool = True) -> list[tuple[str, Protocol]]:
    """The introduction's transaction-commit protocols."""
    n = 3 if quick else 4
    return [
        (f"2pc/{n}", make_protocol(TwoPhaseCommitProcess, n)),
        (f"3pc/{n}", make_protocol(ThreePhaseCommitProcess, n)),
    ]


@dataclass(frozen=True)
class SymmetricInstance:
    """A fully symmetric zoo member, sized for quotient exploration.

    ``depth_horizon`` is the BFS ``max_levels`` bound that keeps a
    *reduced* (``--symmetry``, optionally ``--por``) exploration inside
    tier-1 test time on one core.
    """

    label: str
    protocol: Protocol
    depth_horizon: int


def symmetric_zoo(quick: bool = True) -> list[SymmetricInstance]:
    """Protocols whose automata declare ``symmetric = True``.

    The n=3 members (``quick=True``) are small enough to explore
    unreduced (that is what the composed-reduction identity tests
    compare against).  The n=5 members that ``quick=False`` adds are
    why the quotient exists: an n! canonicalizer pays 120 renamings per
    configuration on them, and their unreduced graphs are out of test
    budgets, so tests explore them reduced only, at the recorded
    horizons.  Ben-Or appears in its ``coin="round"`` variant — the
    shared per-round coin removes the private tape's name dependence,
    which is the one asymmetry in the classic protocol.
    """
    members = [
        SymmetricInstance(
            "wait-for-all/3", make_protocol(WaitForAllProcess, 3), 12
        ),
        SymmetricInstance(
            "quorum-vote/3", make_protocol(QuorumVoteProcess, 3), 12
        ),
        SymmetricInstance(
            "benor/3",
            make_protocol(BenOrProcess, 3, coin="round"),
            6,
        ),
    ]
    if not quick:
        members.extend(
            [
                SymmetricInstance(
                    "wait-for-all/5",
                    make_protocol(WaitForAllProcess, 5),
                    6,
                ),
                SymmetricInstance(
                    "quorum-vote/5",
                    make_protocol(QuorumVoteProcess, 5),
                    5,
                ),
                SymmetricInstance(
                    "benor/5",
                    make_protocol(BenOrProcess, 5, coin="round"),
                    5,
                ),
            ]
        )
    return members
