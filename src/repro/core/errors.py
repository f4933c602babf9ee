"""Exception hierarchy for flpkit.

All library-raised exceptions derive from :class:`FLPError` so that callers
can distinguish model violations from ordinary Python errors with a single
``except`` clause.
"""

from __future__ import annotations


class FLPError(Exception):
    """Base class for every error raised by flpkit."""


class ModelError(FLPError):
    """A request violates the formal model of Section 2 of the paper."""


class FaultModelError(ModelError, ValueError):
    """A fault plan is malformed, contradictory, or unsupported.

    Covers structural problems (negative steps, a recovery scheduled
    before its crash, overlapping partition groups), contradictions (a
    process both initially dead and crash-recovering), references to
    unknown processes, and requests for time-dependent clauses in
    analyses that only support the static fault fragment.

    Subclasses :class:`ValueError` as well so pre-existing callers that
    guarded fault-plan construction with ``except ValueError`` keep
    working.
    """


class SymmetryError(ModelError):
    """A symmetry quotient was requested for an asymmetric protocol.

    The quotient identifies configurations up to process renaming, which
    is only sound when every automaton declares ``symmetric = True`` and
    the declaration survives the transition-level automorphism check.
    Requesting ``--symmetry`` for a protocol that never declared it is
    an operator error and refuses loudly; a declared symmetry that fails
    validation degrades to a warning instead (see
    :mod:`repro.core.reduction`).
    """


class InvalidEvent(ModelError):
    """An event was applied to a configuration it is not applicable to.

    An event ``(p, m)`` with ``m != NULL`` is applicable to a configuration
    only if the message ``(p, m)`` is present in the message buffer.  Null
    deliveries ``(p, NULL)`` are always applicable.
    """


class UnknownProcess(ModelError):
    """A process name was used that does not belong to the protocol."""


class ProtocolViolation(FLPError):
    """A process transition broke one of the model's structural rules.

    The canonical example is writing to the output register after it has
    been set: the paper stipulates that the output register is write-once
    ("the transition function cannot change the value of the output
    register once the process has reached a decision state").
    """


class NotPartiallyCorrect(FLPError):
    """A protocol failed one of the two partial-correctness conditions.

    Condition (1): no accessible configuration has more than one decision
    value.  Condition (2): for each ``v`` in ``{0, 1}`` some accessible
    configuration has decision value ``v``.
    """


class AdversaryStuck(FLPError):
    """The FLP adversary could not find a bivalence-preserving extension.

    Against a partially correct protocol with exact valency information
    this is impossible by Lemma 3, so seeing this error indicates either a
    protocol that is not partially correct or an exploration budget that is
    too small to certify bivalence.
    """


class SimulationLimitExceeded(FLPError):
    """A forward simulation exceeded its maximum step budget."""


class WorkerPoolError(FLPError):
    """The parallel expansion pool failed beyond the recovery policy.

    Raised only when serial fallback is disabled
    (:class:`repro.core.resilience.ResilienceConfig.serial_fallback` is
    ``False``); with the default policy a failed pool degrades to inline
    expansion and exploration still completes.
    """


class CheckpointError(FLPError):
    """A checkpoint could not be written, read, or restored."""


class CheckpointCorrupt(CheckpointError):
    """A checkpoint file failed integrity verification.

    Covers a damaged header, a payload whose SHA-256 does not match the
    header, and structurally inconsistent contents; resuming from such a
    snapshot would silently corrupt the graph, so loading refuses.
    """


class CheckpointMismatch(CheckpointError):
    """A checkpoint does not match the engine trying to restore it.

    The snapshot's format version, engine mode (packed vs dict), or
    protocol identity (process roster / process types) differs from the
    restore target's.
    """
