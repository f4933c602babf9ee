"""Core formal model of FLP: processes, configurations, events, valency.

This subpackage is a direct implementation of Section 2 of the paper plus
the valency machinery of Section 3.  Everything else in flpkit (the
adversary, the protocol zoo, the synchrony extensions) is built on these
types.
"""

from repro.core.configuration import Configuration
from repro.core.correctness import (
    DeterminismReport,
    PartialCorrectnessReport,
    ValidityReport,
    check_determinism,
    check_partial_correctness,
    check_validity,
)
from repro.core.errors import (
    AdversaryStuck,
    FLPError,
    InvalidEvent,
    ModelError,
    NotPartiallyCorrect,
    ProtocolViolation,
    SimulationLimitExceeded,
    SymmetryError,
    UnknownProcess,
)
from repro.core.events import NULL, Event, Schedule
from repro.core.exploration import GlobalConfigurationGraph, GraphStats
from repro.core.messages import Message, MessageBuffer
from repro.core.packing import PackedCodec
from repro.core.seeding import stable_rng, stable_seed
from repro.core.process import Process, ProcessState, Transition
from repro.core.protocol import Protocol
from repro.core.reduction import (
    AmpleReducer,
    ReductionPolicy,
    SymmetryQuotient,
    declares_symmetry,
    validate_symmetry,
)
from repro.core.simulation import (
    FairnessLedger,
    SimulationResult,
    StopCondition,
    simulate,
)
from repro.core.valency import (
    BivalenceWitness,
    Valency,
    ValencyAnalyzer,
    shortest_schedule,
)
from repro.core.values import DECISION_VALUES, ONE, UNDECIDED, ZERO

__all__ = [
    "Configuration",
    "DeterminismReport",
    "PartialCorrectnessReport",
    "ValidityReport",
    "check_determinism",
    "check_partial_correctness",
    "check_validity",
    "AdversaryStuck",
    "FLPError",
    "InvalidEvent",
    "ModelError",
    "NotPartiallyCorrect",
    "ProtocolViolation",
    "SimulationLimitExceeded",
    "SymmetryError",
    "UnknownProcess",
    "NULL",
    "Event",
    "Schedule",
    "GlobalConfigurationGraph",
    "GraphStats",
    "Message",
    "MessageBuffer",
    "PackedCodec",
    "stable_rng",
    "stable_seed",
    "Process",
    "ProcessState",
    "Transition",
    "Protocol",
    "AmpleReducer",
    "ReductionPolicy",
    "SymmetryQuotient",
    "declares_symmetry",
    "validate_symmetry",
    "FairnessLedger",
    "SimulationResult",
    "StopCondition",
    "simulate",
    "BivalenceWitness",
    "Valency",
    "ValencyAnalyzer",
    "shortest_schedule",
    "DECISION_VALUES",
    "ONE",
    "UNDECIDED",
    "ZERO",
]
