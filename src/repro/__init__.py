"""flpkit: an executable reproduction of Fischer-Lynch-Paterson (1985).

"Impossibility of Distributed Consensus with One Faulty Process"
(PODS 1983 / JACM 32(2) 1985) proves that no asynchronous consensus
protocol is totally correct in spite of one crash fault.  flpkit builds
the paper's formal model as a simulation library, turns its lemmas into
decision procedures with replayable certificates, implements the
Theorem-1 adversary as a constructive scheduler, reproduces Section 4's
initially-dead-processes protocol (Theorem 2), and includes the
synchronous / randomized / partially-synchronous escape hatches the
paper contrasts itself against.

Quickstart::

    from repro import make_protocol, ArbiterProcess, FLPAdversary

    protocol = make_protocol(ArbiterProcess, n=3)
    adversary = FLPAdversary(protocol)
    certificate = adversary.build_run(stages=25)
    assert certificate.verify(protocol)   # nobody ever decided
"""

from repro.core import (
    Configuration,
    Event,
    Message,
    MessageBuffer,
    Process,
    ProcessState,
    Protocol,
    Schedule,
    SimulationResult,
    StopCondition,
    Transition,
    Valency,
    ValencyAnalyzer,
    check_partial_correctness,
    check_validity,
    simulate,
)
from repro.adversary import (
    AdversaryMode,
    FLPAdversary,
    NonDecidingRunCertificate,
    commutativity_diamond,
    find_bivalent_successor,
    find_lemma2,
)
from repro.protocols import (
    ArbiterProcess,
    BenOrProcess,
    FloodSetProcess,
    InitiallyDeadProcess,
    QuorumVoteProcess,
    ThreePhaseCommitProcess,
    TwoPhaseCommitProcess,
    WaitForAllProcess,
    make_protocol,
)
from repro.faults import (
    FaultedProtocol,
    FaultPlan,
    audit_run,
    survivability_matrix,
)
from repro.schedulers import (
    CrashPlan,
    DelayScheduler,
    FaultyScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)

__version__ = "1.0.0"

__all__ = [
    "Configuration",
    "Event",
    "Message",
    "MessageBuffer",
    "Process",
    "ProcessState",
    "Protocol",
    "Schedule",
    "SimulationResult",
    "StopCondition",
    "Transition",
    "Valency",
    "ValencyAnalyzer",
    "check_partial_correctness",
    "check_validity",
    "simulate",
    "AdversaryMode",
    "FLPAdversary",
    "NonDecidingRunCertificate",
    "commutativity_diamond",
    "find_bivalent_successor",
    "find_lemma2",
    "ArbiterProcess",
    "BenOrProcess",
    "FloodSetProcess",
    "InitiallyDeadProcess",
    "QuorumVoteProcess",
    "ThreePhaseCommitProcess",
    "TwoPhaseCommitProcess",
    "WaitForAllProcess",
    "make_protocol",
    "FaultedProtocol",
    "FaultPlan",
    "audit_run",
    "survivability_matrix",
    "CrashPlan",
    "DelayScheduler",
    "FaultyScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "__version__",
]
