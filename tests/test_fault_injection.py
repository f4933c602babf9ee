"""Fault-injection suite: safety survives everything we throw at it.

FLP kills *liveness*; safety (agreement + validity) of the safe zoo
must hold under arbitrary crash plans, delay windows, and scheduler
noise.  These property tests inject random faults and assert that no
run — decided, stalled, or half-decided — ever violates safety.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.admissibility import analyze_admissibility
from repro.core.resilience import ChaosConfig, ResilienceConfig
from repro.core.simulation import StopCondition, simulate
from repro.core.valency import Valency, ValencyAnalyzer
from repro.faults import (
    Crash,
    Duplication,
    FaultPlan,
    Omission,
    Partition,
    audit_run,
)
from repro.schedulers.faulty import FaultyScheduler
from repro.protocols import (
    ArbiterProcess,
    InitiallyDeadProcess,
    ParityArbiterProcess,
    ThreePhaseCommitProcess,
    TwoPhaseCommitProcess,
    WaitForAllProcess,
    make_protocol,
)
from repro.schedulers import (
    CrashPlan,
    DelayScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    random_crash_plan,
)
from tests.reference import explore

FACTORIES = {
    "arbiter": lambda: make_protocol(ArbiterProcess, 3),
    "parity": lambda: make_protocol(ParityArbiterProcess, 3),
    "wfa": lambda: make_protocol(WaitForAllProcess, 3),
    "2pc": lambda: make_protocol(TwoPhaseCommitProcess, 3),
    "3pc": lambda: make_protocol(ThreePhaseCommitProcess, 3),
    "initially-dead": lambda: make_protocol(InitiallyDeadProcess, 3),
}
_CACHE = {}


def get(name):
    if name not in _CACHE:
        _CACHE[name] = FACTORIES[name]()
    return _CACHE[name]


def check_safety(protocol, result, inputs):
    assert result.agreement_holds, (
        f"disagreement: {result.decisions}"
    )
    assert result.decision_values <= set(inputs) | _allowed_extra(
        protocol, inputs
    )


def _allowed_extra(protocol, inputs):
    # The arbiter's own input is unused: validity is over proposer
    # inputs.  For simplicity we allow any input value — every zoo
    # protocol decides some process's input — so the extra set is empty.
    return set()


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(FACTORIES)),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_safety_under_random_crashes_and_schedules(name, seed):
    protocol = get(name)
    rng = random.Random(seed)
    n = protocol.num_processes
    inputs = [rng.randint(0, 1) for _ in range(n)]
    plan = random_crash_plan(
        protocol.process_names, max_faulty=n - 1, max_step=60, rng=rng
    )
    scheduler = RandomScheduler(
        seed=seed, null_probability=0.25, crash_plan=plan
    )
    result = simulate(
        protocol,
        protocol.initial_configuration(inputs),
        scheduler,
        max_steps=600,
        stop=StopCondition.ALL_DECIDED,
    )
    check_safety(protocol, result, inputs)


@settings(max_examples=50, deadline=None)
@given(
    name=st.sampled_from(sorted(FACTORIES)),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_safety_under_delay_windows(name, seed):
    protocol = get(name)
    rng = random.Random(seed)
    inputs = [rng.randint(0, 1) for _ in protocol.process_names]
    victim = rng.choice(protocol.process_names)
    start = rng.randint(0, 20)
    end = None if rng.random() < 0.5 else start + rng.randint(1, 60)
    scheduler = DelayScheduler({victim}, window=(start, end))
    result = simulate(
        protocol,
        protocol.initial_configuration(inputs),
        scheduler,
        max_steps=500,
        stop=StopCondition.ALL_DECIDED,
    )
    check_safety(protocol, result, inputs)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["wfa", "2pc", "3pc", "arbiter", "parity"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_liveness_without_faults_under_fair_scheduling(name, seed):
    """The complement: with zero faults and a fair scheduler, the safe
    zoo always decides — asynchrony alone is not the problem."""
    protocol = get(name)
    rng = random.Random(seed)
    inputs = [rng.randint(0, 1) for _ in protocol.process_names]
    result = simulate(
        protocol,
        protocol.initial_configuration(inputs),
        RoundRobinScheduler(),
        max_steps=500,
        stop=StopCondition.ALL_DECIDED,
    )
    assert result.decided
    check_safety(protocol, result, inputs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_partial_decisions_never_conflict_with_late_ones(seed):
    """Kill a process mid-run, let the rest continue: any decisions
    made before, during, and after the crash agree."""
    protocol = get("parity")
    rng = random.Random(seed)
    inputs = [rng.randint(0, 1) for _ in protocol.process_names]
    victim = rng.choice(protocol.process_names)
    crash_at = rng.randint(1, 30)
    scheduler = RandomScheduler(
        seed=seed + 1,
        null_probability=0.2,
        crash_plan=CrashPlan({victim: crash_at}),
    )
    result = simulate(
        protocol,
        protocol.initial_configuration(inputs),
        scheduler,
        max_steps=800,
        stop=StopCondition.NEVER,
    )
    assert result.agreement_holds


# ---------------------------------------------------------------------------
# FaultPlan engine: safety of the safe zoo under random message-level
# fault plans, and auditor agreement with the legacy admissibility
# checker on the crash-only fragment.
# ---------------------------------------------------------------------------


def _random_message_plan(rng, names):
    """A random plan of omission / duplication / partition clauses."""
    clauses = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["omit", "dup", "split"])
        if kind == "omit":
            clauses.append(
                Omission(
                    destination=rng.choice([None, *names]),
                    budget=rng.choice([None, 1, 2, 4]),
                    probability=rng.choice([1.0, 0.5]),
                )
            )
        elif kind == "dup":
            clauses.append(
                Duplication(
                    destination=rng.choice([None, *names]),
                    budget=rng.randint(1, 4),
                    probability=rng.choice([1.0, 0.5]),
                )
            )
        elif not any(isinstance(c, Partition) for c in clauses):
            cut = rng.randint(1, len(names) - 1)
            shuffled = list(names)
            rng.shuffle(shuffled)
            clauses.append(
                Partition(
                    (frozenset(shuffled[:cut]), frozenset(shuffled[cut:])),
                    start=rng.randint(0, 10),
                    heal_at=rng.choice([None, 40, 80]),
                )
            )
    return FaultPlan(clauses)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(FACTORIES)),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_safety_under_random_message_fault_plans(name, seed):
    """Omission, duplication, and partitions may stall the safe zoo but
    can never make it disagree or decide a non-input value."""
    protocol = get(name)
    rng = random.Random(seed)
    inputs = [rng.randint(0, 1) for _ in protocol.process_names]
    plan = _random_message_plan(rng, protocol.process_names)
    base = (
        RoundRobinScheduler()
        if rng.random() < 0.5
        else RandomScheduler(seed=seed, null_probability=0.1)
    )
    scheduler = FaultyScheduler(base, plan, seed=seed)
    result = simulate(
        protocol,
        protocol.initial_configuration(inputs),
        scheduler,
        max_steps=600,
        stop=StopCondition.ALL_DECIDED,
    )
    check_safety(protocol, result, inputs)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(FACTORIES)),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_auditor_matches_legacy_checker_on_crash_only_plans(name, seed):
    """On the crash-only fragment the new auditor must accept exactly
    the runs the replay-based admissibility checker accepts."""
    protocol = get(name)
    rng = random.Random(seed)
    names = protocol.process_names
    victims = rng.sample(names, rng.randint(0, len(names) - 1))
    plan = FaultPlan(
        Crash(name, rng.randint(0, 40)) for name in sorted(victims)
    )
    inputs = [rng.randint(0, 1) for _ in names]
    scheduler = FaultyScheduler(
        RandomScheduler(seed=seed, null_probability=0.1), plan
    )
    initial = protocol.initial_configuration(inputs)
    result = simulate(
        protocol, initial, scheduler, max_steps=400,
        stop=StopCondition.ALL_DECIDED,
    )
    verdict = audit_run(
        protocol,
        initial,
        result.schedule,
        plan,
        fault_actions=tuple(result.fault_actions),
    )
    report = analyze_admissibility(
        protocol,
        initial,
        result.schedule,
        faulty=plan.faulty_processes,
        fault_point=plan.fault_point(),
    )
    assert verdict.report is not None
    assert verdict.admissible == report.fault_ok


# ---------------------------------------------------------------------------
# Engine-level fault injection: the analysis pipeline must reach the
# same verdicts whichever engine runs it — the shared packed engine
# serial or parallel, or the per-root dict-keyed explore() — faulted or
# clean.
# ---------------------------------------------------------------------------

ENGINE_CONFIGS = [
    pytest.param({"workers": 0}, id="packed-serial"),
    # None: the per-root explore(), rich configurations keyed in a dict.
    pytest.param(None, id="dict-serial"),
    pytest.param({"workers": 2}, id="packed-workers2"),
]

_VALENCY_OF_DECISIONS = {
    frozenset({0}): Valency.ZERO_VALENT,
    frozenset({1}): Valency.ONE_VALENT,
    frozenset({0, 1}): Valency.BIVALENT,
    frozenset(): Valency.NONE,
}


def _reference_census(protocol):
    """Each initial configuration's valency from the decision values
    the per-root explore() reaches from it."""
    census = {}
    for initial in protocol.initial_configurations():
        graph = explore(protocol, initial)
        assert graph.complete
        reached = frozenset(
            value
            for configuration in graph.configurations
            for value in configuration.decision_values()
        )
        census[protocol.input_vector(initial)] = (
            _VALENCY_OF_DECISIONS[reached].value
        )
    return census


def _census(protocol, *, chaos=None, **engine):
    analyzer = ValencyAnalyzer(
        protocol,
        resilience=ResilienceConfig(batch_timeout_s=10.0, max_retries=3),
        **engine,
    )
    if engine.get("workers", 0) > 1:
        # Force the pool to engage even on tiny frontiers.
        analyzer.graph._min_batch_per_worker = 1
    if chaos is not None:
        analyzer.graph.chaos = chaos
    try:
        return {
            vector: valency.value
            for vector, valency in analyzer.classify_initials().items()
        }, analyzer.stats
    finally:
        analyzer.close()


@pytest.mark.parametrize("engine", ENGINE_CONFIGS)
@pytest.mark.parametrize("name", ["parity", "2pc"])
def test_valency_census_is_engine_independent(name, engine):
    baseline, _stats = _census(get(name), workers=0)
    if engine is None:
        census = _reference_census(get(name))
    else:
        census, _stats = _census(get(name), **engine)
    assert census == baseline


def test_census_survives_a_sigkilled_worker(tmp_path):
    """A worker crash mid-classification must not change one verdict."""
    baseline, _stats = _census(get("parity"), workers=0)
    census, stats = _census(
        get("parity"),
        workers=2,
        chaos=ChaosConfig(
            kill_once_path=str(tmp_path / "census-kill.sentinel")
        ),
    )
    assert census == baseline
    assert stats.worker_timeouts >= 1
    assert stats.pool_rebuilds >= 1
