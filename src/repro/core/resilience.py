"""Resilience policies for the exploration engine.

FLP's adversary survives one crash fault; the exploration engine — our
own adversary, the thing that builds ``e(𝒞)`` and valency maps — should
survive at least as much.  This module holds the *policy* objects the
engine consults while growing a graph:

* :class:`ResilienceConfig` — worker-batch timeouts, bounded retries
  with exponential backoff, pool rebuilds, serial fallback, and
  wall-clock / memory ceilings with graceful degradation.
* :class:`CheckpointConfig` — where and how often to snapshot the graph
  (the snapshot format itself lives in :mod:`repro.core.checkpoint`).
* :class:`ChaosConfig` — deterministic fault injection used by the
  chaos harness (``tests/chaos/`` and ``python -m repro chaos``):
  worker self-SIGKILL, worker hangs, and parent interrupts at chosen
  BFS levels.
* :class:`PartialResult` — the structured report an exploration leaves
  behind when a budget guard stops it instead of an OOM kill.

Everything here is pure data plus the one chaos suite,
:func:`run_chaos_suite`: a table of named scenarios, each of which
breaks a real run (a pool worker, the parent's BFS loop, a ``repro
serve`` daemon, a ``repro spectrum`` sweep), recovers it, and compares
the answer with an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.configuration import Configuration
    from repro.core.protocol import Protocol

__all__ = [
    "ResilienceConfig",
    "CheckpointConfig",
    "ChaosConfig",
    "PartialResult",
    "BudgetGuard",
    "run_chaos_suite",
    "CHAOS_SCENARIOS",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Recovery and degradation policy for one exploration engine.

    The defaults are maximally conservative: no batch timeout (a legit
    long level is never mistaken for a hang), no wall-clock or memory
    ceiling.  Callers that want crash *detection* — a SIGKILLed pool
    worker makes ``Pool.map`` wait forever — must set
    :attr:`batch_timeout_s`; the CLI does so whenever ``--workers`` is
    given.
    """

    #: Seconds to wait for one frontier batch before declaring the pool
    #: failed.  ``None`` waits forever (no crash/hang detection).
    batch_timeout_s: float | None = None
    #: Re-dispatches of a failed batch before giving up on the pool.
    max_retries: int = 2
    #: Backoff before retry *k* is ``backoff_base_s * backoff_factor**k``.
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    #: After pool failure, expand the batch inline instead of raising.
    #: Exploration then *always* completes; the pool is an optimization.
    serial_fallback: bool = True
    #: Cumulative failed dispatches after which the pool is disabled for
    #: the rest of the run (every later batch expands serially).
    max_pool_failures: int = 3
    #: Stop growing (checkpoint + truthful partial result) once this
    #: much wall clock has been spent in the current ``explore`` call.
    wall_clock_limit_s: float | None = None
    #: Stop growing once peak RSS exceeds this many MiB.  Both ceilings
    #: are checked at every BFS level boundary.
    memory_limit_mb: float | None = None


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often to snapshot the graph while exploring.

    A final snapshot is always written on a budget-guard stop or a
    ``KeyboardInterrupt``, independent of the cadence fields; cadence 0
    means *only* those final snapshots.
    """

    #: Snapshot path.  Writes are atomic (temp file + ``os.replace``).
    path: str
    #: Write at most every this many seconds (0 = no time cadence).
    every_seconds: float = 0.0
    #: Write every this many BFS levels; 0 = off.  Levels are counted
    #: since the last snapshot, across ``explore`` calls.
    every_levels: int = 0


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic fault injection for the chaos harness.

    Worker-side faults use an exclusively-created sentinel file so that
    exactly one worker (the first to claim the path) faults once;
    retried batches and rebuilt pools then proceed cleanly.  The
    parent-side interrupt hooks raise ``KeyboardInterrupt`` from inside
    the BFS loop, modeling an operator ^C / SIGINT at an arbitrary
    level.
    """

    #: A pool worker SIGKILLs itself at the start of its next batch
    #: (first worker to create this sentinel path wins; one kill total).
    kill_once_path: str | None = None
    #: A pool worker sleeps :attr:`hang_seconds` once (same sentinel
    #: discipline), simulating a wedged worker.
    hang_once_path: str | None = None
    hang_seconds: float = 30.0
    #: Raise ``KeyboardInterrupt`` after this BFS level (levels are
    #: counted from 1 within one ``explore`` call).
    interrupt_after_level: int | None = None


@dataclass(frozen=True)
class PartialResult:
    """Structured report of an exploration stopped by a budget guard.

    Stored on ``GlobalConfigurationGraph.last_partial`` and surfaced by
    the CLI, this is the graceful-degradation contract: instead of an
    OOM kill or a lost session, the caller gets the honest extent of the
    explored region and (when checkpointing is configured) a snapshot
    path to resume from.
    """

    #: Why growth stopped: ``"wall-clock"``, ``"memory"`` or
    #: ``"interrupt"``.
    reason: str
    #: Total interned configurations at the stop.
    nodes: int
    #: Fully expanded nodes at the stop.
    expanded: int
    #: Discovered-but-unexpanded nodes (the resumable frontier).
    frontier: int
    #: Wall clock spent in the interrupted ``explore`` call.
    elapsed_s: float
    #: Last checkpoint written, if checkpointing was configured.
    checkpoint_path: str | None = None

    def summary(self) -> str:
        where = (
            f"; checkpoint: {self.checkpoint_path}"
            if self.checkpoint_path
            else "; no checkpoint configured"
        )
        return (
            f"partial result ({self.reason} limit): {self.nodes} "
            f"configurations, {self.expanded} expanded, "
            f"{self.frontier} on the frontier after "
            f"{self.elapsed_s:.3f}s{where}"
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "reason": self.reason,
            "nodes": self.nodes,
            "expanded": self.expanded,
            "frontier": self.frontier,
            "elapsed_s": round(self.elapsed_s, 6),
            "checkpoint_path": self.checkpoint_path,
        }


class BudgetGuard:
    """Wall-clock and memory ceiling checks for one ``explore`` call.

    ``exceeded()`` returns the breached limit's reason string (or
    ``None``), so the engine can record an honest :class:`PartialResult`
    and stop growing instead of dying.  Peak RSS is read from
    ``getrusage`` — cheap enough to call at every BFS level.
    """

    def __init__(self, config: ResilienceConfig):
        self.config = config
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    @staticmethod
    def peak_rss_mb() -> float:
        """Peak resident set size of this process, in MiB."""
        try:
            import resource
        except ImportError:  # pragma: no cover - non-POSIX
            return 0.0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return rss_kb / 1024.0

    def exceeded(self) -> str | None:
        """The reason string of the first breached ceiling, else None."""
        limit = self.config.wall_clock_limit_s
        if limit is not None and self.elapsed() >= limit:
            return "wall-clock"
        limit = self.config.memory_limit_mb
        if limit is not None and self.peak_rss_mb() >= limit:
            return "memory"
        return None


# ---------------------------------------------------------------------------
# The chaos suite
# ---------------------------------------------------------------------------


@dataclass
class ChaosOutcome:
    """One scenario's verdict, as a flat row for tables and JSON."""

    scenario: str
    recovered: bool
    fingerprint_match: bool
    detail: str
    stats: dict[str, object] = field(default_factory=dict)

    def as_row(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "recovered": self.recovered,
            "fingerprint_match": self.fingerprint_match,
            "detail": self.detail,
        }

    @property
    def ok(self) -> bool:
        return self.recovered and self.fingerprint_match


class _ScenarioFailed(Exception):
    """A scenario got no answer to compare (the message says why)."""


#: Deadline for a subprocess to get mid-flight, and for its rerun to
#: answer.
_KILL_TIMEOUT_S = 300.0
_NO_ANSWER = f"no answer within {_KILL_TIMEOUT_S:g}s of restart"


@dataclass
class _ChaosRun:
    """What every scenario runner is handed."""

    name: str
    protocol: "Protocol"
    workers: int
    budget: int
    work_dir: str

    @property
    def root(self) -> "Configuration":
        n = len(self.protocol.process_names)
        return self.protocol.initial_configuration([0] * (n - 1) + [1])

    @cached_property
    def clean(self) -> tuple[str, int, bool]:
        """``(fingerprint, BFS levels, complete)`` of an uninterrupted
        serial run, explored on first use.  A budget-truncated run is
        legitimately incomplete: recovery means matching it."""
        from repro.core.exploration import GlobalConfigurationGraph

        graph = GlobalConfigurationGraph(self.protocol)
        try:
            result = graph.explore(self.root, max_configurations=self.budget)
            levels = graph.stats.explore_levels
            return graph.fingerprint(), levels, result.complete
        finally:
            graph.close()


def _pool_scenario(resilience: ResilienceConfig, **sentinels: str):
    """A crew scenario: a pool exploration under *resilience*, with
    each :class:`ChaosConfig` sentinel field set to that file in the
    work directory, must finish with the clean run's graph."""

    def run(ctx: _ChaosRun, name: str) -> ChaosOutcome:
        if ctx.workers <= 1:
            return ChaosOutcome(name, True, True, "skipped: workers <= 1")
        from repro.core.exploration import GlobalConfigurationGraph

        fingerprint, _levels, complete = ctx.clean
        chaos = ChaosConfig(**{
            key: os.path.join(ctx.work_dir, file)
            for key, file in sentinels.items()
        })
        graph = GlobalConfigurationGraph(
            ctx.protocol,
            workers=ctx.workers,
            min_batch_per_worker=1,
            resilience=resilience,
            chaos=chaos,
        )
        try:
            result = graph.explore(ctx.root, max_configurations=ctx.budget)
            stats = graph.stats.as_dict()
            return ChaosOutcome(
                name,
                recovered=result.complete == complete,
                fingerprint_match=graph.fingerprint() == fingerprint,
                detail=(
                    f"timeouts={stats['worker_timeouts']} "
                    f"retries={stats['worker_retries']} "
                    f"rebuilds={stats['pool_rebuilds']} "
                    f"serial_fallbacks={stats['serial_fallbacks']}"
                ),
            )
        finally:
            graph.close()

    return run


def _interrupt_resume(ctx: _ChaosRun, name: str) -> ChaosOutcome:
    """Interrupt at the first, middle and last BFS level of the clean
    run, checkpointing every level; each resume must finish with the
    clean fingerprint."""
    from repro.core.checkpoint import load_checkpoint
    from repro.core.exploration import GlobalConfigurationGraph

    fingerprint, levels, _complete = ctx.clean
    levels = sorted({1, max(1, levels // 2), levels})
    path = os.path.join(ctx.work_dir, "interrupt.ckpt")
    diverged = []
    interrupted = False
    for level in levels:
        victim = GlobalConfigurationGraph(
            ctx.protocol,
            checkpoint=CheckpointConfig(path=path, every_levels=1),
            chaos=ChaosConfig(interrupt_after_level=level),
        )
        try:
            victim.explore(ctx.root, max_configurations=ctx.budget)
        except KeyboardInterrupt:
            interrupted = True
        finally:
            victim.close()
        resumed = load_checkpoint(path, ctx.protocol)
        try:
            resumed.explore(ctx.root, max_configurations=ctx.budget)
            if resumed.fingerprint() != fingerprint:
                diverged.append(level)
        finally:
            resumed.close()
    return ChaosOutcome(
        name,
        recovered=interrupted and not diverged,
        fingerprint_match=not diverged,
        detail=f"levels={levels} diverged_at={diverged or 'none'}",
    )


def _kill_and_rerun(launch, probe, collect):
    """Kill-and-compare, shared by the subprocess scenarios.

    ``launch()`` starts the subprocess; ``probe(process)`` is polled
    under a deadline until it answers ``True`` (demonstrably mid-flight)
    or ``False`` (finished first: still a valid comparison).  The
    process is then SIGKILLed — no drain, no final checkpoint — and
    launched again on the same durable state, and ``collect(process)``
    waits for the rerun's answer.  Returns ``(mid_flight, answer)``.
    """
    first = launch()
    second = None
    try:
        deadline = time.monotonic() + _KILL_TIMEOUT_S
        verdict = None
        while verdict is None and first.poll() is None:
            if time.monotonic() > deadline:
                break
            time.sleep(0.02)
            verdict = probe(first)
        first.kill()
        first.wait()
        second = launch()
        return bool(verdict), collect(second)
    finally:
        for process in (first, second):
            if process is not None and process.poll() is None:
                process.kill()
                process.wait()


def _server_kill(ctx: _ChaosRun, name: str) -> ChaosOutcome:
    """SIGKILL a ``repro serve`` daemon mid-check-job; the daemon
    restarted on the same spool must resume the job from its checkpoint
    and answer with the ``result`` block of a cold in-process run."""
    from pathlib import Path

    from repro.serve.chaos import start_daemon, wait_for_endpoint
    from repro.serve.runner import execute_job
    from repro.serve.wire import JobSpec, canonical_json

    n = len(ctx.protocol.process_names)
    spec = JobSpec(verb="check", protocol=ctx.name, n=n, budget=ctx.budget)
    reference = canonical_json(execute_job(spec)["result"])
    spool = Path(ctx.work_dir) / "spool"
    job = {}

    def probe(daemon):
        if not job:
            client = wait_for_endpoint(spool, daemon)
            submitted = client.submit(spec.to_dict())
            if submitted.status not in (200, 202):
                raise _ScenarioFailed(
                    f"submit failed: {submitted.status} "
                    f"{submitted.body[:200]!r}"
                )
            job.update(client=client, id=submitted.json()["job_id"])
        view = job["client"].job(job["id"]).json()
        if view["state"] == "done":
            return False
        # Mid-flight is running with a checkpoint in the spool: the
        # claim under test is resume-from-snapshot.
        running = view["state"] == "running"
        return True if running and view["has_checkpoint"] else None

    def collect(daemon):
        if not job:
            raise _ScenarioFailed("daemon exited before the job was submitted")
        client = wait_for_endpoint(spool, daemon)
        deadline = time.monotonic() + _KILL_TIMEOUT_S
        while time.monotonic() < deadline:
            response = client.result(job["id"])
            view = client.job(job["id"]).json()
            if response.status == 200:
                return json.loads(response.body)["result"], view["resumes"]
            if view["state"] == "failed":
                raise _ScenarioFailed(
                    f"job failed after restart: {view['error']}"
                )
            time.sleep(0.1)
        raise _ScenarioFailed(_NO_ANSWER)

    mid_flight, (result, resumes) = _kill_and_rerun(
        lambda: start_daemon(spool), probe, collect
    )
    match = canonical_json(result) == reference
    return ChaosOutcome(
        name,
        recovered=True,
        fingerprint_match=match,
        detail=f"mid_flight={mid_flight} resumes={resumes} "
        f"result_match={match}",
        stats={"mid_flight": mid_flight, "resumes": resumes},
    )


def _sweep_kill(ctx: _ChaosRun, name: str) -> ChaosOutcome:
    """SIGKILL a ``repro spectrum`` smoke-grid sweep after its first
    checkpointed cell; the rerun must resume from the checkpoint and
    finish with the aggregate fingerprint of a clean sweep.  The
    protocol under test plays no part."""
    import subprocess
    import sys
    from pathlib import Path

    from repro.spectrum.montecarlo import SweepRunner, smoke_grid

    reference = SweepRunner(smoke_grid()).run().fingerprint()
    checkpoint = os.path.join(ctx.work_dir, "sweep.ckpt")
    out_json = os.path.join(ctx.work_dir, "sweep.json")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # The per-cell throttle widens the window between two cells.
    command = [
        sys.executable, "-m", "repro", "spectrum", "--preset", "smoke",
        "--checkpoint", checkpoint, "--json", out_json,
        "--throttle-s", "0.4",
    ]

    def launch():
        return subprocess.Popen(
            command,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )

    def probe(_sweep):
        try:
            with open(checkpoint, encoding="utf-8") as handle:
                return True if json.load(handle)["completed"] else None
        except (OSError, ValueError, KeyError):
            return None

    def collect(sweep):
        try:
            code = sweep.wait(_KILL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise _ScenarioFailed(_NO_ANSWER) from None
        if code != 0:
            raise _ScenarioFailed(f"resumed sweep exited {code}")
        with open(out_json, encoding="utf-8") as handle:
            return json.load(handle)

    mid_flight, result = _kill_and_rerun(launch, probe, collect)
    match = result["fingerprint"] == reference
    resumed = result["resumed_cells"]
    return ChaosOutcome(
        name,
        recovered=result["completed_cells"] == result["total_cells"],
        fingerprint_match=match,
        detail=f"mid_flight={mid_flight} resumed_cells={resumed} "
        f"fingerprint_match={match}",
        stats={"mid_flight": mid_flight, "resumed_cells": resumed},
    )


#: Scenario name -> runner ``(context, name) -> ChaosOutcome``.
_SCENARIOS = {
    # A pool worker SIGKILLs itself mid-batch; the batch timeout
    # detects it, the pool is rebuilt and the batch re-dispatched.  The
    # timeout is generous: a killed worker's batch never completes, and
    # a tight one would misfire on legitimately slow levels.
    "worker-kill": _pool_scenario(
        ResilienceConfig(batch_timeout_s=10.0, max_retries=3),
        kill_once_path="kill.sentinel",
    ),
    # A worker sleeps far past the timeout: to the parent a hang is a
    # crash, and recovers the same way.
    "worker-hang": _pool_scenario(
        ResilienceConfig(batch_timeout_s=0.5, max_retries=3),
        hang_once_path="hang.sentinel",
    ),
    # Every dispatch times out: retries run out, the serial fallback
    # finishes.
    "batch-timeout": _pool_scenario(
        ResilienceConfig(
            batch_timeout_s=1e-6, max_retries=1, backoff_base_s=0.0
        ),
    ),
    "interrupt-resume": _interrupt_resume,
    "server-kill": _server_kill,
    "sweep-kill": _sweep_kill,
}

#: Scenario names accepted by :func:`run_chaos_suite`.
CHAOS_SCENARIOS = tuple(_SCENARIOS)


def run_chaos_suite(
    protocol_name: str,
    *,
    n: int | None = None,
    workers: int = 2,
    scenarios: tuple[str, ...] = CHAOS_SCENARIOS,
    max_configurations: int = 200_000,
    work_dir: str | None = None,
) -> list[ChaosOutcome]:
    """Break real runs of the registered protocol *protocol_name*
    (``n`` processes; ``None`` is the registry default) and verify that
    each recovers to the answer of an uninterrupted run.

    The in-process scenarios compare graph fingerprints with a clean
    serial exploration; ``server-kill`` and ``sweep-kill`` SIGKILL a
    real subprocess, rerun it on the same durable state, and compare
    its answer.  The worker scenarios need ``workers > 1`` and are
    reported as skipped otherwise.
    """
    import contextlib
    import tempfile

    from repro import registry

    unknown = [name for name in scenarios if name not in _SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown chaos scenario {unknown[0]!r}; "
            f"pick from {CHAOS_SCENARIOS}"
        )
    protocol = registry.build(protocol_name, n)
    scratch = (
        tempfile.TemporaryDirectory(prefix="flpkit-chaos-")
        if work_dir is None
        else contextlib.nullcontext(work_dir)
    )
    with scratch as work_dir:
        ctx = _ChaosRun(
            protocol_name, protocol, workers, max_configurations, work_dir
        )
        outcomes = []
        for name in scenarios:
            try:
                outcomes.append(_SCENARIOS[name](ctx, name))
            except _ScenarioFailed as failure:
                outcomes.append(ChaosOutcome(name, False, False, str(failure)))
        return outcomes
