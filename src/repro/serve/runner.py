"""Executes one job against the exploration engine.

:func:`execute_job` is a synchronous, daemon-agnostic function — the
job manager runs it on a worker thread, the chaos harness and tests
call it directly to produce cold reference results.  Robustness wiring:

* The engine checkpoints into the job's spool slot
  (``CheckpointConfig(every_seconds=...)``), and resumes from that slot
  when it already holds a snapshot — which is exactly what a restarted
  daemon does with a job it found ``running`` in the spool.  Resume is
  byte-identical (the PR-3 contract), so the ``result`` block of a
  recovered job equals an uninterrupted run's.
* Deadlines degrade instead of failing: the manager's deadline
  watchdog times the whole job (``max_seconds``, via :class:`JobHandle`
  → :meth:`~repro.core.exploration.GlobalConfigurationGraph.request_stop`)
  and the engine's budget guard bounds its memory (``max_memory_mb``);
  either stops the engine at a consistency point, and the job completes
  with ``partial`` set and a final checkpoint on disk.
* A ``drain`` stop (graceful shutdown) raises :class:`JobSuspended`
  instead of producing a result — the manager puts the job back in the
  ``queued`` state and the next daemon finishes it.

Worker-pool faults need no handling here: jobs run the engine with the
PR-3 :class:`~repro.core.resilience.ResilienceConfig` defaults, whose
retry/backoff/serial-fallback dispatch recovers below this layer.
"""

from __future__ import annotations

import hashlib
import os
import time

from repro import registry
from repro.core.errors import AdversaryStuck
from repro.core.resilience import CheckpointConfig, ResilienceConfig
from repro.core.valency import ValencyAnalyzer
from repro.serve.wire import JobSpec, WireError

__all__ = [
    "JobHandle",
    "JobSuspended",
    "execute_job",
    "census_fingerprint",
]

#: Stop reasons that mean "suspend and requeue" rather than "answer
#: partially" — the daemon is going away, not the job's time budget.
SUSPEND_REASONS = ("drain",)


class JobSuspended(Exception):
    """The job was drained to a checkpoint; requeue it, don't answer."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class JobHandle:
    """Thread-safe bridge between the manager and a running engine.

    The manager may request a stop (deadline fired, shutdown drain)
    *before* the worker thread has built the engine; the handle latches
    the request and forwards it at :meth:`attach` time, so the stop is
    never lost to that race.
    """

    def __init__(self) -> None:
        self.engine = None
        self.stop_reason: str | None = None

    def attach(self, engine) -> None:
        self.engine = engine
        if self.stop_reason is not None:
            engine.request_stop(self.stop_reason)

    def request_stop(self, reason: str) -> None:
        self.stop_reason = reason
        if self.engine is not None:
            self.engine.request_stop(reason)


def census_fingerprint(census: dict[tuple[int, ...], object]) -> str:
    """SHA-256 over the sorted ``inputs → valency`` census lines."""
    digest = hashlib.sha256()
    for inputs, valency in sorted(census.items()):
        name = getattr(valency, "name", str(valency))
        digest.update(f"{tuple(inputs)}:{name}\n".encode())
    return digest.hexdigest()


def _reduction_policy(spec: JobSpec):
    if not (spec.por or spec.symmetry):
        return None
    from repro.core.reduction import ReductionPolicy

    return ReductionPolicy(por=spec.por, symmetry=spec.symmetry)


def _parse_inputs(spec: JobSpec, n: int) -> list[int]:
    if spec.inputs is None:
        return [i % 2 for i in range(n)]
    bits = [int(c) for c in spec.inputs]
    if len(bits) != n:
        raise WireError(
            f"inputs must supply exactly {n} bits, got {spec.inputs!r}"
        )
    return bits


def _partial_state(graph) -> tuple[dict[str, object] | None, str | None]:
    """(partial dict, suspend reason) from the engine's last stop."""
    partial = graph.last_partial
    if partial is None:
        return None, None
    if partial.reason in SUSPEND_REASONS:
        return None, partial.reason
    return partial.as_dict(), None


def execute_job(
    spec: JobSpec,
    *,
    checkpoint_path: str | None = None,
    handle: JobHandle | None = None,
    checkpoint_every_s: float = 1.0,
) -> dict[str, object]:
    """Run *spec* to a result dict (raises :class:`JobSuspended` on a
    drain stop, any other exception on genuine failure).

    The ``result`` block is a pure function of the spec — cold,
    resumed, serial, and parallel executions all produce the same
    bytes for it (fingerprint identity of the underlying engine).  The
    ``meta`` block carries run-specific observability (wall time,
    resumed node counts) and is excluded from determinism comparisons.
    ``spec.max_seconds`` is the caller's to enforce, through *handle*
    (the job manager's watchdog does); ``spec.max_memory_mb`` is
    enforced here.
    """
    started = time.perf_counter()
    if spec.verb == "spectrum":
        return _run_spectrum(
            spec,
            started,
            checkpoint_path=checkpoint_path,
            handle=handle,
        )
    entry = registry.info(spec.protocol)
    protocol = entry.build(spec.resolved_n)
    base = {
        "verb": spec.verb,
        "protocol": spec.protocol,
        "protocol_repr": repr(protocol),
        "n": spec.resolved_n,
        "budget": spec.budget,
        "reduction": spec.reduction_stamp(),
    }

    if spec.verb == "survive":
        # Simulation-based: no engine, no checkpoints.  Recovery after
        # a crash is a deterministic re-run (fixed seeds).
        result = _run_survive(spec)
        return {
            **base,
            "result": result,
            "partial": None,
            "meta": {"elapsed_s": round(time.perf_counter() - started, 6)},
        }

    # The manager's watchdog owns ``max_seconds``: it times the whole
    # job, where a guard's clock restarts on every explore call.
    resilience = ResilienceConfig(memory_limit_mb=spec.max_memory_mb)
    checkpoint = None
    resume_from = None
    if checkpoint_path is not None:
        checkpoint = CheckpointConfig(
            path=str(checkpoint_path), every_seconds=checkpoint_every_s
        )
        if os.path.exists(checkpoint_path):
            resume_from = str(checkpoint_path)
    analyzer = ValencyAnalyzer(
        protocol,
        max_configurations=spec.budget,
        resilience=resilience,
        checkpoint=checkpoint,
        resume_from=resume_from,
        reduction=_reduction_policy(spec),
    )
    if handle is not None:
        handle.attach(analyzer.graph)
    try:
        if spec.verb == "check":
            result = _run_check(spec, analyzer)
        elif spec.verb == "map":
            result = _run_map(spec, protocol, analyzer)
        else:
            result = _run_attack(spec, protocol, analyzer)
        graph = analyzer.graph
        partial, suspend = _partial_state(graph)
        if suspend is not None:
            raise JobSuspended(suspend)
        stats = graph.stats
        return {
            **base,
            "result": result,
            "partial": partial,
            "meta": {
                "elapsed_s": round(time.perf_counter() - started, 6),
                "resumed_nodes": stats.resumed_nodes,
                "checkpoints_written": stats.checkpoints_written,
                "expansions": stats.expansions,
                "explore_time_s": round(stats.explore_time, 6),
            },
        }
    finally:
        analyzer.close()


def _graph_block(analyzer: ValencyAnalyzer) -> dict[str, object]:
    graph = analyzer.graph
    return {
        "graph_fingerprint": graph.fingerprint(),
        "nodes": len(graph),
        "edges": graph.store.edges.total_pairs,
        "complete": graph.complete,
    }


def _run_check(spec: JobSpec, analyzer: ValencyAnalyzer) -> dict[str, object]:
    """Initial-hypercube valency census (the CLI ``check`` core)."""
    census = analyzer.classify_initials()
    rows = [
        {
            "inputs": "".join(str(b) for b in inputs),
            "valency": valency.value,
        }
        for inputs, valency in sorted(census.items())
    ]
    return {
        "census": rows,
        "census_fingerprint": census_fingerprint(census),
        **_graph_block(analyzer),
    }


def _run_map(
    spec: JobSpec, protocol, analyzer: ValencyAnalyzer
) -> dict[str, object]:
    from repro.analysis.valency_map import build_valency_map

    inputs = _parse_inputs(spec, protocol.num_processes)
    root = protocol.initial_configuration(inputs)
    vmap = build_valency_map(protocol, root, analyzer=analyzer)
    return {
        "inputs": "".join(str(b) for b in inputs),
        "summary": vmap.summary(),
        "counts": {
            valency.value: count
            for valency, count in sorted(
                vmap.counts.items(), key=lambda item: item[0].value
            )
            if count
        },
        "critical_steps": len(vmap.critical_steps),
        "map_complete": vmap.complete,
        **_graph_block(analyzer),
    }


def _run_attack(
    spec: JobSpec, protocol, analyzer: ValencyAnalyzer
) -> dict[str, object]:
    from repro.adversary.flp import FLPAdversary
    from repro.analysis.admissibility import analyze_admissibility

    adversary = FLPAdversary(protocol, analyzer=analyzer)
    try:
        certificate = adversary.build_run(stages=spec.stages)
    except AdversaryStuck as error:
        # A deadline can strand the adversary on an UNKNOWN-valency
        # region; that is graceful degradation (partial + checkpoint),
        # not a failure.  Stuck with no deadline in play is a genuine
        # job failure and propagates.
        partial, suspend = _partial_state(analyzer.graph)
        if suspend is not None:
            raise JobSuspended(suspend) from None
        if partial is None:
            raise
        return {
            "outcome": "stuck",
            "detail": str(error),
            **_graph_block(analyzer),
        }
    faulty = (
        frozenset({certificate.faulty_process})
        if certificate.faulty_process
        else frozenset()
    )
    admissibility = analyze_admissibility(
        protocol,
        certificate.initial,
        certificate.schedule,
        faulty=faulty,
        fault_point=certificate.fault_point,
    )
    return {
        "outcome": certificate.summary(),
        "stages": spec.stages,
        "schedule_length": certificate.length,
        "faulty_process": certificate.faulty_process,
        "fault_point": certificate.fault_point,
        "fairness": admissibility.summary(),
        "verified": certificate.verify(protocol),
        **_graph_block(analyzer),
    }


def _run_spectrum(
    spec: JobSpec,
    started: float,
    *,
    checkpoint_path: str | None,
    handle: JobHandle | None,
) -> dict[str, object]:
    """Monte-Carlo sweep job: cell-granular checkpoints in the job's
    spool slot, drain suspension at the next cell boundary, deadline
    degradation to a partial covering the completed cells."""
    import dataclasses

    from repro.spectrum import (
        SweepRunner,
        check_phase_expectations,
        default_grid,
        smoke_grid,
    )

    cells = smoke_grid() if spec.preset == "smoke" else default_grid()
    if spec.protocol != "all":
        cells = [cell for cell in cells if cell.protocol == spec.protocol]
    if spec.samples is not None:
        cells = [
            dataclasses.replace(cell, samples=spec.samples)
            for cell in cells
        ]
    runner = SweepRunner(
        cells,
        base_seed=spec.seed,
        checkpoint_path=checkpoint_path,
        max_memory_mb=spec.max_memory_mb,
    )
    if handle is not None:
        handle.attach(runner)
    sweep = runner.run()
    if sweep.partial is not None and sweep.partial.reason in SUSPEND_REASONS:
        raise JobSuspended(sweep.partial.reason)
    violations = check_phase_expectations(sweep)
    return {
        "verb": spec.verb,
        "protocol": spec.protocol,
        "preset": spec.preset,
        "seed": spec.seed,
        "result": {
            "fingerprint": sweep.fingerprint(),
            "total_cells": sweep.total_cells,
            "completed_cells": len(sweep.outcomes),
            "cells": {
                key: outcome.to_dict()
                for key, outcome in sorted(sweep.outcomes.items())
            },
            "phase_ok": not violations,
            "phase_violations": violations,
        },
        "partial": (
            None if sweep.partial is None else sweep.partial.as_dict()
        ),
        "meta": {
            "elapsed_s": round(time.perf_counter() - started, 6),
            "resumed_cells": sweep.resumed_cells,
        },
    }


def _run_survive(spec: JobSpec) -> dict[str, object]:
    from repro.faults.survivability import (
        check_expectations,
        survivability_matrix,
    )

    cells = survivability_matrix(
        [spec.protocol],
        n=spec.n,
        seeds=spec.seeds,
        max_steps=spec.max_steps,
    )
    failures = check_expectations(cells)
    return {
        "cells": [cell.as_dict() for cell in cells],
        "expectations_ok": not failures,
        "expectation_failures": failures,
    }
