"""The Monte-Carlo sweep runtime: grid cells, checkpoints, fan-out.

A *cell* fixes one point of the synchrony spectrum — (protocol, n, f,
adversary grade, GST, detector class) — and the runtime runs a batch of
seeded simulations there, reporting termination probability and
expected rounds-to-decide with 95% confidence intervals.  Every run is
a pure function of ``(base_seed, cell key, sample index)`` via
:func:`repro.core.seeding.stable_seed`, so a sweep's aggregate
fingerprint is byte-identical across serial, parallel, and
killed-and-resumed executions — the property ``repro chaos --scenarios
sweep-kill`` enforces with a real SIGKILL.

Robustness mirrors the exploration engine's contract:

* per-cell checkpointing (atomic tmp + rename, checksummed) with
  resume; a damaged or foreign checkpoint raises a
  :class:`~repro.core.errors.CheckpointError` instead of restarting;
* fan-out over a ``multiprocessing`` pool, merged deterministically;
* wall-clock / memory budgets degrade to a
  :class:`repro.core.resilience.PartialResult` covering the completed
  cells instead of dying;
* a sticky, thread-safe :meth:`SweepRunner.request_stop` latch so the
  serve daemon's deadline watchdog and drain path can stop a sweep at
  the next cell boundary.

:func:`check_phase_expectations` states the phase boundary the paper
predicts — Ben-Or terminates in every sampled run for ``f < n/2`` under
the oblivious adversary but degrades under the adaptive one; the DLS
rotating coordinator decides within ``f + 1`` rounds after GST; the
GST = ∞ deterministic cell never decides — and the benchmark gates on
it.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.errors import CheckpointCorrupt, CheckpointMismatch
from repro.core.resilience import BudgetGuard, PartialResult, ResilienceConfig
from repro.core.seeding import stable_seed
from repro.spectrum.adversary import ADVERSARY_GRADES, make_adversary
from repro.spectrum.protocols import BenOrPhasedProcess
from repro.synchrony.detectors import (
    DetectorGuidedProcess,
    EventuallyStrongDetector,
    PerfectDetector,
)
from repro.synchrony.partial import (
    RotatingCoordinatorProcess,
    run_partial_sync,
)

__all__ = [
    "PROTOCOL_FAMILIES",
    "DETECTOR_CLASSES",
    "SpectrumCell",
    "CellOutcome",
    "SweepResult",
    "SweepRunner",
    "run_cell",
    "default_grid",
    "smoke_grid",
    "check_phase_expectations",
]

PROTOCOL_FAMILIES = ("benor", "rotating")
DETECTOR_CLASSES = ("none", "perfect", "evstrong")
_GRADES = ("none",) + ADVERSARY_GRADES

#: Sweep checkpoint format: a JSON object whose ``sha256`` field is the
#: digest of the canonical JSON of every other field.
_CHECKPOINT_VERSION = 2


def _canonical(payload: object) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()


@dataclass(frozen=True)
class SpectrumCell:
    """One grid point plus its sampling plan.

    ``gst=None`` means GST never arrives within the horizon (the FLP
    regime); ``drop_probability`` is the omission-clause probability the
    cell's adversary draws against (inspecting grades typically run at
    1.0 — their power is *choice*, not volume).
    """

    protocol: str
    n: int
    f: int
    grade: str
    gst: int | None = None
    detector: str = "none"
    samples: int = 100
    horizon: int = 50
    drop_probability: float = 1.0

    def __post_init__(self):
        if self.protocol not in PROTOCOL_FAMILIES:
            raise ValueError(
                f"protocol must be one of {PROTOCOL_FAMILIES}, "
                f"got {self.protocol!r}"
            )
        if self.grade not in _GRADES:
            raise ValueError(
                f"grade must be one of {_GRADES}, got {self.grade!r}"
            )
        if self.detector not in DETECTOR_CLASSES:
            raise ValueError(
                f"detector must be one of {DETECTOR_CLASSES}, "
                f"got {self.detector!r}"
            )
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.protocol == "rotating":
            if not 0 <= self.f < self.n / 2:
                raise ValueError(
                    f"rotating requires N > 2f; n={self.n}, f={self.f}"
                )
        elif not 0 <= self.f < self.n:
            raise ValueError(f"need 0 <= f < n; n={self.n}, f={self.f}")
        if self.detector != "none" and self.protocol != "rotating":
            raise ValueError("detector classes apply to rotating cells only")
        if self.gst is not None and self.gst < 1:
            raise ValueError(f"gst must be >= 1 or None, got {self.gst}")
        if self.samples < 1:
            raise ValueError(f"need samples >= 1, got {self.samples}")
        if self.horizon < 1:
            raise ValueError(f"need horizon >= 1, got {self.horizon}")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], "
                f"got {self.drop_probability}"
            )

    def key(self) -> str:
        """Canonical cell identifier — the checkpoint / fingerprint key."""
        gst = "inf" if self.gst is None else str(self.gst)
        return (
            f"{self.protocol}/n{self.n}/f{self.f}/{self.grade}"
            f"/p{self.drop_probability:g}/gst-{gst}/det-{self.detector}"
            f"/s{self.samples}/h{self.horizon}"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "f": self.f,
            "grade": self.grade,
            "gst": self.gst,
            "detector": self.detector,
            "samples": self.samples,
            "horizon": self.horizon,
            "drop_probability": self.drop_probability,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SpectrumCell":
        return cls(**dict(data))


def _wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    z = 1.959963984540054
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(
            phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)
        )
        / denom
    )
    return (max(0.0, center - margin), min(1.0, center + margin))


def _mean_interval(
    values: Sequence[int],
) -> tuple[float, tuple[float, float]] | None:
    """Sample mean with a normal-approximation 95% interval."""
    if not values:
        return None
    k = len(values)
    mean = sum(values) / k
    if k == 1:
        return (mean, (mean, mean))
    variance = sum((v - mean) ** 2 for v in values) / (k - 1)
    margin = 1.959963984540054 * math.sqrt(variance / k)
    return (mean, (mean - margin, mean + margin))


@dataclass
class CellOutcome:
    """Aggregated verdict for one cell.  Deterministic: no timing."""

    cell: SpectrumCell
    terminated: int
    termination_rate: float
    termination_ci: tuple[float, float]
    mean_rounds: float | None
    rounds_ci: tuple[float, float] | None
    max_round: int | None
    max_post_gst: int | None
    agreement_violations: int
    validity_violations: int
    fault_counters: dict[str, int]

    def to_dict(self) -> dict[str, object]:
        return {
            "cell": self.cell.to_dict(),
            "terminated": self.terminated,
            "termination_rate": round(self.termination_rate, 6),
            "termination_ci": [round(x, 6) for x in self.termination_ci],
            "mean_rounds": (
                None if self.mean_rounds is None else round(self.mean_rounds, 6)
            ),
            "rounds_ci": (
                None
                if self.rounds_ci is None
                else [round(x, 6) for x in self.rounds_ci]
            ),
            "max_round": self.max_round,
            "max_post_gst": self.max_post_gst,
            "agreement_violations": self.agreement_violations,
            "validity_violations": self.validity_violations,
            "fault_counters": dict(sorted(self.fault_counters.items())),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CellOutcome":
        return cls(
            cell=SpectrumCell.from_dict(data["cell"]),
            terminated=data["terminated"],
            termination_rate=data["termination_rate"],
            termination_ci=tuple(data["termination_ci"]),
            mean_rounds=data["mean_rounds"],
            rounds_ci=(
                None if data["rounds_ci"] is None else tuple(data["rounds_ci"])
            ),
            max_round=data["max_round"],
            max_post_gst=data["max_post_gst"],
            agreement_violations=data["agreement_violations"],
            validity_violations=data["validity_violations"],
            fault_counters=dict(data["fault_counters"]),
        )


def run_cell(cell: SpectrumCell, base_seed: int = 0) -> CellOutcome:
    """Run every sample of one cell.  Pure in (cell, base_seed)."""
    names = [f"p{j}" for j in range(cell.n)]
    terminated = 0
    rounds: list[int] = []
    post_gst: list[int] = []
    agreement_violations = 0
    validity_violations = 0
    counters: dict[str, int] = {}

    for index in range(cell.samples):
        run_seed = stable_seed("spectrum-run", base_seed, cell.key(), index)
        rng = random.Random(run_seed)
        inputs = {name: rng.randrange(2) for name in names}
        crash_count = rng.randint(0, cell.f) if cell.f else 0
        crash_rounds = {
            name: 1 for name in sorted(rng.sample(names, crash_count))
        }
        gst = cell.horizon + 1 if cell.gst is None else cell.gst

        adversary = None
        if cell.grade != "none":
            cap = (
                max(0, cell.f - crash_count)
                if cell.protocol == "benor"
                else None
            )
            adversary = make_adversary(
                cell.grade,
                seed=run_seed,
                per_receiver_cap=cap,
                drop_probability=cell.drop_probability,
            )
            adversary.begin_run(run_seed)

        if cell.protocol == "benor":
            processes = [
                BenOrPhasedProcess(name, names, cell.f, seed=run_seed)
                for name in names
            ]
        else:
            detector = None
            if cell.detector == "perfect":
                detector = PerfectDetector(names, crash_rounds)
            elif cell.detector == "evstrong":
                detector = EventuallyStrongDetector(
                    names,
                    crash_rounds,
                    stabilization_time=gst,
                    seed=run_seed & 0x7FFFFFFF,
                )
            if detector is None:
                processes = [
                    RotatingCoordinatorProcess(name, names, cell.f)
                    for name in names
                ]
            else:
                processes = [
                    DetectorGuidedProcess(name, names, cell.f, detector)
                    for name in names
                ]

        result = run_partial_sync(
            processes,
            inputs,
            gst=gst,
            crash_rounds=crash_rounds,
            max_rounds=cell.horizon,
            adversary=adversary,
        )

        if not result.agreement_holds:
            agreement_violations += 1
        input_values = set(inputs.values())
        if any(
            value not in input_values for value in result.decisions.values()
        ):
            validity_violations += 1
        if result.all_live_decided:
            terminated += 1
            last = max(
                result.decision_rounds[name] for name in result.live
            )
            rounds.append(last)
            if cell.gst is not None:
                post_gst.append(max(0, last - cell.gst + 1))
        if adversary is not None:
            for key, value in adversary.counters.as_dict().items():
                if value:
                    counters[key] = counters.get(key, 0) + value

    stats = _mean_interval(rounds)
    return CellOutcome(
        cell=cell,
        terminated=terminated,
        termination_rate=terminated / cell.samples,
        termination_ci=_wilson_interval(terminated, cell.samples),
        mean_rounds=None if stats is None else stats[0],
        rounds_ci=None if stats is None else stats[1],
        max_round=max(rounds) if rounds else None,
        max_post_gst=max(post_gst) if post_gst else None,
        agreement_violations=agreement_violations,
        validity_violations=validity_violations,
        fault_counters=counters,
    )


def _cell_worker(payload: tuple[dict, int]) -> tuple[str, dict]:
    cell_data, base_seed = payload
    cell = SpectrumCell.from_dict(cell_data)
    return cell.key(), run_cell(cell, base_seed).to_dict()


@dataclass
class SweepResult:
    """Aggregate of a sweep: completed cells plus degradation report."""

    outcomes: dict[str, CellOutcome]
    total_cells: int
    base_seed: int
    resumed_cells: int = 0
    partial: PartialResult | None = None

    @property
    def complete(self) -> bool:
        return len(self.outcomes) == self.total_cells

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON of all completed cells.

        Covers cell outcomes only — never timing, worker count, or
        resume history — so serial, parallel, and killed-and-resumed
        sweeps over the same grid and seeds agree byte-for-byte.
        """
        payload = {
            key: outcome.to_dict()
            for key, outcome in sorted(self.outcomes.items())
        }
        return hashlib.sha256(_canonical(payload)).hexdigest()

    def to_dict(self) -> dict[str, object]:
        return {
            "base_seed": self.base_seed,
            "total_cells": self.total_cells,
            "completed_cells": len(self.outcomes),
            "resumed_cells": self.resumed_cells,
            "fingerprint": self.fingerprint(),
            "partial": None if self.partial is None else self.partial.as_dict(),
            "cells": {
                key: outcome.to_dict()
                for key, outcome in sorted(self.outcomes.items())
            },
        }


class SweepRunner:
    """Drives a grid of cells to completion, robustly.

    Cells fan out over a worker pool (``workers > 1``), every completed
    cell is checkpointed atomically, and a budget breach or a
    :meth:`request_stop` degrades to a partial :class:`SweepResult` at
    the next cell boundary instead of losing the sweep.
    """

    def __init__(
        self,
        cells: Iterable[SpectrumCell],
        *,
        base_seed: int = 0,
        workers: int = 1,
        checkpoint_path: str | None = None,
        max_seconds: float | None = None,
        max_memory_mb: float | None = None,
        throttle_s: float = 0.0,
    ):
        self.cells = list(cells)
        keys = [cell.key() for cell in self.cells]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate cell keys in sweep grid")
        if workers < 1:
            raise ValueError(f"need workers >= 1, got {workers}")
        self.base_seed = base_seed
        self.workers = workers
        self.checkpoint_path = checkpoint_path
        self.max_seconds = max_seconds
        self.max_memory_mb = max_memory_mb
        #: Parent-side sleep after each completed cell.  A testing /
        #: chaos knob: it widens the window in which a SIGKILL lands
        #: mid-sweep without changing any result byte.
        self.throttle_s = throttle_s
        self._stop_lock = threading.Lock()
        self._stop_reason: str | None = None

    # -- stop latch (sticky, thread-safe: the serve watchdog calls it) ----

    def request_stop(self, reason: str = "interrupt") -> None:
        with self._stop_lock:
            if self._stop_reason is None:
                self._stop_reason = reason

    @property
    def stop_reason(self) -> str | None:
        with self._stop_lock:
            return self._stop_reason

    # -- checkpointing -----------------------------------------------------

    def _load_checkpoint(self) -> dict[str, CellOutcome]:
        """The completed cells of this grid in the checkpoint, if any.

        A file that is unreadable, fails its checksum, or is of another
        kind or version raises :class:`CheckpointCorrupt`; one from
        another base seed raises :class:`CheckpointMismatch`.  Either
        way the sweep stops rather than silently restart over it.
        """
        path = self.checkpoint_path
        if not path or not os.path.exists(path):
            return {}
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as error:
            raise CheckpointCorrupt(
                f"{path}: unreadable sweep checkpoint ({error})"
            ) from None
        if (
            not isinstance(data, dict)
            or data.get("kind") != "spectrum-sweep"
            or data.get("version") != _CHECKPOINT_VERSION
        ):
            raise CheckpointCorrupt(
                f"{path}: not a version-{_CHECKPOINT_VERSION} sweep "
                "checkpoint"
            )
        digest = data.pop("sha256", None)
        if digest != hashlib.sha256(_canonical(data)).hexdigest():
            raise CheckpointCorrupt(f"{path}: sweep checkpoint checksum mismatch")
        if data["base_seed"] != self.base_seed:
            raise CheckpointMismatch(
                f"{path}: sweep checkpoint is for base seed "
                f"{data['base_seed']}, this sweep uses {self.base_seed}"
            )
        valid_keys = {cell.key() for cell in self.cells}
        return {
            key: CellOutcome.from_dict(outcome)
            for key, outcome in data["completed"].items()
            if key in valid_keys
        }

    def _write_checkpoint(self, outcomes: Mapping[str, CellOutcome]) -> None:
        if not self.checkpoint_path:
            return
        payload = {
            "version": _CHECKPOINT_VERSION,
            "kind": "spectrum-sweep",
            "base_seed": self.base_seed,
            "grid": [cell.key() for cell in self.cells],
            "completed": {
                key: outcome.to_dict()
                for key, outcome in sorted(outcomes.items())
            },
        }
        payload["sha256"] = hashlib.sha256(_canonical(payload)).hexdigest()
        tmp = f"{self.checkpoint_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.checkpoint_path)

    # -- execution ---------------------------------------------------------

    def run(self) -> SweepResult:
        guard = BudgetGuard(
            ResilienceConfig(
                wall_clock_limit_s=self.max_seconds,
                memory_limit_mb=self.max_memory_mb,
            )
        )
        outcomes = self._load_checkpoint()
        resumed = len(outcomes)
        pending = [
            cell for cell in self.cells if cell.key() not in outcomes
        ]

        stop_reason = self.stop_reason or guard.exceeded()
        if pending and stop_reason is None:
            if self.workers > 1:
                stop_reason = self._run_pool(pending, outcomes, guard)
            else:
                stop_reason = self._run_serial(pending, outcomes, guard)

        partial = None
        if len(outcomes) < len(self.cells):
            partial = PartialResult(
                reason=stop_reason or "interrupt",
                nodes=len(self.cells),
                expanded=len(outcomes),
                frontier=len(self.cells) - len(outcomes),
                elapsed_s=guard.elapsed(),
                checkpoint_path=self.checkpoint_path,
            )
        return SweepResult(
            outcomes=outcomes,
            total_cells=len(self.cells),
            base_seed=self.base_seed,
            resumed_cells=resumed,
            partial=partial,
        )

    def _should_stop(self, guard: BudgetGuard) -> str | None:
        return self.stop_reason or guard.exceeded()

    def _run_serial(
        self,
        pending: Sequence[SpectrumCell],
        outcomes: dict[str, CellOutcome],
        guard: BudgetGuard,
    ) -> str | None:
        for cell in pending:
            outcomes[cell.key()] = run_cell(cell, self.base_seed)
            self._write_checkpoint(outcomes)
            if self.throttle_s:
                time.sleep(self.throttle_s)
            reason = self._should_stop(guard)
            if reason is not None:
                return reason
        return None

    def _run_pool(
        self,
        pending: Sequence[SpectrumCell],
        outcomes: dict[str, CellOutcome],
        guard: BudgetGuard,
    ) -> str | None:
        payloads = [(cell.to_dict(), self.base_seed) for cell in pending]
        reason: str | None = None
        pool = multiprocessing.Pool(self.workers)
        try:
            for key, outcome_data in pool.imap_unordered(
                _cell_worker, payloads
            ):
                outcomes[key] = CellOutcome.from_dict(outcome_data)
                self._write_checkpoint(outcomes)
                if self.throttle_s:
                    time.sleep(self.throttle_s)
                reason = self._should_stop(guard)
                if reason is not None:
                    pool.terminate()
                    break
            else:
                pool.close()
        except Exception:
            pool.terminate()
            raise
        finally:
            pool.join()
        return reason


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def _benor_cell(
    n: int, f: int, grade: str, samples: int, horizon: int
) -> SpectrumCell:
    return SpectrumCell(
        protocol="benor",
        n=n,
        f=f,
        grade=grade,
        gst=None,
        samples=samples,
        horizon=horizon,
        drop_probability=0.5 if grade == "oblivious" else 1.0,
    )


def default_grid(
    benor_samples: int = 400, rotating_samples: int = 150
) -> list[SpectrumCell]:
    """The phase-diagram grid the benchmark records.

    The Ben-Or family spans the ``f < n/2`` boundary (f = 3 at n = 5 is
    the collapse side) under all three grades; the rotating family
    crosses finite GST against GST = ∞ under every detector class.
    """
    cells = [
        _benor_cell(5, f, grade, benor_samples, horizon=60)
        for f in (0, 1, 2, 3)
        for grade in ADVERSARY_GRADES
    ]
    for grade in ("oblivious", "adaptive"):
        for gst in (4, None):
            for detector in DETECTOR_CLASSES:
                cells.append(
                    SpectrumCell(
                        protocol="rotating",
                        n=5,
                        f=2,
                        grade=grade,
                        gst=gst,
                        detector=detector,
                        samples=rotating_samples,
                        horizon=30,
                        drop_probability=(
                            0.5 if grade == "oblivious" else 1.0
                        ),
                    )
                )
    return cells


def smoke_grid(
    benor_samples: int = 40, rotating_samples: int = 20
) -> list[SpectrumCell]:
    """A seconds-scale grid with the same headline cells, for CI/chaos."""
    cells = [
        _benor_cell(3, f, grade, benor_samples, horizon=40)
        for f in (0, 1)
        for grade in ("oblivious", "adaptive")
    ]
    for gst in (3, None):
        cells.append(
            SpectrumCell(
                protocol="rotating",
                n=3,
                f=1,
                grade="adaptive",
                gst=gst,
                samples=rotating_samples,
                horizon=12,
            )
        )
    return cells


# ---------------------------------------------------------------------------
# Phase-boundary expectations
# ---------------------------------------------------------------------------


def check_phase_expectations(result: SweepResult) -> list[str]:
    """The paper's predicted phase boundary, as checkable assertions.

    Returns a list of violation strings (empty = the diagram matches).
    Only completed cells are judged, so a partial sweep is checked for
    what it actually covered.
    """
    violations: list[str] = []
    by_key = {
        outcome.cell: outcome for outcome in result.outcomes.values()
    }

    for cell, outcome in by_key.items():
        if outcome.agreement_violations:
            violations.append(
                f"{cell.key()}: {outcome.agreement_violations} "
                "agreement violations"
            )
        if outcome.validity_violations:
            violations.append(
                f"{cell.key()}: {outcome.validity_violations} "
                "validity violations"
            )
        if (
            cell.protocol == "benor"
            and cell.grade == "oblivious"
            and cell.f < cell.n / 2
            and outcome.termination_rate < 1.0
        ):
            violations.append(
                f"{cell.key()}: Ben-Or must decide in every sampled run "
                f"for f < n/2 under the oblivious adversary; "
                f"terminated {outcome.terminated}/{cell.samples}"
            )
        if cell.protocol == "rotating" and cell.gst is not None:
            if outcome.terminated < cell.samples:
                violations.append(
                    f"{cell.key()}: rotating coordinator must decide "
                    f"after GST; terminated "
                    f"{outcome.terminated}/{cell.samples}"
                )
            elif (
                outcome.max_post_gst is not None
                and outcome.max_post_gst > cell.f + 1
            ):
                violations.append(
                    f"{cell.key()}: decided {outcome.max_post_gst} rounds "
                    f"post-GST, bound is f+1={cell.f + 1}"
                )
        if (
            cell.protocol == "rotating"
            and cell.gst is None
            and cell.grade == "adaptive"
            and cell.detector == "none"
            and outcome.terminated != 0
        ):
            violations.append(
                f"{cell.key()}: the GST=inf deterministic cell must "
                f"exhibit FLP nontermination; terminated "
                f"{outcome.terminated}/{cell.samples}"
            )

    # Degradation: the adaptive grade must be strictly worse than the
    # oblivious one somewhere in the nontrivial f < n/2 Ben-Or region.
    comparable: list[tuple[CellOutcome, CellOutcome]] = []
    for cell, outcome in by_key.items():
        if (
            cell.protocol != "benor"
            or cell.grade != "adaptive"
            or not 0 < cell.f < cell.n / 2
        ):
            continue
        twin = cell.to_dict()
        twin["grade"] = "oblivious"
        twin["drop_probability"] = 0.5
        sibling = by_key.get(SpectrumCell.from_dict(twin))
        if sibling is not None:
            comparable.append((outcome, sibling))
    if comparable:
        degraded = any(
            adaptive.termination_rate < oblivious.termination_rate
            or (
                adaptive.mean_rounds is not None
                and oblivious.mean_rounds is not None
                and adaptive.mean_rounds > oblivious.mean_rounds
            )
            for adaptive, oblivious in comparable
        )
        if not degraded:
            violations.append(
                "benor: the adaptive adversary shows no degradation over "
                "the oblivious one on any comparable f < n/2 cell"
            )
    return violations
