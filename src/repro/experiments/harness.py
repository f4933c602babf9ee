"""Experiment registry and report harness.

Every table in EXPERIMENTS.md is produced by an *experiment function*
registered here.  An experiment takes ``(quick, seed)`` and returns an
:class:`ExperimentResult` — a list of dict rows plus notes — which the
harness renders as an aligned table.  ``python -m repro.experiments``
runs them to print the tables, and
``tests/experiments/test_experiment_shapes.py`` asserts each table's
paper shape, so the published numbers and the tests cannot drift
apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.analysis.stats import format_table

__all__ = [
    "ExperimentResult",
    "experiment",
    "get_experiment",
    "run_experiment",
    "available_experiments",
    "run_all",
]


@dataclass(frozen=True)
class ExperimentResult:
    """Rows + context for one experiment run."""

    exp_id: str
    title: str
    rows: tuple[Mapping[str, object], ...]
    headers: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    seed: int = 0
    quick: bool = True

    def render(self) -> str:
        """The report block: header, table, notes."""
        mode = "quick" if self.quick else "full"
        lines = [
            f"== {self.exp_id}: {self.title} ({mode}, seed={self.seed}) ==",
            format_table(
                self.rows, headers=self.headers if self.headers else None
            ),
        ]
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable form (for dashboards / regression diffing).

        Row values that are not JSON-native (e.g. frozensets) are
        rendered via ``str``; the tables only carry scalars in practice.
        """
        import json

        def scrub(value: object) -> object:
            if isinstance(value, (str, int, float, bool)) or value is None:
                return value
            return str(value)

        return json.dumps(
            {
                "exp_id": self.exp_id,
                "title": self.title,
                "quick": self.quick,
                "seed": self.seed,
                "rows": [
                    {key: scrub(val) for key, val in row.items()}
                    for row in self.rows
                ],
                "notes": list(self.notes),
            },
            indent=2,
        )


ExperimentFn = Callable[[bool, int], ExperimentResult]

_REGISTRY: dict[str, tuple[str, ExperimentFn]] = {}


def experiment(exp_id: str, title: str):
    """Decorator registering an experiment function under *exp_id*."""

    def register(fn: ExperimentFn) -> ExperimentFn:
        if exp_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        _REGISTRY[exp_id] = (title, fn)
        return fn

    return register


def _ensure_loaded() -> None:
    """Import every experiment module so the registry is populated."""
    from repro.experiments import (  # noqa: F401
        exp_ablation_scaling,
        exp_ablation_schedulers,
        exp_ablation_search,
        exp_benor,
        exp_commit_window,
        exp_lemma1,
        exp_lemma2,
        exp_lemma3,
        exp_partial_synchrony,
        exp_synchronous,
        exp_theorem1,
        exp_theorem2,
        exp_timeouts,
    )


def available_experiments() -> dict[str, str]:
    """``exp_id -> title`` for every registered experiment."""
    _ensure_loaded()
    return {exp_id: title for exp_id, (title, _) in sorted(_REGISTRY.items())}


def get_experiment(exp_id: str) -> ExperimentFn:
    """The registered function for *exp_id*."""
    _ensure_loaded()
    try:
        return _REGISTRY[exp_id][1]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: "
            f"{sorted(_REGISTRY)}"
        ) from None


def run_experiment(
    exp_id: str, quick: bool = True, seed: int = 0
) -> ExperimentResult:
    """Run one experiment and return its result."""
    return get_experiment(exp_id)(quick, seed)


def run_all(
    quick: bool = True,
    seed: int = 0,
    only: Sequence[str] | None = None,
) -> list[ExperimentResult]:
    """Run every registered experiment (or the *only* subset), in id
    order, returning the results."""
    _ensure_loaded()
    selected = sorted(only) if only else sorted(_REGISTRY)
    return [run_experiment(exp_id, quick, seed) for exp_id in selected]
