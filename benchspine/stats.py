"""Summary statistics and the run header every benchmark record carries."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

#: Percentiles a timing may be reported at, lowest first.  A percentile
#: is reported only when at least ``TAIL_MIN_BEYOND`` samples lie
#: beyond it; fewer would make the tail a single unlucky sample.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest of :data:`PERCENTILES` with ``TAIL_MIN_BEYOND`` samples
    beyond it among *n*, or ``None`` when even the median has fewer."""
    supported = [
        pct for pct in PERCENTILES
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND
    ]
    return supported[-1] if supported else None


def summarize(samples: list[float]) -> dict[str, float | int | None]:
    """Median, quartiles, sample count and the highest supported tail.

    ``tail_pct`` / ``tail`` are ``None`` when the sample is too small to
    support any percentile (see :func:`tail_percentile`).
    """
    if not samples:
        raise ValueError("summarize() needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 2:
        q1, _median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    pct = tail_percentile(n)
    return {
        "n": n,
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "tail_pct": pct,
        "tail": None if pct is None else percentile(ordered, pct),
    }


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_header(root: Path) -> dict[str, object]:
    """Commit, machine and interpreter the numbers were measured on.

    ``git_sha`` is ``"unknown"`` (and ``dirty`` ``None``) when *root*
    is not a git work tree, e.g. an exported source tree.
    """
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown",
        "dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
