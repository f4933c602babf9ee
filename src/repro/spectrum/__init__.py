"""Adversary-graded Monte-Carlo resilience workbench.

The paper's conclusion names the escape hatches from asynchronous
impossibility — randomization and partial synchrony — and Aspnes'
survey frames the cost of randomized consensus as a function of
*adversary strength*.  This subpackage charts that terrain empirically:
a Monte-Carlo runtime runs thousands of seeded simulations per grid
cell over (protocol, n, f, adversary grade, GST, detector class) and
reports termination probability and expected rounds-to-decide with
confidence intervals.

* :mod:`repro.spectrum.adversary` — the graded message adversaries
  (oblivious, content-aware, adaptive full-information), driven by the
  :mod:`repro.faults` clause algebra;
* :mod:`repro.spectrum.protocols` — phased Ben-Or, the randomized
  escape hatch, runnable under the same executor as the DLS rotating
  coordinator;
* :mod:`repro.spectrum.montecarlo` — the sweep runtime: grid cells,
  per-cell checkpointing, parallel fan-out, budget degradation, and
  the phase-boundary expectations the benchmark gates (its
  kill-and-resume identity is the ``sweep-kill`` scenario of
  ``repro chaos``).
"""

from repro.spectrum.adversary import (
    ADVERSARY_GRADES,
    AdaptiveAdversary,
    ContentAwareAdversary,
    GradedAdversary,
    ObliviousAdversary,
    make_adversary,
)
from repro.spectrum.montecarlo import (
    CellOutcome,
    SpectrumCell,
    SweepResult,
    SweepRunner,
    check_phase_expectations,
    default_grid,
    run_cell,
    smoke_grid,
)
from repro.spectrum.protocols import BenOrPhasedProcess

__all__ = [
    "ADVERSARY_GRADES",
    "AdaptiveAdversary",
    "ContentAwareAdversary",
    "GradedAdversary",
    "ObliviousAdversary",
    "make_adversary",
    "BenOrPhasedProcess",
    "CellOutcome",
    "SpectrumCell",
    "SweepResult",
    "SweepRunner",
    "check_phase_expectations",
    "default_grid",
    "run_cell",
    "smoke_grid",
]
