"""Run-outcome containers shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Status(str, Enum):
    """Terminal state of a solver run."""

    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"
    LINE_SEARCH_FAILURE = "line_search_failure"
    DIVERGED = "diverged"
    INVALID = "invalid"  # a suite row whose settings were rejected; nothing ran


class StepKind(str, Enum):
    """Label attached to each trace row; ``init`` tags the row for the starting point."""

    INIT = "init"
    CG = "cg"    # conjugate gradient step
    SD = "sd"    # steepest-descent retry after a failed progress test
    AG = "ag"    # accelerated gradient step
    BAR = "bar"  # CG step tested at the conjugate-z augmented point
    LCG = "lcg"  # linear conjugate gradient step


@dataclass(slots=True)
class TraceRecord:
    iteration: int
    evals: int       # cumulative function-gradient evaluations
    f: float
    gnorm: float
    phi_star: float  # NaN for solvers without an estimate sequence
    step: StepKind


@dataclass
class SolverResult:
    """Outcome of one solver run, as the run contract in ``cag`` states it
    (lcg: as ``baselines.lcg_minimize`` states it)."""

    status: Status
    x_final: np.ndarray
    f_final: float
    gnorm_final: float
    iterations: int
    evaluations: int
    trace: list[TraceRecord]

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED
