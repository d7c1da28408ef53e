"""Run-outcome containers shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .oracle import EvalCounter, Evaluation


class Status(str, Enum):
    """Terminal state of a solver run."""

    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"
    LINE_SEARCH_FAILURE = "line_search_failure"
    DIVERGED = "diverged"
    INVALID = "invalid"  # a suite row whose settings were rejected; nothing ran


class StepKind(str, Enum):
    """Label attached to each trace row.

    ``init`` tags the row for the starting point, so that on a converged or
    budget exit the evaluation deltas between consecutive rows partition the
    final counter exactly.  A diverged or line-search-failure exit records no
    row for the iteration that ends the run, whose evaluations the last row
    therefore leaves out.
    """

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
    """Outcome of one solver run.

    ``x_final`` is the converged point on success; on any other status it is
    the best (lowest-f) evaluated point seen (lcg: the last iterate).
    """

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


class RunLog:
    """Trace and lowest-f point of one run, and its result.

    Opens with the ``init`` row for the starting point.  Each ``record``
    appends one iteration's row for an evaluated point, with the evaluation
    count read from the run's counter, and keeps the lowest-f point seen as
    ``best``.  ``converged`` and ``finish`` build the result as the run
    contract in ``cag`` states it.
    """

    def __init__(self, counter: EvalCounter, start: Evaluation, phi_star0: float):
        self.counter = counter
        self.trace = [
            TraceRecord(0, counter.count, start.f, start.gnorm, phi_star0, StepKind.INIT)
        ]
        self.best = start
        self.iterations = 0

    def record(self, point: Evaluation, phi_star: float, step: StepKind) -> None:
        self.iterations += 1
        self.trace.append(
            TraceRecord(self.iterations, self.counter.count, point.f, point.gnorm, phi_star, step)
        )
        if point.f < self.best.f:
            self.best = point

    def converged(self, point: Evaluation, phi_star: float, step: StepKind) -> SolverResult:
        self.record(point, phi_star, step)
        self.best = point
        return self.finish(Status.CONVERGED)

    def finish(self, status: Status) -> SolverResult:
        x, f, _, gnorm, _ = self.best
        return SolverResult(status, x, f, gnorm, self.iterations, self.counter.count, self.trace)
