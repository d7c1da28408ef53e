"""Comparison solvers: linear CG, plain Hager-Zhang NCG, and accelerated gradient.

Evaluation accounting follows the same convention everywhere: for the
nonlinear solvers one combined function-gradient evaluation is the unit,
counted through the shared oracle; for linear CG each operator application
counts as one evaluation, since applying A is the whole cost of an
iteration on a quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cag import (
    RESTART_FACTOR,
    SolverConfig,
    _ConvergedAt,
    _evaluate_or_stop,
    _initial_state,
    _start_point,
    ag_step,  # bound at import: traced runs count only cag_minimize's ag_step calls
    hz_beta,
    secant_alpha,
)
from .errors import (
    CurvatureFailure,
    DegenerateDirection,
    NotPositiveDefinite,
    NumericalFailure,
)
# Unused here, but perfbench/tracing.py wraps these names in this module.
from .estimate_sequence import advance_estimate, compute_theta_gamma  # noqa: F401
from .oracle import EvalCounter, ObjectiveProblem, Vector, evaluate_counted
from .results import RunLog, SolverResult, Status, StepKind, TraceRecord

ApplyFn = Callable[[Vector], Vector]


@dataclass(frozen=True)
class QuadraticProblem:
    """Quadratic objective f(x) = x^T A x / 2 - b^T x given as an SPD operator."""

    apply_A: ApplyFn
    b: Vector
    known_fstar: float | None = None
    known_xstar: Vector | None = None
    name: str = "quadratic"

    @property
    def n(self) -> int:
        return self.b.size

    def objective(self, L: float, ell: float = 0.0, name: str | None = None) -> ObjectiveProblem:
        """Wrap the operator as a counted function-gradient oracle.

        One evaluate call applies A once: f = x^T(Ax)/2 - b^T x,
        grad = Ax - b.
        """
        apply_A, b = self.apply_A, self.b

        def evaluate(x):
            Ax = apply_A(x)
            return 0.5 * float(x @ Ax) - float(b @ x), Ax - b

        return ObjectiveProblem(
            name=name or self.name,
            n=self.n,
            evaluate=evaluate,
            default_L=L,
            default_ell=ell,
            known_xstar=self.known_xstar,
            known_fstar=self.known_fstar,
        )


def lcg_minimize(
    qp: QuadraticProblem,
    x0: Vector,
    gtol: float,
    max_iters: int,
    record_iterates: bool = False,
) -> SolverResult:
    """Linear conjugate gradient with the classical residual recurrences.

    One A-application per iteration, counted as one evaluation; the initial
    residual is free for x0 = 0 and costs one application otherwise.  The
    objective value is tracked by the update f_{k+1} = f_k - (alpha/2) r^T r,
    which is exact in exact arithmetic.
    """
    x = _start_point(x0, qp.n)
    evals = 0
    if np.any(x != 0.0):
        Ax0 = qp.apply_A(x)
        evals += 1
        r = qp.b - Ax0
        f = 0.5 * float(x @ Ax0) - float(qp.b @ x)
    else:
        r = qp.b.copy()
        f = 0.0
    rr = float(r @ r)
    rnorm = math.sqrt(rr)
    trace = [TraceRecord(0, evals, f, rnorm, math.nan, StepKind.INIT)]
    iterates = [x.copy()] if record_iterates else None
    if rnorm <= gtol:
        return SolverResult(Status.CONVERGED, x, f, rnorm, 0, evals, trace, iterates)

    p = r.copy()
    for k in range(1, max_iters + 1):
        Ap = qp.apply_A(p)
        evals += 1
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise NotPositiveDefinite(f"p^T A p = {pAp!r} <= 0")
        alpha = rr / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        f = f - 0.5 * alpha * rr
        rr_new = float(r @ r)
        rnorm = math.sqrt(rr_new)
        trace.append(TraceRecord(k, evals, f, rnorm, math.nan, StepKind.LCG))
        if iterates is not None:
            iterates.append(x.copy())
        if rnorm <= gtol:
            return SolverResult(Status.CONVERGED, x, f, rnorm, k, evals, trace, iterates)
        p = r + (rr_new / rr) * p
        rr = rr_new

    return SolverResult(
        Status.BUDGET_EXHAUSTED, x, f, rnorm, max_iters, evals, trace, iterates
    )


@np.errstate(over="ignore")
def ncg_minimize(
    problem: ObjectiveProblem,
    x0: Vector,
    config: SolverConfig,
    record_iterates: bool = False,
) -> SolverResult:
    """Plain Hager-Zhang NCG with the secant line search and a backtracking safeguard.

    No progress test and no fallback: the secant step (probe scale 1/L,
    with L the smoothness bound) is halved until the function value
    decreases, up to 30 times, after which the run stops with
    ``LINE_SEARCH_FAILURE``.  Restarts to steepest descent every
    ``RESTART_FACTOR`` * n + 1 steps and whenever the direction stops being
    a descent direction.
    """
    L, gtol, max_evals = config.L, config.gtol, config.max_evals
    counter = EvalCounter()
    point = evaluate_counted(problem, _start_point(x0, problem.n), counter)
    log = RunLog(counter, point, math.nan, record_iterates)
    if point.gnorm <= gtol:
        return log.finish(Status.CONVERGED)

    g0_norm = point.gnorm
    p = -point.g
    i_cg = 0
    restart_at = RESTART_FACTOR * problem.n + 1
    try:
        while counter.count < max_evals:
            g = point.g
            if i_cg >= restart_at or float(g @ p) >= 0.0:
                p = -g
                i_cg = 0
            try:
                alpha, _, _ = secant_alpha(problem, counter, point, p, L, gtol, StepKind.CG)
            except CurvatureFailure:
                # Flat or concave along p: fall back to the step that the
                # smoothness bound alone guarantees to decrease f.
                alpha = -float(g @ p) / (L * float(p @ p))

            # Near the minimum the true decrease falls below what doubles can
            # represent, so demand decrease only up to a rounding-level slack.
            f_accept = point.f + 1e-12 * (1.0 + abs(point.f))
            for _ in range(31):  # the secant step, then up to 30 halvings
                new = _evaluate_or_stop(
                    problem, point.x + alpha * p, counter, gtol, StepKind.CG
                )
                if new.f <= f_accept:
                    break
                alpha *= 0.5
            else:
                return log.finish(Status.LINE_SEARCH_FAILURE)
            log.record(new, math.nan, StepKind.CG)

            try:
                beta = hz_beta(g, new, p, g0_norm)
            except DegenerateDirection:
                beta = 0.0
            p = -new.g + beta * p
            i_cg = 0 if beta == 0.0 else i_cg + 1
            point = new
    except _ConvergedAt as c:
        return log.converged(c.point, math.nan, c.kind)
    except NumericalFailure:
        return log.finish(Status.DIVERGED)
    return log.finish(Status.BUDGET_EXHAUSTED)


@np.errstate(over="ignore")
def ag_minimize(
    problem: ObjectiveProblem,
    x0: Vector,
    config: SolverConfig,
    record_iterates: bool = False,
) -> SolverResult:
    """Accelerated gradient: ``cag.ag_step`` repeated from the start point.

    Each iteration evaluates once, at the combination point
    bar_x = (theta gamma v + gamma_next x) / (gamma + theta ell), takes the
    gradient step x_next = bar_x - bar_g / L and advances the model anchored
    at bar_x.  Termination is tested at the combination point, the only
    point whose gradient is computed.  Mutates only its own run state,
    through ``ag_step``.
    """
    counter = EvalCounter()
    start = evaluate_counted(problem, _start_point(x0, problem.n), counter)
    log = RunLog(counter, start, start.f, record_iterates)
    if start.gnorm <= config.gtol:
        return log.finish(Status.CONVERGED)

    state = _initial_state(start, config)
    try:
        while counter.count < config.max_evals:
            ag_step(state, config, problem, counter)
            log.record(state.bar, state.estimate.phi_star, StepKind.AG, state.x)
    except _ConvergedAt as c:
        return log.converged(c.point, state.estimate.phi_star, c.kind)
    except NumericalFailure:
        return log.finish(Status.DIVERGED)
    return log.finish(Status.BUDGET_EXHAUSTED)
