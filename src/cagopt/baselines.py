"""Comparison solvers: linear CG, plain Hager-Zhang NCG, and accelerated gradient.

Evaluation accounting follows the same convention everywhere: for the
nonlinear solvers one combined function-gradient evaluation is the unit,
counted through the shared oracle; for linear CG each operator application
counts as one evaluation, since applying A is the whole cost of an
iteration on a quadratic.
"""

from __future__ import annotations

import math

import numpy as np

from .cag import (
    SolverConfig,
    _LineSearchFailed,
    _Run,
    _start_point,
    ag_step,  # bound at import: traced runs count only cag_minimize's ag_step calls
    check_settings,
    hz_beta,
    run_steps,
    secant_alpha,
)
from .errors import InvalidSpec
from .oracle import Evaluation, ObjectiveProblem, Vector
from .problems import QuadraticProblem
# Unused here, but perfbench/tracing.py wraps these names in this module.
from .estimate_sequence import advance_estimate, compute_theta_gamma  # noqa: F401
from .oracle import evaluate_counted  # noqa: F401
from .results import SolverResult, Status, StepKind, Trace


@np.errstate(over="ignore")
def lcg_minimize(qp: QuadraticProblem, x0: Vector, gtol: float, max_iters: int) -> SolverResult:
    """Linear conjugate gradient with the classical residual recurrences.

    One A-application per iteration, counted as one evaluation; the initial
    residual is free for x0 = 0 and costs one application otherwise.  The
    objective value is tracked by the update f_{k+1} = f_k - (alpha/2) r^T r,
    which is exact in exact arithmetic.  At the budget exit the result holds
    the last iterate, not the lowest-f row that ``cag``'s run contract
    reports for the other solvers: the tracked f stalls at round-off while
    the residual still falls, so the first lowest-f row has a larger
    residual.  Raises ``InvalidSpec`` unless gtol > 0, max_iters is an
    integer >= 1 (``check_settings``) and x0 is finite, and when p^T A p <= 0
    shows that A is not positive definite.  The ``init`` row comes first: a
    non-finite f(x0) or initial residual norm ends the run ``diverged`` there.
    A curvature product, f or residual norm that turns non-finite later ends
    it ``diverged`` with the last row's iterate, recording no row for the
    iteration that ends it (whose A-application it counts).
    """
    check_settings(None, None, gtol, max_iters, "max_iters")
    x = _start_point(x0, qp.n)
    evals = 0
    if np.any(x != 0.0):
        Ax0 = qp.apply_A(x)
        evals += 1
        r = qp.b - Ax0
        f = 0.5 * float(x.dot(Ax0)) - float(qp.b.dot(x))
    else:
        r = qp.b.astype(float)  # a float copy: r and p are updated in place
        f = 0.0
    rr = float(r.dot(r))
    rnorm = math.sqrt(rr)
    trace = Trace()
    trace.append(evals, f, rnorm, math.nan, StepKind.INIT)
    if not (math.isfinite(f) and math.isfinite(rnorm)):
        return SolverResult(Status.DIVERGED, x, f, rnorm, evals, trace)
    if rnorm <= gtol:
        return SolverResult(Status.CONVERGED, x, f, rnorm, evals, trace)

    # x and p are updated in place.  The next residual is formed in step, which
    # then swaps with r, so that a non-finite one leaves x and r as they were.
    p = r.copy()
    step = np.empty_like(p)
    for k in range(1, max_iters + 1):
        Ap = qp.apply_A(p)
        evals += 1
        pAp = float(p.dot(Ap))
        if pAp <= 0.0:
            raise InvalidSpec(f"the operator is not positive definite: p^T A p = {pAp!r} <= 0")
        if not math.isfinite(pAp):
            break  # an overflowing pAp would give alpha = 0 and stall x
        alpha = rr / pAp
        np.subtract(r, np.multiply(alpha, Ap, out=step), out=step)
        f = f - 0.5 * alpha * rr
        rr_new = float(step.dot(step))
        rnorm = math.sqrt(rr_new)
        if not (math.isfinite(f) and math.isfinite(rnorm)):
            break
        r, step = step, r
        x += np.multiply(alpha, p, out=step)
        trace.append(evals, f, rnorm, math.nan, StepKind.LCG)
        if rnorm <= gtol:
            return SolverResult(Status.CONVERGED, x, f, rnorm, evals, trace)
        p *= rr_new / rr
        p += r
        rr = rr_new
    else:
        return SolverResult(Status.BUDGET_EXHAUSTED, x, f, rnorm, evals, trace)

    return SolverResult(Status.DIVERGED, x, trace.f[-1], trace.gnorm[-1], evals, trace)


def ncg_step(run: _Run) -> tuple[Evaluation, StepKind]:
    """One plain Hager-Zhang NCG iteration; reads and writes only ``x``,
    ``point``, ``p`` and ``i_cg``."""
    point = run.point
    g = point.g
    if float(g.dot(run.p)) >= 0.0:
        run.restart_chain()
    p = run.p
    secant = secant_alpha(run, point, p, StepKind.CG)
    # With no secant step (flat or concave along p), take the step that the
    # smoothness bound alone guarantees to decrease f.
    alpha = secant[0] if secant is not None else -float(g.dot(p)) / (run.config.L * float(p.dot(p)))

    # Near the minimum the true decrease falls below what doubles can
    # represent, so demand decrease only up to a rounding-level slack.
    f_accept = point.f + 1e-12 * (1.0 + abs(point.f))
    for _ in range(31):  # the secant step, then up to 30 halvings
        x_next = np.multiply(alpha, p)
        x_next += point.x
        new = run.evaluate(x_next, StepKind.CG)
        if new.f <= f_accept:
            break
        alpha *= 0.5
    else:
        raise _LineSearchFailed

    beta = hz_beta(g, new, p, run.g0_norm)
    run.commit(new, p, run.i_cg, 0.0 if beta is None else beta)
    return new, StepKind.CG


def ncg_minimize(problem: ObjectiveProblem, x0: Vector, config: SolverConfig) -> SolverResult:
    """Plain Hager-Zhang NCG with the secant line search and a backtracking safeguard.

    No progress test and no fallback: the secant step (probe scale 1/L) is
    halved until f decreases, at most 30 times before the line search
    fails, and the direction restarts from steepest descent whenever it is
    not a descent direction.  Rejects ``config.conjugate_z``, a cag-only test.
    """
    if config.conjugate_z:
        raise InvalidSpec("conjugate_z applies only to the cag solver")
    return run_steps(ncg_step, problem, x0, config, phi_star0=math.nan)


def ag_minimize(problem: ObjectiveProblem, x0: Vector, config: SolverConfig) -> SolverResult:
    """Accelerated gradient: ``cag.ag_step`` repeated from the start point, one
    evaluation per iteration, at the combination point (where termination is
    therefore tested).  Rejects ``config.conjugate_z``, a cag-only test."""
    if config.conjugate_z:
        raise InvalidSpec("conjugate_z applies only to the cag solver")
    return run_steps(ag_step, problem, x0, config)
