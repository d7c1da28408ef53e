"""Guarded nonlinear conjugate gradient with accelerated-gradient fallback.

Each iteration first attempts a conjugate gradient step with a one-probe
secant line search (exact on quadratics).  The step counts as progress only
if the new function value, or the value at an augmented "bar" point in
conjugate-z mode, stays below the running minimum phi* of a Nesterov
estimate sequence.  When the test fails, the step is retried in the
steepest-descent direction; when that fails too, the solver switches to a
block of accelerated-gradient iterations, which reduce phi* by
construction, and returns to CG once the gradient norm within the block has
dropped by ``ag_exit_factor``.

On a quadratic with correct curvature bounds the progress test never fails,
so a run is plain conjugate gradient at two evaluations per iteration (one
line-search probe, one at the new point).  The fallback ladder costs at
most five evaluations in an iteration: probe + step for the CG attempt, the
same for the retry, and one more for the AG step.  In conjugate-z mode each
attempt also evaluates its bar point, so the bound is seven.

After an AG block the model centre v no longer coincides with the iterate,
which invalidates the pure-CG quadratic argument for the plain progress
test.  ``conjugate_z_mode`` enables the remedy: the offset z = v - x at
block exit is kept conjugate to the subsequent search directions, and the
test is applied at the line minimiser along z through each new iterate
(one extra evaluation per iteration).  The plain test works well in
practice even after AG blocks, so the mode is off by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CurvatureFailure, DegenerateDirection, InvalidSpec, NumericalFailure
from .estimate_sequence import (
    EstimateState,
    advance_estimate,
    compute_theta_gamma,
    init_estimate,
)
from .oracle import EvalCounter, ObjectiveProblem, Vector, evaluate_counted
from .results import RunLog, SolverResult, Status, StepKind


@dataclass(frozen=True)
class CagConfig:
    """Run parameters for ``cag_minimize``.

    ``restart_interval_factor`` r forces a steepest-descent restart after
    r*n + 1 consecutive CG steps.  ``ag_exit_factor`` is the gradient-norm
    reduction required to leave an accelerated-gradient block.
    """

    L: float
    ell: float = 0.0
    gtol: float = 1e-8
    max_evals: int = 1_000_000
    restart_interval_factor: int = 10
    ag_exit_factor: float = 4.0
    conjugate_z_mode: bool = False

    def __post_init__(self):
        if not self.L > 0:
            raise InvalidSpec(f"L must be positive, got {self.L}")
        if not 0.0 <= self.ell <= self.L:
            raise InvalidSpec(f"need 0 <= ell <= L, got ell={self.ell}, L={self.L}")
        if not self.gtol > 0:
            raise InvalidSpec(f"gtol must be positive, got {self.gtol}")
        if self.max_evals < 1:
            raise InvalidSpec(f"max_evals must be positive, got {self.max_evals}")
        if self.restart_interval_factor < 1:
            raise InvalidSpec("restart_interval_factor must be positive")
        if not self.ag_exit_factor > 1.0:
            raise InvalidSpec("ag_exit_factor must exceed 1")


@dataclass(frozen=True)
class CagIterationState:
    """Full per-iteration state of the solver.

    During an AG block ``f`` and ``g`` are stale (the iterate produced by an
    AG step is not evaluated until the block exits); the bar triple carries
    the current information there.  ``bar_x/bar_f/bar_g`` always hold the
    anchor used by the *next* estimate-sequence update.
    """

    x: Vector
    f: float
    g: Vector
    p: Vector
    estimate: EstimateState
    i_cg: int
    only_ag: bool
    ag_ref_gnorm: float   # ||bar_g|| at AG-block entry, reference for the exit test
    bar_x: Vector
    bar_f: float
    bar_g: Vector
    zflag: bool
    z_tilde: Vector | None
    zAz: float
    g0_norm: float        # gradient norm at the starting point, for the beta safeguard


class _ConvergedAt(Exception):
    """Internal control flow: a termination test passed at a just-evaluated point."""

    def __init__(self, x, f, gnorm, kind):
        super().__init__("converged")
        self.x = x
        self.f = f
        self.gnorm = gnorm
        self.kind = kind


def _gradient_norm(g: Vector) -> float:
    """||g||, raising ``NumericalFailure`` when it overflows.

    The solvers run under ``np.errstate(over="ignore")``, so the overflow
    ends the run as ``DIVERGED`` instead of leaking a warning, and the
    estimate sequence never sees the gradient.
    """
    gnorm = float(np.linalg.norm(g))
    if not math.isfinite(gnorm):
        raise NumericalFailure("gradient norm overflowed")
    return gnorm


def _evaluate_or_stop(
    problem: ObjectiveProblem, x: Vector, counter: EvalCounter, gtol: float, kind: StepKind
) -> tuple[float, Vector, float]:
    """Counted evaluation at x that ends the run when ||grad f(x)|| <= gtol.

    Returns (f, g, ||g||); raises ``_ConvergedAt`` carrying the point and
    the step kind of the row that reports it when the test passes, and
    ``NumericalFailure`` when ||g|| overflows.
    """
    f, g = evaluate_counted(problem, x, counter)
    gnorm = _gradient_norm(g)
    if gnorm <= gtol:
        raise _ConvergedAt(x, f, gnorm, kind)
    return f, g, gnorm


def secant_alpha(
    problem: ObjectiveProblem,
    counter: EvalCounter,
    x: Vector,
    g: Vector,
    p: Vector,
    L: float,
    gtol: float,
    kind: StepKind,
) -> tuple[float, Vector, float]:
    """Secant step length from a single probe at x + p/L.

    The gradient difference gives a generalized curvature product
    Ap = L (grad f(x + p/L) - g); on a quadratic it equals the exact A p, so
    alpha = -<g, p> / <p, Ap> is the exact line minimiser there.

    Returns (alpha, Ap, pAp).  Costs one counted evaluation, and ends the
    run at the probe (as a ``kind`` row) when its gradient passes ``gtol``.
    Raises ``CurvatureFailure`` when pAp <= 0, which the caller treats as a
    failed attempt.
    """
    _, g_tilde, _ = _evaluate_or_stop(problem, x + p / L, counter, gtol, kind)
    Ap = L * (g_tilde - g)
    pAp = float(p @ Ap)
    if pAp <= 0.0:
        raise CurvatureFailure(f"nonpositive directional curvature pAp={pAp!r}")
    alpha = -float(g @ p) / pAp
    return alpha, Ap, pAp


def hz_beta(g: Vector, g_next: Vector, p: Vector, g0_norm: float) -> float:
    """Hager-Zhang conjugacy coefficient with the negative lower safeguard.

    beta1 = <y - p * 2||y||^2 / <y,p>, g_next> / <y,p>   with y = g_next - g
    beta2 = -1 / (||p|| * min(0.01 * g0_norm, ||g_next||))
    returns max(beta1, beta2).

    Raises ``DegenerateDirection`` when <y, p> = 0.
    """
    y = g_next - g
    yp = float(y @ p)
    if yp == 0.0:
        raise DegenerateDirection("y^T p vanished in the direction update")
    beta1 = float((y - p * (2.0 * float(y @ y) / yp)) @ g_next) / yp
    beta2 = -1.0 / (
        float(np.linalg.norm(p)) * min(0.01 * g0_norm, float(np.linalg.norm(g_next)))
    )
    return max(beta1, beta2)


def z_conjugate_update(
    z_tilde: Vector, zAz: float, p: Vector, Ap: Vector, pAp: float
) -> tuple[Vector, float]:
    """Re-conjugate z against the newest search direction.

    delta = <z, Ap> / pAp removes the p-component of z in the A-inner
    product; the quadratic form follows by expansion:
    zAz' = zAz - 2 delta <z, Ap> + delta^2 pAp.
    """
    if pAp <= 0.0:
        raise CurvatureFailure(f"nonpositive curvature pAp={pAp!r} in z update")
    zAp = float(z_tilde @ Ap)
    delta = zAp / pAp
    z_next = z_tilde - delta * p
    zAz_next = zAz - 2.0 * delta * zAp + delta * delta * pAp
    return z_next, zAz_next


def bar_augment(
    x_next: Vector,
    g_next: Vector,
    z_tilde: Vector,
    zAz: float,
    problem: ObjectiveProblem,
    counter: EvalCounter,
    gtol: float,
) -> tuple[Vector, float, Vector]:
    """Line minimiser along z through the new iterate, evaluated.

    alpha_t = -<g_next, z> / zAz; returns (bar_x, bar_f, bar_g) at
    bar_x = x_next + alpha_t z.  Costs one counted evaluation, and ends the
    run there (as a ``bar`` row) when the gradient passes ``gtol``.
    """
    if zAz <= 0.0:
        raise CurvatureFailure(f"nonpositive quadratic form zAz={zAz!r}")
    alpha_t = -float(g_next @ z_tilde) / zAz
    bar_x = x_next + alpha_t * z_tilde
    bar_f, bar_g, _ = _evaluate_or_stop(problem, bar_x, counter, gtol, StepKind.BAR)
    return bar_x, bar_f, bar_g


def cg_attempt(
    state: CagIterationState,
    config: CagConfig,
    problem: ObjectiveProblem,
    counter: EvalCounter,
    use_steepest: bool,
) -> tuple[bool, CagIterationState]:
    """One conjugate gradient (or steepest-descent retry) attempt.

    Evaluates the secant probe and the candidate iterate, forms the bar
    point (identity copy, or the z-augmented minimiser when zflag is set),
    advances the estimate sequence anchored at the *previous* bar triple,
    and accepts iff f_next <= phi*_next or bar_f_next <= phi*_next.

    On acceptance the returned state carries the new iterate, the new bar
    triple, the advanced model and the next direction.  On a failed progress
    test the returned state is unchanged except for the z recurrences, which
    advance unconditionally.  ``CurvatureFailure``/``DegenerateDirection``
    reject the attempt without touching the state at all.
    """
    p = -state.g if use_steepest else state.p
    i_cg = 0 if use_steepest else state.i_cg
    kind = StepKind.SD if use_steepest else StepKind.CG

    try:
        alpha, Ap, pAp = secant_alpha(
            problem, counter, state.x, state.g, p, config.L, config.gtol, kind
        )
    except CurvatureFailure:
        return False, state

    x_next = state.x + alpha * p
    f_next, g_next, _ = _evaluate_or_stop(problem, x_next, counter, config.gtol, kind)

    zflag = state.zflag
    z_tilde = state.z_tilde
    zAz = state.zAz
    if zflag:
        z_tilde, zAz = z_conjugate_update(z_tilde, zAz, p, Ap, pAp)
        if zAz <= 0.0 or not math.isfinite(zAz):
            # z fell into the span of the block's directions; drop the
            # augmentation and continue with the plain test.
            zflag = False
            z_tilde = None
            zAz = 0.0
            bar_x, bar_f, bar_g = x_next, f_next, g_next
        else:
            bar_x, bar_f, bar_g = bar_augment(
                x_next, g_next, z_tilde, zAz, problem, counter, config.gtol
            )
    else:
        bar_x, bar_f, bar_g = x_next, f_next, g_next

    theta, gamma_next = compute_theta_gamma(config.L, config.ell, state.estimate.gamma)
    # The model update is anchored at the previous bar point; the fresh bar
    # point only enters the acceptance test (and becomes next iteration's anchor).
    est_next = advance_estimate(
        state.estimate, theta, gamma_next, state.bar_x, state.bar_f, state.bar_g
    )

    if not (f_next <= est_next.phi_star or bar_f <= est_next.phi_star):
        return False, replace(state, zflag=zflag, z_tilde=z_tilde, zAz=zAz)

    try:
        beta = hz_beta(state.g, g_next, p, state.g0_norm)
    except DegenerateDirection:
        return False, state
    p_next = -g_next + beta * p
    i_cg_next = 0 if beta == 0.0 else i_cg + 1

    return True, replace(
        state,
        x=x_next,
        f=f_next,
        g=g_next,
        p=p_next,
        estimate=est_next,
        i_cg=i_cg_next,
        bar_x=bar_x,
        bar_f=bar_f,
        bar_g=bar_g,
        zflag=zflag,
        z_tilde=z_tilde,
        zAz=zAz,
    )


def ag_step(
    state: CagIterationState,
    config: CagConfig,
    problem: ObjectiveProblem,
    counter: EvalCounter,
) -> CagIterationState:
    """One accelerated-gradient iteration.

    Forms the combination point bar_x = (theta gamma v + gamma_next x) /
    (gamma + theta ell), evaluates there (one counted evaluation), takes the
    gradient step x_next = bar_x - bar_g / L and advances the model anchored
    at bar_x.  The new iterate is deliberately left unevaluated; f and g in
    the returned state are stale until the block exits.
    """
    est = state.estimate
    theta, gamma_next = compute_theta_gamma(config.L, config.ell, est.gamma)
    bar_x = (theta * est.gamma * est.v + gamma_next * state.x) / (
        est.gamma + theta * config.ell
    )
    bar_f, bar_g, _ = _evaluate_or_stop(problem, bar_x, counter, config.gtol, StepKind.AG)
    x_next = bar_x - bar_g / config.L
    est_next = advance_estimate(est, theta, gamma_next, bar_x, bar_f, bar_g)
    return replace(
        state, x=x_next, estimate=est_next, bar_x=bar_x, bar_f=bar_f, bar_g=bar_g
    )


def ag_block_exit_test(state: CagIterationState, config: CagConfig) -> bool:
    """True once the in-block gradient norm fell below the entry norm / exit factor."""
    return float(np.linalg.norm(state.bar_g)) <= state.ag_ref_gnorm / config.ag_exit_factor


def return_to_cg(
    state: CagIterationState,
    config: CagConfig,
    problem: ObjectiveProblem,
    counter: EvalCounter,
) -> CagIterationState:
    """Leave the AG block: evaluate the pending iterate and reset the CG chain.

    Costs one counted evaluation at the iterate, plus one more at the model
    centre v in conjugate-z mode, where z = v - x is initialised together
    with zAz = <grad f(v) - grad f(x), z> (exact z^T A z on a quadratic).
    A nonpositive or vanishing zAz disables the augmentation for this block.
    """
    f_next, g_next = evaluate_counted(problem, state.x, counter)
    new = replace(
        state,
        f=f_next,
        g=g_next,
        bar_x=state.x,
        bar_f=f_next,
        bar_g=g_next,
        p=-g_next,
        only_ag=False,
        i_cg=0,
        zflag=False,
        z_tilde=None,
        zAz=0.0,
    )
    if config.conjugate_z_mode:
        z = state.estimate.v - state.x
        _, g_v = evaluate_counted(problem, state.estimate.v, counter)
        zAz = float(z @ (g_v - g_next))
        if zAz > 0.0 and float(z @ z) > 0.0:
            new = replace(new, zflag=True, z_tilde=z, zAz=zAz)
    return new


def _initial_state(
    x0: Vector, f0: float, g0: Vector, config: CagConfig
) -> CagIterationState:
    est = init_estimate(f0, x0, config.L, config.ell)
    return CagIterationState(
        x=x0,
        f=f0,
        g=g0,
        p=-g0,
        estimate=est,
        i_cg=0,
        only_ag=False,
        ag_ref_gnorm=math.inf,
        bar_x=x0,
        bar_f=f0,
        bar_g=g0,
        zflag=False,
        z_tilde=None,
        zAz=0.0,
        g0_norm=float(np.linalg.norm(g0)),
    )


@np.errstate(over="ignore")
def cag_minimize(
    problem: ObjectiveProblem,
    x0: Vector,
    config: CagConfig,
    record_iterates: bool = False,
) -> SolverResult:
    """Minimise ``problem`` from ``x0`` until ||grad f|| <= gtol.

    Per-iteration control flow: a forced steepest-descent restart when the
    CG chain reaches restart_interval_factor*n + 1 steps; a CG attempt; on a
    failed progress test a steepest-descent retry; if both fail (or a block
    is already running) an AG step, with the block entered at the current
    iteration and left once the gradient norm has dropped by
    ``ag_exit_factor``.

    The evaluation budget is checked at iteration boundaries, so the final
    count may exceed ``max_evals`` by one iteration's cost less one: at
    most 4, or 6 in conjugate-z mode.  Returns the full per-iteration
    trace; the row for the starting point is tagged ``init``.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.n,):
        raise InvalidSpec(f"x0 must have shape ({problem.n},), got {x0.shape}")
    counter = EvalCounter()
    f0, g0 = evaluate_counted(problem, x0, counter)
    g0_norm = _gradient_norm(g0)
    log = RunLog(counter, x0, f0, g0_norm, f0, record_iterates)
    if g0_norm <= config.gtol:
        return log.finish(Status.CONVERGED)

    state = _initial_state(x0, f0, g0, config)
    restart_at = config.restart_interval_factor * problem.n + 1
    try:
        while counter.count < config.max_evals:
            if state.i_cg >= restart_at:
                state = replace(state, p=-state.g, i_cg=0)

            kind: StepKind | None = None
            if not state.only_ag:
                accepted, state = cg_attempt(
                    state, config, problem, counter, use_steepest=False
                )
                if accepted:
                    kind = StepKind.BAR if state.zflag else StepKind.CG
                else:
                    accepted, state = cg_attempt(
                        state, config, problem, counter, use_steepest=True
                    )
                    if accepted:
                        kind = StepKind.SD

            if kind is None:
                entering = not state.only_ag
                state = ag_step(state, config, problem, counter)
                kind = StepKind.AG
                row_x, row_f = state.bar_x, state.bar_f
                row_gnorm = float(np.linalg.norm(state.bar_g))
                if entering:
                    state = replace(state, only_ag=True, ag_ref_gnorm=row_gnorm)
                if ag_block_exit_test(state, config):
                    state = return_to_cg(state, config, problem, counter)
            else:
                row_x, row_f = state.x, state.f
                row_gnorm = float(np.linalg.norm(state.g))

            log.record(row_x, row_f, row_gnorm, state.estimate.phi_star, kind, state.x)
    except _ConvergedAt as c:
        return log.converged(c.x, c.f, c.gnorm, state.estimate.phi_star, c.kind)
    except NumericalFailure:
        return log.finish(Status.DIVERGED)
    return log.finish(Status.BUDGET_EXHAUSTED)
