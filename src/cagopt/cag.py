"""Guarded nonlinear conjugate gradient with accelerated-gradient fallback.

Each iteration first attempts a conjugate gradient step with a one-probe
secant line search (exact on quadratics).  The step counts as progress only
if the new function value, or the value at an augmented "bar" point in
conjugate-z mode, stays below the running minimum phi* of a Nesterov
estimate sequence.  When the test fails, the step is retried in the
steepest-descent direction; when that fails too, the solver switches to a
block of accelerated-gradient iterations, which reduce phi* by
construction, and returns to CG once the gradient norm within the block has
dropped by the factor ``AG_EXIT_FACTOR``.  After ``RESTART_FACTOR`` times
n plus one consecutive CG steps the direction restarts from steepest descent.

On a quadratic with correct curvature bounds the progress test never fails,
so a run is plain conjugate gradient at two evaluations per iteration (one
line-search probe, one at the new point).  The fallback ladder costs at
most five evaluations in an iteration: probe + step for the CG attempt, the
same for the retry, and one more for the AG step.  In conjugate-z mode each
attempt also evaluates its bar point, so the bound is seven.

After an AG block the model centre v no longer coincides with the iterate,
which invalidates the pure-CG quadratic argument for the plain progress
test.  ``SolverConfig.conjugate_z`` enables the remedy: the offset
z = v - x at block exit is kept conjugate to the subsequent search
directions, and the test is applied at the line minimiser along z through
each new iterate (one extra evaluation per iteration).  The plain test
works well in practice even after AG blocks, so the mode is off by
default.
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
from .oracle import EvalCounter, Evaluation, ObjectiveProblem, Vector, evaluate_counted
from .results import RunLog, SolverResult, Status, StepKind

DEFAULT_GTOL = 1e-8
# AG spends one evaluation per iteration and the CG-type solvers about two,
# so a single default budget covers both conventions.
DEFAULT_MAX_EVALS = 1_000_000
RESTART_FACTOR = 10  # a CG chain restarts after RESTART_FACTOR * n + 1 steps
AG_EXIT_FACTOR = 4.0  # gradient-norm reduction that ends an AG block


def check_settings(L: float | None, ell: float | None, gtol: float, max_evals: int) -> None:
    """Raise ``InvalidSpec`` unless 0 < L < inf, 0 <= ell <= L, gtol > 0 and
    max_evals >= 1; an L or ell of None (a family default, not known yet) is skipped."""
    if L is not None and not 0.0 < L < math.inf:
        raise InvalidSpec(f"L must be positive and finite, got {L}")
    if ell is not None and not 0.0 <= ell <= (math.inf if L is None else L):
        raise InvalidSpec(f"need 0 <= ell <= L, got ell={ell}, L={L}")
    if not gtol > 0:
        raise InvalidSpec(f"gtol must be positive, got {gtol}")
    if not max_evals >= 1:
        raise InvalidSpec(f"max_evals must be at least 1, got {max_evals}")


@dataclass(frozen=True)
class SolverConfig:
    """Settings of ``cag_minimize``, ``ncg_minimize`` and ``ag_minimize``: the
    smoothness and strong-convexity bounds L >= ell (ncg reads no ell), the
    gradient tolerance, the evaluation budget and the conjugate-z test (cag only)."""

    L: float
    ell: float = 0.0
    gtol: float = DEFAULT_GTOL
    max_evals: int = DEFAULT_MAX_EVALS
    conjugate_z: bool = False

    def __post_init__(self):
        check_settings(self.L, self.ell, self.gtol, self.max_evals)


def _start_point(x0: Vector, n: int) -> Vector:
    """A float copy of ``x0``, which must have shape (n,); else ``InvalidSpec``."""
    x = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise InvalidSpec(f"x0 must have shape ({n},), got {x.shape}")
    return x


@dataclass(frozen=True)
class CagIterationState:
    """Full per-iteration state of the solver.

    ``point`` is the last evaluated iterate and ``x`` the current one; they
    differ only during an AG block, whose iterates are not evaluated until
    the block exits.  ``bar`` is the evaluated anchor of the *next*
    estimate-sequence update: the z-augmented point in conjugate-z mode, the
    combination point within an AG block, else ``point``.  The run is in an
    AG block exactly when ``ag_ref_gnorm`` is set, and the z augmentation is
    active exactly when ``z_tilde`` is.
    """

    x: Vector
    point: Evaluation
    p: Vector
    estimate: EstimateState
    i_cg: int
    ag_ref_gnorm: float | None  # ||bar g|| at AG-block entry, reference for the exit test
    bar: Evaluation
    z_tilde: Vector | None
    zAz: float
    g0_norm: float  # gradient norm at the starting point, for the beta safeguard


class _ConvergedAt(Exception):
    """Internal control flow: a termination test passed at a just-evaluated point."""

    def __init__(self, point: Evaluation, kind: StepKind):
        super().__init__("converged")
        self.point = point
        self.kind = kind


def _evaluate_or_stop(
    problem: ObjectiveProblem, x: Vector, counter: EvalCounter, gtol: float, kind: StepKind
) -> Evaluation:
    """Counted evaluation at x that ends the run when ||grad f(x)|| <= gtol.

    Raises ``_ConvergedAt`` carrying the evaluation and the step kind of the
    row that reports it when the test passes, and ``NumericalFailure`` (from
    ``evaluate_counted``) when the value or the gradient norm is non-finite.
    """
    point = evaluate_counted(problem, x, counter)
    if point.gnorm <= gtol:
        raise _ConvergedAt(point, kind)
    return point


def secant_alpha(
    problem: ObjectiveProblem,
    counter: EvalCounter,
    point: Evaluation,
    p: Vector,
    L: float,
    gtol: float,
    kind: StepKind,
) -> tuple[float, Vector, float]:
    """Secant step length from a single probe at x + p/L, x = ``point.x``.

    The gradient difference gives a generalized curvature product
    Ap = L (grad f(x + p/L) - g); on a quadratic it equals the exact A p, so
    alpha = -<g, p> / <p, Ap> is the exact line minimiser there.

    Returns (alpha, Ap, pAp).  Costs one counted evaluation, and ends the
    run at the probe (as a ``kind`` row) when its gradient passes ``gtol``.
    Raises ``CurvatureFailure`` when pAp <= 0, which the caller treats as a
    failed attempt.
    """
    probe = _evaluate_or_stop(problem, point.x + p / L, counter, gtol, kind)
    Ap = L * (probe.g - point.g)
    pAp = float(p @ Ap)
    if pAp <= 0.0:
        raise CurvatureFailure(f"nonpositive directional curvature pAp={pAp!r}")
    alpha = -float(point.g @ p) / pAp
    return alpha, Ap, pAp


def hz_beta(g: Vector, new: Evaluation, p: Vector, g0_norm: float) -> float:
    """Hager-Zhang conjugacy coefficient with the negative lower safeguard.

    With g_next = ``new.g`` and y = g_next - g:
    beta1 = <y - p * 2||y||^2 / <y,p>, g_next> / <y,p>
    beta2 = -1 / (||p|| * min(0.01 * g0_norm, ||g_next||))
    returns max(beta1, beta2).

    Raises ``DegenerateDirection`` when <y, p> = 0.
    """
    g_next = new.g
    y = g_next - g
    yp = float(y @ p)
    if yp == 0.0:
        raise DegenerateDirection("y^T p vanished in the direction update")
    beta1 = float((y - p * (2.0 * float(y @ y) / yp)) @ g_next) / yp
    beta2 = -1.0 / (math.sqrt(float(p @ p)) * min(0.01 * g0_norm, new.gnorm))
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
    new: Evaluation,
    z_tilde: Vector,
    zAz: float,
    problem: ObjectiveProblem,
    counter: EvalCounter,
    gtol: float,
) -> Evaluation:
    """Line minimiser along z through the new iterate, evaluated.

    alpha_t = -<g_next, z> / zAz with g_next = ``new.g``; returns the
    evaluation at bar_x = x_next + alpha_t z.  Costs one counted evaluation,
    and ends the run there (as a ``bar`` row) when the gradient passes
    ``gtol``.
    """
    if zAz <= 0.0:
        raise CurvatureFailure(f"nonpositive quadratic form zAz={zAz!r}")
    alpha_t = -float(new.g @ z_tilde) / zAz
    return _evaluate_or_stop(
        problem, new.x + alpha_t * z_tilde, counter, gtol, StepKind.BAR
    )


def cg_attempt(
    state: CagIterationState,
    config: SolverConfig,
    problem: ObjectiveProblem,
    counter: EvalCounter,
    use_steepest: bool,
) -> tuple[bool, CagIterationState]:
    """One conjugate gradient (or steepest-descent retry) attempt.

    Evaluates the secant probe and the candidate iterate, forms the bar
    point (the iterate itself, or the z-augmented minimiser in conjugate-z
    mode), advances the estimate sequence anchored at the *previous* bar
    point, and accepts iff f_next <= phi*_next or bar_f_next <= phi*_next.

    On acceptance the returned state carries the new iterate, the new bar
    point, the advanced model and the next direction.  On a failed progress
    test the returned state is unchanged except for the z recurrences, which
    advance unconditionally.  ``CurvatureFailure``/``DegenerateDirection``
    reject the attempt without touching the state at all.
    """
    point = state.point
    p = -point.g if use_steepest else state.p
    i_cg = 0 if use_steepest else state.i_cg
    kind = StepKind.SD if use_steepest else StepKind.CG

    try:
        alpha, Ap, pAp = secant_alpha(
            problem, counter, point, p, config.L, config.gtol, kind
        )
    except CurvatureFailure:
        return False, state

    new = _evaluate_or_stop(problem, point.x + alpha * p, counter, config.gtol, kind)

    bar = new
    z_tilde, zAz = state.z_tilde, state.zAz
    if z_tilde is not None:
        z_tilde, zAz = z_conjugate_update(z_tilde, zAz, p, Ap, pAp)
        if zAz <= 0.0 or not math.isfinite(zAz):
            # z fell into the span of the block's directions; drop the
            # augmentation and continue with the plain test.
            z_tilde, zAz = None, 0.0
        else:
            bar = bar_augment(new, z_tilde, zAz, problem, counter, config.gtol)

    theta, gamma_next = compute_theta_gamma(config.L, config.ell, state.estimate.gamma)
    # The model update is anchored at the previous bar point; the fresh bar
    # point only enters the acceptance test (and becomes next iteration's anchor).
    anchor = state.bar
    est_next = advance_estimate(
        state.estimate, theta, gamma_next, anchor.x, anchor.f, anchor.g
    )

    if not (new.f <= est_next.phi_star or bar.f <= est_next.phi_star):
        return False, replace(state, z_tilde=z_tilde, zAz=zAz)

    try:
        beta = hz_beta(point.g, new, p, state.g0_norm)
    except DegenerateDirection:
        return False, state

    return True, replace(
        state,
        x=new.x,
        point=new,
        p=-new.g + beta * p,
        estimate=est_next,
        i_cg=0 if beta == 0.0 else i_cg + 1,
        bar=bar,
        z_tilde=z_tilde,
        zAz=zAz,
    )


def ag_step(
    state: CagIterationState,
    config: SolverConfig,
    problem: ObjectiveProblem,
    counter: EvalCounter,
) -> CagIterationState:
    """One accelerated-gradient iteration.

    Forms the combination point bar_x = (theta gamma v + gamma_next x) /
    (gamma + theta ell), evaluates there (one counted evaluation), takes the
    gradient step x_next = bar_x - bar_g / L and advances the model anchored
    at bar_x.  The new iterate is deliberately left unevaluated: ``point``
    in the returned state is stale until the block exits.
    """
    est = state.estimate
    theta, gamma_next = compute_theta_gamma(config.L, config.ell, est.gamma)
    bar_x = (theta * est.gamma * est.v + gamma_next * state.x) / (
        est.gamma + theta * config.ell
    )
    bar = _evaluate_or_stop(problem, bar_x, counter, config.gtol, StepKind.AG)
    est_next = advance_estimate(est, theta, gamma_next, bar.x, bar.f, bar.g)
    return replace(state, x=bar.x - bar.g / config.L, estimate=est_next, bar=bar)


def ag_block_exit_test(state: CagIterationState) -> bool:
    """True once the in-block gradient norm fell to the entry norm / ``AG_EXIT_FACTOR``."""
    return state.bar.gnorm <= state.ag_ref_gnorm / AG_EXIT_FACTOR


def return_to_cg(
    state: CagIterationState,
    config: SolverConfig,
    problem: ObjectiveProblem,
    counter: EvalCounter,
) -> CagIterationState:
    """Leave the AG block: evaluate the pending iterate and reset the CG chain.

    Costs one counted evaluation at the iterate, plus one more at the model
    centre v in conjugate-z mode, where z = v - x is initialised together
    with zAz = <grad f(v) - grad f(x), z> (exact z^T A z on a quadratic).
    A nonpositive or vanishing zAz disables the augmentation for this block.
    """
    point = evaluate_counted(problem, state.x, counter)
    new = replace(
        state,
        point=point,
        p=-point.g,
        i_cg=0,
        ag_ref_gnorm=None,
        bar=point,
        z_tilde=None,
        zAz=0.0,
    )
    if config.conjugate_z:
        z = state.estimate.v - state.x
        g_v = evaluate_counted(problem, state.estimate.v, counter).g
        zAz = float(z @ (g_v - point.g))
        if zAz > 0.0 and float(z @ z) > 0.0:
            new = replace(new, z_tilde=z, zAz=zAz)
    return new


def _initial_state(start: Evaluation, config: SolverConfig) -> CagIterationState:
    return CagIterationState(
        x=start.x,
        point=start,
        p=-start.g,
        estimate=init_estimate(start.f, start.x, config.L, config.ell),
        i_cg=0,
        ag_ref_gnorm=None,
        bar=start,
        z_tilde=None,
        zAz=0.0,
        g0_norm=start.gnorm,
    )


@np.errstate(over="ignore")
def cag_minimize(
    problem: ObjectiveProblem,
    x0: Vector,
    config: SolverConfig,
    record_iterates: bool = False,
) -> SolverResult:
    """Minimise ``problem`` from ``x0`` until ||grad f|| <= gtol.

    Per-iteration control flow: a forced steepest-descent restart when the
    CG chain reaches ``RESTART_FACTOR`` * n + 1 steps; a CG attempt; on a
    failed progress test a steepest-descent retry; if both fail (or a block
    is already running) an AG step, with the block entered at the current
    iteration and left once the gradient norm has dropped by
    ``AG_EXIT_FACTOR``.

    The evaluation budget is checked at iteration boundaries, so the final
    count may exceed ``max_evals`` by one iteration's cost less one: at
    most 4, or 6 in conjugate-z mode.  Returns the full per-iteration
    trace; the row for the starting point is tagged ``init``.
    """
    counter = EvalCounter()
    start = evaluate_counted(problem, _start_point(x0, problem.n), counter)
    log = RunLog(counter, start, start.f, record_iterates)
    if start.gnorm <= config.gtol:
        return log.finish(Status.CONVERGED)

    state = _initial_state(start, config)
    restart_at = RESTART_FACTOR * problem.n + 1
    try:
        while counter.count < config.max_evals:
            if state.i_cg >= restart_at:
                state = replace(state, p=-state.point.g, i_cg=0)

            kind: StepKind | None = None
            if state.ag_ref_gnorm is None:
                accepted, state = cg_attempt(
                    state, config, problem, counter, use_steepest=False
                )
                if accepted:
                    kind = StepKind.CG if state.z_tilde is None else StepKind.BAR
                else:
                    accepted, state = cg_attempt(
                        state, config, problem, counter, use_steepest=True
                    )
                    if accepted:
                        kind = StepKind.SD

            if kind is None:
                entering = state.ag_ref_gnorm is None
                state = ag_step(state, config, problem, counter)
                kind = StepKind.AG
                row = state.bar
                if entering:
                    state = replace(state, ag_ref_gnorm=row.gnorm)
                if ag_block_exit_test(state):
                    state = return_to_cg(state, config, problem, counter)
            else:
                row = state.point

            log.record(row, state.estimate.phi_star, kind, state.x)
    except _ConvergedAt as c:
        return log.converged(c.point, state.estimate.phi_star, c.kind)
    except NumericalFailure:
        return log.finish(Status.DIVERGED)
    return log.finish(Status.BUDGET_EXHAUSTED)
