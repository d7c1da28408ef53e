"""Guarded nonlinear conjugate gradient with accelerated-gradient fallback.

Each iteration first attempts a conjugate gradient step with a one-probe
secant line search (exact on quadratics).  The step counts as progress only
if the new function value, or the value at an augmented "bar" point in
conjugate-z mode, stays below the running minimum phi* of a Nesterov
estimate sequence.  When the test fails, the step is retried in the
steepest-descent direction; when that fails too, the solver switches to a
block of accelerated-gradient iterations, which reduce phi* by
construction, and returns to CG once the gradient norm within the block has
dropped by the factor ``AG_EXIT_FACTOR``.

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

Run contract
------------
``run_steps`` runs ``cag_minimize``, ``baselines.ncg_minimize`` and
``baselines.ag_minimize``, each with its own per-iteration step, called as
``step(state, run)``: the step updates the ``CagIterationState`` in place
and evaluates through the ``_Run``, which holds the problem, the
``SolverConfig``, the counter and ||g(x0)||, and applies the gtol test
(``_Run.evaluate``).  It evaluates a copy of x0, which must have shape
(n,); a non-finite start raises ``NumericalFailure``.  The budget is
checked between iterations, so the count may exceed ``max_evals`` by one
iteration's cost less one.  A CG chain restarts from steepest descent
after ``RESTART_FACTOR`` * n + 1 steps.  A run is ``converged`` once any
evaluated point has ||grad f|| <= gtol (a secant probe, a candidate, a bar
or AG combination point, or the iterate or model centre that
``return_to_cg`` evaluates), and reports that point in its last trace
row; else it ends ``diverged`` (non-finite value, gradient norm or phi*),
``line_search_failure`` (ncg's backtracking) or ``budget_exhausted``, and
reports the lowest-f evaluated point.  ncg's phi* column is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidSpec, NumericalFailure
from .estimate_sequence import (
    EstimateState,
    advance_estimate,
    compute_theta_gamma,
    init_estimate,
)
from .oracle import EvalCounter, Evaluation, ObjectiveProblem, Vector, evaluate_counted
from .oracle import check_moduli
from .results import RunLog, SolverResult, Status, StepKind

DEFAULT_GTOL = 1e-8
# AG spends one evaluation per iteration and the CG-type solvers about two,
# so a single default budget covers both conventions.
DEFAULT_MAX_EVALS = 1_000_000
RESTART_FACTOR = 10  # a CG chain restarts after RESTART_FACTOR * n + 1 steps
AG_EXIT_FACTOR = 4.0  # gradient-norm reduction that ends an AG block


def check_settings(L: float | None, ell: float | None, gtol: float, max_evals: int) -> None:
    """Raise ``InvalidSpec`` unless L and ell pass ``check_moduli``, gtol > 0
    and max_evals >= 1."""
    check_moduli(L, ell)
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
        if self.L is None or self.ell is None:
            raise InvalidSpec(f"L and ell must be numbers, got L={self.L}, ell={self.ell}")
        check_settings(self.L, self.ell, self.gtol, self.max_evals)


def _start_point(x0: Vector, n: int) -> Vector:
    """A float copy of ``x0``, which must have shape (n,); else ``InvalidSpec``."""
    x = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise InvalidSpec(f"x0 must have shape ({n},), got {x.shape}")
    return x


@dataclass(slots=True)
class CagIterationState:
    """Per-iteration state of a run, updated in place by the steps.

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


class _ConvergedAt(Exception):
    """Internal control flow: a termination test passed at a just-evaluated point."""

    def __init__(self, point: Evaluation, kind: StepKind):
        super().__init__("converged")
        self.point = point
        self.kind = kind


class _LineSearchFailed(Exception):
    """Internal control flow: a line search found no acceptable step."""


@dataclass(frozen=True, slots=True)
class _Run:
    """What every step of one run reads and never replaces: the problem, its
    checked settings, the counter of its evaluations and the gradient norm
    at the start, which ``hz_beta``'s safeguard reads."""

    problem: ObjectiveProblem
    config: SolverConfig
    counter: EvalCounter
    g0_norm: float

    def evaluate(self, x: Vector, kind: StepKind) -> Evaluation:
        """Counted evaluation at x that ends the run when ||grad f(x)|| <= gtol.

        Raises ``_ConvergedAt`` carrying the evaluation and the step kind of
        the row that reports it when the test passes, and ``NumericalFailure``
        (from ``evaluate_counted``) when the value or the gradient norm is
        non-finite.
        """
        point = evaluate_counted(self.problem, x, self.counter)
        if point.gnorm <= self.config.gtol:
            raise _ConvergedAt(point, kind)
        return point


def secant_alpha(
    run: _Run, point: Evaluation, p: Vector, kind: StepKind
) -> tuple[float, Vector, float] | None:
    """Secant step length from a single probe at x + p/L, x = ``point.x`` and
    L = ``run.config.L``.

    The gradient difference gives a generalized curvature product
    Ap = L (grad f(x + p/L) - g); on a quadratic it equals the exact A p, so
    alpha = -<g, p> / <p, Ap> is the exact line minimiser there.

    Returns (alpha, Ap, pAp), or None when pAp <= 0.  Costs one counted
    evaluation, and ends the run at the probe (as a ``kind`` row) when its
    gradient passes gtol.
    """
    L = run.config.L
    probe = run.evaluate(point.x + p / L, kind)
    Ap = L * (probe.g - point.g)
    pAp = float(p @ Ap)
    if pAp <= 0.0:
        return None
    alpha = -float(point.g @ p) / pAp
    return alpha, Ap, pAp


def hz_beta(g: Vector, new: Evaluation, p: Vector, g0_norm: float) -> float | None:
    """Hager-Zhang conjugacy coefficient with the negative lower safeguard.

    With g_next = ``new.g`` and y = g_next - g:
    beta1 = <y - p * 2||y||^2 / <y,p>, g_next> / <y,p>
    beta2 = -1 / (||p|| * min(0.01 * g0_norm, ||g_next||))
    returns max(beta1, beta2), or None when <y, p> = 0.
    """
    g_next = new.g
    y = g_next - g
    yp = float(y @ p)
    if yp == 0.0:
        return None
    beta1 = float((y - p * (2.0 * float(y @ y) / yp)) @ g_next) / yp
    beta2 = -1.0 / (math.sqrt(float(p @ p)) * min(0.01 * g0_norm, new.gnorm))
    return max(beta1, beta2)


def z_conjugate_update(
    z_tilde: Vector, zAz: float, p: Vector, Ap: Vector, pAp: float
) -> tuple[Vector, float]:
    """Re-conjugate z against the newest search direction.

    delta = <z, Ap> / pAp removes the p-component of z in the A-inner
    product; the quadratic form follows by expansion:
    zAz' = zAz - 2 delta <z, Ap> + delta^2 pAp.  The caller ensures pAp > 0.
    """
    zAp = float(z_tilde @ Ap)
    delta = zAp / pAp
    z_next = z_tilde - delta * p
    zAz_next = zAz - 2.0 * delta * zAp + delta * delta * pAp
    return z_next, zAz_next


def bar_augment(run: _Run, new: Evaluation, z_tilde: Vector, zAz: float) -> Evaluation:
    """Line minimiser along z through the new iterate, evaluated.

    alpha_t = -<g_next, z> / zAz with g_next = ``new.g``; returns the
    evaluation at bar_x = x_next + alpha_t z.  Costs one counted evaluation,
    and ends the run there (as a ``bar`` row) when the gradient passes
    gtol.  The caller ensures zAz > 0.
    """
    alpha_t = -float(new.g @ z_tilde) / zAz
    return run.evaluate(new.x + alpha_t * z_tilde, StepKind.BAR)


def cg_attempt(
    state: CagIterationState, run: _Run, use_steepest: bool
) -> tuple[bool, CagIterationState]:
    """One conjugate gradient (or steepest-descent retry) attempt.

    Evaluates the secant probe and the candidate iterate, forms the bar
    point (the iterate itself, or the z-augmented minimiser in conjugate-z
    mode), advances the estimate sequence anchored at the *previous* bar
    point, and accepts iff f_next <= phi*_next or bar_f_next <= phi*_next.

    Returns (accepted, state), ``state`` being the object passed in.  The
    attempt fails (False) on nonpositive curvature pAp <= 0 at the probe,
    on a failed progress test, or on a degenerate direction update
    <y, p> = 0 after a passed one.  An accepted attempt writes every field
    but ``ag_ref_gnorm``.  A failed progress test writes only
    ``z_tilde``/``zAz``, whose recurrences advance unconditionally;
    the other two failures and a run that ends inside the attempt write none.
    """
    config = run.config
    point = state.point
    p = -point.g if use_steepest else state.p
    i_cg = 0 if use_steepest else state.i_cg
    kind = StepKind.SD if use_steepest else StepKind.CG

    secant = secant_alpha(run, point, p, kind)
    if secant is None:
        return False, state
    alpha, Ap, pAp = secant

    new = run.evaluate(point.x + alpha * p, kind)

    bar = new
    z_tilde, zAz = state.z_tilde, state.zAz
    if z_tilde is not None:
        z_tilde, zAz = z_conjugate_update(z_tilde, zAz, p, Ap, pAp)
        if zAz <= 0.0 or not math.isfinite(zAz):
            # z fell into the span of the block's directions; drop the
            # augmentation and continue with the plain test.
            z_tilde, zAz = None, 0.0
        else:
            bar = bar_augment(run, new, z_tilde, zAz)

    theta, gamma_next = compute_theta_gamma(config.L, config.ell, state.estimate.gamma)
    # The model update is anchored at the previous bar point; the fresh bar
    # point only enters the acceptance test (and becomes next iteration's anchor).
    est_next = advance_estimate(state.estimate, theta, gamma_next, config.ell, state.bar)

    if not (new.f <= est_next.phi_star or bar.f <= est_next.phi_star):
        state.z_tilde, state.zAz = z_tilde, zAz
        return False, state

    beta = hz_beta(point.g, new, p, run.g0_norm)
    if beta is None:
        return False, state

    state.x = new.x
    state.point = new
    state.p = -new.g + beta * p
    state.estimate = est_next
    state.i_cg = 0 if beta == 0.0 else i_cg + 1
    state.bar = bar
    state.z_tilde, state.zAz = z_tilde, zAz
    return True, state


def ag_step(state: CagIterationState, run: _Run) -> tuple[Evaluation, StepKind]:
    """One accelerated-gradient iteration, of cag's AG blocks and of ``ag_minimize``.

    Forms the combination point bar_x = (theta gamma v + gamma_next x) /
    (gamma + theta ell), evaluates there (one counted evaluation), takes the
    gradient step x_next = bar_x - bar_g / L and advances the model anchored
    at bar_x.  Writes ``x``, ``estimate`` and ``bar`` (none if the run ends
    at bar_x) and returns the row ``(bar, AG)``.  The new iterate is
    deliberately left unevaluated: ``point`` is stale until the block exits.
    """
    config = run.config
    est = state.estimate
    theta, gamma_next = compute_theta_gamma(config.L, config.ell, est.gamma)
    bar_x = (theta * est.gamma * est.v + gamma_next * state.x) / (
        est.gamma + theta * config.ell
    )
    bar = run.evaluate(bar_x, StepKind.AG)
    state.estimate = advance_estimate(est, theta, gamma_next, config.ell, bar)
    state.x = bar.x - bar.g / config.L
    state.bar = bar
    return bar, StepKind.AG


def ag_block_exit_test(state: CagIterationState) -> bool:
    """True once the in-block gradient norm fell to the entry norm / ``AG_EXIT_FACTOR``."""
    return state.bar.gnorm <= state.ag_ref_gnorm / AG_EXIT_FACTOR


def return_to_cg(state: CagIterationState, run: _Run) -> None:
    """Leave the AG block: evaluate the pending iterate and reset the CG chain.

    Costs one counted evaluation at the iterate, plus one more at the model
    centre v in conjugate-z mode, where z = v - x is initialised together
    with zAz = <grad f(v) - grad f(x), z> (exact z^T A z on a quadratic).
    A nonpositive or vanishing zAz disables the augmentation for this block.
    Writes every field but ``x`` and ``estimate``.  Either evaluation ends
    the run, as an ``ag`` row, when it passes gtol.
    """
    point = run.evaluate(state.x, StepKind.AG)
    state.point = state.bar = point
    state.p, state.i_cg = -point.g, 0
    state.ag_ref_gnorm = None
    state.z_tilde, state.zAz = None, 0.0
    if run.config.conjugate_z:
        z = state.estimate.v - state.x
        g_v = run.evaluate(state.estimate.v, StepKind.AG).g
        zAz = float(z @ (g_v - point.g))
        if zAz > 0.0 and float(z @ z) > 0.0:
            state.z_tilde, state.zAz = z, zAz


def cag_step(state: CagIterationState, run: _Run) -> tuple[Evaluation, StepKind]:
    """One iteration of the fallback ladder: a CG attempt; on a failed
    progress test a steepest-descent retry; if both fail (or a block is
    already running) an AG step, with the block entered here and left once
    the gradient norm has dropped by ``AG_EXIT_FACTOR``.  Returns the row."""
    if state.ag_ref_gnorm is None:
        if cg_attempt(state, run, use_steepest=False)[0]:
            return state.point, StepKind.CG if state.z_tilde is None else StepKind.BAR
        if cg_attempt(state, run, use_steepest=True)[0]:
            return state.point, StepKind.SD
    row, kind = ag_step(state, run)
    if state.ag_ref_gnorm is None:
        state.ag_ref_gnorm = row.gnorm
    if ag_block_exit_test(state):
        return_to_cg(state, run)
    return row, kind


def _initial_state(
    start: Evaluation, config: SolverConfig, phi_star0: float | None = None
) -> CagIterationState:
    return CagIterationState(
        x=start.x,
        point=start,
        p=-start.g,
        estimate=init_estimate(start.f if phi_star0 is None else phi_star0, start.x, config.L),
        i_cg=0,
        ag_ref_gnorm=None,
        bar=start,
        z_tilde=None,
        zAz=0.0,
    )


@np.errstate(over="ignore")
def run_steps(
    step: Callable[[CagIterationState, _Run], tuple[Evaluation, StepKind]],
    problem: ObjectiveProblem,
    x0: Vector,
    config: SolverConfig,
    phi_star0: float | None = None,
) -> SolverResult:
    """Run from ``x0`` under the run contract above.  Each call
    ``step(state, run)`` is one iteration: it updates ``state`` in place and
    returns the (point, kind) of its trace row.  ``phi_star0`` replaces
    phi*_0 = f(x0)."""
    counter = EvalCounter()
    start = evaluate_counted(problem, _start_point(x0, problem.n), counter)
    run = _Run(problem, config, counter, start.gnorm)
    state = _initial_state(start, config, phi_star0)
    log = RunLog(counter, start, state.estimate.phi_star)
    if start.gnorm <= config.gtol:
        return log.finish(Status.CONVERGED)

    restart_at = RESTART_FACTOR * problem.n + 1
    try:
        while counter.count < config.max_evals:
            if state.i_cg >= restart_at:
                state.p, state.i_cg = -state.point.g, 0
            row, kind = step(state, run)
            log.record(row, state.estimate.phi_star, kind)
    except _ConvergedAt as c:
        return log.converged(c.point, state.estimate.phi_star, c.kind)
    except NumericalFailure:
        return log.finish(Status.DIVERGED)
    except _LineSearchFailed:
        return log.finish(Status.LINE_SEARCH_FAILURE)
    return log.finish(Status.BUDGET_EXHAUSTED)


def cag_minimize(problem: ObjectiveProblem, x0: Vector, config: SolverConfig) -> SolverResult:
    """Minimise ``problem`` from ``x0`` by ``cag_step`` iterations until ||grad f|| <= gtol."""
    return run_steps(cag_step, problem, x0, config)
