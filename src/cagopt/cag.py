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
each new iterate (one extra evaluation per iteration).  It is off by
default: the golden ``quad-100`` run takes 263 evaluations in both modes,
the golden ``huber-700`` 2,355 against 2,983 in z mode, and huber 5000
11,769 against 20,477.

Run contract
------------
``run_steps`` runs ``cag_minimize``, ``baselines.ncg_minimize`` and
``baselines.ag_minimize``, each with its own per-iteration step, called as
``step(run)`` on the run's one ``_Run``.  That object holds the problem,
the ``SolverConfig``, the counter, ||g(x0)|| and the iteration state, which
the step updates in place; it applies the gtol test (``_Run.evaluate``),
owns the state's two shared transitions (``restart_chain`` and the
accepted-step ``commit``), records the trace and builds the result.  A run
ends with a status, or raises ``InvalidSpec`` on malformed settings or an
x0 that lacks shape (n,) or finite entries.  A start whose f or gradient
norm is not finite ends it ``diverged`` at x0 after that one evaluation,
with an ``init`` row of NaN f, ||g|| and phi*.  The budget is checked
between iterations, so the count may exceed ``max_evals`` by one
iteration's cost less one.  A CG chain restarts from steepest descent after
``RESTART_FACTOR`` * n + 1 steps.  The trace opens with an ``init`` row for
x0 and adds one row per iteration; ``iterations`` counts the rows after it.
A run is ``converged`` once any evaluated point has ||grad f|| <= gtol (a
secant probe, a candidate, a bar or AG combination point, or the iterate or
model centre that ``return_to_cg`` evaluates), and reports that point in
its last trace row; else it ends ``diverged`` (non-finite value, gradient
norm or phi*), ``line_search_failure`` (ncg's backtracking) or
``budget_exhausted``, and reports the lowest-f point among its trace rows,
not among all evaluated points.  On a converged or budget exit the
evaluation deltas between consecutive rows partition the final count
exactly; a diverged or line-search-failure exit records no row for the
iteration that ends the run, whose evaluations the last row therefore
leaves out.  ncg's phi* column is NaN.  Of the state, ``ncg_step`` writes
only ``x``, ``point``, ``p`` and ``i_cg``, ``ag_step`` ``x``, the model
(``gamma``, ``v``, ``phi_star``) and ``bar``, and ``cag_step`` every field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidSpec, NumericalFailure
from .estimate_sequence import advance_estimate, compute_theta_gamma
from .oracle import EvalCounter, Evaluation, ObjectiveProblem, Vector, evaluate_counted
from .oracle import _has_bool, check_moduli
from .results import SolverResult, Status, StepKind, Trace

DEFAULT_GTOL = 1e-8
# AG spends one evaluation per iteration and the CG-type solvers about two,
# so a single default budget covers both conventions.
DEFAULT_MAX_EVALS = 1_000_000
RESTART_FACTOR = 10  # a CG chain restarts after RESTART_FACTOR * n + 1 steps
AG_EXIT_FACTOR = 4.0  # gradient-norm reduction that ends an AG block


def check_settings(L: float | None, ell: float | None, gtol: float, max_evals: int,
                   budget: str = "max_evals") -> None:
    """Raise ``InvalidSpec`` unless L and ell pass ``check_moduli``, gtol > 0
    and max_evals is an integer >= 1, and neither gtol nor max_evals is a bool;
    ``budget`` names max_evals in the message."""
    check_moduli(L, ell)
    if _has_bool(gtol) or not gtol > 0:
        raise InvalidSpec(f"gtol must be positive, got {gtol}")
    if not (np.issubdtype(type(max_evals), np.integer) and max_evals >= 1):
        raise InvalidSpec(f"{budget} must be an integer of at least 1, got {max_evals}")


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
    """A float copy of ``x0``; ``InvalidSpec`` unless it has shape (n,) and finite entries."""
    x = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise InvalidSpec(f"x0 must have shape ({n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidSpec("x0 has a non-finite entry")
    return x


class _ConvergedAt(Exception):
    """Internal control flow: a termination test passed at a just-evaluated point."""

    def __init__(self, point: Evaluation, kind: StepKind):
        super().__init__("converged")
        self.point = point
        self.kind = kind


class _LineSearchFailed(Exception):
    """Internal control flow: a line search found no acceptable step."""


@dataclass(init=False, slots=True)
class _Run:
    """One run: the problem, its checked settings, the counter of its
    evaluations and ||g(x0)|| (read by ``hz_beta``'s safeguard); the trace and
    ``best``, the lowest-f point among the trace's rows; and the iteration
    state, which every step updates in place.

    ``point`` is the last evaluated iterate and ``x`` the current one; they
    differ only during an AG block, whose iterates are not evaluated until
    the block exits.  ``p`` is the search direction, ``i_cg`` the number of
    steps since the CG chain last restarted.  ``gamma``, ``v`` and
    ``phi_star`` hold the model phi(x) = phi_star + (gamma/2)||x - v||^2.
    ``v`` changes in place, so it, ``v_spare`` (``cg_attempt``'s tentative
    v, swapped in on acceptance) and ``work`` (``advance_estimate``'s
    scratch) share memory with no point and no other array.  ``bar`` is the
    evaluated anchor of the *next* estimate-sequence update: the z-augmented
    point in conjugate-z mode, the combination point within an AG block,
    else ``point``.  The run is in an AG block exactly when ``ag_ref_gnorm``
    is set, and the z augmentation is active exactly when ``z_tilde`` is.
    """

    problem: ObjectiveProblem
    config: SolverConfig
    counter: EvalCounter
    g0_norm: float
    trace: Trace
    best: Evaluation
    x: Vector
    point: Evaluation
    p: Vector
    i_cg: int
    gamma: float
    v: Vector
    v_spare: Vector
    work: Vector
    phi_star: float
    bar: Evaluation
    ag_ref_gnorm: float | None  # ||bar g|| at AG-block entry, reference for the exit test
    z_tilde: Vector | None
    zAz: float

    def __init__(self, problem: ObjectiveProblem, config: SolverConfig, counter: EvalCounter,
                 start: Evaluation, phi_star0: float | None = None):
        """The run at the counted evaluation ``start`` of x0: an empty trace, a
        fresh CG chain, the model phi_0 = (L, a copy of x0, f(x0) or
        ``phi_star0``), and neither an AG block nor the z augmentation."""
        self.problem, self.config, self.counter = problem, config, counter
        self.g0_norm, self.trace = start.gnorm, Trace()
        self.x = start.x
        self.best = self.point = self.bar = start
        self.restart_chain()
        self.gamma, self.v = float(config.L), start.x.copy()
        self.v_spare, self.work = np.empty_like(self.v), np.empty_like(self.v)
        self.phi_star = start.f if phi_star0 is None else phi_star0
        self.ag_ref_gnorm, self.z_tilde, self.zAz = None, None, 0.0

    def restart_chain(self) -> None:
        """Restart the CG chain from steepest descent at ``point``."""
        self.p, self.i_cg = -self.point.g, 0

    def commit(self, new: Evaluation, p: Vector, i_cg: int, beta: float) -> None:
        """Accept the step along ``p``, the chain's ``i_cg``-th direction, to
        ``new``: the next direction is beta p - g_new, and beta = 0 restarts
        the chain."""
        self.x, self.point = new.x, new
        self.p = np.multiply(beta, p)
        self.p -= new.g
        self.i_cg = 0 if beta == 0.0 else i_cg + 1

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

    def record(self, point: Evaluation, kind: StepKind) -> None:
        """Append the trace's next row, for the evaluated ``point``, with the
        count read from the counter and the model's phi*, and keep the
        lowest-f point as ``best``."""
        self.trace.append(self.counter.count, point.f, point.gnorm, self.phi_star, kind)
        if point.f < self.best.f:
            self.best = point

    def finish(self, status: Status) -> SolverResult:
        """The result that reports ``best``, the point of a converged run's last row."""
        x, f, _, gnorm, _ = self.best
        return SolverResult(status, x, f, gnorm, self.counter.count, self.trace)


def secant_alpha(run: _Run, point: Evaluation, p: Vector,
                 kind: StepKind) -> tuple[float, Vector, float] | None:
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
    x_probe = p / L
    x_probe += point.x
    probe = run.evaluate(x_probe, kind)
    Ap = np.subtract(probe.g, point.g)
    Ap *= L
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
    w = p * (2.0 * float(y @ y) / yp)
    beta1 = float(np.subtract(y, w, out=w) @ g_next) / yp
    beta2 = -1.0 / (math.sqrt(float(p @ p)) * min(0.01 * g0_norm, new.gnorm))
    return max(beta1, beta2)


def z_conjugate_update(z_tilde: Vector, zAz: float, p: Vector, Ap: Vector,
                       pAp: float) -> tuple[Vector, float]:
    """Re-conjugate z against the newest search direction.

    delta = <z, Ap> / pAp removes the p-component of z in the A-inner
    product; the quadratic form follows by expansion:
    zAz' = zAz - 2 delta <z, Ap> + delta^2 pAp.  The caller ensures pAp > 0.
    """
    zAp = float(z_tilde @ Ap)
    delta = zAp / pAp
    z_next = np.multiply(delta, p)
    np.subtract(z_tilde, z_next, out=z_next)
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
    bar_x = np.multiply(alpha_t, z_tilde)
    bar_x += new.x
    return run.evaluate(bar_x, StepKind.BAR)


def cg_attempt(run: _Run, use_steepest: bool) -> tuple[bool, _Run]:
    """One conjugate gradient (or steepest-descent retry) attempt.

    Evaluates the secant probe and the candidate iterate, forms the bar
    point (the iterate itself, or the z-augmented minimiser in conjugate-z
    mode), advances the estimate sequence anchored at the *previous* bar
    point, and accepts iff f_next <= phi*_next or bar_f_next <= phi*_next.

    Returns (accepted, run), ``run`` being the object passed in.  The
    attempt fails (False) on nonpositive curvature pAp <= 0 at the probe,
    on a failed progress test, or on a degenerate direction update
    <y, p> = 0 after a passed one.  An accepted attempt writes every state
    field but ``ag_ref_gnorm``.  A failed progress test writes only
    ``z_tilde``/``zAz``, whose recurrences advance unconditionally; the
    other two failures and a run that ends inside the attempt write none.
    """
    config = run.config
    point = run.point
    p, i_cg, kind = (-point.g, 0, StepKind.SD) if use_steepest else (run.p, run.i_cg, StepKind.CG)

    secant = secant_alpha(run, point, p, kind)
    if secant is None:
        return False, run
    alpha, Ap, pAp = secant

    x_next = np.multiply(alpha, p)
    x_next += point.x
    new = run.evaluate(x_next, kind)

    bar = new
    z_tilde, zAz = run.z_tilde, run.zAz
    if z_tilde is not None:
        z_tilde, zAz = z_conjugate_update(z_tilde, zAz, p, Ap, pAp)
        if zAz <= 0.0 or not math.isfinite(zAz):
            # z fell into the span of the block's directions; drop the
            # augmentation and continue with the plain test.
            z_tilde, zAz = None, 0.0
        else:
            bar = bar_augment(run, new, z_tilde, zAz)

    theta, gamma_next = compute_theta_gamma(config.L, config.ell, run.gamma)
    # The model update is anchored at the previous bar point; the fresh bar
    # point only enters the acceptance test (and becomes next iteration's anchor).
    phi_next = advance_estimate(run.gamma, run.v, run.phi_star, theta, gamma_next, config.ell,
                                run.bar, run.v_spare, run.work)

    if not (new.f <= phi_next or bar.f <= phi_next):
        run.z_tilde, run.zAz = z_tilde, zAz
        return False, run

    beta = hz_beta(point.g, new, p, run.g0_norm)
    if beta is None:
        return False, run

    run.commit(new, p, i_cg, beta)
    run.gamma, run.phi_star, run.bar = gamma_next, phi_next, bar
    run.v, run.v_spare = run.v_spare, run.v
    run.z_tilde, run.zAz = z_tilde, zAz
    return True, run


def ag_step(run: _Run) -> tuple[Evaluation, StepKind]:
    """One accelerated-gradient iteration, of cag's AG blocks and of ``ag_minimize``.

    Forms the combination point bar_x = (theta gamma v + gamma_next x) /
    (gamma + theta ell), evaluates there (one counted evaluation), takes the
    gradient step x_next = bar_x - bar_g / L and advances the model anchored
    at bar_x.  Writes ``x``, the model (v in place) and ``bar`` (none if the
    run ends at bar_x) and returns the row ``(bar, AG)``.  The new iterate is
    deliberately left unevaluated: ``point`` is stale until the block exits.
    """
    config = run.config
    gamma = run.gamma
    theta, gamma_next = compute_theta_gamma(config.L, config.ell, gamma)
    # x_next holds gamma_next x until bar_x is formed
    bar_x = np.multiply(theta * gamma, run.v)
    x_next = np.multiply(gamma_next, run.x)
    bar_x += x_next
    bar_x /= gamma + theta * config.ell
    bar = run.evaluate(bar_x, StepKind.AG)
    run.phi_star = advance_estimate(
        gamma, run.v, run.phi_star, theta, gamma_next, config.ell, bar, run.v, run.work)
    run.gamma = gamma_next
    np.divide(bar.g, config.L, out=x_next)
    run.x = np.subtract(bar.x, x_next, out=x_next)
    run.bar = bar
    return bar, StepKind.AG


def ag_block_exit_test(run: _Run) -> bool:
    """True once the in-block gradient norm fell to the entry norm / ``AG_EXIT_FACTOR``."""
    return run.bar.gnorm <= run.ag_ref_gnorm / AG_EXIT_FACTOR


def return_to_cg(run: _Run) -> None:
    """Leave the AG block: evaluate the pending iterate and reset the CG chain.

    Costs one counted evaluation at the iterate, plus one more at the model
    centre v in conjugate-z mode, where z = v - x is initialised together
    with zAz = <grad f(v) - grad f(x), z> (exact z^T A z on a quadratic).
    A nonpositive or vanishing zAz disables the augmentation for this block.
    Writes every state field but ``x`` and the model.  Either evaluation
    ends the run, as an ``ag`` row, when it passes gtol.
    """
    point = run.evaluate(run.x, StepKind.AG)
    run.point = run.bar = point
    run.restart_chain()
    run.ag_ref_gnorm, run.z_tilde, run.zAz = None, None, 0.0
    if run.config.conjugate_z:
        z = run.v - run.x
        g_v = run.evaluate(run.v.copy(), StepKind.AG).g  # v changes in place
        zAz = float(z @ (g_v - point.g))
        if zAz > 0.0 and float(z @ z) > 0.0:
            run.z_tilde, run.zAz = z, zAz


def cag_step(run: _Run) -> tuple[Evaluation, StepKind]:
    """One iteration of the fallback ladder: a CG attempt; on a failed
    progress test a steepest-descent retry; if both fail (or a block is
    already running) an AG step, with the block entered here and left once
    the gradient norm has dropped by ``AG_EXIT_FACTOR``.  Returns the row."""
    if run.ag_ref_gnorm is None:
        if cg_attempt(run, use_steepest=False)[0]:
            return run.point, StepKind.CG if run.z_tilde is None else StepKind.BAR
        if cg_attempt(run, use_steepest=True)[0]:
            return run.point, StepKind.SD
    row, kind = ag_step(run)
    if run.ag_ref_gnorm is None:
        run.ag_ref_gnorm = row.gnorm
    if ag_block_exit_test(run):
        return_to_cg(run)
    return row, kind


@np.errstate(over="ignore")
def run_steps(step: Callable[[_Run], tuple[Evaluation, StepKind]], problem: ObjectiveProblem,
              x0: Vector, config: SolverConfig, phi_star0: float | None = None) -> SolverResult:
    """Run from ``x0`` under the run contract above.  Each call ``step(run)``
    is one iteration: it updates the run's iteration state in place and
    returns the (point, kind) of its trace row.  ``phi_star0`` replaces
    phi*_0 = f(x0)."""
    counter, x = EvalCounter(), _start_point(x0, problem.n)
    try:
        start = evaluate_counted(problem, x, counter)
    except NumericalFailure:
        trace = Trace()
        trace.append(counter.count, math.nan, math.nan, math.nan, StepKind.INIT)
        return SolverResult(Status.DIVERGED, x, math.nan, math.nan, counter.count, trace)
    run = _Run(problem, config, counter, start, phi_star0)
    run.record(start, StepKind.INIT)
    if start.gnorm <= config.gtol:
        return run.finish(Status.CONVERGED)

    restart_at = RESTART_FACTOR * problem.n + 1
    try:
        while counter.count < config.max_evals:
            if run.i_cg >= restart_at:
                run.restart_chain()
            run.record(*step(run))
    except _ConvergedAt as c:
        run.record(c.point, c.kind)
        run.best = c.point
        return run.finish(Status.CONVERGED)
    except NumericalFailure:
        return run.finish(Status.DIVERGED)
    except _LineSearchFailed:
        return run.finish(Status.LINE_SEARCH_FAILURE)
    return run.finish(Status.BUDGET_EXHAUSTED)


def cag_minimize(problem: ObjectiveProblem, x0: Vector, config: SolverConfig) -> SolverResult:
    """Minimise ``problem`` from ``x0`` by ``cag_step`` iterations until ||grad f|| <= gtol."""
    return run_steps(cag_step, problem, x0, config)
