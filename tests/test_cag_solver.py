import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cagopt.cag
from cagopt import (
    EvalCounter,
    InvalidSpec,
    ObjectiveProblem,
    ProblemSpec,
    SolverConfig,
    Status,
    StepKind,
    ag_minimize,
    cag_minimize,
    make_abpdn,
    make_huber,
    make_logistic,
    make_quad_diag,
    ncg_minimize,
)
from cagopt.cag import (
    _ConvergedAt,
    _Run,
    ag_block_exit_test,
    ag_step,
    cag_step,
    return_to_cg,
    run_steps,
)
from cagopt.estimate_sequence import nesterov_bound
from cagopt.oracle import Evaluation

from conftest import (
    concave_problem,
    explosive_problem,
    lcg_iterates,
    minimize,
    minimize_with_iterates,
    random_spd_quadratic,
    start_run,
)


def step_counts(result):
    return Counter(kind.value for kind in result.trace.kinds())


class TestAgStep:
    def test_one_dimensional_exact(self):
        # L = ell = 1 gives theta = 1 and x_next = bar_x - g = exact minimum
        prob = ObjectiveProblem(
            name="1d", n=1, evaluate=lambda x: (0.5 * float(x @ x), x.copy()),
            default_L=1.0, default_ell=1.0,
        )
        config = SolverConfig(L=1.0, ell=1.0, gtol=1e-30, max_evals=10)
        run = start_run(prob, np.array([1.0]), config)
        row, kind = ag_step(run)
        assert row is run.bar and kind is StepKind.AG  # the iteration's trace row
        assert abs(run.bar.x[0] - 1.0) <= 1e-15  # combination of equal points
        assert abs(run.x[0]) <= 1e-15            # gradient step lands at 0

    def test_centre_equals_iterate_gives_gradient_step(self, rng):
        # with ell = 0 and v = x the combination point is x itself
        A, b, L, _, qp = random_spd_quadratic(rng, 4, 0.0, 1.0)
        prob = qp.objective(L=L, ell=0.0)
        config = SolverConfig(L=L, ell=0.0, gtol=1e-30, max_evals=10)
        run = start_run(prob, rng.standard_normal(4), config)
        start = run.point
        ag_step(run)
        assert np.allclose(run.bar.x, start.x, atol=1e-14)
        assert np.allclose(run.x, start.x - start.g / L, atol=1e-14)

    def test_rate_bound_on_diag_quadratic(self):
        # oracle: the guaranteed-gap formula, checked on a pure AG run over
        # f = (x1^2 + 100 x2^2)/2 with exact L and ell
        d = np.array([1.0, 100.0])
        prob = ObjectiveProblem(
            name="diag", n=2,
            evaluate=lambda x: (0.5 * float(x @ (d * x)), d * x),
            default_L=100.0, default_ell=1.0,
        )
        config = SolverConfig(L=100.0, ell=1.0, gtol=1e-12, max_evals=10000)
        x0 = np.array([1.0, 1.0])
        run = start_run(prob, x0, config)
        run.ag_ref_gnorm = run.point.gnorm
        dist0 = float(x0 @ x0)
        for k in range(1, 300):
            try:
                ag_step(run)
            except _ConvergedAt:
                break
            fk = prob.evaluate(run.x)[0]
            assert fk <= nesterov_bound(100.0, 1.0, k, dist0) + 1e-12


class TestAgBlockExit:
    def _block_run(self, bar_g, ref):
        """A run whose bar point has gradient ``bar_g``, in an AG block entered at ``ref``."""
        bar = Evaluation(np.zeros(2), 0.0, bar_g, float(np.linalg.norm(bar_g)),
                         float(bar_g @ bar_g))
        run = _Run(None, SolverConfig(L=1.0), EvalCounter(), bar)
        run.ag_ref_gnorm = ref
        return run

    def test_fires_at_quarter(self):
        assert ag_block_exit_test(self._block_run(np.array([2.0, 0.0]), ref=8.0))

    def test_strictly_above_quarter_does_not_fire(self):
        assert not ag_block_exit_test(self._block_run(np.array([2.0001, 0.0]), ref=8.0))


class TestReturnToCg:
    def test_simple_mode_resets_direction(self, rng):
        A, b, L, ell, qp = random_spd_quadratic(rng, 4, 0.0, 1.0)
        prob = qp.objective(L=L, ell=ell)
        config = SolverConfig(L=L, ell=ell, gtol=1e-30, max_evals=100)
        run = start_run(prob, rng.standard_normal(4), config)
        counter = run.counter
        run.ag_ref_gnorm = run.point.gnorm
        ag_step(run)
        before = counter.count
        return_to_cg(run)
        assert counter.count == before + 1
        assert run.ag_ref_gnorm is None
        assert run.i_cg == 0
        assert np.array_equal(run.p, -run.point.g)
        assert run.z_tilde is None

    def test_z_mode_initialises_exact_quadratic_form(self, rng):
        # on a quadratic the gradient-difference formula gives z^T A z exactly
        A, b, L, ell, qp = random_spd_quadratic(rng, 5, 0.0, 1.0)
        prob = qp.objective(L=L, ell=ell)
        config = SolverConfig(L=L, ell=ell, gtol=1e-30, max_evals=100,
                              conjugate_z=True)
        run = start_run(prob, rng.standard_normal(5), config)
        counter = run.counter
        run.ag_ref_gnorm = run.point.gnorm
        ag_step(run)
        before = counter.count
        return_to_cg(run)
        assert counter.count == before + 2  # iterate plus model centre
        z = run.z_tilde
        assert z is not None
        explicit = float(z @ (A @ z))
        assert abs(run.zAz - explicit) <= 1e-10 * max(abs(explicit), 1e-30)

    def test_z_mode_degenerate_centre_falls_back(self, rng):
        # v == x makes z = 0 and zAz = 0: augmentation must stay disabled
        A, b, L, ell, qp = random_spd_quadratic(rng, 3, 0.0, 1.0)
        prob = qp.objective(L=L, ell=ell)
        config = SolverConfig(L=L, ell=ell, gtol=1e-30, max_evals=100,
                              conjugate_z=True)
        run = start_run(prob, rng.standard_normal(3), config)
        assert np.array_equal(run.v, run.x)  # the initial model's centre
        assert not np.shares_memory(run.v, run.x)
        run.ag_ref_gnorm = run.point.gnorm
        return_to_cg(run)
        assert run.z_tilde is None

    def test_ends_the_run_at_a_passing_centre(self):
        # f = ||x||^2 / 2 with the model centre v moved to the minimiser: the
        # iterate fails gtol, the centre passes it and ends the run as an ag row
        prob = ObjectiveProblem(
            name="halfnormsq", n=2, evaluate=lambda x: (0.5 * float(x @ x), x.copy()),
            default_L=1.0,
        )
        config = SolverConfig(L=1.0, gtol=1e-12, conjugate_z=True)
        run = start_run(prob, np.ones(2), config)
        counter = run.counter
        run.v = np.zeros(2)
        with pytest.raises(_ConvergedAt) as info:
            return_to_cg(run)
        assert info.value.kind is StepKind.AG
        assert np.array_equal(info.value.point.x, np.zeros(2))
        assert counter.count == 3  # start, iterate, centre

    def test_model_buffers_never_share_memory_with_a_point(self, monkeypatch):
        # v changes in place and v_spare takes cg_attempt's tentative v: over
        # a cag+z run that enters and leaves AG blocks, neither they nor the
        # work vector may be an iterate, an evaluated point or each other
        exits = []

        def counted_return_to_cg(run):
            exits.append(run.counter.count)
            return_to_cg(run)

        def checked_step(run):
            row = cag_step(run)
            owned = (run.v, run.v_spare, run.work)
            held = (run.x, run.point.x, run.bar.x, row[0].x, run.best.x)
            held += () if run.z_tilde is None else (run.z_tilde,)
            for i, a in enumerate(owned):
                assert not any(np.shares_memory(a, b) for b in owned[i + 1:] + held)
            return row

        monkeypatch.setattr(cagopt.cag, "return_to_cg", counted_return_to_cg)
        res = run_steps(checked_step, make_huber(700, tau=70.0), np.zeros(700),
                        SolverConfig(L=8.0, conjugate_z=True))
        # the golden huber-700 cag+z run
        assert res.status is Status.CONVERGED and res.evaluations == 2983
        assert len(exits) == 7 and {"ag", "bar", "cg"} <= set(step_counts(res))


class TestCagMinimize:
    def test_norm_squared_converges_in_one_iteration(self, rng):
        prob = ObjectiveProblem(
            name="halfnormsq", n=6,
            evaluate=lambda x: (0.5 * float(x @ x), x.copy()),
            default_L=1.0, default_ell=1.0,
        )
        x0 = rng.standard_normal(6)
        res = cag_minimize(prob, x0, SolverConfig(L=1.0, ell=1.0, gtol=1e-10, max_evals=100))
        assert res.status is Status.CONVERGED
        assert res.iterations == 1
        assert np.linalg.norm(res.x_final) <= 1e-10

    def test_converged_at_start(self):
        prob = make_quad_diag(5)
        res = cag_minimize(
            prob, prob.known_xstar, SolverConfig(L=25.0, ell=1.0, gtol=1e-6, max_evals=10)
        )
        assert res.status is Status.CONVERGED
        assert res.iterations == 0
        assert res.evaluations == 1

    def test_quadratic_progress_certificate_and_pure_cg(self, rng):
        A, b, L, ell, qp = random_spd_quadratic(rng, 25, 0.0, 3.0)
        prob = qp.objective(L=L, ell=ell)
        x0 = rng.standard_normal(25)
        res = cag_minimize(prob, x0, SolverConfig(L=L, ell=ell, gtol=1e-9, max_evals=10**5))
        assert res.status is Status.CONVERGED
        kinds = step_counts(res)
        assert kinds.get("ag", 0) == 0 and kinds.get("sd", 0) == 0
        f0 = res.trace.f[0]
        for f, phi_star in zip(res.trace.f[1:], res.trace.phi_star[1:]):
            assert f <= phi_star + 1e-9 * (1.0 + abs(f0))

    def test_overshoot_routes_to_fallback(self):
        # understated smoothness bound on a quartic: the CG attempt fails the
        # progress test and the driver reaches the retry and the AG step
        def quartic(x):
            with np.errstate(over="ignore"):
                return float(x[0] ** 4), 4.0 * x**3

        prob = ObjectiveProblem(name="quartic", n=1, evaluate=quartic, default_L=1.2)
        res = cag_minimize(prob, np.array([1.0]),
                           SolverConfig(L=1.2, ell=0.0, gtol=1e-6, max_evals=60))
        kinds = step_counts(res)
        assert kinds.get("ag", 0) >= 1

    def test_budget_exhaustion_reports_best_iterate(self):
        prob = make_quad_diag(100)
        res = cag_minimize(prob, np.zeros(100),
                           SolverConfig(L=1e4, ell=1.0, gtol=1e-14, max_evals=20))
        assert res.status is Status.BUDGET_EXHAUSTED
        assert res.evaluations >= 20
        assert np.isfinite(res.f_final)
        # best-so-far value matches the minimum over the trace
        assert res.f_final == min(res.trace.f)

    def test_divergence_status_on_overflow(self):
        res = cag_minimize(explosive_problem(), np.array([2.0]),
                           SolverConfig(L=0.01, ell=0.0, gtol=1e-12, max_evals=5000))
        assert res.status is Status.DIVERGED
        assert np.isfinite(res.f_final)

    def test_worst_case_iteration_costs_five_evaluations(self):
        # a failed attempt pair plus the AG step: 2 + 2 + 1 counted calls
        def quartic(x):
            with np.errstate(over="ignore"):
                return float(x[0] ** 4), 4.0 * x**3

        prob = ObjectiveProblem(name="quartic", n=1, evaluate=quartic, default_L=1.2)
        res = cag_minimize(prob, np.array([1.0]),
                           SolverConfig(L=1.2, ell=0.0, gtol=1e-6, max_evals=60))
        assert max(np.diff(res.trace.evals)) <= 5
        assert StepKind.AG in res.trace.kinds(), "expected the fallback ladder to reach an AG step"

    def test_forced_restart_resets_direction_period(self, rng, monkeypatch):
        # RESTART_FACTOR = 1 on a 3-d quadratic forces a steepest restart
        # every 4 accepted steps; the run must still converge
        monkeypatch.setattr(cagopt.cag, "RESTART_FACTOR", 1)
        A, b, L, ell, qp = random_spd_quadratic(rng, 3, 0.0, 2.0)
        prob = qp.objective(L=L, ell=ell)
        res = cag_minimize(prob, rng.standard_normal(3),
                           SolverConfig(L=L, ell=ell, gtol=1e-9, max_evals=10**4))
        assert res.status is Status.CONVERGED

    def test_forced_restart_rule_is_shared_with_ncg(self, monkeypatch):
        # ncg converges on quad n=100 in 263 evaluations; restarting every
        # step (RESTART_FACTOR = 0) turns it into steepest descent, which
        # does not converge within 2,000
        config = SolverConfig(L=1e4, ell=1.0, max_evals=2000)
        assert ncg_minimize(make_quad_diag(100), np.zeros(100), config).evaluations == 263
        monkeypatch.setattr(cagopt.cag, "RESTART_FACTOR", 0)
        res = ncg_minimize(make_quad_diag(100), np.zeros(100), config)
        assert res.status is Status.BUDGET_EXHAUSTED

    @pytest.mark.parametrize("z_mode, evals", [(False, 1034), (True, 1038)])
    def test_stops_at_the_iterate_that_ends_an_ag_block(self, z_mode, evals):
        # with L = 4 on huber 700 the iterate that return_to_cg evaluates has
        # a zero gradient; the run ends there, as an ag row, before the
        # centre (z mode) and the next secant probe are evaluated
        res = cag_minimize(make_huber(700, tau=70.0), np.zeros(700),
                           SolverConfig(L=4.0, conjugate_z=z_mode))
        assert res.status is Status.CONVERGED
        assert (res.iterations, res.evaluations) == (631, evals)
        last = (list(res.trace.kinds())[-1], res.trace.gnorm[-1], res.trace.evals[-1])
        assert last == (StepKind.AG, 0.0, evals)

    def test_huber_z_mode_run_accounting(self):
        # end-to-end conjugate-z run with real AG blocks: the trace deltas
        # partition the counter exactly; plain rows stay within 5 calls and
        # zflag rows within 7 (3 per failed augmented attempt plus the AG
        # step); block re-entry adds the one extra centre evaluation.
        prob = make_huber(1000, tau=100.0)
        res = cag_minimize(prob, np.zeros(1000),
                           SolverConfig(L=8.0, ell=0.0, gtol=1e-6, max_evals=10**6,
                                        conjugate_z=True))
        assert res.status is Status.CONVERGED
        kinds = step_counts(res)
        assert kinds.get("ag", 0) >= 1
        assert res.trace.evals[0] == 1
        assert res.trace.evals[-1] == res.evaluations
        assert max(np.diff(res.trace.evals)) <= 7

    @pytest.mark.parametrize("solver,n", [("cag", 10), ("ncg", 10), ("ag", 10), ("ncg", 1000)])
    def test_record_iterates_aligns_with_trace(self, solver, n):
        # the recording run is the solver's own run, and ncg on quad n=1000
        # ends at a line-search probe, whose point is the last iterate
        prob = make_quad_diag(n)
        res, iterates = minimize_with_iterates(solver, prob, np.zeros(n))
        ref = minimize(solver, prob, np.zeros(n))
        assert res.trace.evals == ref.trace.evals and res.trace.f == ref.trace.f
        assert list(res.trace.kinds()) == list(ref.trace.kinds())
        assert np.array_equal(res.x_final, ref.x_final)
        assert res.status is Status.CONVERGED
        assert len(iterates) == len(res.trace) == res.iterations + 1
        assert np.array_equal(iterates[0], np.zeros(n))
        assert np.array_equal(iterates[-1], res.x_final)

    @pytest.mark.parametrize("z_mode,cost", [(False, 5), (True, 7)])
    def test_budget_overshoot_is_one_iteration_cost_less_one(self, z_mode, cost):
        # rerun with a budget that runs out just after the costliest
        # iteration starts: that iteration runs to its end
        def solve(max_evals):
            return cag_minimize(make_huber(1000, tau=100.0), np.zeros(1000),
                                SolverConfig(L=8.0, ell=0.0, gtol=1e-8, max_evals=max_evals,
                                             conjugate_z=z_mode))

        full = solve(10**6)
        assert full.status is Status.CONVERGED
        deltas = np.diff(full.trace.evals).tolist()
        assert max(deltas) == cost
        start = full.trace.evals[deltas.index(cost)]
        capped = solve(start + 1)
        assert capped.status is Status.BUDGET_EXHAUSTED
        assert capped.evaluations - (start + 1) == cost - 1

    def test_config_validation(self):
        for bad in (
            {"L": 0.0}, {"L": -1.0}, {"L": math.inf}, {"L": math.nan},
            {"L": 1.0, "ell": -1.0}, {"L": 1.0, "ell": 2.0},
            {"L": 1.0, "gtol": 0.0}, {"L": 1.0, "gtol": -1e-8},
            {"L": 1.0, "max_evals": 0},
            {"L": None}, {"L": 1.0, "ell": None},
        ):
            with pytest.raises(InvalidSpec):
                SolverConfig(**bad)
        SolverConfig(L=1.0, ell=1.0, max_evals=1)  # the edges of each range

    def test_config_rejects_L_outside_the_estimate_sequences_range(self):
        for L in (1e-200, 1e-160, 1e-101, 1e101, 1e155, 1e300):
            with pytest.raises(InvalidSpec, match="L must be positive"):
                SolverConfig(L=L)
        SolverConfig(L=1e-100)
        SolverConfig(L=1e100)


@settings(derandomize=True, deadline=None)
@given(n=st.integers(2, 15), seed=st.integers(0, 2**32 - 1))
def test_cag_reduces_to_linear_cg_on_quadratics(n, seed):
    # the paper's claim (i): with exact L and ell on an SPD quadratic every
    # CG step passes the progress test, f <= phi* on every row, and the
    # iterates are those of linear CG.  The spectrum stays in [1, 10]:
    # round-off drift between the two recurrences grows with the condition
    # number (worst of 200 instances: 4e-10 at 10, 6e-4 at 10^2, 2e-2 at
    # 10^3).  A budget of 2n + 1 evaluations stops cag
    # after exactly n iterations, and gtol never stops either solver early.
    A, b, L, ell, qp = random_spd_quadratic(np.random.default_rng(seed), n, 0.0, 1.0)
    res, iterates = minimize_with_iterates("cag", qp.objective(L=L, ell=ell), np.zeros(n),
                                           gtol=1e-300, max_evals=2 * n + 1)
    assert list(res.trace.kinds())[1:] == [StepKind.CG] * n
    assert (np.asarray(res.trace.f) <= np.asarray(res.trace.phi_star)).all()
    scale = np.linalg.norm(np.linalg.solve(A, b))
    ref = lcg_iterates(qp, np.zeros(n), 1e-300, n)
    for x_cag, x_lcg in zip(iterates, ref, strict=True):
        assert np.linalg.norm(x_cag - x_lcg) <= 1e-8 * scale


# Relative round-off slack of the certificate checks below.  f and phi* are
# each a sum of a few rounded terms.  Over cag and ag on 64 drawn logistic,
# huber and abpdn instances (gtol 1e-9, budget 400), every row past the init
# row, where f = phi*_0 exactly, had f - phi* <= -8e-10 * max(1, |f|).
CERT_RTOL = 1e-12


def certified_run(solver, prob):
    """Run ``solver`` from 0 with the problem's own L and ell and a capped
    budget, and check the certificate on every row: f(x_k) <= phi*_k, each
    recorded iterate evaluated outside the run's counter; for cag+z, whose
    progress test may pass on the bar point alone, min(f(x_k), f(bar_k)) <=
    phi*_k.  Returns ``(result, certified)``, ``certified[k]`` being row k's
    left-hand side."""
    bar_f = []
    res, iterates = minimize_with_iterates(solver, prob, np.zeros(prob.n), gtol=1e-9,
                                           max_evals=300, bar_f=bar_f)
    certified = []
    for k, (phi_star, x, f_bar) in enumerate(zip(res.trace.phi_star, iterates, bar_f, strict=True)):
        f = float(prob.evaluate(x)[0])
        if solver == "cag+z":
            f = min(f, f_bar)
        assert f <= phi_star + CERT_RTOL * max(1.0, abs(f)), (k, f, phi_star)
        certified.append(f)
    return res, certified


def newton_minimizer(prob):
    """A minimiser of a smooth, strictly convex ``prob`` and f there, by damped
    Newton from 0 with Armijo backtracking.  The Hessian is formed from forward
    differences of the gradient: an inexact Hessian slows Newton but does not
    move its fixed point g = 0.  It stops once the Newton decrement g^T H^-1 g,
    about 2 (f - f*), falls to 1e-20 max(1, |f|) after a step."""
    x = np.zeros(prob.n)
    f, g = prob.evaluate(x)
    h = 1e-7
    for _ in range(100):
        H = np.column_stack([(prob.evaluate(x + h * e)[1] - g) / h for e in np.eye(prob.n)])
        step = np.linalg.solve(0.5 * (H + H.T), g)
        decrement, t = float(g @ step), 1.0
        while True:
            f_next, g_next = prob.evaluate(x - t * step)
            if f_next <= f - 1e-4 * t * decrement:
                break
            t *= 0.5
        x, f, g = x - t * step, f_next, g_next
        if decrement <= 1e-20 * max(1.0, abs(f)):
            return x, f
    raise AssertionError(f"Newton did not converge on {prob.name}: |g| = {np.linalg.norm(g)}")


def assert_within_nesterov_bound(prob, certified, xstar, fstar):
    """f(x_k) - f* <= ``nesterov_bound``(L, ell, k, |x0 - x*|^2) at every
    certified row k of a run from x0 = 0, for the minimiser x* with f* = f(x*)."""
    dist0_sq = float(xstar @ xstar)
    slack = CERT_RTOL * max(1.0, abs(fstar))
    for k, f in enumerate(certified):
        gap = f - fstar
        bound = nesterov_bound(prob.default_L, prob.default_ell, k, dist0_sq)
        assert gap <= bound + slack, (k, gap, bound)


@pytest.mark.parametrize("solver", ["cag", "cag+z", "ag"])
class TestCertificate:
    """The paper's certificate f(x_k) <= phi*_k (cag+z: min(f(x_k), f(bar_k))
    <= phi*_k) on drawn small instances, and the rate ``nesterov_bound`` that
    it implies, with x* known in closed form (quad), from a Newton solve
    (logistic with a ridge, abpdn) or at ag's final point (huber)."""

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(m=st.integers(1, 40), n=st.integers(1, 20), seed=st.integers(0, 2**16),
           lam=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)))
    def test_logistic(self, solver, m, n, seed, lam):
        prob = make_logistic(m, n, lam=lam, seed=seed)
        _, certified = certified_run(solver, prob)
        if lam > 0:  # without the ridge, separable rows leave no minimiser
            assert_within_nesterov_bound(prob, certified, *newton_minimizer(prob))

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(n=st.integers(2, 40), tau=st.floats(0.05, 10.0))
    def test_huber(self, solver, n, tau):
        # the bound holds for any minimiser, so ag's final point serves; where
        # huber's minimisers form a flat region, g is exactly 0 there
        prob = make_huber(n, tau)
        _, certified = certified_run(solver, prob)
        ref = ag_minimize(prob, np.zeros(n), SolverConfig(prob.default_L, gtol=1e-12,
                                                          max_evals=10**5))
        assert ref.status is Status.CONVERGED
        assert_within_nesterov_bound(prob, certified, ref.x_final, ref.f_final)

    @settings(derandomize=True, deadline=None, max_examples=4)
    @given(n=st.sampled_from([4, 9, 16, 25]))
    def test_abpdn(self, solver, n):
        prob = make_abpdn(n)
        _, certified = certified_run(solver, prob)
        assert_within_nesterov_bound(prob, certified, *newton_minimizer(prob))

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(n=st.integers(2, 30))
    def test_quad_gap_within_nesterov_bound(self, solver, n):
        prob = make_quad_diag(n)
        _, certified = certified_run(solver, prob)
        assert_within_nesterov_bound(prob, certified, prob.known_xstar, prob.known_fstar)


# The most evaluations one trace row may cost: cag's CG attempt and
# steepest-descent retry (probe and step each) and an AG step, conjugate-z
# mode's bar point in each attempt, and ncg's probe and 31 tries.
ROW_COST = {"cag": 5, "cag+z": 7, "ncg": 32, "ag": 1}
SOLVE = {"cag": cag_minimize, "cag+z": cag_minimize, "ncg": ncg_minimize, "ag": ag_minimize}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    case=st.one_of(
        st.integers(2, 20).map(lambda n: ProblemSpec("quad", n)),
        # huber's default tau <= 1 at n <= 10 starts at the minimiser
        st.integers(11, 30).map(lambda n: ProblemSpec("huber", n)),
        st.integers(1, 15).map(lambda n: ProblemSpec("logistic", n)),
        st.sampled_from([4, 9, 16, 25]).map(lambda n: ProblemSpec("abpdn", n)),
        st.sampled_from(["explosive", "concave"]),
    ),
    solver=st.sampled_from(sorted(ROW_COST)),
    scale=st.sampled_from([1.0, 0.1, 0.01, 10.0]),
    budget=st.sampled_from([3, 17, 60, 400]),
)
def test_every_run_keeps_the_run_contract(case, solver, scale, budget):
    # the run contract in cag, at the problem's own L times ``scale``; a
    # warning fails the test too
    if case == "explosive":
        prob, x0 = explosive_problem(), np.array([2.0])
    elif case == "concave":
        prob, x0 = concave_problem(), np.zeros(5)
    else:
        prob = case.build()
        x0 = np.zeros(prob.n)
    L, gtol = prob.default_L * scale, 1e-9
    config = SolverConfig(L, min(prob.default_ell, L), gtol, budget, solver == "cag+z")
    res = SOLVE[solver](prob, x0, config)
    trace, cost = res.trace, ROW_COST[solver]
    deltas = np.diff(trace.evals)

    assert res.iterations == len(trace) - 1
    assert next(trace.kinds()) is StepKind.INIT and trace.evals[0] == 1
    assert ((1 <= deltas) & (deltas <= cost)).all()
    assert res.evaluations <= budget + cost - 1
    assert np.isfinite(trace.f).all() and np.isfinite(trace.gnorm).all()
    assert np.isfinite(res.x_final).all()
    assert float(prob.evaluate(res.x_final)[0]) == res.f_final
    if res.status is Status.CONVERGED:
        assert (res.f_final, res.gnorm_final) == (trace.f[-1], trace.gnorm[-1])
        assert res.gnorm_final <= gtol
    else:
        lowest = trace.f.index(min(trace.f))
        assert (res.f_final, res.gnorm_final) == (trace.f[lowest], trace.gnorm[lowest])
    if res.status in (Status.CONVERGED, Status.BUDGET_EXHAUSTED):
        assert trace.evals[-1] == res.evaluations
    else:
        assert trace.evals[-1] < res.evaluations
