import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cagopt.cag
from cagopt import (
    InvalidSpec,
    ObjectiveProblem,
    SolverConfig,
    Status,
    StepKind,
    cag_minimize,
    make_abpdn,
    make_huber,
    make_logistic,
    make_quad_diag,
    ncg_minimize,
)
from cagopt.cag import (
    CagIterationState,
    _ConvergedAt,
    ag_block_exit_test,
    ag_step,
    return_to_cg,
)
from cagopt.estimate_sequence import init_estimate, nesterov_bound
from cagopt.oracle import Evaluation

from conftest import (
    lcg_iterates,
    minimize,
    minimize_with_iterates,
    random_spd_quadratic,
    start_run,
)


def step_counts(result):
    return Counter(rec.step.value for rec in result.trace)


class TestAgStep:
    def test_one_dimensional_exact(self):
        # L = ell = 1 gives theta = 1 and x_next = bar_x - g = exact minimum
        prob = ObjectiveProblem(
            name="1d", n=1, evaluate=lambda x: (0.5 * float(x @ x), x.copy()),
            default_L=1.0, default_ell=1.0,
        )
        config = SolverConfig(L=1.0, ell=1.0, gtol=1e-30, max_evals=10)
        state, run = start_run(prob, np.array([1.0]), config)
        row, kind = ag_step(state, run)
        assert row is state.bar and kind is StepKind.AG  # the iteration's trace row
        assert abs(state.bar.x[0] - 1.0) <= 1e-15  # combination of equal points
        assert abs(state.x[0]) <= 1e-15            # gradient step lands at 0

    def test_centre_equals_iterate_gives_gradient_step(self, rng):
        # with ell = 0 and v = x the combination point is x itself
        A, b, L, _, qp = random_spd_quadratic(rng, 4, 0.0, 1.0)
        prob = qp.objective(L=L, ell=0.0)
        config = SolverConfig(L=L, ell=0.0, gtol=1e-30, max_evals=10)
        state, run = start_run(prob, rng.standard_normal(4), config)
        start = state.point
        ag_step(state, run)
        assert np.allclose(state.bar.x, start.x, atol=1e-14)
        assert np.allclose(state.x, start.x - start.g / L, atol=1e-14)

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
        state, run = start_run(prob, x0, config)
        state.ag_ref_gnorm = state.point.gnorm
        dist0 = float(x0 @ x0)
        for k in range(1, 300):
            try:
                ag_step(state, run)
            except _ConvergedAt:
                break
            fk = prob.evaluate(state.x)[0]
            assert fk <= nesterov_bound(100.0, 1.0, k, dist0) + 1e-12


class TestAgBlockExit:
    def _dummy_state(self, bar_g, ref):
        bar = Evaluation(np.zeros(2), 0.0, bar_g, float(np.linalg.norm(bar_g)),
                         float(bar_g @ bar_g))
        return CagIterationState(
            x=np.zeros(2), point=bar, p=np.zeros(2),
            estimate=init_estimate(0.0, np.zeros(2), 1.0),
            i_cg=0, ag_ref_gnorm=ref, bar=bar, z_tilde=None, zAz=0.0,
        )

    def test_fires_at_quarter(self):
        state = self._dummy_state(np.array([2.0, 0.0]), ref=8.0)
        assert ag_block_exit_test(state)

    def test_strictly_above_quarter_does_not_fire(self):
        state = self._dummy_state(np.array([2.0001, 0.0]), ref=8.0)
        assert not ag_block_exit_test(state)


class TestReturnToCg:
    def test_simple_mode_resets_direction(self, rng):
        A, b, L, ell, qp = random_spd_quadratic(rng, 4, 0.0, 1.0)
        prob = qp.objective(L=L, ell=ell)
        config = SolverConfig(L=L, ell=ell, gtol=1e-30, max_evals=100)
        state, run = start_run(prob, rng.standard_normal(4), config)
        counter = run.counter
        state.ag_ref_gnorm = state.point.gnorm
        ag_step(state, run)
        before = counter.count
        return_to_cg(state, run)
        assert counter.count == before + 1
        assert state.ag_ref_gnorm is None
        assert state.i_cg == 0
        assert np.array_equal(state.p, -state.point.g)
        assert state.z_tilde is None

    def test_z_mode_initialises_exact_quadratic_form(self, rng):
        # on a quadratic the gradient-difference formula gives z^T A z exactly
        A, b, L, ell, qp = random_spd_quadratic(rng, 5, 0.0, 1.0)
        prob = qp.objective(L=L, ell=ell)
        config = SolverConfig(L=L, ell=ell, gtol=1e-30, max_evals=100,
                              conjugate_z=True)
        state, run = start_run(prob, rng.standard_normal(5), config)
        counter = run.counter
        state.ag_ref_gnorm = state.point.gnorm
        ag_step(state, run)
        before = counter.count
        return_to_cg(state, run)
        assert counter.count == before + 2  # iterate plus model centre
        z = state.z_tilde
        assert z is not None
        explicit = float(z @ (A @ z))
        assert abs(state.zAz - explicit) <= 1e-10 * max(abs(explicit), 1e-30)

    def test_z_mode_degenerate_centre_falls_back(self, rng):
        # v == x makes z = 0 and zAz = 0: augmentation must stay disabled
        A, b, L, ell, qp = random_spd_quadratic(rng, 3, 0.0, 1.0)
        prob = qp.objective(L=L, ell=ell)
        config = SolverConfig(L=L, ell=ell, gtol=1e-30, max_evals=100,
                              conjugate_z=True)
        state, run = start_run(prob, rng.standard_normal(3), config)
        assert np.array_equal(state.estimate.v, state.x)  # the initial model's centre
        state.ag_ref_gnorm = state.point.gnorm
        return_to_cg(state, run)
        assert state.z_tilde is None

    def test_ends_the_run_at_a_passing_centre(self):
        # f = ||x||^2 / 2 with the model centre v moved to the minimiser: the
        # iterate fails gtol, the centre passes it and ends the run as an ag row
        prob = ObjectiveProblem(
            name="halfnormsq", n=2, evaluate=lambda x: (0.5 * float(x @ x), x.copy()),
            default_L=1.0,
        )
        config = SolverConfig(L=1.0, gtol=1e-12, conjugate_z=True)
        state, run = start_run(prob, np.ones(2), config)
        counter = run.counter
        state.estimate = init_estimate(0.0, np.zeros(2), 1.0)
        with pytest.raises(_ConvergedAt) as info:
            return_to_cg(state, run)
        assert info.value.kind is StepKind.AG
        assert np.array_equal(info.value.point.x, np.zeros(2))
        assert counter.count == 3  # start, iterate, centre


class TestCagMinimize:
    def test_norm_squared_converges_in_one_iteration(self, rng):
        prob = ObjectiveProblem(
            name="halfnormsq", n=6,
            evaluate=lambda x: (0.5 * float(x @ x), x.copy()),
            default_L=1.0, default_ell=1.0,
        )
        x0 = rng.standard_normal(6)
        res = cag_minimize(prob, x0, SolverConfig(L=1.0, ell=1.0, gtol=1e-10, max_evals=100))
        assert res.converged
        assert res.iterations == 1
        assert np.linalg.norm(res.x_final) <= 1e-10

    def test_converged_at_start(self):
        prob = make_quad_diag(5)
        res = cag_minimize(
            prob, prob.known_xstar, SolverConfig(L=25.0, ell=1.0, gtol=1e-6, max_evals=10)
        )
        assert res.converged
        assert res.iterations == 0
        assert res.evaluations == 1

    def test_quadratic_progress_certificate_and_pure_cg(self, rng):
        A, b, L, ell, qp = random_spd_quadratic(rng, 25, 0.0, 3.0)
        prob = qp.objective(L=L, ell=ell)
        x0 = rng.standard_normal(25)
        res = cag_minimize(prob, x0, SolverConfig(L=L, ell=ell, gtol=1e-9, max_evals=10**5))
        assert res.converged
        kinds = step_counts(res)
        assert kinds.get("ag", 0) == 0 and kinds.get("sd", 0) == 0
        f0 = res.trace[0].f
        for rec in res.trace[1:]:
            assert rec.f <= rec.phi_star + 1e-9 * (1.0 + abs(f0))

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
        assert res.f_final == min(rec.f for rec in res.trace)

    def test_divergence_status_on_overflow(self):
        # exp overflows once the AG fallback flings the iterate far out
        def explosive(x):
            with np.errstate(over="ignore"):
                v = float(np.exp(x[0]) + x[0] ** 4)
                g = np.array([np.exp(x[0]) + 4.0 * x[0] ** 3])
            return v, g

        prob = ObjectiveProblem(name="explosive", n=1, evaluate=explosive, default_L=0.01)
        res = cag_minimize(prob, np.array([2.0]),
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
        deltas = [b.evals - a.evals for a, b in zip(res.trace, res.trace[1:])]
        assert max(deltas) <= 5
        ag_rows = [rec for rec in res.trace if rec.step is StepKind.AG]
        assert ag_rows, "expected the fallback ladder to reach an AG step"

    def test_forced_restart_resets_direction_period(self, rng, monkeypatch):
        # RESTART_FACTOR = 1 on a 3-d quadratic forces a steepest restart
        # every 4 accepted steps; the run must still converge
        monkeypatch.setattr(cagopt.cag, "RESTART_FACTOR", 1)
        A, b, L, ell, qp = random_spd_quadratic(rng, 3, 0.0, 2.0)
        prob = qp.objective(L=L, ell=ell)
        res = cag_minimize(prob, rng.standard_normal(3),
                           SolverConfig(L=L, ell=ell, gtol=1e-9, max_evals=10**4))
        assert res.converged

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
        last = res.trace[-1]
        assert (last.step, last.gnorm, last.evals) == (StepKind.AG, 0.0, evals)

    def test_huber_z_mode_run_accounting(self):
        # end-to-end conjugate-z run with real AG blocks: the trace deltas
        # partition the counter exactly; plain rows stay within 5 calls and
        # zflag rows within 7 (3 per failed augmented attempt plus the AG
        # step); block re-entry adds the one extra centre evaluation.
        prob = make_huber(1000, tau=100.0)
        res = cag_minimize(prob, np.zeros(1000),
                           SolverConfig(L=8.0, ell=0.0, gtol=1e-6, max_evals=10**6,
                                        conjugate_z=True))
        assert res.converged
        kinds = step_counts(res)
        assert kinds.get("ag", 0) >= 1
        deltas = [b.evals - a.evals for a, b in zip(res.trace, res.trace[1:])]
        assert res.trace[0].evals == 1
        assert res.trace[-1].evals == res.evaluations
        assert max(deltas) <= 7

    @pytest.mark.parametrize("solver,n", [("cag", 10), ("ncg", 10), ("ag", 10), ("ncg", 1000)])
    def test_record_iterates_aligns_with_trace(self, solver, n):
        # the recording run is the solver's own run, and ncg on quad n=1000
        # ends at a line-search probe, whose point is the last iterate
        prob = make_quad_diag(n)
        res, iterates = minimize_with_iterates(solver, prob, np.zeros(n))
        ref = minimize(solver, prob, np.zeros(n))
        assert [(r.evals, r.f, r.step) for r in res.trace] == [
            (r.evals, r.f, r.step) for r in ref.trace
        ]
        assert np.array_equal(res.x_final, ref.x_final)
        assert res.converged
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
        assert full.converged
        deltas = [b.evals - a.evals for a, b in zip(full.trace, full.trace[1:])]
        assert max(deltas) == cost
        start = full.trace[deltas.index(cost)].evals
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
    assert [rec.step for rec in res.trace[1:]] == [StepKind.CG] * n
    assert all(rec.f <= rec.phi_star for rec in res.trace)
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
    budget, and check f(x_k) <= phi*_k on every row, evaluating each recorded
    iterate outside the run's counter.  Returns ``(result, iterates)``."""
    res, iterates = minimize_with_iterates(solver, prob, np.zeros(prob.n), gtol=1e-9,
                                           max_evals=300)
    for rec, x in zip(res.trace, iterates, strict=True):
        f = float(prob.evaluate(x)[0])
        assert f <= rec.phi_star + CERT_RTOL * max(1.0, abs(f)), (rec, f)
    return res, iterates


@pytest.mark.parametrize("solver", ["cag", "ag"])
class TestCertificate:
    """The paper's certificate f(x_k) <= phi*_k on drawn small instances, and
    on quad the rate ``nesterov_bound`` that it implies."""

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(m=st.integers(1, 40), n=st.integers(1, 20), seed=st.integers(0, 2**16),
           lam=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)))
    def test_logistic(self, solver, m, n, seed, lam):
        certified_run(solver, make_logistic(m, n, lam, seed=seed))

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(n=st.integers(2, 40), tau=st.floats(0.05, 10.0))
    def test_huber(self, solver, n, tau):
        certified_run(solver, make_huber(n, tau))

    @settings(derandomize=True, deadline=None, max_examples=4)
    @given(n=st.sampled_from([4, 9, 16, 25]))
    def test_abpdn(self, solver, n):
        certified_run(solver, make_abpdn(n))

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(n=st.integers(2, 30))
    def test_quad_gap_within_nesterov_bound(self, solver, n):
        prob = make_quad_diag(n)
        res, iterates = certified_run(solver, prob)
        dist0_sq = float(prob.known_xstar @ prob.known_xstar)  # x0 = 0
        slack = CERT_RTOL * max(1.0, abs(prob.known_fstar))
        for rec, x in zip(res.trace, iterates, strict=True):
            gap = float(prob.evaluate(x)[0]) - prob.known_fstar
            bound = nesterov_bound(prob.default_L, prob.default_ell, rec.iteration, dist0_sq)
            assert gap <= bound + slack, (rec, gap, bound)
