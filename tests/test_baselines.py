import numpy as np
import pytest

import cagopt.baselines
from cagopt import (
    InvalidSpec,
    NotPositiveDefinite,
    NumericalFailure,
    ObjectiveProblem,
    ProblemSpec,
    QuadraticProblem,
    RunConfig,
    SolverConfig,
    Status,
    StepKind,
    ag_minimize,
    cag_minimize,
    lcg_minimize,
    make_huber,
    make_quad_diag,
    ncg_minimize,
    quad_diag_system,
    run,
)
from cagopt.baselines import ncg_step
from cagopt.estimate_sequence import nesterov_bound

from conftest import (
    lcg_iterates,
    minimize,
    minimize_with_iterates,
    random_spd_quadratic,
    start_run,
)


class TestQuadraticProblem:
    def test_operator_symmetry_on_random_probes(self, rng):
        A, b, L, ell, qp = random_spd_quadratic(rng, 12, 0.0, 3.0)
        for _ in range(10):
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            lhs = float(x @ qp.apply_A(y))
            rhs = float(y @ qp.apply_A(x))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_objective_wrapper_counts_one_apply_per_eval(self, rng):
        calls = {"n": 0}

        def apply_A(x):
            calls["n"] += 1
            return 2.0 * x

        qp = QuadraticProblem(apply_A=apply_A, b=np.ones(3))
        prob = qp.objective(L=2.0, ell=2.0)
        f, g = prob.evaluate(np.ones(3))
        assert calls["n"] == 1
        assert f == 0.5 * 6.0 - 3.0
        assert np.array_equal(g, 2.0 * np.ones(3) - 1.0)


class TestLcg:
    def test_two_eigenvalues_finite_termination(self):
        qp = QuadraticProblem(apply_A=lambda x: np.array([1.0, 2.0]) * x,
                              b=np.array([1.0, 1.0]))
        res = lcg_minimize(qp, np.zeros(2), gtol=1e-12, max_iters=10)
        assert res.converged
        assert res.iterations <= 2
        assert np.allclose(res.x_final, np.array([1.0, 0.5]), atol=1e-12)

    def test_identity_operator_one_iteration(self, rng):
        qp = QuadraticProblem(apply_A=lambda x: x, b=rng.standard_normal(7))
        res = lcg_minimize(qp, rng.standard_normal(7), gtol=1e-12, max_iters=10)
        assert res.converged
        assert res.iterations == 1

    def test_zero_start_costs_no_initial_apply(self):
        qp = quad_diag_system(50)
        res = lcg_minimize(qp, np.zeros(50), gtol=1e-8, max_iters=10**4)
        assert res.converged
        assert res.evaluations == res.iterations

    def test_nonzero_start_costs_one_apply(self):
        qp = quad_diag_system(50)
        res = lcg_minimize(qp, np.ones(50), gtol=1e-8, max_iters=10**4)
        assert res.converged
        assert res.evaluations == res.iterations + 1

    def test_residual_orthogonality_first_thirty_iterations(self, rng):
        # conditioning chosen so that 30 iterations neither converge to noise
        # nor amplify rounding: orthogonality then survives at 1e-8
        A, b, L, ell, qp = random_spd_quadratic(rng, 60, 0.0, 1.5)
        res = lcg_minimize(qp, np.zeros(60), gtol=1e-14, max_iters=30)
        residuals = [b - A @ x for x in lcg_iterates(qp, np.zeros(60), 1e-14, res.iterations)]
        upto = min(30, len(residuals) - 1)
        for k in range(upto + 1):
            for j in range(k):
                num = abs(float(residuals[k] @ residuals[j]))
                den = np.linalg.norm(residuals[k]) * np.linalg.norm(residuals[j])
                if den > 0:
                    assert num / den <= 1e-8

    def test_indefinite_operator_raises(self):
        qp = QuadraticProblem(apply_A=lambda x: np.array([1.0, -1.0]) * x,
                              b=np.array([1.0, 1.0]))
        with pytest.raises(NotPositiveDefinite):
            lcg_minimize(qp, np.zeros(2), gtol=1e-20, max_iters=10)

    def test_budget_status(self):
        qp = quad_diag_system(100)
        res = lcg_minimize(qp, np.zeros(100), gtol=1e-14, max_iters=3)
        assert res.status is Status.BUDGET_EXHAUSTED
        assert res.iterations == 3

    def test_budget_exit_returns_the_last_iterate(self):
        # f stays flat at round-off from row 10 on while the residual falls
        # from 5e-13 to 4e-36: the first lowest-f row is not the one returned
        qp = quad_diag_system(10)
        res = lcg_minimize(qp, np.zeros(10), gtol=1e-300, max_iters=30)
        assert res.status is Status.BUDGET_EXHAUSTED
        fs = [rec.f for rec in res.trace]
        first_lowest = fs.index(min(fs))
        assert first_lowest == 10 and res.trace[first_lowest].gnorm > 1e-13
        assert res.f_final == res.trace[-1].f == fs[first_lowest]
        assert res.gnorm_final == res.trace[-1].gnorm < 1e-35
        # a rerun that stops at the first lowest-f row returns that row's iterate
        x_lowest = lcg_iterates(qp, np.zeros(10), 1e-300, first_lowest)[-1]
        assert not np.array_equal(res.x_final, x_lowest)

    def test_converged_at_start(self):
        qp = quad_diag_system(5)
        res = lcg_minimize(qp, np.zeros(5), gtol=float(np.linalg.norm(qp.b)), max_iters=10)
        assert res.converged
        assert (res.iterations, res.evaluations, len(res.trace)) == (0, 0, 1)
        assert np.array_equal(res.x_final, np.zeros(5))

    @pytest.mark.parametrize("gtol, max_iters, message", [
        (-1.0, 10, "gtol must be positive"),
        (0.0, 10, "gtol must be positive"),
        (float("nan"), 10, "gtol must be positive"),
        (1e-8, 0, "max_iters must be at least 1"),
        (1e-8, -5, "max_iters must be at least 1"),
    ])
    def test_rejects_a_bad_tolerance_or_budget(self, gtol, max_iters, message):
        # the settings check of cag, ncg and ag; before it, a budget of 0 or
        # -5 returned budget_exhausted and a gtol of -1 or nan never converged
        with pytest.raises(InvalidSpec, match=message):
            lcg_minimize(quad_diag_system(5), np.zeros(5), gtol=gtol, max_iters=max_iters)


class TestNcgStep:
    def _state(self, x0):
        prob = make_quad_diag(4)
        config = SolverConfig(L=16.0, gtol=1e-12, max_evals=100)
        return start_run(prob, x0, config)

    def test_non_descent_direction_restarts_from_steepest_descent(self):
        x0 = np.array([1.0, -1.0, 0.5, 2.0])
        uphill, uphill_run = self._state(x0)
        uphill.p, uphill.i_cg = uphill.point.g.copy(), 7
        steepest, steepest_run = self._state(x0)
        ncg_step(uphill, uphill_run)
        ncg_step(steepest, steepest_run)
        assert np.array_equal(uphill.x, steepest.x)
        assert np.array_equal(uphill.p, steepest.p)
        assert uphill.i_cg == steepest.i_cg == 1

    def test_degenerate_beta_restarts_the_chain(self, monkeypatch):
        monkeypatch.setattr(cagopt.baselines, "hz_beta", lambda *args: None)
        state, run = self._state(np.array([1.0, -1.0, 0.5, 2.0]))
        state.i_cg = 3
        new, kind = ncg_step(state, run)
        assert kind is StepKind.CG and state.point is new
        assert np.array_equal(state.p, -new.g)
        assert state.i_cg == 0


class TestNcg:
    def test_norm_squared_one_iteration(self, rng):
        prob = quad_diag_system(1).objective(L=1.0, ell=1.0)
        res = ncg_minimize(prob, np.array([2.0]), SolverConfig(L=1.0, gtol=1e-10, max_evals=100))
        assert res.converged
        assert res.iterations == 1
        assert np.isnan([rec.phi_star for rec in res.trace]).all()  # no estimate sequence

    def test_huber_run_is_deterministic(self):
        prob = make_huber(400, tau=10.0)
        config = SolverConfig(L=8.0, gtol=1e-6, max_evals=10**6)
        first = ncg_minimize(prob, np.zeros(400), config)
        second = ncg_minimize(prob, np.zeros(400), config)
        assert first.converged and second.converged
        assert first.evaluations == second.evaluations
        assert first.f_final == second.f_final

    def test_matches_cag_on_quadratic_when_no_fallback(self):
        # with no progress test to fail, NCG and the guarded solver walk the
        # same path on a quadratic and spend the same evaluations
        prob = make_quad_diag(80)
        config = SolverConfig(L=6400.0, ell=1.0, gtol=1e-8, max_evals=10**5)
        res_ncg = ncg_minimize(prob, np.zeros(80), config)
        res_cag = cag_minimize(prob, np.zeros(80), config)
        assert res_ncg.converged and res_cag.converged
        assert abs(res_ncg.evaluations - res_cag.evaluations) <= 2

    def test_budget_status(self):
        prob = make_quad_diag(200)
        res = ncg_minimize(prob, np.zeros(200), SolverConfig(L=40000.0, gtol=1e-14, max_evals=30))
        assert res.status is Status.BUDGET_EXHAUSTED
        assert np.isnan([rec.phi_star for rec in res.trace]).all()


class TestAg:
    def test_one_dimensional_exact(self):
        # the first gradient step lands exactly on the minimiser; one more
        # combination-point evaluation is needed to observe it, since that is
        # the only point the method ever evaluates
        qp = QuadraticProblem(apply_A=lambda x: x, b=np.zeros(1))
        prob = qp.objective(L=1.0, ell=1.0)
        res = ag_minimize(prob, np.array([1.0]),
                          SolverConfig(L=1.0, ell=1.0, gtol=1e-12, max_evals=100))
        assert res.converged
        assert res.iterations <= 2
        assert res.x_final[0] == 0.0
        assert res.gnorm_final == 0.0

    def test_gap_bound_with_zero_ell(self):
        # f = x1^2/2 in the plane: the trace stays under the guaranteed gap
        d = np.array([1.0, 0.0])

        def apply_A(x):
            return d * x

        qp = QuadraticProblem(apply_A=apply_A, b=np.zeros(2))
        prob = qp.objective(L=1.0, ell=0.0)
        x0 = np.array([3.0, 1.0])
        res, iterates = minimize_with_iterates("ag", prob, x0, gtol=1e-9, max_evals=10**5)
        assert res.converged
        xstar = np.array([0.0, 1.0])  # nearest minimiser to the start
        dist0 = float((x0 - xstar) @ (x0 - xstar))
        for k, xk in enumerate(iterates):
            fk = prob.evaluate(xk)[0]
            assert fk <= nesterov_bound(1.0, 0.0, k, dist0) + 1e-12

    def test_iterates_stay_below_model_minimum(self, rng):
        A, b, L, ell, qp = random_spd_quadratic(rng, 10, 0.0, 2.0)
        prob = qp.objective(L=L, ell=ell)
        res, iterates = minimize_with_iterates("ag", prob, rng.standard_normal(10),
                                               max_evals=10**5)
        assert res.converged
        f0 = res.trace[0].f
        for xk, rec in zip(iterates, res.trace, strict=True):
            fk = prob.evaluate(xk)[0]
            assert fk <= rec.phi_star + 1e-9 * (1.0 + abs(f0))

    def test_one_evaluation_per_iteration(self):
        prob = make_quad_diag(50)
        res = ag_minimize(prob, np.zeros(50),
                          SolverConfig(L=2500.0, ell=1.0, gtol=1e-6, max_evals=10**5))
        assert res.converged
        deltas = [b.evals - a.evals for a, b in zip(res.trace, res.trace[1:])]
        assert set(deltas) == {1}
        assert res.evaluations == res.iterations + 1


def test_all_solvers_agree_on_strongly_convex_minimiser():
    prob = make_quad_diag(30)
    qp = quad_diag_system(30)
    gtol, ell = 1e-8, 1.0
    config = SolverConfig(L=900.0, ell=ell, gtol=gtol, max_evals=10**5)
    xs = [
        cag_minimize(prob, np.zeros(30), config).x_final,
        ag_minimize(prob, np.zeros(30), config).x_final,
        ncg_minimize(prob, np.zeros(30), config).x_final,
        lcg_minimize(qp, np.zeros(30), gtol=gtol, max_iters=10**5).x_final,
    ]
    for a in xs:
        for b in xs:
            assert np.linalg.norm(a - b) <= 10.0 * gtol / ell


@pytest.mark.parametrize("solver", ["cag", "ncg", "ag"])
def test_nonfinite_start_raises_numerical_failure(solver):
    prob = ObjectiveProblem(name="nan", n=2, evaluate=lambda x: (np.nan, x.copy()),
                            default_L=1.0)
    with pytest.raises(NumericalFailure):
        minimize(solver, prob, np.ones(2))


@pytest.mark.parametrize("solver", ["cag", "ncg", "ag"])
def test_overflowing_gradient_norm_at_start_raises_numerical_failure(solver):
    # finite entries whose sum of squares overflows
    prob = ObjectiveProblem(name="huge", n=2, evaluate=lambda x: (0.0, np.full(2, 1e200)),
                            default_L=1.0)
    with pytest.raises(NumericalFailure):
        minimize(solver, prob, np.ones(2))


@pytest.mark.parametrize("solver", ["cag", "ncg", "ag"])
def test_overflowing_gradient_norm_ends_run_diverged(solver):
    # the first evaluation away from x0 returns a gradient whose norm
    # overflows; the run must end with a status, not a RuntimeWarning
    def evaluate(x):
        if np.array_equal(x, np.ones(2)):
            return 1.0, np.ones(2)
        return 0.0, np.full(2, 1e200)

    prob = ObjectiveProblem(name="huge-away", n=2, evaluate=evaluate, default_L=1.0)
    assert minimize(solver, prob, np.ones(2)).status is Status.DIVERGED


@pytest.mark.parametrize("shape", [(4,), (3, 1)], ids=["n+1", "n-by-1"])
@pytest.mark.parametrize("solver", ["cag", "ncg", "ag", "lcg"])
def test_wrong_shape_start_raises_invalid_spec(solver, shape):
    # unchecked, a (3, 1) zero start broadcasts lcg into a (3, 3) "solution"
    with pytest.raises(InvalidSpec):
        if solver == "lcg":
            lcg_minimize(quad_diag_system(3), np.zeros(shape), gtol=1e-8, max_iters=10)
        else:
            minimize(solver, make_quad_diag(3), np.zeros(shape))


@pytest.mark.parametrize("solver", ["cag", "ncg", "ag"])
def test_result_never_aliases_the_callers_start(solver):
    # the start is copied: a run that converges at x0 and one whose budget
    # ends after the start evaluation both report a point of their own
    prob = make_quad_diag(5)
    converged_x0 = prob.known_xstar
    converged = minimize(solver, prob, converged_x0, gtol=1e-6)
    capped_x0 = np.ones(5)
    capped = minimize(solver, prob, capped_x0, max_evals=1)
    assert converged.converged and converged.iterations == 0
    assert capped.status is Status.BUDGET_EXHAUSTED and capped.iterations == 0
    for res, x0 in ((converged, converged_x0), (capped, capped_x0)):
        assert np.array_equal(res.x_final, x0)
        assert not np.shares_memory(res.x_final, x0)


@pytest.mark.parametrize("solver", [ncg_minimize, ag_minimize], ids=["ncg", "ag"])
def test_rejects_the_cag_only_conjugate_z_setting(solver):
    # it used to be ignored: quad 10 converged in 21 (ncg) and 214 (ag) evaluations
    with pytest.raises(InvalidSpec, match="conjugate_z applies only to the cag solver"):
        solver(make_quad_diag(10), np.zeros(10), SolverConfig(L=100.0, ell=1.0, conjugate_z=True))


@pytest.mark.parametrize("family, n, within_twice_best", [
    ("quad", 100, True),       # cag 263, ncg 263
    ("huber", 200, False),     # cag 1,206, ncg 1,275, ag 199
    ("logistic", 100, True),   # cag 85, ncg 85
    ("abpdn", 100, True),      # cag 2,851, ncg 2,922
])
def test_cag_needs_no_more_evaluations_than_the_baselines(family, n, within_twice_best):
    # The paper's empirical claim: the guarded solver's evaluation count
    # behaves as the better of AG and NCG.  It never loses to ncg here, and
    # it stays within twice the better baseline except on small huber,
    # where AG converges in a sixth of cag's evaluations.  ag runs on a
    # budget of half cag's count: a capped count never exceeds ag's own, and
    # reaching the cap already meets the bound.
    def evaluations(solver, **budget):
        result = run(RunConfig(ProblemSpec(family, n), solver, **budget))
        assert result.converged or budget, solver
        return result.evaluations

    cag, ncg = evaluations("cag"), evaluations("ncg")
    assert cag <= ncg
    if within_twice_best:
        assert cag <= 2 * min(ncg, evaluations("ag", max_evals=(cag + 1) // 2))
