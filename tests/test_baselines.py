import numpy as np
import pytest

from cagopt import (
    CagConfig,
    NotPositiveDefinite,
    NumericalFailure,
    ObjectiveProblem,
    QuadraticProblem,
    Status,
    ag_minimize,
    cag_minimize,
    lcg_minimize,
    make_huber,
    make_quad_diag,
    ncg_minimize,
    quad_diag_system,
)
from cagopt.estimate_sequence import nesterov_bound

from conftest import minimize, random_spd_quadratic


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
        res = lcg_minimize(qp, np.zeros(60), gtol=1e-14, max_iters=30,
                           record_iterates=True)
        residuals = [b - A @ x for x in res.iterates]
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


class TestNcg:
    def test_norm_squared_one_iteration(self, rng):
        prob = quad_diag_system(1).objective(L=1.0, ell=1.0)
        res = ncg_minimize(prob, np.array([2.0]), gtol=1e-10, max_evals=100)
        assert res.converged
        assert res.iterations == 1

    def test_huber_run_is_deterministic(self):
        prob = make_huber(400, tau=10.0)
        first = ncg_minimize(prob, np.zeros(400), gtol=1e-6, max_evals=10**6)
        second = ncg_minimize(prob, np.zeros(400), gtol=1e-6, max_evals=10**6)
        assert first.converged and second.converged
        assert first.evaluations == second.evaluations
        assert first.f_final == second.f_final

    def test_matches_cag_on_quadratic_when_no_fallback(self):
        # with no progress test to fail, NCG and the guarded solver walk the
        # same path on a quadratic and spend the same evaluations
        prob = make_quad_diag(80)
        res_ncg = ncg_minimize(prob, np.zeros(80), gtol=1e-8, max_evals=10**5)
        res_cag = cag_minimize(prob, np.zeros(80),
                               CagConfig(L=6400.0, ell=1.0, gtol=1e-8, max_evals=10**5))
        assert res_ncg.converged and res_cag.converged
        assert abs(res_ncg.evaluations - res_cag.evaluations) <= 2

    def test_budget_status(self):
        prob = make_quad_diag(200)
        res = ncg_minimize(prob, np.zeros(200), gtol=1e-14, max_evals=30)
        assert res.status is Status.BUDGET_EXHAUSTED


class TestAg:
    def test_one_dimensional_exact(self):
        # the first gradient step lands exactly on the minimiser; one more
        # combination-point evaluation is needed to observe it, since that is
        # the only point the method ever evaluates
        qp = QuadraticProblem(apply_A=lambda x: x, b=np.zeros(1))
        prob = qp.objective(L=1.0, ell=1.0)
        res = ag_minimize(prob, np.array([1.0]), L=1.0, ell=1.0, gtol=1e-12,
                          max_evals=100)
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
        res = ag_minimize(prob, x0, L=1.0, ell=0.0, gtol=1e-9, max_evals=10**5,
                          record_iterates=True)
        assert res.converged
        xstar = np.array([0.0, 1.0])  # nearest minimiser to the start
        dist0 = float((x0 - xstar) @ (x0 - xstar))
        for k, xk in enumerate(res.iterates):
            fk = prob.evaluate(xk)[0]
            assert fk <= nesterov_bound(1.0, 0.0, k, dist0) + 1e-12

    def test_iterates_stay_below_model_minimum(self, rng):
        A, b, L, ell, qp = random_spd_quadratic(rng, 10, 0.0, 2.0)
        prob = qp.objective(L=L, ell=ell)
        res = ag_minimize(prob, rng.standard_normal(10), L=L, ell=ell,
                          gtol=1e-8, max_evals=10**5, record_iterates=True)
        assert res.converged
        f0 = res.trace[0].f
        for xk, rec in zip(res.iterates, res.trace):
            fk = prob.evaluate(xk)[0]
            assert fk <= rec.phi_star + 1e-9 * (1.0 + abs(f0))

    def test_one_evaluation_per_iteration(self):
        prob = make_quad_diag(50)
        res = ag_minimize(prob, np.zeros(50), L=2500.0, ell=1.0, gtol=1e-6,
                          max_evals=10**5)
        assert res.converged
        deltas = [b.evals - a.evals for a, b in zip(res.trace, res.trace[1:])]
        assert set(deltas) == {1}
        assert res.evaluations == res.iterations + 1


def test_all_solvers_agree_on_strongly_convex_minimiser():
    prob = make_quad_diag(30)
    qp = quad_diag_system(30)
    gtol, ell = 1e-8, 1.0
    xs = [
        cag_minimize(prob, np.zeros(30),
                     CagConfig(L=900.0, ell=1.0, gtol=gtol, max_evals=10**5)).x_final,
        ag_minimize(prob, np.zeros(30), L=900.0, ell=1.0, gtol=gtol,
                    max_evals=10**5).x_final,
        ncg_minimize(prob, np.zeros(30), gtol=gtol, max_evals=10**5).x_final,
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
