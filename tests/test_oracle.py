import math

import numpy as np
import pytest

from cagopt import (
    EvalCounter,
    InvalidSpec,
    NumericalFailure,
    ObjectiveProblem,
    evaluate_counted,
    make_huber,
    make_quad_diag,
)

from conftest import finite_diff_gradient


def norm_sq_problem(n):
    return ObjectiveProblem(
        name="halfnormsq", n=n, evaluate=lambda x: (0.5 * float(x @ x), x.copy()),
        default_L=1.0, default_ell=1.0,
    )


def test_counter_increments_per_call():
    prob = norm_sq_problem(3)
    counter = EvalCounter()
    x, f, g, gnorm = evaluate_counted(prob, np.zeros(3), counter)
    assert f == 0.0 and gnorm == 0.0
    assert np.all(g == 0.0)
    assert counter.count == 1
    e1 = np.array([1.0, 0.0, 0.0])
    x, f, g, gnorm = evaluate_counted(prob, e1, counter)
    assert x is e1
    assert f == 0.5 and gnorm == 1.0
    assert np.array_equal(g, e1)
    assert counter.count == 2


def test_quad_diag_gradient_at_zero():
    prob = make_quad_diag(1000)
    counter = EvalCounter()
    _, f, g, gnorm = evaluate_counted(prob, np.zeros(1000), counter)
    assert f == 0.0
    i = np.arange(1.0, 1001.0)
    assert np.array_equal(g, -np.sin(i))
    assert gnorm == float(np.linalg.norm(g))
    assert counter.count == 1


def _overflowing(x):
    with np.errstate(over="ignore"):
        return float(np.exp(x[0])), np.exp(x)


@pytest.mark.parametrize(
    "evaluate",
    [
        _overflowing,  # f and the gradient overflow together
        lambda x: (1.0, np.array([np.nan])),  # finite f, NaN gradient entry
        lambda x: (1.0, np.array([-np.inf])),  # finite f, infinite gradient entry
        lambda x: (1.0, np.array([1e200])),  # finite entry, overflowing norm
    ],
    ids=["overflow", "nan-gradient", "inf-gradient", "overflowing-norm"],
)
def test_nonfinite_evaluation_raises(evaluate):
    bad = ObjectiveProblem(name="bad", n=1, evaluate=evaluate, default_L=1.0)
    counter = EvalCounter()
    # as inside the solvers, which keep numpy's overflow warning quiet
    with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
        evaluate_counted(bad, np.array([1e4]), counter)
    # the call is still counted: it did happen
    assert counter.count == 1


def test_finite_diff_on_quadratic_is_near_exact():
    prob = norm_sq_problem(4)
    x = np.array([1.0, 0.0, -2.0, 0.5])
    g = finite_diff_gradient(prob, x, h=1e-6)
    assert np.max(np.abs(g - x)) <= 1e-9


def test_finite_diff_constant_function():
    prob = ObjectiveProblem(
        name="const", n=3, evaluate=lambda x: (7.0, np.zeros(3)), default_L=1.0
    )
    g = finite_diff_gradient(prob, np.ones(3), h=1e-6)
    assert np.all(g == 0.0)


def test_finite_diff_matches_huber_analytic_gradient(rng):
    prob = make_huber(20, tau=3.0)
    x = rng.standard_normal(20) * 5.0
    g_exact = prob.evaluate(x)[1]
    h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
    g_fd = finite_diff_gradient(prob, x, h)
    rel = np.linalg.norm(g_fd - g_exact) / max(np.linalg.norm(g_exact), 1e-30)
    assert rel <= 1e-5


def test_finite_diff_rejects_nonpositive_step():
    prob = norm_sq_problem(2)
    with pytest.raises(InvalidSpec):
        finite_diff_gradient(prob, np.zeros(2), h=0.0)


def test_problem_metadata_validation():
    with pytest.raises(InvalidSpec):
        ObjectiveProblem(name="bad", n=0, evaluate=lambda x: (0.0, x), default_L=1.0)
    for L in (0.0, math.inf, math.nan, None):
        with pytest.raises(InvalidSpec):
            ObjectiveProblem(name="bad", n=1, evaluate=lambda x: (0.0, x), default_L=L)
    with pytest.raises(InvalidSpec):
        ObjectiveProblem(
            name="bad", n=1, evaluate=lambda x: (0.0, x), default_L=1.0, default_ell=2.0
        )
