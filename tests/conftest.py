import math

import numpy as np
import pytest

import cagopt.problems
from cagopt import (
    EvalCounter,
    InvalidSpec,
    QuadraticProblem,
    SolverConfig,
    ag_minimize,
    cag_minimize,
    evaluate_counted,
    lcg_minimize,
    ncg_minimize,
)
from cagopt.baselines import ncg_step
from cagopt.cag import _ConvergedAt, _initial_state, _Run, ag_step, cag_step, run_steps


def random_spd_quadratic(rng, n, log_eig_lo=0.0, log_eig_hi=4.0):
    """Dense SPD quadratic with log-uniform spectrum and exact L, ell.

    Returns (A, b, L, ell, QuadraticProblem).  L and ell are taken from the
    eigenvalues of the symmetrised matrix, so they are exact for the
    operator actually applied.
    """
    eigs = 10.0 ** rng.uniform(log_eig_lo, log_eig_hi, n)
    M = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(M)
    A = (Q * eigs) @ Q.T
    A = 0.5 * (A + A.T)
    ew = np.linalg.eigvalsh(A)
    L, ell = float(ew[-1]), float(max(ew[0], 0.0))
    b = rng.standard_normal(n)
    qp = QuadraticProblem(apply_A=lambda x, A=A: A @ x, b=b)
    return A, b, L, ell, qp


def finite_diff_gradient(problem, x, h):
    """Central-difference gradient, used as a test oracle.

    Costs 2n raw (uncounted) evaluations: (f(x + h e_i) - f(x - h e_i)) / 2h
    per coordinate.
    """
    if not h > 0:
        raise InvalidSpec(f"step h must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp, _ = problem.evaluate(x + e)
        fm, _ = problem.evaluate(x - e)
        g[i] = (fp - fm) / (2.0 * h)
    return g


def count_builds(monkeypatch, family):
    """The list of argument dicts ``family``'s constructor is called with from
    now on, one per call; the constructor is wrapped in ``_FAMILIES``."""
    calls = []
    entry = cagopt.problems._FAMILIES[family]

    def make(**args):
        calls.append(args)
        return entry.make(**args)

    monkeypatch.setitem(cagopt.problems._FAMILIES, family, entry._replace(make=make))
    return calls


def minimize(solver, prob, x0, gtol=1e-8, max_evals=10**6):
    """Run cag, ncg or ag on ``prob`` with the problem's own L and ell."""
    config = SolverConfig(prob.default_L, prob.default_ell, gtol, max_evals)
    solve = {"cag": cag_minimize, "ncg": ncg_minimize, "ag": ag_minimize}[solver]
    return solve(prob, x0, config)


# The step and phi*_0 that cag_minimize, ncg_minimize and ag_minimize pass to run_steps.
STEPS = {"cag": (cag_step, None), "ncg": (ncg_step, math.nan), "ag": (ag_step, None)}


def minimize_with_iterates(solver, prob, x0, gtol=1e-8, max_evals=10**6):
    """``minimize``'s run, with the solver's step wrapped to record iterates.

    Returns ``(result, iterates)``, ``iterates[k]`` being the iterate of
    trace row k: the start, then ``state.x`` after each step, or the point
    that ends a converged run.
    """
    step, phi_star0 = STEPS[solver]
    iterates = []

    def recording(state, run):
        if not iterates:
            iterates.append(state.x)
        try:
            row = step(state, run)
        except _ConvergedAt as c:
            iterates.append(c.point.x)
            raise
        iterates.append(state.x)
        return row

    config = SolverConfig(prob.default_L, prob.default_ell, gtol, max_evals)
    result = run_steps(recording, prob, x0, config, phi_star0)
    return result, iterates or [result.x_final]


def lcg_iterates(qp, x0, gtol, iterations):
    """lcg's iterates x_0, ..., x_iterations: x_k is ``x_final`` of a rerun
    with ``max_iters`` = k, since lcg is deterministic and returns its last
    iterate."""
    reruns = [lcg_minimize(qp, x0, gtol, k).x_final for k in range(1, iterations + 1)]
    return [np.array(x0, dtype=float)] + reruns


def start_run(prob, x0, config):
    """The ``(state, run)`` that a step-level test passes to a solver step:
    x0 evaluated and counted once in ``run.counter``, as ``run_steps`` starts."""
    counter = EvalCounter()
    start = evaluate_counted(prob, x0, counter)
    return _initial_state(start, config), _Run(prob, config, counter, start.gnorm)


@pytest.fixture(autouse=True)
def no_built_instance():
    """Drop the instance ``ProblemSpec.build`` holds, so that no test sees
    one an earlier test built."""
    cagopt.problems._built = None


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
