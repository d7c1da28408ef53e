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
    ncg_minimize,
)
from cagopt.cag import _initial_state, _Run


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


def minimize(solver, prob, x0, gtol=1e-8, max_evals=10**6, record_iterates=False):
    """Run cag, ncg or ag on ``prob`` with the problem's own L and ell."""
    config = SolverConfig(prob.default_L, prob.default_ell, gtol, max_evals)
    solve = {"cag": cag_minimize, "ncg": ncg_minimize, "ag": ag_minimize}[solver]
    return solve(prob, x0, config, record_iterates=record_iterates)


def start_run(prob, x0, config):
    """The ``(state, run)`` that a step-level test passes to a solver step:
    x0 evaluated and counted once in ``run.counter``, as ``run_steps`` starts."""
    run = _Run(prob, config, EvalCounter())
    return _initial_state(evaluate_counted(prob, x0, run.counter), config), run


@pytest.fixture(autouse=True)
def no_built_instance():
    """Drop the instance ``ProblemSpec.build`` holds, so that no test sees
    one an earlier test built."""
    cagopt.problems._built = None


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
