import math

import numpy as np
import pytest

import cagopt.problems
from cagopt import (
    EvalCounter,
    InvalidSpec,
    ObjectiveProblem,
    QuadraticProblem,
    SolverConfig,
    ag_minimize,
    cag_minimize,
    evaluate_counted,
    lcg_minimize,
    ncg_minimize,
)
from cagopt.baselines import ncg_step
from cagopt.cag import _ConvergedAt, _Run, ag_step, cag_step, run_steps


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


def explosive_problem():
    """f = e^x + x^4 on R^1 with L = 0.01 far below its curvature: from x0 = 2
    the AG fallback flings the iterate out until exp overflows."""
    def explosive(x):
        with np.errstate(over="ignore"):
            v = float(np.exp(x[0]) + x[0] ** 4)
            g = np.array([np.exp(x[0]) + 4.0 * x[0] ** 3])
        return v, g

    return ObjectiveProblem(name="explosive", n=1, evaluate=explosive, default_L=0.01)


def concave_problem():
    """f = -||x||^2/2 + sum(x) on R^5, unbounded below: a solver from x0 = 0
    follows it until f overflows."""
    return ObjectiveProblem(
        name="concave", n=5, evaluate=lambda x: (-0.5 * float(x @ x) + float(x.sum()), 1.0 - x),
        default_L=1.0,
    )


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


# The step and phi*_0 that cag_minimize (in conjugate-z mode for "cag+z"),
# ncg_minimize and ag_minimize pass to run_steps.
STEPS = {"cag": (cag_step, None), "cag+z": (cag_step, None), "ncg": (ncg_step, math.nan),
         "ag": (ag_step, None)}


def minimize_with_iterates(solver, prob, x0, gtol=1e-8, max_evals=10**6, bar_f=None):
    """``minimize``'s run, with the solver's step wrapped to record iterates;
    ``solver`` may also be "cag+z".

    Returns ``(result, iterates)``, ``iterates[k]`` being the iterate of
    trace row k: the start, then ``run.x`` after each step, or the point
    that ends a converged run.  With a list ``bar_f``, also appends f at
    ``run.bar`` for each row, the anchor of the next model update, on which
    conjugate-z mode's progress test may pass instead of the iterate.
    """
    step, phi_star0 = STEPS[solver]
    iterates = []
    bars = [] if bar_f is None else bar_f

    def recording(run):
        def row(x):
            iterates.append(x)
            bars.append(run.bar.f)

        if not iterates:
            row(run.x)
        try:
            trace_row = step(run)
        except _ConvergedAt as c:
            row(c.point.x)
            raise
        row(run.x)
        return trace_row

    config = SolverConfig(prob.default_L, prob.default_ell, gtol, max_evals, solver == "cag+z")
    result = run_steps(recording, prob, x0, config, phi_star0)
    if not iterates:
        iterates.append(result.x_final)
        bars.append(result.f_final)
    return result, iterates


def lcg_iterates(qp, x0, gtol, iterations):
    """lcg's iterates x_0, ..., x_iterations: x_k is ``x_final`` of a rerun
    with ``max_iters`` = k, since lcg is deterministic and returns its last
    iterate."""
    reruns = [lcg_minimize(qp, x0, gtol, k).x_final for k in range(1, iterations + 1)]
    return [np.array(x0, dtype=float)] + reruns


def start_run(prob, x0, config):
    """The ``_Run`` that a step-level test passes to a solver step: x0
    evaluated and counted once in ``run.counter``, as ``run_steps`` starts."""
    counter = EvalCounter()
    return _Run(prob, config, counter, evaluate_counted(prob, x0, counter))


@pytest.fixture(autouse=True)
def no_built_instance():
    """Drop every instance ``ProblemSpec.build`` holds, and the system
    ``quad_diag_system`` holds, so that no test sees one an earlier test built."""
    cagopt.problems._built.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
