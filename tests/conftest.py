import numpy as np
import pytest

from cagopt import QuadraticProblem, SolverConfig, ag_minimize, cag_minimize, ncg_minimize


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


def minimize(solver, prob, x0, gtol=1e-8, max_evals=10**6, record_iterates=False):
    """Run cag, ncg or ag on ``prob`` with the problem's own L and ell."""
    config = SolverConfig(prob.default_L, prob.default_ell, gtol, max_evals)
    solve = {"cag": cag_minimize, "ncg": ncg_minimize, "ag": ag_minimize}[solver]
    return solve(prob, x0, config, record_iterates=record_iterates)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
