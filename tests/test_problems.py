import math
import tracemalloc

import numpy as np
import pytest

from cagopt import (
    InvalidSpec,
    ProblemSpec,
    make_abpdn,
    make_huber,
    make_logistic,
    make_quad_diag,
)
from cagopt.problems import (
    _logistic_loss,
    _logistic_loss_prime,
    dct_row_operator,
    estimate_spectral_norm,
    first_primes,
)

from conftest import finite_diff_gradient


def dct_rows(row_indices, n):
    """Dense oracle: selected 1-based rows of the n x n orthonormal DCT-II matrix.

    Entry (k, j) is c_k cos(pi (2j+1)(k-1) / (2n)), c_1 = sqrt(1/n) and
    c_k = sqrt(2/n) otherwise.  The integer phase (2j+1)(k-1) is reduced
    mod 4n before it is scaled by pi/(2n), so every cosine argument lies in
    [0, 2 pi) and each entry is exact to round-off.
    """
    j = np.arange(n, dtype=np.int64)
    rows = np.empty((len(row_indices), n))
    for out, k in enumerate(row_indices):
        c = math.sqrt(1.0 / n) if k == 1 else math.sqrt(2.0 / n)
        phase = (2 * j + 1) * (k - 1) % (4 * n)
        rows[out] = c * np.cos(math.pi / (2.0 * n) * phase)
    return rows


def sieve_of_eratosthenes(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return [int(i) for i in np.flatnonzero(flags)]


class TestFirstPrimes:
    def test_first_five(self):
        assert first_primes(5) == [2, 3, 5, 7, 11]

    def test_single(self):
        assert first_primes(1) == [2]

    def test_matches_sieve_oracle_at_256(self):
        oracle = sieve_of_eratosthenes(2000)[:256]
        got = first_primes(256)
        assert got == oracle
        assert got[-1] == 1619


class TestQuadDiag:
    def test_metadata(self):
        prob = make_quad_diag(1000)
        assert prob.default_L == 1000.0**2
        assert prob.default_ell == 1.0

    def test_value_and_gradient_at_zero(self):
        prob = make_quad_diag(10)
        f, g = prob.evaluate(np.zeros(10))
        assert f == 0.0
        assert np.array_equal(g, -np.sin(np.arange(1.0, 11.0)))

    def test_known_solution_is_stationary(self):
        # oracle: solve the diagonal system directly
        prob = make_quad_diag(100)
        i = np.arange(1.0, 101.0)
        xstar = np.sin(i) / i**2
        assert np.allclose(prob.known_xstar, xstar, atol=0)
        _, g = prob.evaluate(prob.known_xstar)
        assert np.max(np.abs(g)) <= 1e-14


class TestAbpdn:
    def test_value_and_gradient_at_zero(self):
        n, lam, delta = 64, 1e-3, 1e-4
        prob = make_abpdn(n, lam=lam, delta=delta)
        m = 8
        i = np.arange(1.0, m + 1)
        b = np.sin(i**2)
        f, g = prob.evaluate(np.zeros(n))
        assert abs(f - (0.5 * float(b @ b) + lam * n * math.sqrt(delta))) <= 1e-14
        A = dct_rows(first_primes(m), n)
        assert np.allclose(g, -A.T @ b, atol=1e-14)

    def test_row_orthonormality_small_case(self):
        # oracle: explicit product of the 4 selected rows for n = 16
        A = dct_rows(first_primes(4), 16)
        assert np.max(np.abs(A @ A.T - np.eye(4))) <= 1e-12

    def test_operator_is_contraction(self, rng):
        prob = make_abpdn(256, lam=1e-3, delta=1e-4)
        A = dct_rows(first_primes(16), 256)
        for _ in range(5):
            x = rng.standard_normal(256)
            assert np.linalg.norm(A @ x) <= np.linalg.norm(x) * (1 + 1e-12)

    def test_default_L_satisfies_smoothness_inequality(self, rng):
        prob = make_abpdn(256, lam=1e-3, delta=1e-4)
        L = prob.default_L
        for _ in range(1000):
            x = rng.standard_normal(256)
            y = x + rng.standard_normal(256) * rng.uniform(0.01, 3.0)
            fx, gx = prob.evaluate(x)
            fy, _ = prob.evaluate(y)
            gap = fy - fx - float(gx @ (y - x))
            assert gap <= 0.5 * L * float((y - x) @ (y - x)) + 1e-9 * (1 + abs(fx))

    def test_requires_perfect_square(self):
        with pytest.raises(InvalidSpec):
            make_abpdn(60)

    @pytest.mark.parametrize("n", [1, 2, 60])
    def test_spec_rejects_invalid_n_at_construction(self, n):
        with pytest.raises(InvalidSpec):
            ProblemSpec(family="abpdn", n=n)

    def test_builds_and_evaluates_at_one_million(self):
        # the dense rows would take 1000 x 10^6 doubles = 8 GB
        n = 10**6
        tracemalloc.start()
        try:
            prob = make_abpdn(n)
            f, g = prob.evaluate(np.full(n, 1e-3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(f)
        assert g.shape == (n,) and np.all(np.isfinite(g))
        assert peak < 100 * 2**20


class TestDctRowOperator:
    @pytest.mark.parametrize("n", [4, 9, 16, 25, 256, 400, 10**4])
    def test_matches_dense_rows(self, n, rng):
        # the abpdn rows, plus the DC and the highest supported row; at n = 4
        # the latter and prime 3 are the Nyquist row
        rows = sorted({1, n // 2 + 1, *first_primes(math.isqrt(n))})
        apply, apply_t = dct_row_operator(rows, n)
        A = dct_rows(rows, n)
        for _ in range(3):
            x = rng.standard_normal(n)
            r = rng.standard_normal(len(rows))
            assert np.max(np.abs(apply(x) - A @ x)) <= 1e-12
            assert np.max(np.abs(apply_t(r) - A.T @ r)) <= 1e-12

    @pytest.mark.parametrize("n", [4, 25, 400, 10**4])
    def test_adjoint_identity(self, n, rng):
        rows = list(range(1, n // 2 + 2))
        apply, apply_t = dct_row_operator(rows, n)
        for _ in range(3):
            x = rng.standard_normal(n)
            r = rng.standard_normal(len(rows))
            lhs = float(apply(x) @ r)
            rhs = float(x @ apply_t(r))
            scale = np.linalg.norm(x) * np.linalg.norm(r)
            assert abs(lhs - rhs) <= 1e-13 * scale

    def test_abpdn_rows_stay_in_supported_range(self):
        # first_primes(m)[-1] - 1 <= m^2 // 2 for every m in 2..1000; the
        # primes grow with m, so one list serves every prefix
        primes = first_primes(1000)
        for m in range(2, 1001):
            assert primes[m - 1] <= (m * m) // 2 + 1, m

    @pytest.mark.parametrize("rows,n", [([0], 16), ([10], 16), ([], 16), ([2], 1)])
    def test_rejects_unsupported_rows(self, rows, n):
        with pytest.raises(InvalidSpec):
            dct_row_operator(rows, n)


class TestLogistic:
    def test_value_at_zero_is_m_log_two(self):
        prob = make_logistic(40, 15, lam=1e-4, seed=3)
        f, _ = prob.evaluate(np.zeros(15))
        assert abs(f - 40.0 * math.log(2.0)) <= 1e-12

    def test_gradient_at_zero(self):
        # grad at 0 is -(1/2) A^T 1; recover A^T 1 through evaluate on the
        # all-ones probe direction via the loss derivative value -1/2
        m, n = 12, 6
        prob = make_logistic(m, n, lam=0.0, seed=11)
        _, g0 = prob.evaluate(np.zeros(n))
        fd = finite_diff_gradient(prob, np.zeros(n), h=1e-7)
        assert np.allclose(g0, fd, rtol=0, atol=1e-6)

    def test_loss_is_overflow_free_and_exact_in_the_tails(self):
        v = np.array([-800.0])
        with np.errstate(over="raise"):
            val = _logistic_loss(v)
        # exact: ln(1 + e^800) = 800 + ln(1 + e^-800), correction < 1e-300
        assert val[0] == 800.0
        assert _logistic_loss(np.array([800.0]))[0] == 0.0
        assert _logistic_loss(np.array([0.0]))[0] == math.log(2.0)
        assert _logistic_loss_prime(np.array([0.0]))[0] == -0.5
        assert _logistic_loss_prime(np.array([-800.0]))[0] == -1.0

    def test_construction_is_deterministic(self):
        a = make_logistic(20, 10, lam=1e-4, seed=5)
        b = make_logistic(20, 10, lam=1e-4, seed=5)
        x = np.linspace(-1, 1, 10)
        fa, ga = a.evaluate(x)
        fb, gb = b.evaluate(x)
        assert fa == fb
        assert np.array_equal(ga, gb)

    def test_different_seeds_differ(self):
        a = make_logistic(20, 10, lam=1e-4, seed=5)
        b = make_logistic(20, 10, lam=1e-4, seed=6)
        x = np.ones(10)
        assert a.evaluate(x)[0] != b.evaluate(x)[0]


class TestHuber:
    def test_loss_is_c1_at_the_knots(self):
        prob = make_huber(1, tau=2.0)
        tau = 2.0
        # zeta values from the middle and right pieces agree at t = tau
        assert tau**2 == -(tau**2) + 2 * tau * tau
        # evaluate f at points straddling a knot and check gradient continuity
        # via small finite differences on the 1-d instance
        for t in (tau, -tau):
            x = np.array([t + 1.0])  # residual of row 1 is x - 1
            f, g = prob.evaluate(x)
            fd = finite_diff_gradient(prob, x, h=1e-7)
            assert abs(g[0] - fd[0]) <= 1e-5 * (1 + abs(g[0]))

    def test_outer_piece_values(self):
        # zeta(2 tau) = 3 tau^2 on both sides
        tau = 5.0
        prob = make_huber(1, tau=tau)
        # n = 1: rows are x - 1 and -x - 2; choose x so the first residual
        # is exactly +-2 tau and subtract the second row's contribution
        for sign in (+1.0, -1.0):
            x = np.array([1.0 + sign * 2 * tau])
            f, _ = prob.evaluate(x)
            t2 = -x[0] - 2.0
            zeta2 = t2 * t2 if abs(t2) <= tau else -tau * tau + 2 * tau * abs(t2)
            assert abs((f - zeta2) - 3.0 * tau * tau) <= 1e-12 * max(1.0, f)

    def test_small_case_against_brute_force(self, rng):
        # oracle: explicit 4x3 stencil and the piecewise formula, summed term
        # by term
        tau = 1.5
        prob = make_huber(3, tau=tau)
        A = np.array([
            [1.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0],
            [0.0, -1.0, 1.0],
            [0.0, 0.0, -1.0],
        ])
        b = np.array([1.0, 2.0, 3.0, 4.0])

        def zeta(t):
            if t <= -tau:
                return -tau * tau - 2 * tau * t
            if t >= tau:
                return -tau * tau + 2 * tau * t
            return t * t

        def zeta_prime(t):
            if t <= -tau:
                return -2 * tau
            if t >= tau:
                return 2 * tau
            return 2 * t

        for x in (np.zeros(3), rng.standard_normal(3), rng.standard_normal(3) * 4):
            t = A @ x - b
            f_brute = sum(zeta(ti) for ti in t)
            g_brute = A.T @ np.array([zeta_prime(ti) for ti in t])
            f, g = prob.evaluate(x)
            assert abs(f - f_brute) <= 1e-12 * (1 + abs(f_brute))
            assert np.allclose(g, g_brute, atol=1e-12)

    def test_metadata(self):
        prob = make_huber(100, tau=10.0)
        assert prob.default_L == 8.0
        assert prob.default_ell == 0.0


class TestSpectralNorm:
    def test_scaled_identity_exact_after_one_iteration(self):
        # the unit start vector is already the top singular vector and stays exact
        got = estimate_spectral_norm(lambda x: 2.0 * x, lambda y: 2.0 * y, 4)
        assert got == 2.0

    def test_diag_one_three_converges(self):
        d = np.array([1.0, 3.0])
        got = estimate_spectral_norm(lambda x: d * x, lambda y: d * y, 2)
        assert abs(got - 3.0) <= 1e-6

    def test_orthonormal_rows_give_unit_norm(self):
        A = dct_rows(first_primes(16), 256)
        got = estimate_spectral_norm(lambda x: A @ x, lambda y: A.T @ y, 256)
        assert abs(got - 1.0) <= 1e-6

    def test_zero_operator(self):
        got = estimate_spectral_norm(lambda x: 0.0 * x, lambda y: 0.0 * y, 3)
        assert got == 0.0


FAMILY_CASES = [
    ("quad", dict(n=50)),
    ("abpdn", dict(n=256, lam=1e-3, delta=1e-4)),
    ("logistic", dict(n=30, m=60, lam=1e-4, seed=0)),
    ("huber", dict(n=100, tau=10.0)),
]


@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_gradients_match_finite_differences(family, kwargs, rng):
    prob = ProblemSpec(family=family, **kwargs).build()
    for _ in range(10):
        x = rng.standard_normal(prob.n)
        h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
        g = prob.evaluate(x)[1]
        g_fd = finite_diff_gradient(prob, x, h)
        rel = np.linalg.norm(g_fd - g) / max(np.linalg.norm(g), 1e-30)
        assert rel <= 1e-5, f"{family}: finite-difference mismatch {rel:.2e}"


@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_convexity_along_random_segments(family, kwargs, rng):
    prob = ProblemSpec(family=family, **kwargs).build()
    for _ in range(100):
        a = rng.standard_normal(prob.n) * rng.uniform(0.1, 3.0)
        b = rng.standard_normal(prob.n) * rng.uniform(0.1, 3.0)
        fa = prob.evaluate(a)[0]
        fb = prob.evaluate(b)[0]
        fm = prob.evaluate(0.5 * (a + b))[0]
        scale = 1.0 + abs(fa) + abs(fb)
        assert fm <= 0.5 * (fa + fb) + 1e-9 * scale


@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_construction_determinism(family, kwargs, rng):
    spec = ProblemSpec(family=family, **kwargs)
    p1 = spec.build()
    p2 = spec.build()
    for _ in range(3):
        x = rng.standard_normal(p1.n)
        f1, g1 = p1.evaluate(x)
        f2, g2 = p2.evaluate(x)
        assert f1 == f2
        assert np.array_equal(g1, g2)


class TestProblemSpec:
    def test_kv_round_trip(self):
        spec = ProblemSpec(family="logistic", n=300, m=600, lam=1e-4, sigma=0.4, seed=7)
        kv = "family=logistic n=300 m=600 lambda=0.0001 sigma=0.4 seed=7"
        assert ProblemSpec.from_kv(dict(tok.split("=") for tok in kv.split())) == spec
        assert spec.label() == "logistic(n=300,m=600,lambda=0.0001,sigma=0.4,seed=7)"

    def test_label_resolves_defaults(self):
        # a default set explicitly and one left unset name the same instance
        assert (ProblemSpec("logistic", 20).label()
                == ProblemSpec("logistic", 20, seed=0).label()
                == "logistic(n=20,m=40,lambda=0.0001,sigma=0.4,seed=0)")

    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidSpec):
            ProblemSpec(family="cubic", n=10)

    def test_defaults_applied_at_build(self):
        prob = ProblemSpec(family="huber", n=40).build()
        assert "tau=4" in prob.name
