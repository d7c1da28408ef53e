import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cagopt.problems
from cagopt import (
    InvalidSpec,
    ObjectiveProblem,
    ProblemSpec,
    RunConfig,
    SolverConfig,
    lcg_minimize,
    make_abpdn,
    make_huber,
    make_logistic,
    make_quad_diag,
)
from cagopt.problems import (
    _DRAW_CHUNK,
    _logistic_loss,
    _logistic_loss_prime,
    _standard_normal,
    dct_row_operator,
    estimate_spectral_norm,
    first_primes,
    quad_diag_system,
)
from cagopt.harness import run_config_from_tokens

from conftest import count_builds, finite_diff_gradient


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


def huber_reference(n, tau, x):
    """make_huber's value and gradient by the piecewise formula, branch by
    branch; ``make_huber``'s in-place kernel must equal it bit for bit."""
    b = np.arange(1, n + 2, dtype=float)
    r = np.empty(n + 1)
    r[0] = x[0]
    r[1:n] = x[1:] - x[:-1]
    r[n] = -x[-1]
    t = r - b
    inner = np.abs(t) <= tau
    f = float(np.sum(np.where(inner, t * t, -tau * tau + 2.0 * tau * np.abs(t))))
    zp = np.where(inner, 2.0 * t, 2.0 * tau * np.sign(t))
    return f, zp[:n] - zp[1:]


def closed_over_arrays(fn):
    """Every array ``fn`` closes over, directly or through the functions it
    closes over."""
    arrays, todo = [], [fn]
    while todo:
        for cell in todo.pop().__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif callable(value) and getattr(value, "__closure__", None):
                todo.append(value)
    return arrays


def standard_normal_reference(rng, shape):
    """The Box-Muller draw spelled out with fresh arrays; ``_standard_normal``'s
    in-place draw must equal it byte for byte."""
    total = int(np.prod(shape))
    half = (total + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return z[:total].reshape(shape)


@st.composite
def huber_points(draw):
    """(n, tau, x) with residuals (A x - b)_i drawn exactly at +-tau, at 0 or
    inside a few tau, and x entries drawn at +-0.0 and +-1e300.  tau is a
    multiple of 1/8 and b holds integers, so the knots are hit exactly."""
    n = draw(st.integers(1, 50))
    tau = draw(st.integers(1, 2**12)) / 8.0
    x = np.empty(n)
    prev = 0.0
    for i in range(n):
        kind = draw(st.sampled_from(["+tau", "-tau", "zero", "free", "signed-zero", "huge"]))
        if kind == "signed-zero":
            x[i] = draw(st.sampled_from([0.0, -0.0]))
        elif kind == "huge":
            x[i] = draw(st.sampled_from([1e300, -1e300]))
        else:
            residual = {"+tau": tau, "-tau": -tau, "zero": 0.0}.get(kind)
            if residual is None:
                residual = draw(st.floats(-4.0 * tau, 4.0 * tau))
            x[i] = prev + (i + 1) + residual  # row i's residual is x_i - x_{i-1} - (i + 1)
        prev = x[i]
    return n, tau, x


class TestFirstPrimes:
    def test_first_five(self):
        assert first_primes(5) == [2, 3, 5, 7, 11]

    def test_single(self):
        assert first_primes(1) == [2]

    def test_rejects_m_below_one(self):
        with pytest.raises(InvalidSpec, match="need m >= 1"):
            first_primes(0)

    def test_matches_sieve_oracle_at_256(self):
        oracle = sieve_of_eratosthenes(2000)[:256]
        got = first_primes(256)
        assert got == oracle
        assert got[-1] == 1619


class TestQuadDiag:
    def test_rejects_n_below_one(self):
        with pytest.raises(InvalidSpec, match="need n >= 1"):
            quad_diag_system(0)

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

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (2001, 1), (40, 20),
                                       (1, 4 * _DRAW_CHUNK + 2001)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_draw_equals_the_spelled_out_formula_byte_for_byte(self, seed, shape):
        # odd totals leave the last sine unused; the last shape's half spans
        # two full chunks of the transform and a partial one
        z = _standard_normal(np.random.Generator(np.random.Philox(seed)), shape)
        ref = standard_normal_reference(np.random.Generator(np.random.Philox(seed)), shape)
        assert z.shape == ref.shape == shape
        assert z.tobytes() == ref.tobytes()

    def test_name_tells_instances_that_differ_only_in_sigma_apart(self):
        # the name is what a NumericalFailure message quotes
        names = [make_logistic(20, 10, sigma=sigma).name for sigma in (0.4, 0.8)]
        assert names == ["logistic(n=10,m=20,lambda=0.0001,sigma=0.4,seed=0)",
                         "logistic(n=10,m=20,lambda=0.0001,sigma=0.8,seed=0)"]

    def test_instance_equals_the_one_built_on_the_reference_draw(self, monkeypatch):
        x = np.linspace(-1.0, 1.0, 20)
        prob = make_logistic(40, 20, seed=3)
        monkeypatch.setattr(cagopt.problems, "_standard_normal", standard_normal_reference)
        ref = make_logistic(40, 20, seed=3)
        assert prob.default_L == ref.default_L
        (f, g), (f_ref, g_ref) = prob.evaluate(x), ref.evaluate(x)
        assert f == f_ref
        assert g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("m, n, lam, sigma", [
        (1, 5, 1e-4, 1e300), (6, 3, 0.0, 1e200), (6, 3, 1e-4, 1e100), (40, 5, 1e-4, 1e308),
    ])
    def test_a_design_too_large_for_doubles_is_rejected_without_a_warning(
        self, m, n, lam, sigma
    ):
        # A or its norm overflows, so L is inf or NaN; the build warned
        # first, and at sigma 1e100 the estimate fell to 0 and L to lam
        with pytest.raises(InvalidSpec, match="L must be positive and finite"):
            make_logistic(m, n, lam=lam, sigma=sigma)

    def test_build_peak_memory_is_the_design_plus_one_chunk(self):
        # the draw fills A in place next to one chunk-size buffer (256 KB,
        # 1.6% of A); the spelled-out formula with fresh arrays peaks at
        # 3.5 times A
        m, n = 2000, 1000
        tracemalloc.start()
        try:
            make_logistic(m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * m * n


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

    @pytest.mark.parametrize("n,start_is_minimiser", [(10, True), (20, False)])
    def test_default_tau_starts_at_the_minimiser_up_to_n_10(self, n, start_is_minimiser):
        # tau = n/10 <= 1 puts every residual of x0 = 0 on the lower tail,
        # where the stencil's column sums cancel the slopes
        g = ProblemSpec("huber", n).build().evaluate(np.zeros(n))[1]
        assert (np.linalg.norm(g) == 0.0) == start_is_minimiser

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

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(point=huber_points(), bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
           where=st.integers(0, 49))
    def test_kernel_equals_the_piecewise_formula_bit_for_bit(self, point, bad, where):
        n, tau, x = point
        if bad is not None:
            x[where % n] = bad
        # 1e300 residuals overflow t * t, and non-finite ones make NaNs
        with np.errstate(over="ignore", invalid="ignore"):
            f_ref, g_ref = huber_reference(n, tau, x)
            f, g = make_huber(n, tau).evaluate(x)
        assert isinstance(f, float)
        if math.isnan(f_ref):
            assert math.isnan(f)
        else:
            assert np.float64(f).tobytes() == np.float64(f_ref).tobytes()
        nan = np.isnan(g_ref)
        assert np.array_equal(np.isnan(g), nan)
        assert g[~nan].tobytes() == g_ref[~nan].tobytes()
        assert bad is not None or not nan.any()

    @pytest.mark.parametrize("tau", [1e155, 1e160, 1e308, math.inf])
    def test_a_tau_whose_square_overflows_is_rejected(self, tau):
        # 2 tau or tau^2 = inf made evaluations at far points warn of invalid values
        with pytest.raises(InvalidSpec):
            make_huber(4, tau)
        with pytest.raises(InvalidSpec):
            ProblemSpec("huber", 4, tau=tau)

    def test_the_largest_tau_evaluates_far_points_without_a_warning(self):
        tau = 1e154  # tau^2 = 1e308 is finite
        x = np.array([1e300, -1e300, 1e300, 0.0])
        with np.errstate(over="ignore"):
            f, g = make_huber(4, tau).evaluate(x)
        assert f == math.inf
        assert np.isfinite(g).all()

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

    def test_an_overflowing_norm_is_returned_not_read_as_zero(self):
        # ||A^T A x|| = 1e400 overflows; scaling x by it gave 0
        with np.errstate(over="ignore"):
            got = estimate_spectral_norm(lambda x: 1e200 * x, lambda y: 1e200 * y, 3)
        assert got == math.inf


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
def test_gradient_shares_no_memory(family, kwargs, rng):
    # solvers keep gradients across iterations (state.point, _Run.best), so
    # evaluate must never return a view of x or of a buffer it reuses
    prob = ProblemSpec(family=family, **kwargs).build()
    x, y = rng.standard_normal(prob.n), rng.standard_normal(prob.n)
    g1 = prob.evaluate(x)[1]
    g2 = prob.evaluate(y)[1]
    assert g1.flags.writeable  # not a view of the read-only instance arrays
    assert not np.shares_memory(g1, x)
    assert not np.shares_memory(g2, y)
    assert not np.shares_memory(g1, g2)


@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_instance_arrays_are_read_only(family, kwargs):
    # runs of several solvers share one built instance, so none may change it
    prob = ProblemSpec(family=family, **kwargs).build()
    arrays = closed_over_arrays(prob.evaluate)
    assert arrays and not any(a.flags.writeable for a in arrays)
    if prob.known_xstar is not None:
        with pytest.raises(ValueError):
            prob.known_xstar[0] = 0.0


@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_construction_determinism(family, kwargs, rng):
    # the family constructor itself, since ProblemSpec.build returns its
    # held instance on the second call
    make = cagopt.problems._FAMILIES[family].make
    args = ProblemSpec(family=family, **kwargs)._args()
    p1 = make(**args)
    p2 = make(**args)
    for _ in range(3):
        x = rng.standard_normal(p1.n)
        f1, g1 = p1.evaluate(x)
        f2, g2 = p2.evaluate(x)
        assert f1 == f2
        assert np.array_equal(g1, g2)


@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_a_built_instance_is_named_by_its_label(family, kwargs):
    spec = ProblemSpec(family=family, **kwargs)
    assert spec.build().name == spec.label()


class TestProblemSpec:
    def test_kv_round_trip(self):
        spec = ProblemSpec(family="logistic", n=300, m=600, lam=1e-4, sigma=0.4, seed=7)
        kv = "family=logistic n=300 m=600 lambda=0.0001 sigma=0.4 seed=7 solver=cag"
        assert run_config_from_tokens(kv.split()).problem == spec
        assert spec.label() == "logistic(n=300,m=600,lambda=0.0001,sigma=0.4,seed=7)"

    def test_label_resolves_defaults(self):
        # a default set explicitly and one left unset name the same instance
        assert (ProblemSpec("logistic", 20).label()
                == ProblemSpec("logistic", 20, seed=0).label()
                == "logistic(n=20,m=40,lambda=0.0001,sigma=0.4,seed=0)")

    def test_label_prints_a_float_that_g_would_round_in_full(self):
        # huber's default tau is n/10: %g would print 123456.7 as 123457
        assert ProblemSpec("huber", 1234567).label() == "huber(n=1234567,tau=123456.7)"
        assert ProblemSpec("huber", 1000000).label() == "huber(n=1000000,tau=100000)"
        assert ProblemSpec("huber", 50, tau=2.0000001).label() == "huber(n=50,tau=2.0000001)"
        assert ProblemSpec("huber", 50, tau=2.5).label() == "huber(n=50,tau=2.5)"

    def test_names_tell_floats_that_g_would_round_alike_apart(self):
        assert make_huber(50, 2.0000001).name != make_huber(50, 2.0).name
        assert make_huber(50, 2.0000001).name == "huber(n=50,tau=2.0000001)"

    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidSpec):
            ProblemSpec(family="cubic", n=10)

    def test_numpy_integers_are_integers(self):
        assert ProblemSpec("quad", np.int64(10)).label() == "quad(n=10)"
        spec = ProblemSpec("logistic", np.int64(4), m=np.int32(8), seed=np.uint8(1))
        assert spec.label() == "logistic(n=4,m=8,lambda=0.0001,sigma=0.4,seed=1)"

    def test_defaults_applied_at_build(self):
        prob = ProblemSpec(family="huber", n=40).build()
        assert "tau=4" in prob.name


# Each builds an object from arguments it must refuse: a size, seed or budget
# that is not an integer (a float one built a wrongly sized instance or raised
# TypeError in a suite; a bool one, True, passed as 1), an int parameter too
# large for a float (which passed a < inf check and raised OverflowError at
# build or evaluation), or a bool L, ell, gtol or family parameter (which ran
# as 0 or 1, and named the instance ``huber(n=10,tau=True)``).
@pytest.mark.parametrize("make", [
    lambda: ProblemSpec("quad", 3.5),
    lambda: ProblemSpec("quad", True),
    lambda: ProblemSpec("logistic", 4, m=True),
    lambda: ProblemSpec("logistic", 4, seed=True),
    lambda: ProblemSpec("logistic", 4, seed=False),
    lambda: ProblemSpec("huber", 3.5),
    lambda: ProblemSpec("logistic", 4, seed=1.5),
    lambda: ProblemSpec("logistic", 4, m=8.0),
    lambda: ProblemSpec("abpdn", 16.0),
    lambda: make_huber(4, 10**200),
    lambda: ProblemSpec("huber", 4, tau=10**200),
    lambda: make_abpdn(4, lam=10**400),
    lambda: make_abpdn(4, delta=10**400),
    lambda: make_logistic(4, 2, lam=10**400),
    lambda: make_logistic(4, 2, sigma=10**400),
    lambda: RunConfig(ProblemSpec("quad", 10), "lcg", max_evals=10.5),
    lambda: RunConfig(ProblemSpec("quad", 10), "cag", max_evals=10.5),
    lambda: SolverConfig(L=1.0, max_evals=2.5),
    lambda: lcg_minimize(quad_diag_system(4), np.zeros(4), 1e-8, 2.5),
    lambda: RunConfig(ProblemSpec("quad", 10), "cag", max_evals=True),
    lambda: SolverConfig(L=1.0, max_evals=True),
    lambda: SolverConfig(L=True),
    lambda: SolverConfig(L=1.0, ell=True),
    lambda: SolverConfig(L=1.0, gtol=True),
    lambda: SolverConfig(L=np.True_),
    lambda: RunConfig(ProblemSpec("quad", 10), "cag", L=True),
    lambda: RunConfig(ProblemSpec("quad", 10), "lcg", gtol=True),
    lambda: ObjectiveProblem("f", 1, lambda x: (0.0, x), default_L=True),
    lambda: ProblemSpec("huber", 10, tau=True),
    lambda: make_huber(10, True),
    lambda: ProblemSpec("abpdn", 4, lam=True),
    lambda: make_abpdn(4, delta=True),
    lambda: ProblemSpec("logistic", 4, lam=False),
    lambda: make_logistic(4, 2, sigma=True),
], ids=["quad-n", "quad-bool-n", "logistic-bool-m", "logistic-bool-seed", "logistic-false-seed",
        "huber-n", "logistic-seed", "logistic-m", "abpdn-n", "make_huber-tau",
        "spec-huber-tau", "make_abpdn-lam", "make_abpdn-delta", "make_logistic-lam",
        "make_logistic-sigma", "lcg-max_evals", "cag-max_evals", "SolverConfig-max_evals",
        "lcg_minimize-max_iters", "cag-bool-max_evals", "SolverConfig-bool-max_evals",
        "SolverConfig-bool-L", "SolverConfig-bool-ell", "SolverConfig-bool-gtol",
        "SolverConfig-numpy-bool-L", "cag-bool-L", "lcg-bool-gtol", "ObjectiveProblem-bool-L",
        "spec-huber-bool-tau", "make_huber-bool-tau", "spec-abpdn-bool-lam",
        "make_abpdn-bool-delta", "spec-logistic-bool-lam", "make_logistic-bool-sigma"])
def test_refused_where_made(make):
    with pytest.raises(InvalidSpec):
        make()


# Sizes and optional-parameter values of drawn specs, by family: small pools
# that hold defaults of some of the sizes (tau = n/10, m = 2n) and values a
# rounding apart from them, so that two draws often resolve alike.
_SIZES = {"quad": [4, 9, 10], "abpdn": [4, 9, 16], "logistic": [4, 5, 10], "huber": [10, 20, 25]}
_POOLS = {
    "quad": {},
    "abpdn": {"lam": [1e-3, 0.01, 0.010000000000000002], "delta": [1e-4, 1e-3]},
    "logistic": {"m": [8, 10, 20], "lam": [1e-4, 0.0, -0.0],
                 "sigma": [0.4, 0.8, 0.4000000000000001], "seed": [0, 3]},
    "huber": {"tau": [1.0, 2.0, 2.5, 2.0000000000000004]},
}


@st.composite
def specs(draw, family):
    """A spec of ``family`` with each optional parameter unset or drawn from its pool."""
    params = {field: draw(st.none() | st.sampled_from(pool))
              for field, pool in _POOLS[family].items()}
    return ProblemSpec(family, draw(st.sampled_from(_SIZES[family])), **params)


@st.composite
def spec_pairs(draw, family):
    """Two specs of ``family``: drawn apart, or the second a copy of the
    first with one field redrawn (perhaps to its value, or unset)."""
    a = draw(specs(family))
    if draw(st.booleans()):
        return a, draw(specs(family))
    field = draw(st.sampled_from(["n", *_POOLS[family]]))
    pool = _SIZES[family] if field == "n" else [None, *_POOLS[family][field]]
    return a, dataclasses.replace(a, **{field: draw(st.sampled_from(pool))})


def resolved(spec):
    """The family and resolved arguments, a zero's sign included."""
    return spec.family, [(key, value, math.copysign(1, value))
                         for key, value in spec._args().items()]


@pytest.mark.parametrize("family", sorted(_POOLS))
@settings(derandomize=True, max_examples=40)
@given(data=st.data())
def test_two_specs_share_a_label_exactly_when_they_resolve_alike(family, data):
    a, b = data.draw(spec_pairs(family))
    assert (a.label() == b.label()) == (resolved(a) == resolved(b))


@pytest.mark.parametrize("family", sorted(_POOLS))
@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data())
def test_a_drawn_spec_builds_an_instance_named_by_its_label(family, data):
    spec = data.draw(specs(family))
    assert spec.build().name == spec.label()


class TestBuildCache:
    def test_equal_resolved_arguments_share_one_instance(self):
        # tau = 4 is huber n=40's default
        assert ProblemSpec("huber", 40).build() is ProblemSpec("huber", 40, tau=4.0).build()

    def test_each_change_of_instance_builds_again(self, monkeypatch):
        calls = count_builds(monkeypatch, "huber")
        a, b = ProblemSpec("huber", 40), ProblemSpec("huber", 40, tau=2.0)
        first = a.build()
        b.build()
        again = a.build()
        assert [args["tau"] for args in calls] == [4.0, 2.0, 4.0]
        assert again is not first

    def test_a_build_of_another_family_keeps_the_held_instance(self, monkeypatch):
        calls = {family: count_builds(monkeypatch, family) for family in ("huber", "quad")}
        first = ProblemSpec("huber", 40).build()
        ProblemSpec("quad", 10).build()
        assert ProblemSpec("huber", 40).build() is first
        assert {family: len(args) for family, args in calls.items()} == {"huber": 1, "quad": 1}

    def test_a_zero_of_either_sign_is_its_own_instance(self):
        # -0.0 == 0.0, but the labels name two instances, and so must the cache
        negative = ProblemSpec("logistic", 10, lam=-0.0).build()
        positive = ProblemSpec("logistic", 10, lam=0.0).build()
        assert positive is not negative
        assert "lambda=-0," in negative.name and "lambda=0," in positive.name
        assert ProblemSpec("logistic", 10, lam=0.0).build() is positive

    def test_a_replaced_copy_leaves_the_held_instance_alone(self):
        # how a tracer wraps evaluate: on a copy, never on the held instance
        spec = ProblemSpec("quad", 10)
        problem = spec.build()
        evaluate = problem.evaluate
        dataclasses.replace(problem, evaluate=lambda x: evaluate(x))
        assert spec.build() is problem
        assert problem.evaluate is evaluate

    def test_the_held_instance_is_dropped_before_the_next_build(self):
        # building seed 1 while seed 0's design were still held would peak
        # at one design above a single build; the huber build between them
        # leaves seed 0's instance held, for seed 1's build to drop
        m, n = 2000, 1000
        tracemalloc.start()
        try:
            ProblemSpec("logistic", n, m=m, seed=0).build()
            ProblemSpec("huber", 40).build()
            ProblemSpec("logistic", n, m=m, seed=1).build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * m * n
