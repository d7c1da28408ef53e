import math

import numpy as np
import pytest

from cagopt.errors import NumericalFailure
from cagopt.estimate_sequence import (
    advance_estimate,
    compute_theta_gamma,
    init_estimate,
    nesterov_bound,
)


def quadratic_formula_root(L, ell, gamma):
    # independent oracle: plain quadratic formula for L t^2 + (gamma-ell) t - gamma
    b = gamma - ell
    return (-b + math.sqrt(b * b + 4.0 * L * gamma)) / (2.0 * L)


class TestComputeThetaGamma:
    def test_golden_ratio_case(self):
        theta, gamma_next = compute_theta_gamma(1.0, 0.0, 1.0)
        assert abs(theta - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-15
        assert abs(gamma_next - (1.0 - theta)) <= 1e-15

    def test_strongly_convex_fixed_point(self):
        theta, gamma_next = compute_theta_gamma(1.0, 1.0, 1.0)
        assert theta == 1.0
        assert gamma_next == 1.0

    def test_hand_case_and_identity(self):
        # oracle: quadratic formula for 2 t^2 + 0.5 t - 1 = 0
        oracle = quadratic_formula_root(2.0, 0.5, 1.0)
        theta, gamma_next = compute_theta_gamma(2.0, 0.5, 1.0)
        assert abs(theta - oracle) <= 1e-14
        assert abs(theta - 0.5930703308172536) <= 1e-12
        assert abs(gamma_next - 0.7034648345913732) <= 1e-12
        # identity residual: theta^2/(2 gamma') == 1/(2L) = 0.25
        assert abs(theta**2 / (2.0 * gamma_next) - 0.25) <= 1e-12 * 0.25

    def test_identity_holds_over_random_inputs(self, rng):
        for _ in range(500):
            L = 10.0 ** rng.uniform(-3, 8)
            ell = L * rng.uniform(0.0, 1.0)
            gamma = 10.0 ** rng.uniform(-6, 8)
            theta, gamma_next = compute_theta_gamma(L, ell, gamma)
            assert 0.0 < theta <= 1.0
            lhs = theta * theta / (2.0 * gamma_next)
            assert abs(lhs - 1.0 / (2.0 * L)) <= 1e-12 / (2.0 * L)
            # gamma_next is a convex combination of gamma and ell
            assert min(gamma, ell) - 1e-12 * gamma <= gamma_next
            assert gamma_next <= max(gamma, ell) * (1 + 1e-12)

    def test_extreme_conditioning_keeps_precision(self):
        # gamma >> ell is the cancellation-prone branch
        theta, gamma_next = compute_theta_gamma(1e6, 1.0, 1e6)
        assert abs(1e6 * theta * theta - gamma_next) <= 1e-12 * gamma_next


class TestAdvanceEstimate:
    def test_stationary_anchor_no_ell(self):
        state = init_estimate(3.0, np.zeros(2), 1.0)
        theta, gamma_next = compute_theta_gamma(1.0, 0.0, state.gamma)
        out = advance_estimate(state, theta, gamma_next, 0.0, np.ones(2), 2.0, np.zeros(2))
        assert np.allclose(out.v, state.v)
        assert abs(out.phi_star - ((1 - theta) * 3.0 + theta * 2.0)) <= 1e-15

    def test_hand_computed_case(self):
        # oracle: direct evaluation of the v/phi* recurrences with
        # theta=0.5, gamma=1, ell=0, gamma'=0.5, v=(0,0), bar_x=(1,0),
        # bar_f=2, bar_g=(1,0), phi*=3:
        #   v' = [0.5*1*(0,0) - 0.5*(1,0)] / 0.5 = (-1, 0)
        #   phi*' = 1.5 + 1 - (0.25/1)*1 + (0.25/0.5)*(0 + (1,0).(-(1,0)))
        #         = 1.5 + 1 - 0.25 - 0.5 = 1.75
        state = init_estimate(3.0, np.zeros(2), 1.0)
        out = advance_estimate(
            state, 0.5, 0.5, 0.0, np.array([1.0, 0.0]), 2.0, np.array([1.0, 0.0])
        )
        assert np.allclose(out.v, np.array([-1.0, 0.0]), atol=1e-15)
        assert abs(out.phi_star - 1.75) <= 1e-15

    def test_anchor_at_centre_drops_cross_term(self, rng):
        n = 5
        v = rng.standard_normal(n)
        state = init_estimate(1.0, v, 2.0)
        theta, gamma_next = compute_theta_gamma(2.0, 0.0, state.gamma)
        bar_g = rng.standard_normal(n)
        out = advance_estimate(state, theta, gamma_next, 0.0, v.copy(), 4.0, bar_g)
        expected_v = v - (theta / gamma_next) * bar_g
        expected_phi = (
            (1 - theta) * 1.0
            + theta * 4.0
            - theta**2 / (2 * gamma_next) * float(bar_g @ bar_g)
        )
        assert np.allclose(out.v, expected_v, atol=1e-14)
        assert abs(out.phi_star - expected_phi) <= 1e-12 * (1 + abs(expected_phi))

    def test_product_of_one_minus_theta_obeys_rate(self):
        # with ell = 0 the accumulated product stays below 4/(k+2)^2
        for L in (1.0, 1e6):
            gamma = L
            lam = 1.0
            for k in range(1, 10001):
                theta, gamma = compute_theta_gamma(L, 0.0, gamma)
                lam *= 1.0 - theta
                assert lam <= 4.0 / (k + 2) ** 2

    @pytest.mark.parametrize(
        "bar_f,bar_g",
        [(math.nan, np.zeros(2)), (math.inf, np.zeros(2)), (0.0, np.full(2, 1e200))],
        ids=["nan-value", "inf-value", "overflowing-gradient-square"],
    )
    def test_rejects_nonfinite_phi_star(self, bar_f, bar_g):
        state = init_estimate(0.0, np.zeros(2), 1.0)
        theta, gamma_next = compute_theta_gamma(1.0, 0.0, state.gamma)
        # as inside the solvers, which keep numpy's overflow warning quiet
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
            advance_estimate(state, theta, gamma_next, 0.0, np.ones(2), bar_f, bar_g)


class TestNesterovBound:
    def test_k_zero(self):
        assert nesterov_bound(1.0, 0.0, 0, 1.0) == 1.0

    def test_ell_equal_L_vanishes(self):
        assert nesterov_bound(1.0, 1.0, 5, 3.0) == 0.0

    def test_hand_case(self):
        # oracle: 100 * min(0.9^10, 4/144) * 1 = 100 * 4/144
        got = nesterov_bound(100.0, 1.0, 10, 1.0)
        assert abs(got - 100.0 * 4.0 / 144.0) <= 1e-12
        assert abs(got - 2.7777777777777777) <= 1e-12

    def test_monotone_nonincreasing_in_k(self):
        vals = [nesterov_bound(10.0, 0.5, k, 2.0) for k in range(200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
