import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cagopt.errors import InvalidSpec, NumericalFailure
from cagopt.estimate_sequence import advance_estimate, compute_theta_gamma, nesterov_bound
from cagopt.oracle import Evaluation


def anchor(bar_x, bar_f, bar_g):
    """An evaluated anchor point with its gradient norm and square, as
    ``evaluate_counted`` records it."""
    gg = float(bar_g @ bar_g)
    return Evaluation(bar_x, bar_f, bar_g, math.sqrt(gg), gg)


def advance(gamma, v, phi_star, theta, gamma_next, ell, anchor):
    """(v_next, phi*_next) from ``advance_estimate``, with v_next in a fresh
    array and a fresh work vector."""
    v_next, work = np.empty_like(v), np.empty_like(v)
    phi_next = advance_estimate(gamma, v, phi_star, theta, gamma_next, ell, anchor, v_next, work)
    return v_next, phi_next


def advance_estimate_reference(gamma, v, phi_star, theta, gamma_next, ell, anchor):
    """``advance_estimate``'s (v_next, phi*_next), spelled out with fresh arrays
    as its docstring's formulas read, the ell terms left out at ell = 0; the
    in-place update must equal it byte for byte."""
    bar_x, bar_f, bar_g, _, bar_gg = anchor
    dv = v - bar_x
    if ell:
        v_next = (
            (1.0 - theta) * gamma * v + (theta * ell) * bar_x - theta * bar_g
        ) / gamma_next
        cross = 0.5 * ell * float(dv @ dv) + float(bar_g @ dv)
    else:
        v_next = ((1.0 - theta) * gamma * v - theta * bar_g) / gamma_next
        cross = float(bar_g @ dv)
    phi_next = (
        (1.0 - theta) * phi_star
        + theta * bar_f
        - (theta * theta / (2.0 * gamma_next)) * bar_gg
        + (theta * (1.0 - theta) * gamma / gamma_next) * cross
    )
    return v_next, phi_next


@st.composite
def estimate_updates(draw):
    """The arguments (gamma, v, phi*, theta, gamma_next, ell, anchor) of one
    ``advance_estimate`` call: ell is 0 or
    in (0, L], gamma in [ell, L] and vector entries +-0.0 or of either sign
    over twelve decades."""
    n = draw(st.integers(1, 12))
    entries = st.one_of(st.sampled_from([0.0, -0.0]),
                        st.floats(-1e6, 1e6, allow_subnormal=False))
    vector = st.lists(entries, min_size=n, max_size=n).map(np.array)
    L = draw(st.floats(1e-3, 1e6))
    ell = draw(st.one_of(st.just(0.0), st.floats(1e-9, 1.0).map(lambda t: t * L)))
    gamma = draw(st.floats(max(ell, 1e-3 * L), L))
    theta, gamma_next = compute_theta_gamma(L, ell, gamma)
    v, phi_star = draw(vector), draw(st.floats(-1e6, 1e6))
    point = anchor(draw(vector), draw(st.floats(-1e6, 1e6)), draw(vector))
    return gamma, v, phi_star, theta, gamma_next, ell, point


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
        v = np.zeros(2)
        theta, gamma_next = compute_theta_gamma(1.0, 0.0, 1.0)
        v_next, phi_next = advance(
            1.0, v, 3.0, theta, gamma_next, 0.0, anchor(np.ones(2), 2.0, np.zeros(2)))
        assert np.allclose(v_next, v)
        assert abs(phi_next - ((1 - theta) * 3.0 + theta * 2.0)) <= 1e-15

    def test_hand_computed_case(self):
        # oracle: direct evaluation of the v/phi* recurrences with
        # theta=0.5, gamma=1, ell=0, gamma'=0.5, v=(0,0), bar_x=(1,0),
        # bar_f=2, bar_g=(1,0), phi*=3:
        #   v' = [0.5*1*(0,0) - 0.5*(1,0)] / 0.5 = (-1, 0)
        #   phi*' = 1.5 + 1 - (0.25/1)*1 + (0.25/0.5)*(0 + (1,0).(-(1,0)))
        #         = 1.5 + 1 - 0.25 - 0.5 = 1.75
        v_next, phi_next = advance(
            1.0, np.zeros(2), 3.0, 0.5, 0.5, 0.0,
            anchor(np.array([1.0, 0.0]), 2.0, np.array([1.0, 0.0])),
        )
        assert np.allclose(v_next, np.array([-1.0, 0.0]), atol=1e-15)
        assert abs(phi_next - 1.75) <= 1e-15

    def test_anchor_at_centre_drops_cross_term(self, rng):
        n = 5
        v = rng.standard_normal(n)
        theta, gamma_next = compute_theta_gamma(2.0, 0.0, 2.0)
        bar_g = rng.standard_normal(n)
        v_next, phi_next = advance(
            2.0, v, 1.0, theta, gamma_next, 0.0, anchor(v.copy(), 4.0, bar_g))
        expected_v = v - (theta / gamma_next) * bar_g
        expected_phi = (
            (1 - theta) * 1.0
            + theta * 4.0
            - theta**2 / (2 * gamma_next) * float(bar_g @ bar_g)
        )
        assert np.allclose(v_next, expected_v, atol=1e-14)
        assert abs(phi_next - expected_phi) <= 1e-12 * (1 + abs(expected_phi))

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
        theta, gamma_next = compute_theta_gamma(1.0, 0.0, 1.0)
        # as inside the solvers, which keep numpy's overflow warning quiet
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
            advance(
                1.0, np.zeros(2), 0.0, theta, gamma_next, 0.0, anchor(np.ones(2), bar_f, bar_g))


    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(update=estimate_updates())
    def test_update_equals_the_fresh_array_formula_byte_for_byte(self, update):
        # into a separate buffer, which leaves v as it was, and into v itself
        v, point = update[1], update[-1]
        anchor_then = [a.tobytes() for a in (point.x, point.g)]
        v_ref, phi_ref = advance_estimate_reference(*update)
        for into_v in (False, True):
            v_then = v.copy()
            out, work = (v if into_v else np.empty_like(v)), np.empty_like(v)
            phi_next = advance_estimate(*update, out, work)
            assert out.tobytes() == v_ref.tobytes()
            assert phi_next.hex() == phi_ref.hex()
            assert into_v or v.tobytes() == v_then.tobytes()
            assert [a.tobytes() for a in (point.x, point.g)] == anchor_then
            v[:] = v_then

    def test_ell_terms_are_skipped_at_ell_zero(self):
        # ell * ||dv||^2 / 2 would be 0 * inf = nan here, and ell bar_x adds
        # +0.0 to -0.0; neither term is formed at ell = 0
        theta, gamma_next = compute_theta_gamma(1.0, 0.0, 1.0)
        v, bar_x = np.array([1e200, -0.0]), np.array([-1e200, 1.0])
        v_next, phi_next = advance(1.0, v, 0.0, theta, gamma_next, 0.0,
                                   anchor(bar_x, 0.0, np.zeros(2)))
        assert phi_next == 0.0
        assert math.copysign(1.0, v_next[1]) == -1.0


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

    @pytest.mark.parametrize("L, ell", [(1.0, 2.0), (0.0, 0.0), (-1.0, 0.0), (1.0, -0.5)])
    def test_rejects_moduli_outside_0_ell_L(self, L, ell):
        # ell = 2 > L = 1 used to return -0.071 at k = 3, a negative gap
        with pytest.raises(InvalidSpec, match="0 <= ell <= L"):
            nesterov_bound(L, ell, 3, 1.0)

    @pytest.mark.parametrize("k, dist0_sq", [(-1, 1.0), (3, -1.0)])
    def test_rejects_a_negative_index_or_squared_distance(self, k, dist0_sq):
        with pytest.raises(InvalidSpec, match="must be nonnegative"):
            nesterov_bound(1.0, 0.5, k, dist0_sq)
