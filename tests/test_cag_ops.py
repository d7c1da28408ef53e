import pickle
from dataclasses import fields

import numpy as np
import pytest

import cagopt.cag
from cagopt import EvalCounter, ObjectiveProblem, SolverConfig, StepKind, evaluate_counted
from cagopt.cag import (
    _ConvergedAt,
    _Run,
    bar_augment,
    cag_step,
    cg_attempt,
    hz_beta,
    secant_alpha,
    z_conjugate_update,
)
from cagopt.oracle import Evaluation

from conftest import random_spd_quadratic, start_run


def explicit_quadratic(A, b, L, ell, name="explicit"):
    def evaluate(x):
        Ax = A @ x
        return 0.5 * float(x @ Ax) - float(b @ x), Ax - b

    return ObjectiveProblem(name=name, n=b.size, evaluate=evaluate,
                            default_L=L, default_ell=ell)


def evaluated(prob, x):
    """The record of an evaluation at x, counted outside the counter under test."""
    return evaluate_counted(prob, x, EvalCounter())


def probe_run(prob, counter, L=None):
    """A run on ``prob`` at gtol 1e-12 that counts in ``counter``, for the
    evaluating helpers, none of which reads g0_norm; L defaults to the problem's own."""
    return _Run(prob, SolverConfig(prob.default_L if L is None else L, gtol=1e-12), counter, 1.0)


def gradient_record(g):
    """A record that carries only a gradient, its norm and square, for hz_beta."""
    return Evaluation(np.zeros_like(g), 0.0, g, float(np.linalg.norm(g)), float(g @ g))


def snapshot(state):
    """Each field of ``state`` with its object and that object's pickled content."""
    return {
        f.name: (getattr(state, f.name), pickle.dumps(getattr(state, f.name)))
        for f in fields(state)
    }


def moved_fields(state, before):
    """Names of the fields that were reassigned or changed in place since ``before``."""
    return {
        name
        for name, (value, content) in before.items()
        if getattr(state, name) is not value or pickle.dumps(value) != content
    }


class TestSecantAlpha:
    def test_hand_case_diag_1_2(self):
        # oracle: f = (x1^2 + 2 x2^2)/2, x=(1,1), p=(-1,-2):
        # Ap = (-1,-4), pAp = 1 + 8 = 9, g = (1,2), alpha = 5/9; the 1-d
        # restriction phi(a) = ((1-a)^2 + 2(1-2a)^2)/2 has phi'(5/9) = 0.
        A = np.diag([1.0, 2.0])
        prob = explicit_quadratic(A, np.zeros(2), 2.0, 1.0)
        counter = EvalCounter()
        x = np.array([1.0, 1.0])
        p = np.array([-1.0, -2.0])
        alpha, Ap, pAp = secant_alpha(probe_run(prob, counter), evaluated(prob, x), p, StepKind.CG)
        assert counter.count == 1
        assert pAp == 9.0
        assert abs(alpha - 5.0 / 9.0) <= 1e-15
        assert np.allclose(Ap, np.array([-1.0, -4.0]), atol=1e-12)
        # exact line minimiser: derivative of the restriction vanishes
        x_min = x + alpha * p
        assert abs(float((A @ x_min) @ p)) <= 1e-12

    def test_identity_hessian_steepest_descent(self):
        prob = explicit_quadratic(np.eye(2), np.zeros(2), 1.0, 1.0)
        counter = EvalCounter()
        point = evaluated(prob, np.array([1.0, 0.0]))
        # probe scale 2 keeps the probe off the minimiser, where the run would end
        alpha, _, _ = secant_alpha(probe_run(prob, counter, 2.0), point, -point.g, StepKind.CG)
        assert abs(alpha - 1.0) <= 1e-15
        assert np.allclose(point.x - alpha * point.g, np.zeros(2), atol=1e-15)

    def test_gradient_difference_reproduces_matrix_product(self, rng):
        A, b, L, ell, _ = random_spd_quadratic(rng, 6, 0.0, 2.0)
        prob = explicit_quadratic(A, b, L, ell)
        counter = EvalCounter()
        point = evaluated(prob, rng.standard_normal(6))
        p = rng.standard_normal(6)
        _, Ap, _ = secant_alpha(probe_run(prob, counter), point, p, StepKind.CG)
        assert np.allclose(Ap, A @ p, rtol=1e-9, atol=1e-9 * np.linalg.norm(A @ p))

    def test_nonpositive_curvature_raises_with_probe(self):
        # concave along p: f = -x^2/2
        prob = ObjectiveProblem(
            name="concave", n=1, evaluate=lambda x: (-0.5 * float(x @ x), -x),
            default_L=1.0,
        )
        counter = EvalCounter()
        point = evaluated(prob, np.array([1.0]))
        run = probe_run(prob, counter)
        assert secant_alpha(run, point, np.array([1.0]), StepKind.CG) is None
        assert counter.count == 1
        # the probe x + p/L = 0 has a zero gradient: the run ends there
        # although pAp <= 0 along p = -1
        with pytest.raises(_ConvergedAt) as info:
            secant_alpha(run, point, np.array([-1.0]), StepKind.SD)
        assert info.value.point.x[0] == 0.0
        assert info.value.kind is StepKind.SD
        assert counter.count == 2


class TestHzBeta:
    def test_hand_case(self):
        # oracle: y = (-1,1), y.p = 1, beta1 = (y - p*2*2/1).(0,1)/1 = (3,1).(0,1) = 1
        # beta2 = -1/(1 * min(0.01, 1)) = -100, max = 1
        beta = hz_beta(
            g=np.array([1.0, 0.0]),
            new=gradient_record(np.array([0.0, 1.0])),
            p=np.array([-1.0, 0.0]),
            g0_norm=1.0,
        )
        assert beta == 1.0

    def test_orthogonality_forces_zero_beta1(self):
        # g_next orthogonal to both y and p makes beta1 = 0 exactly, and the
        # negative safeguard beta2 loses the max
        y = np.array([0.0, 1.0, 0.0])
        p = np.array([0.0, 2.0, 0.0])
        g_next = np.array([0.0, 0.0, 3.0])
        g = g_next - y
        beta = hz_beta(g, gradient_record(g_next), p, g0_norm=10.0)
        assert beta == 0.0

    def test_vanishing_yp_returns_none(self):
        # y = g_next - g = (0, 1) is orthogonal to p = (1, 0)
        g, g_next, p = np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, 0.0])
        assert hz_beta(g, gradient_record(g_next), p, g0_norm=1.0) is None

    def test_reproduces_conjugate_direction_on_quadratic(self, rng):
        # oracle: explicit 5x5 SPD matrix and an exact line search step;
        # the next direction must be A-conjugate to the previous one.
        A, b, L, ell, _ = random_spd_quadratic(rng, 5, 0.0, 1.5)
        x0 = rng.standard_normal(5)
        g0 = A @ x0 - b
        p1 = -g0
        alpha = -float(g0 @ p1) / float(p1 @ (A @ p1))
        x1 = x0 + alpha * p1
        g1 = A @ x1 - b
        beta = hz_beta(g0, gradient_record(g1), p1, g0_norm=float(np.linalg.norm(g0)))
        p2 = -g1 + beta * p1
        rel = abs(float(p2 @ (A @ p1))) / (
            np.sqrt(float(p2 @ (A @ p2))) * np.sqrt(float(p1 @ (A @ p1)))
        )
        assert rel <= 1e-10


class TestZConjugateUpdate:
    def test_already_conjugate_is_noop(self):
        z = np.array([0.0, 1.0])
        p = np.array([1.0, 0.0])
        Ap = p.copy()  # identity operator
        z_next, zAz_next = z_conjugate_update(z, 1.0, p, Ap, 1.0)
        assert np.array_equal(z_next, z)
        assert zAz_next == 1.0

    def test_identity_matrix_hand_case(self):
        # oracle by hand with A = I: z=(1,1), p=(1,0): delta = 1, z' = (0,1),
        # zAz' = 2 - 2 + 1 = 1 = ||z'||^2
        z = np.array([1.0, 1.0])
        p = np.array([1.0, 0.0])
        z_next, zAz_next = z_conjugate_update(z, 2.0, p, p.copy(), 1.0)
        assert np.allclose(z_next, np.array([0.0, 1.0]))
        assert zAz_next == 1.0

    def test_three_updates_against_conjugate_directions(self, rng):
        # oracle: brute-force products with an explicit SPD matrix; build
        # three mutually conjugate directions by A-orthogonal Gram-Schmidt.
        A, _, _, _, _ = random_spd_quadratic(rng, 4, 0.0, 1.0)
        raw = rng.standard_normal((3, 4))
        ps = []
        for r in raw:
            v = r.copy()
            for q in ps:
                v -= (float(v @ (A @ q)) / float(q @ (A @ q))) * q
            ps.append(v)
        z = rng.standard_normal(4)
        zAz = float(z @ (A @ z))
        for p in ps:
            Ap = A @ p
            z, zAz = z_conjugate_update(z, zAz, p, Ap, float(p @ Ap))
        for p in ps:
            rel = abs(float(z @ (A @ p))) / (
                np.sqrt(float(z @ (A @ z))) * np.sqrt(float(p @ (A @ p)))
            )
            assert rel <= 1e-10
        explicit = float(z @ (A @ z))
        assert abs(zAz - explicit) <= 1e-10 * abs(explicit)


class TestBarAugment:
    def test_orthogonal_gradient_keeps_point(self):
        prob = explicit_quadratic(np.eye(2), np.zeros(2), 1.0, 1.0)
        counter = EvalCounter()
        x = np.array([2.0, 0.0])
        z = np.array([0.0, 1.0])  # g = x is orthogonal to z
        bar = bar_augment(probe_run(prob, counter), evaluated(prob, x), z, 1.0)
        assert np.array_equal(bar.x, x)
        assert counter.count == 1

    def test_never_increases_quadratic_value(self, rng):
        A, b, L, ell, _ = random_spd_quadratic(rng, 6, 0.0, 2.0)
        prob = explicit_quadratic(A, b, L, ell)
        for _ in range(20):
            counter = EvalCounter()
            point = evaluated(prob, rng.standard_normal(6))
            z = rng.standard_normal(6)
            zAz = float(z @ (A @ z))
            bar = bar_augment(probe_run(prob, counter), point, z, zAz)
            assert bar.f <= point.f + 1e-12 * (1.0 + abs(point.f))

    def test_matches_subspace_minimiser(self, rng):
        # oracle: solve the 2x2 normal equations for the minimiser of f over
        # x_m + span{p1, z}, where p1 is the first CG direction and z stays
        # conjugated; the augmented point after one step must coincide.
        A, b, L, ell, _ = random_spd_quadratic(rng, 3, 0.0, 1.0)
        prob = explicit_quadratic(A, b, L, ell)
        counter = EvalCounter()
        x_m = rng.standard_normal(3)
        g_m = A @ x_m - b
        z0 = rng.standard_normal(3)
        p1 = -g_m
        # one exact CG step
        alpha = -float(g_m @ p1) / float(p1 @ (A @ p1))
        x1 = x_m + alpha * p1
        # conjugate z against p1, then take the augmented point
        Ap1 = A @ p1
        z1, zAz1 = z_conjugate_update(z0, float(z0 @ (A @ z0)), p1, Ap1, float(p1 @ Ap1))
        bar_x = bar_augment(probe_run(prob, counter), evaluated(prob, x1), z1, zAz1).x
        # brute force: min over coefficients c of f(x_m + B c), B = [p1, z0]
        B = np.stack([p1, z0], axis=1)
        c = np.linalg.solve(B.T @ A @ B, -B.T @ g_m)
        x_opt = x_m + B @ c
        assert np.allclose(bar_x, x_opt, atol=1e-8 * (1 + np.linalg.norm(x_opt)))


class TestCgAttempt:
    def test_quadratic_attempt_always_accepted(self, rng):
        A, b, L, ell, qp = random_spd_quadratic(rng, 8, 0.0, 2.0)
        prob = qp.objective(L=L, ell=ell)
        config = SolverConfig(L=L, ell=ell, gtol=1e-14, max_evals=1000)
        state, run = start_run(prob, rng.standard_normal(8), config)
        for _ in range(8):
            accepted, state = cg_attempt(state, run, use_steepest=False)
            assert accepted

    def test_one_dimensional_exact_minimum(self):
        prob = ObjectiveProblem(
            name="1d", n=1, evaluate=lambda x: (0.5 * float(x @ x), x.copy()),
            default_L=1.0, default_ell=1.0,
        )
        config = SolverConfig(L=1.0, ell=1.0, gtol=1e-10, max_evals=100)
        state, run = start_run(prob, np.array([1.0]), config)
        # steepest first step with alpha = 1 lands exactly at the minimum,
        # so the termination test fires at the new point
        with pytest.raises(_ConvergedAt) as info:
            cg_attempt(state, run, use_steepest=False)
        assert abs(info.value.point.x[0]) <= 1e-12

    def _quartic_overshoot(self):
        # oracle: f(x) = x^4 at x0 = 1 with L set to f''(x0)/10 = 1.2; the
        # secant step overshoots the model, so phi* drops faster than f and
        # the progress test must fail.
        prob = ObjectiveProblem(
            name="quartic", n=1,
            evaluate=lambda x: (float(x[0] ** 4), 4.0 * x**3),
            default_L=1.2,
        )
        config = SolverConfig(L=1.2, ell=0.0, gtol=1e-10, max_evals=100)
        return start_run(prob, np.array([1.0]), config)

    def test_engineered_overshoot_is_rejected(self):
        state, run = self._quartic_overshoot()
        counter = run.counter
        before = snapshot(state)
        accepted, state_after = cg_attempt(state, run, use_steepest=False)
        assert not accepted
        assert state_after is state
        assert moved_fields(state, before) == set()
        assert counter.count == 3  # start, probe, candidate

    def test_failed_progress_test_moves_only_z(self):
        # in 1-d, re-conjugating z against p leaves z = 0 and zAz < 0 here,
        # so the augmentation is dropped; nothing else may move
        state, run = self._quartic_overshoot()
        state.z_tilde, state.zAz = np.array([0.5]), 1.0
        before = snapshot(state)
        accepted, _ = cg_attempt(state, run, use_steepest=False)
        assert not accepted
        assert moved_fields(state, before) == {"z_tilde", "zAz"}
        assert state.z_tilde is None and state.zAz == 0.0

    def test_curvature_failure_moves_no_field(self):
        # f = -x^2/2 is concave: the probe gives pAp < 0 and the attempt is
        # rejected after one evaluation, with the active z left as it was
        prob = ObjectiveProblem(
            name="concave", n=1, evaluate=lambda x: (-0.5 * float(x @ x), -x),
            default_L=1.0,
        )
        config = SolverConfig(L=1.0, gtol=1e-10, max_evals=100)
        state, run = start_run(prob, np.array([1.0]), config)
        counter = run.counter
        state.z_tilde, state.zAz = np.array([1.0]), 1.0
        before = snapshot(state)
        accepted, _ = cg_attempt(state, run, use_steepest=True)
        assert not accepted
        assert moved_fields(state, before) == set()
        assert counter.count == 2  # start, probe

    def test_degenerate_direction_moves_no_field(self, rng, monkeypatch):
        # the progress test passes, then the direction update fails: z must
        # not advance although its recurrence already ran
        calls = []

        def degenerate(*args):
            calls.append(args)
            return None

        monkeypatch.setattr(cagopt.cag, "hz_beta", degenerate)
        A, b, L, ell, _ = random_spd_quadratic(rng, 4, 0.0, 1.0)
        prob = explicit_quadratic(A, b, L, ell)
        config = SolverConfig(L=L, ell=ell, gtol=1e-14, max_evals=100, conjugate_z=True)
        state, run = start_run(prob, rng.standard_normal(4), config)
        counter = run.counter
        z = rng.standard_normal(4)
        state.z_tilde, state.zAz = z, float(z @ (A @ z))
        before = snapshot(state)
        accepted, _ = cg_attempt(state, run, use_steepest=False)
        assert not accepted and len(calls) == 1
        assert moved_fields(state, before) == set()
        assert counter.count == 4  # start, probe, candidate, bar point

    def test_acceptance_is_the_literal_min_test(self, rng):
        # acceptance iff min(f_next, bar_f_next) <= phi*_next: with no z augmentation
        # both candidates coincide, so compare against the advanced model.
        A, b, L, ell, qp = random_spd_quadratic(rng, 5, 0.0, 1.0)
        prob = qp.objective(L=L, ell=ell)
        config = SolverConfig(L=L, ell=ell, gtol=1e-14, max_evals=1000)
        state, run = start_run(prob, rng.standard_normal(5), config)
        accepted, new_state = cg_attempt(state, run, use_steepest=False)
        assert accepted
        assert min(new_state.point.f, new_state.bar.f) <= new_state.estimate.phi_star


class TestCagStep:
    def test_accepted_steepest_descent_retry(self):
        # with p orthogonal to g the CG attempt returns to x0 and fails the
        # progress test; the steepest-descent retry then passes it
        d = np.array([1.0, 100.0])
        prob = explicit_quadratic(np.diag(d), np.zeros(2), L=100.0, ell=1.0)
        config = SolverConfig(L=100.0, ell=1.0, gtol=1e-12, max_evals=100)
        state, run = start_run(prob, np.ones(2), config)
        counter = run.counter
        f0, g = state.point.f, state.point.g
        state.p = np.array([-g[1], g[0]])
        row, kind = cag_step(state, run)
        assert kind is StepKind.SD
        assert row is state.point and row.f < f0
        assert counter.count == 5  # start, then probe and candidate twice
        assert state.ag_ref_gnorm is None
