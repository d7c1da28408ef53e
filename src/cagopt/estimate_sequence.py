"""Strongly convex quadratic lower models (Nesterov estimate sequence).

The model after k updates is

    phi_k(x) = phi*_k + (gamma_k / 2) ||x - v_k||^2,

initialised as phi_0(x) = f(x0) + (L/2) ||x - x0||^2, so gamma_0 = L.  Each
update blends the current model with a quadratic minorant anchored at a
point bar_x:

    phi_{k+1}(x) = (1 - theta) phi_k(x)
                 + theta [ f(bar_x) + <g_bar, x - bar_x> + (ell/2) ||x - bar_x||^2 ]

where theta is the positive root of

    L theta^2 + (gamma - ell) theta - gamma = 0.

That root choice makes theta^2 / (2 gamma_next) == 1 / (2 L) an exact
algebraic identity, which the code re-checks on every update: a violation
means a bug, not ill conditioning, and aborts with ``InvalidState``.

The minimum phi*_k of the model is the progress certificate: any method
whose iterates satisfy f(x_k) <= phi*_k for all k inherits the accelerated
convergence rate returned by ``nesterov_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, NumericalFailure

# Tolerance for the theta/gamma identity self-check.  It is exact algebra,
# so anything beyond a few ulps indicates corrupted state.
_IDENTITY_RTOL = 1e-12


@dataclass(frozen=True)
class EstimateState:
    """Current quadratic lower model phi(x) = phi_star + (gamma/2)||x - v||^2."""

    gamma: float
    v: np.ndarray
    phi_star: float


def init_estimate(f0: float, x0: np.ndarray, L: float) -> EstimateState:
    """Initial model phi_0(x) = f0 + (L/2)||x - x0||^2, with L from a checked
    ``SolverConfig``."""
    return EstimateState(
        gamma=float(L), v=np.array(x0, dtype=float, copy=True), phi_star=float(f0)
    )


def compute_theta_gamma(L: float, ell: float, gamma: float) -> tuple[float, float]:
    """Mixing weight theta and blended curvature for one model update.

    Solves L theta^2 + (gamma - ell) theta - gamma = 0 for the positive root
    (which lies in (0, 1]) and returns it together with
    gamma_next = (1 - theta) gamma + theta ell.

    The root is computed with the cancellation-free branch of the quadratic
    formula: gamma can exceed ell by six orders of magnitude, and the naive
    (-b + sqrt(disc)) / 2a form would lose half the digits there.  L and ell
    come from a checked ``SolverConfig``, so only the identity is checked,
    which also fails when gamma_next <= 0.
    """
    b = gamma - ell
    disc = math.sqrt(b * b + 4.0 * L * gamma)
    if b >= 0:
        theta = 2.0 * gamma / (b + disc)
    else:
        theta = (disc - b) / (2.0 * L)
    # 1 - theta solves L s^2 - (2L + b) s + (L - ell) = 0 (same discriminant);
    # its small-root form keeps full relative precision even as theta -> 1,
    # where deriving it from the rounded theta would wipe out the identity.
    one_minus_theta = 2.0 * (L - ell) / (2.0 * L + b + disc)
    gamma_next = one_minus_theta * gamma + theta * ell
    # |theta^2/(2 gamma_next) - 1/(2L)| <= rtol/(2L), rearranged to avoid division.
    if abs(L * theta * theta - gamma_next) > _IDENTITY_RTOL * gamma_next:
        raise InvalidState(
            f"theta/gamma identity violated: L*theta^2={L * theta * theta!r}, "
            f"gamma_next={gamma_next!r}"
        )
    return theta, gamma_next


def advance_estimate(
    state: EstimateState,
    theta: float,
    gamma_next: float,
    ell: float,
    bar_x: np.ndarray,
    bar_f: float,
    bar_g: np.ndarray,
) -> EstimateState:
    """One model update anchored at ``bar_x`` with value/gradient (bar_f, bar_g),
    for theta and gamma_next from ``compute_theta_gamma`` with the same ell.

    v_next    = [(1-theta) gamma v + theta ell bar_x - theta bar_g] / gamma_next
    phi*_next = (1-theta) phi* + theta bar_f
              - theta^2 / (2 gamma_next) ||bar_g||^2
              + theta (1-theta) gamma / gamma_next
                  * ( ell ||bar_x - v||^2 / 2 + <bar_g, v - bar_x> )

    Raises ``NumericalFailure`` when phi*_next is not finite (a non-finite
    v_next makes phi* non-finite at the next update).
    """
    gamma = state.gamma
    dv = state.v - bar_x
    v_next = (
        (1.0 - theta) * gamma * state.v + (theta * ell) * bar_x - theta * bar_g
    ) / gamma_next
    cross = 0.5 * ell * float(dv @ dv) + float(bar_g @ dv)
    phi_next = (
        (1.0 - theta) * state.phi_star
        + theta * bar_f
        - (theta * theta / (2.0 * gamma_next)) * float(bar_g @ bar_g)
        + (theta * (1.0 - theta) * gamma / gamma_next) * cross
    )
    if not math.isfinite(phi_next):
        raise NumericalFailure(f"estimate-sequence minimum became {phi_next!r}")
    return EstimateState(gamma=gamma_next, v=v_next, phi_star=phi_next)


def nesterov_bound(L: float, ell: float, k: int, dist0_sq: float) -> float:
    """Guaranteed objective gap after k iterations of a certified method.

    Returns L * min((1 - sqrt(ell/L))^k, 4/(k+2)^2) * dist0_sq, where
    dist0_sq is the squared distance from the start to a minimiser.  Valid
    whenever f(x_k) <= phi*_k held at every iteration up to k.
    """
    if k < 0:
        raise InvalidState(f"iteration index must be nonnegative, got {k}")
    if dist0_sq < 0:
        raise InvalidState(f"squared distance must be nonnegative, got {dist0_sq}")
    geometric = (1.0 - math.sqrt(ell / L)) ** k
    return L * min(geometric, 4.0 / (k + 2) ** 2) * dist0_sq
