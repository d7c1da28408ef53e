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
convergence rate returned by ``nesterov_bound``.  The solver's run,
``cag._Run``, holds the model (gamma, v, phi*) and its buffers; this
module, the arithmetic, which allocates no array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSpec, InvalidState, NumericalFailure
from .oracle import Evaluation, Vector

# Tolerance for the theta/gamma identity self-check.  It is exact algebra,
# so anything beyond a few ulps indicates corrupted state.
_IDENTITY_RTOL = 1e-12


def compute_theta_gamma(L: float, ell: float, gamma: float) -> tuple[float, float]:
    """Mixing weight theta and blended curvature for one model update.

    Solves L theta^2 + (gamma - ell) theta - gamma = 0 for the positive root
    (which lies in (0, 1]) and returns it together with
    gamma_next = (1 - theta) gamma + theta ell.

    The root is computed with the cancellation-free branch of the quadratic
    formula: gamma can exceed ell by six orders of magnitude, and the naive
    (-b + sqrt(disc)) / 2a form would lose half the digits there.  L and ell
    come from a checked ``SolverConfig``, whose bounds on L keep disc finite,
    so only the identity is checked, which also fails when gamma_next < 0.
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


def advance_estimate(gamma: float, v: Vector, phi_star: float, theta: float, gamma_next: float,
                     ell: float, anchor: Evaluation, out: Vector, work: Vector) -> float:
    """phi*_next of the model (gamma, v, phi*) updated at the evaluated point
    ``anchor`` = (bar_x, bar_f, bar_g, ||bar_g||, ||bar_g||^2), for theta and
    gamma_next from ``compute_theta_gamma`` with the same ell; v_next goes
    into ``out``, which may be v but no anchor array.

    v_next    = [(1-theta) gamma v + theta ell bar_x - theta bar_g] / gamma_next
    phi*_next = (1-theta) phi* + theta bar_f
              - theta^2 / (2 gamma_next) ||bar_g||^2
              + theta (1-theta) gamma / gamma_next
                  * ( ell ||bar_x - v||^2 / 2 + <bar_g, v - bar_x> )

    Allocates nothing: dv = v - bar_x, then the terms of v_next, go into the
    n-vector ``work``.  Nine vector passes, six at ell = 0, which skips the
    ell terms and ||dv||^2; else the formula's operations in its order, so
    both results equal it with fresh arrays byte for byte.  Raises
    ``NumericalFailure`` when phi*_next is not finite (a non-finite v_next
    makes phi* non-finite at the next update).
    """
    bar_x, bar_f, bar_g, _, bar_gg = anchor
    dv = np.subtract(v, bar_x, out=work)
    cross = float(bar_g.dot(dv))
    np.multiply((1.0 - theta) * gamma, v, out=out)
    if ell:
        cross += 0.5 * ell * float(dv.dot(dv))
        out += np.multiply(theta * ell, bar_x, out=work)
    out -= np.multiply(theta, bar_g, out=work)
    out /= gamma_next
    phi_next = ((1.0 - theta) * phi_star + theta * bar_f
                - (theta * theta / (2.0 * gamma_next)) * bar_gg
                + (theta * (1.0 - theta) * gamma / gamma_next) * cross)
    if not math.isfinite(phi_next):
        raise NumericalFailure(f"estimate-sequence minimum became {phi_next!r}")
    return phi_next


def nesterov_bound(L: float, ell: float, k: int, dist0_sq: float) -> float:
    """Guaranteed objective gap after k iterations of a certified method.

    Returns L * min((1 - sqrt(ell/L))^k, 4/(k+2)^2) * dist0_sq, where
    dist0_sq is the squared distance from the start to a minimiser.  Valid
    whenever f(x_k) <= phi*_k held at every iteration up to k, for moduli
    0 <= ell <= L with L > 0; other arguments raise ``InvalidSpec``.
    """
    if not (L > 0 and 0.0 <= ell <= L):
        raise InvalidSpec(f"need 0 <= ell <= L and L > 0, got ell={ell}, L={L}")
    if k < 0:
        raise InvalidSpec(f"iteration index must be nonnegative, got {k}")
    if dist0_sq < 0:
        raise InvalidSpec(f"squared distance must be nonnegative, got {dist0_sq}")
    geometric = (1.0 - math.sqrt(ell / L)) ** k
    return L * min(geometric, 4.0 / (k + 2) ** 2) * dist0_sq
