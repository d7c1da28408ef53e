"""Objective interface: combined function-gradient evaluation with exact counting.

Every problem exposes a single ``evaluate(x) -> (f, grad)``.  There is no
function-only entry point, so one call is one unit of work and the counter
is unambiguous.  All solvers route their evaluations through
``evaluate_counted``; the reported evaluation counts are therefore exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidSpec, NumericalFailure

Vector = np.ndarray
EvaluateFn = Callable[[Vector], "tuple[float, Vector]"]


def check_moduli(L: float | None, ell: float | None) -> None:
    """Raise ``InvalidSpec`` unless 0 < L < inf and 0 <= ell <= L; an L or ell
    of None (a family default, not known yet) is skipped."""
    if L is not None and not 0.0 < L < math.inf:
        raise InvalidSpec(f"L must be positive and finite, got {L}")
    if ell is not None and not 0.0 <= ell <= (math.inf if L is None else L):
        raise InvalidSpec(f"need 0 <= ell <= L, got ell={ell}, L={L}")


@dataclass(frozen=True)
class ObjectiveProblem:
    """A smooth convex objective with curvature metadata.

    ``default_L`` is an upper bound on the Hessian spectrum (smoothness
    modulus) and ``default_ell`` a lower bound (strong-convexity modulus,
    0 for merely convex).  ``evaluate`` must be deterministic and return the
    value and gradient together.  ``known_xstar``/``known_fstar`` are
    optional exact-solution metadata used by tests and bound checks.
    """

    name: str
    n: int
    evaluate: EvaluateFn
    default_L: float
    default_ell: float = 0.0
    known_xstar: Vector | None = None
    known_fstar: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec(f"dimension must be positive, got {self.n}")
        if self.default_L is None or self.default_ell is None:
            raise InvalidSpec("a problem's default_L and default_ell must be numbers")
        check_moduli(self.default_L, self.default_ell)


@dataclass
class EvalCounter:
    """Counts combined function-gradient evaluations for a single run."""

    count: int = 0


class Evaluation(NamedTuple):
    """One counted evaluation: the point x, f(x), grad f(x) and its norm."""

    x: Vector
    f: float
    g: Vector
    gnorm: float


def evaluate_counted(
    problem: ObjectiveProblem, x: Vector, counter: EvalCounter
) -> Evaluation:
    """Evaluate ``problem`` at ``x``, incrementing ``counter`` by exactly one.

    Returns the point with its value, gradient and gradient norm, the norm
    computed here once as sqrt(<g, g>) for every consumer of the point.
    Raises ``NumericalFailure`` if the value or the norm is non-finite: a
    NaN or infinite gradient entry, or a sum of squares that overflows,
    makes the norm non-finite.  An overflowing evaluation thus aborts the
    run with a distinct status instead of silently poisoning it.  The
    solvers run under ``np.errstate(over="ignore")``; elsewhere an
    overflowing sum of squares also emits numpy's overflow warning.
    """
    f, g = problem.evaluate(x)
    counter.count += 1
    f = float(f)
    gnorm = math.sqrt(float(g @ g))
    if not (math.isfinite(f) and math.isfinite(gnorm)):
        raise NumericalFailure(f"non-finite evaluation in problem {problem.name!r}")
    return Evaluation(x, f, g, gnorm)
