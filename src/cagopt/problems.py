"""Deterministic constructors for the four benchmark problem families.

All constructors are pure: the same specification yields bit-identical
evaluators.  Each family ships a sound default smoothness bound L and
strong-convexity bound ell, overridable at the harness level.

Families
--------
quad      diagonal quadratic, Hessian Diag(1, 4, 9, ..., n^2), b_i = sin(i)
abpdn     smoothed basis-pursuit denoising: least squares on a prime-indexed
          row subset of the orthonormal DCT-II matrix plus a smoothed l1 term
logistic  logistic loss on a noisy mean-shifted Gaussian design plus ridge
huber     Huber regression on a first-difference stencil against b = 1..n+1
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .baselines import QuadraticProblem
from .errors import InvalidSpec
from .oracle import ObjectiveProblem, Vector

FAMILIES = ("quad", "abpdn", "logistic", "huber")

# key=value name, ProblemSpec field and parser of each optional parameter.
_PARAMS = (
    ("m", "m", int),
    ("lambda", "lam", float),
    ("delta", "delta", float),
    ("sigma", "sigma", float),
    ("tau", "tau", float),
    ("seed", "seed", int),
)
PROBLEM_KEYS = frozenset(["family", "n", *(key for key, _, _ in _PARAMS)])


def first_primes(m: int) -> list[int]:
    """The first m primes, by incremental trial division (m stays small here)."""
    if m < 1:
        raise InvalidSpec(f"need m >= 1, got {m}")
    primes: list[int] = []
    candidate = 2
    while len(primes) < m:
        is_prime = True
        for p in primes:
            if p * p > candidate:
                break
            if candidate % p == 0:
                is_prime = False
                break
        if is_prime:
            primes.append(candidate)
        candidate += 1
    return primes


def estimate_spectral_norm(
    apply: Callable[[Vector], Vector],
    apply_t: Callable[[Vector], Vector],
    n: int,
    iters: int = 30,
) -> float:
    """Largest singular value of a linear operator by power iteration on A^T A.

    Starts from the all-ones vector (fixed, so the estimate is
    deterministic) and returns ||A x|| for the final unit iterate x.
    """
    if iters < 1:
        raise InvalidSpec(f"need iters >= 1, got {iters}")
    x = np.ones(n)
    x /= np.linalg.norm(x)
    for _ in range(iters):
        y = apply(x)
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return 0.0
        x = apply_t(y)
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            return 0.0
        x /= nx
    return float(np.linalg.norm(apply(x)))


def make_quad_diag(n: int) -> ObjectiveProblem:
    """f(x) = (1/2) sum_i i^2 x_i^2 - sum_i sin(i) x_i, 1-based i.

    Condition number n^2 with eigenvalues 1, 4, ..., n^2, so L = n^2 and
    ell = 1.  The minimiser is known in closed form: x*_i = sin(i) / i^2.
    """
    return quad_diag_system(n).objective(L=float(n) ** 2, ell=1.0)


def quad_diag_system(n: int) -> QuadraticProblem:
    """The diagonal quadratic of ``make_quad_diag`` as an SPD operator."""
    if n < 1:
        raise InvalidSpec(f"need n >= 1, got {n}")
    idx = np.arange(1, n + 1, dtype=float)
    d = idx**2
    b = np.sin(idx)
    return QuadraticProblem(
        apply_A=lambda x: d * x,
        b=b,
        known_xstar=b / d,
        known_fstar=-0.5 * float(np.sum(b * b / d)),
        name=f"quad(n={n})",
    )


def dct_rows(row_indices: list[int], n: int) -> np.ndarray:
    """Selected 1-based rows of the n x n orthonormal DCT-II matrix.

    Entry (k, j) of the full matrix is c_k cos(pi (2j+1)(k-1) / (2n)) with
    c_1 = sqrt(1/n) and c_k = sqrt(2/n) otherwise (k 1-based, j 0-based).
    """
    j = np.arange(n, dtype=float)
    rows = np.empty((len(row_indices), n))
    for out, k in enumerate(row_indices):
        if not 1 <= k <= n:
            raise InvalidSpec(f"row index {k} out of range 1..{n}")
        c = math.sqrt(1.0 / n) if k == 1 else math.sqrt(2.0 / n)
        rows[out] = c * np.cos(math.pi * (2.0 * j + 1.0) * (k - 1) / (2.0 * n))
    return rows


def make_abpdn(n: int, lam: float = 1e-3, delta: float = 1e-4) -> ObjectiveProblem:
    """Smoothed basis-pursuit denoising.

    f(x) = (1/2) ||A x - b||^2 + lam * sum_i sqrt(x_i^2 + delta)

    where A consists of the m = sqrt(n) rows of the orthonormal DCT-II
    matrix indexed (1-based) by the first m primes, and b_i = sin(i^2).
    The rows are orthonormal, so the least-squares part has unit curvature;
    the penalty curvature is at most lam/sqrt(delta), giving
    L = 1 + lam/sqrt(delta).  The penalty curvature decays at large |x_i|,
    so ell = 0 is the sound global choice.
    """
    if lam <= 0 or delta <= 0:
        raise InvalidSpec(f"need lam, delta > 0, got lam={lam}, delta={delta}")
    m = math.isqrt(n)
    if m * m != n:
        raise InvalidSpec(f"abpdn needs a perfect-square n, got {n}")
    A = dct_rows(first_primes(m), n)
    i = np.arange(1, m + 1, dtype=float)
    b = np.sin(i**2)

    def evaluate(x):
        r = A @ x - b
        root = np.sqrt(x * x + delta)
        f = 0.5 * float(r @ r) + lam * float(np.sum(root))
        g = A.T @ r + lam * (x / root)
        return f, g

    return ObjectiveProblem(
        name=f"abpdn(n={n},delta={delta:g},lambda={lam:g})",
        n=n,
        evaluate=evaluate,
        default_L=1.0 + lam / math.sqrt(delta),
        default_ell=0.0,
    )


def _logistic_loss(v: np.ndarray) -> np.ndarray:
    """ln(1 + e^-v) as max(-v, 0) + log1p(e^-|v|): no overflow at |v| > 700."""
    return np.maximum(-v, 0.0) + np.log1p(np.exp(-np.abs(v)))


def _logistic_loss_prime(v: np.ndarray) -> np.ndarray:
    """d/dv ln(1 + e^-v) = -1/(1 + e^v), on the overflow-free branch per sign."""
    ev = np.exp(-np.abs(v))
    return np.where(v >= 0.0, -ev / (1.0 + ev), -1.0 / (1.0 + ev))


def _standard_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Box-Muller normals from the counter-based generator's uniform stream.

    Spelled out (rather than rng.normal) so the draw is pinned to a named
    transformation of a named bit stream and stays reproducible across
    library versions.
    """
    total = int(np.prod(shape))
    half = (total + 1) // 2
    # 1 - U keeps the argument of log strictly positive.
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return z[:total].reshape(shape)


def make_logistic(
    m: int, n: int, lam: float = 1e-4, sigma: float = 0.4, seed: int = 0
) -> ObjectiveProblem:
    """Regularised logistic loss on a noisy mean-shifted design.

    f(x) = sum_i ln(1 + exp(-(A x)_i)) + (lam/2) ||x||^2

    with row i of A equal to (1/sqrt(n)) 1 + z_i, z_i ~ N(0, sigma^2 I),
    drawn from a seeded Philox stream.  The loss curvature is at most 1/4
    per row, so L = sigma_max(A)^2 / 4 + lam with sigma_max estimated by
    power iteration (30 rounds, inflated by 1%); the ridge gives ell = lam.
    """
    if m < 1 or n < 1:
        raise InvalidSpec(f"need m, n >= 1, got m={m}, n={n}")
    if lam < 0 or sigma <= 0:
        raise InvalidSpec(f"need lam >= 0 and sigma > 0, got lam={lam}, sigma={sigma}")
    rng = np.random.Generator(np.random.Philox(seed))
    A = 1.0 / math.sqrt(n) + sigma * _standard_normal(rng, (m, n))
    sig_max = 1.01 * estimate_spectral_norm(lambda x: A @ x, lambda y: A.T @ y, n)

    def evaluate(x):
        v = A @ x
        f = float(np.sum(_logistic_loss(v))) + 0.5 * lam * float(x @ x)
        g = A.T @ _logistic_loss_prime(v) + lam * x
        return f, g

    return ObjectiveProblem(
        name=f"logistic(m={m},n={n},lambda={lam:g},seed={seed})",
        n=n,
        evaluate=evaluate,
        default_L=sig_max**2 / 4.0 + lam,
        default_ell=lam,
    )


def make_huber(n: int, tau: float) -> ObjectiveProblem:
    """Huber regression on the first-difference stencil.

    f(x) = sum_i zeta((A x)_i - b_i) with the (n+1) x n matrix A holding 1's
    on the diagonal and -1's on the first subdiagonal, b = (1, ..., n+1),
    and the C^1 piecewise loss

        zeta(t) = -tau^2 - 2 tau t   for t <= -tau
                = t^2                for |t| <= tau
                = -tau^2 + 2 tau t   for t >= tau.

    zeta'' <= 2 and sigma_max(A) <= 2 for the stencil, so L = 8 is a cheap
    certified bound; the linear tails make ell = 0.
    """
    if n < 1:
        raise InvalidSpec(f"need n >= 1, got {n}")
    if tau <= 0:
        raise InvalidSpec(f"need tau > 0, got {tau}")
    b = np.arange(1, n + 2, dtype=float)

    def apply_A(x):
        r = np.empty(n + 1)
        r[0] = x[0]
        r[1:n] = x[1:] - x[:-1]
        r[n] = -x[-1]
        return r

    def evaluate(x):
        t = apply_A(x) - b
        inner = np.abs(t) <= tau
        f = float(np.sum(np.where(inner, t * t, -tau * tau + 2.0 * tau * np.abs(t))))
        zp = np.where(inner, 2.0 * t, 2.0 * tau * np.sign(t))
        # A^T y: column j carries +1 at row j and -1 at row j+1
        g = zp[:n] - zp[1:]
        return f, g

    return ObjectiveProblem(
        name=f"huber(n={n},tau={tau:g})",
        n=n,
        evaluate=evaluate,
        default_L=8.0,
        default_ell=0.0,
    )


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative description of a benchmark instance.

    Unset parameters fall back to per-family defaults when the problem is
    built: abpdn uses lam=1e-3, delta=1e-4; logistic uses m=2n, lam=1e-4,
    sigma=0.4, seed=0; huber uses tau=n/10.
    """

    family: str
    n: int
    m: int | None = None
    lam: float | None = None
    delta: float | None = None
    sigma: float | None = None
    tau: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.n < 1:
            raise InvalidSpec(f"need n >= 1, got {self.n}")

    def build(self) -> ObjectiveProblem:
        if self.family == "quad":
            return make_quad_diag(self.n)
        if self.family == "abpdn":
            return make_abpdn(
                self.n,
                lam=self.lam if self.lam is not None else 1e-3,
                delta=self.delta if self.delta is not None else 1e-4,
            )
        if self.family == "logistic":
            return make_logistic(
                self.m if self.m is not None else 2 * self.n,
                self.n,
                lam=self.lam if self.lam is not None else 1e-4,
                sigma=self.sigma if self.sigma is not None else 0.4,
                seed=self.seed if self.seed is not None else 0,
            )
        return make_huber(self.n, tau=self.tau if self.tau is not None else self.n / 10.0)

    def _pairs(self) -> list[str]:
        """key=value for n and every set parameter, floats in %g form."""
        values = [("n", self.n)] + [(key, getattr(self, field)) for key, field, _ in _PARAMS]
        return [
            f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in values
            if value is not None
        ]

    def to_kv(self) -> str:
        """Serialise as space-separated key=value pairs."""
        return " ".join([f"family={self.family}", *self._pairs()])

    def label(self) -> str:
        """Name in the suite table, e.g. ``huber(n=60,tau=6)``."""
        return f"{self.family}({','.join(self._pairs())})"

    @classmethod
    def from_kv(cls, pairs: dict[str, str]) -> "ProblemSpec":
        """Build from parsed key=value pairs; unknown keys are the caller's concern."""
        if "family" not in pairs or "n" not in pairs:
            raise InvalidSpec("problem spec needs at least family=... and n=...")
        params = {field: parse(pairs[key]) for key, field, parse in _PARAMS if key in pairs}
        return cls(family=pairs["family"], n=int(pairs["n"]), **params)
