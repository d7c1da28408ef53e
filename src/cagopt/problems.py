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
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


@dataclass(frozen=True)
class QuadraticProblem:
    """Quadratic objective f(x) = x^T A x / 2 - b^T x given as an SPD operator."""

    apply_A: Callable[[Vector], Vector]
    b: Vector
    known_fstar: float | None = None
    known_xstar: Vector | None = None
    name: str = "quadratic"

    @property
    def n(self) -> int:
        return self.b.size

    def objective(self, L: float, ell: float = 0.0) -> ObjectiveProblem:
        """Wrap the operator as a counted function-gradient oracle.

        One evaluate call applies A once: f = x^T(Ax)/2 - b^T x,
        grad = Ax - b.
        """
        apply_A, b = self.apply_A, self.b

        def evaluate(x):
            Ax = apply_A(x)
            return 0.5 * float(x @ Ax) - float(b @ x), Ax - b

        return ObjectiveProblem(
            name=self.name,
            n=self.n,
            evaluate=evaluate,
            default_L=L,
            default_ell=ell,
            known_xstar=self.known_xstar,
            known_fstar=self.known_fstar,
        )


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


POWER_ITERS = 30  # rounds of power iteration in estimate_spectral_norm


def estimate_spectral_norm(
    apply: Callable[[Vector], Vector], apply_t: Callable[[Vector], Vector], n: int
) -> float:
    """Largest singular value of a linear operator by ``POWER_ITERS`` rounds
    of power iteration on A^T A.

    Starts from the all-ones vector (fixed, so the estimate is
    deterministic) and returns ||A x|| for the final unit iterate x.
    """
    x = np.ones(n)
    x /= np.linalg.norm(x)
    for _ in range(POWER_ITERS):
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
        known_fstar=-0.5 * float(b @ (b / d)),
        name=f"quad(n={n})",
    )


def dct_row_operator(
    row_indices: list[int], n: int
) -> tuple[Callable[[Vector], Vector], Callable[[Vector], Vector]]:
    """Selected 1-based rows of the n x n orthonormal DCT-II matrix, matrix-free.

    Entry (k, j) of the full matrix is c_k cos(pi (2j+1)(k-1) / (2n)) with
    c_1 = sqrt(1/n) and c_k = sqrt(2/n) otherwise (k 1-based, j 0-based).
    Returns ``(apply, apply_t)`` computing A x and A^T r for the rows A.

    Makhoul's length-n algorithm: with v = (x_0, x_2, x_4, ..., x_5, x_3, x_1)
    (even entries ascending, then odd entries descending) and V = rfft(v),
    row k of A x is Re(c_k e^{-i pi (k-1) / (2n)} V[k-1]).  The adjoint
    scatters the conjugate weights into a half-spectrum and inverts it with
    irfft, which doubles every bin but the zero and Nyquist ones.  Both
    cost one length-n real FFT, O(n log n) time and O(n) memory.  rfft only
    returns frequencies 0..n//2, so the rows must be distinct and lie in
    1..n//2 + 1.
    """
    k = np.asarray(row_indices, dtype=np.int64) - 1
    if k.size == 0 or k.min() < 0 or k.max() > n // 2:
        raise InvalidSpec(f"DCT rows must lie in 1..{n // 2 + 1}, got {row_indices}")
    c = np.where(k == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
    a = c * np.exp(-0.5j * math.pi / n * k)
    # irfft weighs bin k by 2/n, the zero and Nyquist bins by 1/n
    a_t = np.conj(a) * np.where((k == 0) | (2 * k == n), float(n), 0.5 * n)
    h = (n + 1) // 2

    def apply(x: Vector) -> Vector:
        v = np.empty(n)
        v[:h] = x[::2]
        v[h:] = x[1::2][::-1]
        return (a * np.fft.rfft(v)[k]).real

    def apply_t(r: Vector) -> Vector:
        spectrum = np.zeros(n // 2 + 1, dtype=complex)
        spectrum[k] = r * a_t
        v = np.fft.irfft(spectrum, n)
        x = np.empty(n)
        x[::2] = v[:h]
        x[1::2] = v[::-1][: n // 2]
        return x

    return apply, apply_t


def _check_abpdn(n: int, lam: float, delta: float) -> int:
    """Check abpdn's parameters and return its row count m = sqrt(n).

    n must be a perfect square >= 4: n = 1 would need DCT row 2 of a 1 x 1
    matrix, and from n = 4 on the first m primes stay within the rows
    ``dct_row_operator`` supports.  lam and delta must be positive and finite.
    """
    if not (0.0 < lam < math.inf and 0.0 < delta < math.inf):
        raise InvalidSpec(f"need finite lam, delta > 0, got lam={lam}, delta={delta}")
    m = math.isqrt(n)
    if n < 4 or m * m != n:
        raise InvalidSpec(f"abpdn needs a perfect-square n >= 4, got {n}")
    return m


def make_abpdn(n: int, lam: float = 1e-3, delta: float = 1e-4) -> ObjectiveProblem:
    """Smoothed basis-pursuit denoising.

    f(x) = (1/2) ||A x - b||^2 + lam * sum_i sqrt(x_i^2 + delta)

    where A consists of the m = sqrt(n) rows of the orthonormal DCT-II
    matrix indexed (1-based) by the first m primes, and b_i = sin(i^2).
    A is never formed: ``dct_row_operator`` applies A and A^T by one
    length-n real FFT each, so an evaluation costs O(n log n) time and
    O(n) memory (the dense rows would take 8 GB at n = 10^6).
    The rows are orthonormal, so the least-squares part has unit curvature;
    the penalty curvature is at most lam/sqrt(delta), giving
    L = 1 + lam/sqrt(delta).  The penalty curvature decays at large |x_i|,
    so ell = 0 is the sound global choice.
    """
    m = _check_abpdn(n, lam, delta)
    apply, apply_t = dct_row_operator(first_primes(m), n)
    i = np.arange(1, m + 1, dtype=float)
    b = np.sin(i**2)

    def evaluate(x):
        r = apply(x) - b
        root = np.sqrt(x * x + delta)
        f = 0.5 * float(r @ r) + lam * float(np.sum(root))
        g = apply_t(r) + lam * (x / root)
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


def _check_logistic(m: int, n: int, lam: float, sigma: float, seed: int) -> None:
    """Check logistic's parameters: m, n >= 1, finite lam >= 0 and sigma > 0, seed >= 0."""
    if not (m >= 1 and n >= 1 and seed >= 0 and 0.0 <= lam < math.inf
            and 0.0 < sigma < math.inf):
        raise InvalidSpec(f"bad logistic m={m}, n={n}, lam={lam}, sigma={sigma}, seed={seed}")


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
    _check_logistic(m, n, lam, sigma, seed)
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


def _check_huber(n: int, tau: float) -> None:
    """Check huber's parameters: n >= 1 and a finite tau > 0."""
    if not (n >= 1 and 0.0 < tau < math.inf):
        raise InvalidSpec(f"bad huber n={n}, tau={tau}")


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
    _check_huber(n, tau)
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


# The parameter check that each family's constructor runs first; ProblemSpec
# runs it on the same arguments.
_CHECKS = {"abpdn": _check_abpdn, "logistic": _check_logistic, "huber": _check_huber}


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative description of a benchmark instance.

    Unset parameters fall back to per-family defaults: abpdn uses
    lam=1e-3, delta=1e-4; logistic uses m=2n, lam=1e-4, sigma=0.4, seed=0;
    huber uses tau=n/10.  A set parameter that the family's constructor does
    not take is rejected, and the constructor check runs here on the
    resolved parameters, so an out-of-range one fails before any build.
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
        args = self._constructor()[1]
        unused = [key for key, field, _ in _PARAMS if getattr(self, field) is not None
                  and field not in args]
        if unused:
            raise InvalidSpec(f"family {self.family} takes no {', '.join(unused)}")
        if self.family in _CHECKS:
            _CHECKS[self.family](**args)

    def _constructor(self) -> tuple[Callable[..., ObjectiveProblem], dict]:
        """The family's constructor and its arguments, defaults filled in."""
        def pick(value, default):
            return default if value is None else value

        if self.family == "quad":
            return make_quad_diag, {"n": self.n}
        if self.family == "abpdn":
            return make_abpdn, {
                "n": self.n, "lam": pick(self.lam, 1e-3), "delta": pick(self.delta, 1e-4)
            }
        if self.family == "logistic":
            return make_logistic, {
                "m": pick(self.m, 2 * self.n),
                "n": self.n,
                "lam": pick(self.lam, 1e-4),
                "sigma": pick(self.sigma, 0.4),
                "seed": pick(self.seed, 0),
            }
        return make_huber, {"n": self.n, "tau": pick(self.tau, self.n / 10.0)}

    def build(self) -> ObjectiveProblem:
        make, args = self._constructor()
        return make(**args)

    def label(self) -> str:
        """Name in the suite table, every argument resolved and floats in %g
        form: ``huber(n=60,tau=6)`` whether or not tau was set."""
        args = self._constructor()[1]
        values = [("n", self.n)] + [(key, args[field]) for key, field, _ in _PARAMS if field in args]
        pairs = [f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}"
                 for key, value in values]
        return f"{self.family}({','.join(pairs)})"

    @classmethod
    def from_kv(cls, pairs: dict[str, str]) -> "ProblemSpec":
        """Build from parsed key=value pairs; unknown keys are the caller's concern."""
        if "family" not in pairs or "n" not in pairs:
            raise InvalidSpec("problem spec needs at least family=... and n=...")
        params = {field: parse(pairs[key]) for key, field, parse in _PARAMS if key in pairs}
        return cls(family=pairs["family"], n=int(pairs["n"]), **params)
