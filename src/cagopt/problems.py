"""Deterministic constructors for the four benchmark problem families.

All constructors are pure: the same specification yields bit-identical
evaluators.  Each family ships a sound default smoothness bound L and
strong-convexity bound ell, overridable at the harness level.  Every array
a built instance exposes or closes over is read-only, so runs that share
one instance (see ``ProblemSpec.build``) cannot change it for each other.

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
from dataclasses import dataclass, field as dataclass_field
from sys import float_info
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidSpec
from .oracle import ObjectiveProblem, Vector, _has_bool

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


def _instance_name(family: str, n: int, **params: int | float) -> str:
    """An instance's name and ``ProblemSpec.label``, n then the parameters given
    in ``_PARAMS`` order: an int as is, a float in %g form if that reads back as
    the same float, else as its repr (``huber(n=50,tau=2)``, ``tau=2.0000001``).
    Two argument sets share a name exactly when their values are equal, a
    zero's sign included: ``lambda=-0`` and ``lambda=0`` are two instances."""
    name = f"{family}(n={n}"
    for key, field, _ in _PARAMS:
        if field in params:
            value = params[field]
            if isinstance(value, float):
                short = f"{value:g}"
                value = short if float(short) == value else repr(value)
            name += f",{key}={value}"
    return name + ")"


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
            return 0.5 * float(x.dot(Ax)) - float(b.dot(x)), Ax - b

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
    deterministic) and returns ||A x|| for the final unit iterate x, or the
    first norm on the way that is 0 or overflowed (inf or NaN) as it is.
    """
    x = np.ones(n)
    x /= np.linalg.norm(x)
    for _ in range(POWER_ITERS):
        y = apply(x)
        ny = float(np.linalg.norm(y))
        if not 0.0 < ny < math.inf:
            return ny
        x = apply_t(y)
        nx = float(np.linalg.norm(x))
        if not 0.0 < nx < math.inf:
            return nx
        x /= nx
    return float(np.linalg.norm(apply(x)))


def make_quad_diag(n: int) -> ObjectiveProblem:
    """f(x) = (1/2) sum_i i^2 x_i^2 - sum_i sin(i) x_i, 1-based i.

    Condition number n^2 with eigenvalues 1, 4, ..., n^2, so L = n^2 and
    ell = 1.  The minimiser is known in closed form: x*_i = sin(i) / i^2.
    """
    return quad_diag_system(n).objective(L=float(n) ** 2, ell=1.0)


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
    for array in (k, a, a_t):
        array.flags.writeable = False
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
    ``dct_row_operator`` supports.  lam and delta lie in (0, largest float]
    and are not bools.
    """
    if _has_bool(lam, delta) or not (0.0 < lam <= float_info.max
                                     and 0.0 < delta <= float_info.max):
        raise InvalidSpec(f"need finite lam, delta > 0, got lam={lam}, delta={delta}")
    m = math.isqrt(n)
    if n < 4 or m * m != n:
        raise InvalidSpec(f"abpdn needs a perfect-square n >= 4, got {n}")
    return m


def make_abpdn(n: int, *, lam: float = 1e-3, delta: float = 1e-4) -> ObjectiveProblem:
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
    b.flags.writeable = False

    def evaluate(x):
        r = apply(x) - b
        root = np.sqrt(x * x + delta)
        f = 0.5 * float(r.dot(r)) + lam * float(np.add.reduce(root))
        g = apply_t(r) + lam * (x / root)
        return f, g

    return ObjectiveProblem(
        name=_instance_name("abpdn", n, lam=lam, delta=delta),
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


_DRAW_CHUNK = 2**15  # entries of r that _standard_normal's Box-Muller pass holds at once


def _standard_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Box-Muller normals from the counter-based generator's uniform stream.

    Spelled out (rather than rng.normal) so the draw is pinned to a named
    transformation of a named bit stream and stays reproducible across
    library versions: with U1, U2 two successive blocks of ``half``
    uniforms, r = sqrt(-2 log(1 - U1)) and z = (r cos(2 pi U2), r sin(2 pi U2)).

    The draw works in place in one output buffer: both uniform blocks are
    drawn in full, then the transform runs over ``_DRAW_CHUNK`` entries at
    a time, with r in one chunk-size buffer, so the draw peaks at the
    output plus 256 KB.  Every entry goes through the same IEEE operations
    on the same operands as the spelled-out formula with fresh arrays,
    which ``tests/test_problems.py`` keeps as the reference, so the output
    is byte-identical to it.
    """
    total = int(np.prod(shape))
    half = (total + 1) // 2
    z = np.empty(2 * half)
    u1, u2 = z[:half], z[half:]
    rng.random(out=u1)
    rng.random(out=u2)
    buffer = np.empty(min(half, _DRAW_CHUNK))
    for start in range(0, half, _DRAW_CHUNK):
        c1, c2 = u1[start:start + _DRAW_CHUNK], u2[start:start + _DRAW_CHUNK]
        radius = buffer[:c1.size]
        # 1 - U keeps the argument of log strictly positive.
        np.subtract(1.0, c1, out=radius)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        c2 *= 2.0 * np.pi
        np.cos(c2, out=c1)
        c1 *= radius
        np.sin(c2, out=c2)
        c2 *= radius
    return z[:total].reshape(shape)


def _check_logistic(m: int, n: int, lam: float, sigma: float, seed: int) -> None:
    """Check logistic's m, n >= 1 and seed >= 0, and lam >= 0, sigma > 0 in the float
    range and not bools."""
    if _has_bool(lam, sigma) or not (m >= 1 and n >= 1 and seed >= 0
                                     and 0.0 <= lam <= float_info.max
                                     and 0.0 < sigma <= float_info.max):
        raise InvalidSpec(f"bad logistic m={m}, n={n}, lam={lam}, sigma={sigma}, seed={seed}")


def make_logistic(
    m: int, n: int, *, lam: float = 1e-4, sigma: float = 0.4, seed: int = 0
) -> ObjectiveProblem:
    """Regularised logistic loss on a noisy mean-shifted design.

    f(x) = sum_i ln(1 + exp(-(A x)_i)) + (lam/2) ||x||^2

    with row i of A equal to (1/sqrt(n)) 1 + z_i, z_i ~ N(0, sigma^2 I),
    drawn from a seeded Philox stream.  The loss curvature is at most 1/4
    per row, so L = sigma_max(A)^2 / 4 + lam with sigma_max estimated by
    power iteration (30 rounds, inflated by 1%); the ridge gives ell = lam.

    A is the buffer of the normal draw, scaled by sigma and shifted by
    1/sqrt(n) in place, so the build peaks at A plus the draw's 256 KB
    chunk buffer; multiply and add commute exactly, so A equals
    1/sqrt(n) + sigma z byte for byte.
    """
    _check_logistic(m, n, lam, sigma, seed)
    rng = np.random.Generator(np.random.Philox(seed))
    A = _standard_normal(rng, (m, n))
    # A sigma too large for doubles overflows A or its norm without a
    # warning; L then comes out inf or NaN, which ObjectiveProblem rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        A *= sigma
        A += 1.0 / math.sqrt(n)
        sig_max = 1.01 * estimate_spectral_norm(lambda x: A @ x, lambda y: A.T @ y, n)
    A.flags.writeable = False

    def evaluate(x):
        v = A @ x
        f = float(np.add.reduce(_logistic_loss(v))) + 0.5 * lam * float(x.dot(x))
        g = A.T @ _logistic_loss_prime(v) + lam * x
        return f, g

    return ObjectiveProblem(
        name=_instance_name("logistic", n, m=m, lam=lam, sigma=sigma, seed=seed),
        n=n,
        evaluate=evaluate,
        default_L=sig_max**2 / 4.0 + lam,
        default_ell=lam,
    )


def _check_huber(n: int, tau: float) -> None:
    """Check huber's parameters: n >= 1 and a tau > 0, not a bool, whose square, held by
    zeta's tails, is at most the largest float (an int's compares exactly, so < inf can
    pass it)."""
    if _has_bool(tau) or not (n >= 1 and 0.0 < tau and tau * tau <= float_info.max):
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

    With tau <= 1 the start x0 = 0 is an exact minimiser: every residual
    -b_i lies at or beyond -tau, so zeta' = -2 tau on every row and
    A^T (-2 tau 1) = 0.  ``make_huber(10, 1.0)`` has ||g(0)|| = 0 and a solver
    stops at its first evaluation; ``make_huber(11, 1.1)`` has ||g(0)|| ~ 0.2.

    evaluate forms the residual t; zeta(t) over a fresh a = |t| (the tail
    a * 2tau - tau^2, then t * t where a <= tau), summed pairwise as np.sum
    does; and zeta'(t) = 2 clip(t, -tau, tau) over t, as np.minimum with tau
    then np.maximum with -tau, in place (np.clip's Python wrappers cost more).
    Each entry rounds as in the piecewise formula (2 (+-tau) is the same
    double as 2tau (+-1)), so f and g equal it bit for bit, NaN and inf too.
    """
    _check_huber(n, tau)
    b = np.arange(1, n + 2, dtype=float)
    b.flags.writeable = False

    def evaluate(x):
        t = np.empty(n + 1)
        t[0], t[n] = x[0], -x[-1]
        np.subtract(x[1:], x[:-1], out=t[1:n])
        t -= b
        a = np.abs(t)
        inner = a <= tau
        a *= 2.0 * tau
        a -= tau * tau
        np.multiply(t, t, out=a, where=inner)
        f = float(np.add.reduce(a))
        np.minimum(t, tau, out=t)
        np.maximum(t, -tau, out=t)
        t *= 2.0
        # A^T y: column j carries +1 at row j and -1 at row j+1
        return f, t[:n] - t[1:]

    return ObjectiveProblem(
        name=_instance_name("huber", n, tau=tau),
        n=n,
        evaluate=evaluate,
        default_L=8.0,
        default_ell=0.0,
    )


class _Family(NamedTuple):
    make: Callable[..., ObjectiveProblem]
    check: Callable[..., object] | None  # what make checks first; ProblemSpec runs it too
    # optional parameters' defaults by field, given n: the constructor's keyword
    # defaults, plus the two that scale with n (logistic m = 2n, huber tau = n/10)
    defaults: Callable[[int], dict]


_FAMILIES = {
    "quad": _Family(make_quad_diag, None, lambda n: {}),
    "abpdn": _Family(make_abpdn, _check_abpdn, lambda n: make_abpdn.__kwdefaults__),
    "logistic": _Family(make_logistic, _check_logistic,
                        lambda n: {"m": 2 * n, **make_logistic.__kwdefaults__}),
    # tau = n/10 <= 1 at n <= 10 makes x0 = 0 a minimiser (see make_huber)
    "huber": _Family(make_huber, _check_huber, lambda n: {"tau": n / 10.0}),
}
FAMILIES = tuple(_FAMILIES)

# Per family, the label of the instance ProblemSpec.build made last for it, and that
# instance; under _SYSTEM, the name of the system quad_diag_system made last, and that system.
_SYSTEM = "quad_diag_system"
_built: dict[str, tuple[str, ObjectiveProblem | QuadraticProblem]] = {}


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative description of a benchmark instance.

    Unset parameters fall back to the family's defaults in ``_FAMILIES``.  A
    set parameter that the family's constructor does not take is rejected,
    and the constructor check runs here on the resolved parameters, so an
    out-of-range one fails before any build.  The instance's one identity,
    its ``_instance_name``, is made here once: it is ``label()``, the key of
    ``build``'s cache and the built instance's ``name``.
    """

    family: str
    n: int
    m: int | None = None
    lam: float | None = None
    delta: float | None = None
    sigma: float | None = None
    tau: float | None = None
    seed: int | None = None
    _label: str = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.n < 1:
            raise InvalidSpec(f"need n >= 1, got {self.n}")
        args = self._args()
        unused = [key for key, field, _ in _PARAMS if getattr(self, field) is not None
                  and field not in args]
        if unused:
            raise InvalidSpec(f"family {self.family} takes no {', '.join(unused)}")
        if not all(np.issubdtype(type(args.get(f, 0)), np.integer) for f in ("n", "m", "seed")):
            raise InvalidSpec(f"n, m and seed must be integers, got {args}")
        check = _FAMILIES[self.family].check
        if check is not None:
            check(**args)
        object.__setattr__(self, "_label", _instance_name(self.family, **args))  # frozen

    def _args(self) -> dict:
        """The constructor's arguments: n and each optional parameter, defaults filled in."""
        args = {"n": self.n}
        for field, default in _FAMILIES[self.family].defaults(self.n).items():
            value = getattr(self, field)
            args[field] = default if value is None else value
        return args

    def build(self) -> ObjectiveProblem:
        """The instance named ``label()``, built once for successive calls of its
        family with that label: runs of several solvers on one instance share
        it, even when runs on other families come between them.

        One instance is held per family.  A call with another label for that
        family drops its instance before building the next, so two instances
        of one family are never alive here at once.  Sharing is safe because
        every family's ``evaluate`` is a pure closure over read-only arrays
        that returns fresh ones.  A quad instance wraps the system that
        ``quad_diag_system`` holds, so lcg runs on its n share that too.
        """
        try:  # a subscript, not .get: a hit runs after a solve, with the method lookup cold
            held = _built[self.family]
        except KeyError:
            held = None
        if held is None or held[0] != self._label:
            held = None  # free the held instance before the build, not after
            _built.pop(self.family, None)
            held = _built[self.family] = (self._label, _FAMILIES[self.family].make(**self._args()))
        return held[1]

    def label(self) -> str:
        """The instance's name, in the suite table and JSON summary, with every
        argument resolved: ``huber(n=60,tau=6)`` whether or not tau was set.
        ``build`` keys its cache by it, so a label names one instance, and the
        instance that ``build`` returns has it as its ``name``."""
        return self._label


def quad_diag_system(n: int) -> QuadraticProblem:
    """The diagonal quadratic of ``make_quad_diag`` as an SPD operator, built
    once for successive calls with one n: the quad family's instance, which
    ``make_quad_diag`` builds from it, and every lcg run on that n share it.

    One system is held, in ``_built`` under ``_SYSTEM`` with its name, by
    ``ProblemSpec.build``'s rule: a call with another n drops the held system
    before building the next.  Sharing is safe because its arrays are
    read-only and ``apply_A`` returns a fresh array.
    """
    name = _instance_name("quad", n)
    try:
        held = _built[_SYSTEM]
    except KeyError:
        held = None
    if held is None or held[0] != name:
        held = None  # free the held system before the build, not after
        _built.pop(_SYSTEM, None)
        held = _built[_SYSTEM] = (name, _build_quad_diag_system(n, name))
    return held[1]


def _build_quad_diag_system(n: int, name: str) -> QuadraticProblem:
    """A new system for ``quad_diag_system``, named ``name``."""
    if n < 1:
        raise InvalidSpec(f"need n >= 1, got {n}")
    idx = np.arange(1, n + 1, dtype=float)
    d = idx**2
    b = np.sin(idx)
    xstar = b / d
    for array in (d, b, xstar):
        array.flags.writeable = False
    return QuadraticProblem(
        apply_A=lambda x: d * x,
        b=b,
        known_xstar=xstar,
        known_fstar=-0.5 * float(b.dot(xstar)),
        name=name,
    )
