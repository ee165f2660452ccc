"""Exact rational evaluation of the harmonic-weighted simplex moments.

The central quantity is

    I(k, r, n) = integral over Delta_{k-1} of (sum_s x_s/s)^n
                 against the symmetric Dirichlet-type measure of
                 :mod:`jetmorse.measures`,

together with its exact rational lower/upper bracket, its large-k
asymptotics ``(log k + gamma)^n / k^n``, and the error-quotient

    eps(k, r, n) = I(k, r, 2n-2)^{1/2} / ( (k (k + 1/r))^{1/2} I(k, r, n) )

which decays like 1/log k and is bounded by sqrt(31/15)/log k once
k >= e^{5n-5}.

The rational core works in plain integers.  All power sums
p_m(k) = sum_{s<=k} s^{-m}, m <= m_max, come out of one binary-splitting
pass over [1, k] as numerators N_m over the shared denominator D^m,
D = lcm(1..k): merging two halves costs one gcd of their lcms, whatever
m_max is (Haible & Papanikolaou 1998).  The moment recurrence
f_j = (1/j) sum_m r p_m f_{j-m} is run on the integers G_j = D^j f_j (each
division by j is exact), so a result is reduced by a single gcd when its
``Fraction`` is built.  D^m has about m k log2(e) bits, and the recurrence
to order m makes about m^2/2 products of integers that large; a request
above ``EXACT_BIT_CEILING`` or ``EXACT_WORK_CEILING`` raises
:class:`ResourceLimitError` before any work (the CLI exits 3).  Only the final square roots and logarithms use mpmath,
with enough guard digits (interval arithmetic for the bound comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

__all__ = [
    "EULER_GAMMA",
    "EXACT_BIT_CEILING",
    "EXACT_WORK_CEILING",
    "ResourceLimitError",
    "harmonic",
    "inverse_square_sum",
    "ikrn_exact",
    "ikrn_bounds",
    "ikrn_asymptotic",
    "EpsilonRatio",
    "epsilon_ratio",
]

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

# Largest admitted size, in bits, of the shared denominator power D^m_max.
# epsilon_ratio(10^5, r, 3) needs about 5.8e5 bits; ikrn at k = 3e6, n = 2
# would need 8.7e6.
EXACT_BIT_CEILING = 1 << 20

# Largest admitted work of the moment recurrence to order m: about m^2/2
# products of integers of up to m k log2(e) bits, each costing about
# bits^log2(3) (CPython multiplies large integers by Karatsuba).
# ikrn_exact(2, 1, 1000) needs 1.5e11 and takes 0.4 s; ikrn_exact(2, 1, 4000)
# would need 2.2e13 and take 23 s; k = 2 reaches the ceiling near n = 1750.
EXACT_WORK_CEILING = 1 << 40


class ResourceLimitError(RuntimeError):
    """Raised when an exact computation would exceed its cost ceiling."""


@lru_cache(maxsize=64)
def harmonic(k: int) -> Fraction:
    """Exact harmonic number H_k = 1 + 1/2 + ... + 1/k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d, (n1,) = _power_numerators(k, 1)
    return Fraction(n1, d)


def inverse_square_sum(k: int) -> float:
    """sum_{s<=k} 1/s^2 in floating point, summed with math.fsum."""
    return math.fsum(1.0 / s**2 for s in range(1, k + 1))


def _rising(a: int, n: int) -> int:
    """a (a+1) ... (a+n-1)."""
    out = 1
    for i in range(n):
        out *= a + i
    return out


def _power_numerators(k: int, m_max: int) -> tuple[int, list]:
    """(D, [N_1, ..., N_mmax]) with p_m(k) = N_m / D^m and D = lcm(1..k)."""
    bits = m_max * k * math.log2(math.e)  # log lcm(1..k) ~ k
    if bits > EXACT_BIT_CEILING:
        raise ResourceLimitError(
            f"exact power sums to order {m_max} at k={k} need about "
            f"{bits:.3g} bits, above the ceiling of {EXACT_BIT_CEILING}")
    work = m_max * m_max / 2 * bits ** math.log2(3)
    if work > EXACT_WORK_CEILING:
        raise ResourceLimitError(
            f"the exact moment recurrence to order {m_max} at k={k} needs "
            f"about {work:.3g} bit operations, above the ceiling of "
            f"{EXACT_WORK_CEILING}")
    return _split(1, k + 1, m_max)


def _split(a: int, b: int, m_max: int) -> tuple[int, list]:
    # sum_{a<=s<b} s^{-m} = N_m / d^m with d = lcm(a..b-1); depth-first, so
    # only O(log k) partial results are alive at once
    if b - a == 1:
        return a, [1] * m_max
    mid = (a + b) // 2
    d1, n1 = _split(a, mid, m_max)
    d2, n2 = _split(mid, b, m_max)
    g = math.gcd(d1, d2)
    e1, e2 = d2 // g, d1 // g
    out = []
    p1 = p2 = 1
    for x, y in zip(n1, n2):
        p1 *= e1
        p2 *= e2
        out.append(x * p1 + y * p2)
    return d1 * e1, out


def _moment_numerators(r: int, nums: list) -> list:
    # G_j = D^j f_j for j = 0..len(nums), where f_j is the coefficient of t^j
    # in prod_{s<=k} (1 - t/s)^{-r} = exp(r sum_m p_m t^m/m).  Each term of
    # f_j has a denominator dividing D^j, so G_j is an integer and the
    # recurrence f_j = (1/j) sum_m r p_m f_{j-m} becomes the exact division
    # G_j = (r sum_m N_m G_{j-m}) / j.  Scaling by j! D^j instead would also
    # avoid the division but inflates every G_j by j! and the sum by
    # (j-1)!/(j-m)!, which costs 50x at k = 2, n = 1000.
    g = [1]
    for j in range(1, len(nums) + 1):
        acc = 0
        for m in range(1, j + 1):
            acc += nums[m - 1] * g[j - m]
        g.append(r * acc // j)
    return g


def ikrn_exact(k: int, r: int, n: int, *, term_ceiling: int = 10**8,
               method: str = "series") -> Fraction:
    """Exact rational value of I(k, r, n).

    ``method="series"`` takes the coefficient of t^n in
    prod_{s<=k} (1 - t/s)^{-r}, which is algebraically identical to summing
    the weak-composition expansion.  It runs in integers: the power sums
    p_m = N_m / D^m (D = lcm(1..k)) from one binary-splitting pass, then
    G_j = D^j f_j from the integral form of the exponential recurrence, and
    I = n! G_n / (kr (kr+1) ... (kr+n-1) D^n), reduced once.  It raises
    :class:`ResourceLimitError` up front when D^n would exceed
    ``EXACT_BIT_CEILING`` bits or the recurrence ``EXACT_WORK_CEILING``.
    ``method="enumerate"`` performs the literal composition sum (useful as
    an independent oracle) and is guarded by ``term_ceiling``.
    """
    if k < 1 or r < 1 or n < 0:
        raise ValueError("require k >= 1, r >= 1, n >= 0")
    if n == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(1)  # x_1 = 1 forced on the zero-dimensional simplex
    if method == "series":
        d, nums = _power_numerators(k, n)
        g = _moment_numerators(r, nums)
        return Fraction(math.factorial(n) * g[n], _rising(k * r, n) * d**n)
    if method == "enumerate":
        count = math.comb(n + k - 1, n)
        if count > term_ceiling:
            raise ResourceLimitError(
                f"composition count {count} exceeds ceiling {term_ceiling}")
        return _ikrn_enumerate(k, r, n)
    raise ValueError(f"unknown method {method!r}")


def _ikrn_enumerate(k: int, r: int, n: int) -> Fraction:
    from .measures import nu_moment

    total = Fraction(0)
    n_fact = math.factorial(n)

    def rec(pos: int, remaining: int, weight: Fraction, beta: list):
        nonlocal total
        if pos == k - 1:
            beta.append(remaining)
            w = weight * Fraction(1, k**remaining * math.factorial(remaining))
            total += w * nu_moment(k, r, beta)
            beta.pop()
            return
        s = pos + 1
        for b in range(remaining + 1):
            beta.append(b)
            rec(pos + 1, remaining - b,
                weight * Fraction(1, s**b * math.factorial(b)), beta)
            beta.pop()

    rec(0, n, Fraction(n_fact), [])
    return total


def ikrn_bounds(k: int, r: int, n: int) -> tuple[Fraction, Fraction]:
    """Exact rational bracket  lower <= I(k, r, n) <= upper.

    lower = r^n H_k^n / (kr (kr+1) ... (kr+n-1));
    upper = lower * (1 + (1/3) sum_{m=2}^{n} 2^m n!/(n-m)! H_k^{-m}).
    """
    if k < 1 or r < 1 or n < 1:
        raise ValueError("require k >= 1, r >= 1, n >= 1")
    hk = harmonic(k)
    lower = Fraction(r**n) * hk**n / _rising(k * r, n)
    corr = Fraction(0)
    for m in range(2, n + 1):
        corr += Fraction(2**m * math.factorial(n), math.factorial(n - m)) / hk**m
    upper = lower * (1 + Fraction(1, 3) * corr)
    return lower, upper


def ikrn_asymptotic(k: int, r: int, n: int) -> float:
    """Leading large-k approximation (log k + gamma)^n / k^n."""
    if k < 1 or n < 1:
        raise ValueError("require k >= 1, n >= 1")
    return (math.log(k) + EULER_GAMMA) ** n / float(k) ** n


@dataclass(frozen=True)
class EpsilonRatio:
    """The exact error quotient and its closed-form bound.

    ``exact`` is a 30-digit evaluation of the square root of
    ``exact_squared`` (which is an exact rational); ``paper_bound`` is
    sqrt(31/15)/log k, valid for k >= e^{5n-5}; ``within_bound`` is decided
    by outward-rounded interval arithmetic, not floating comparison.
    """

    exact: float
    exact_squared: Fraction
    paper_bound: float
    within_bound: bool


def epsilon_ratio(k: int, r: int, n: int) -> EpsilonRatio:
    """Exact quotient I(k,r,2n-2)^{1/2} / ((k(k+1/r))^{1/2} I(k,r,n)) vs sqrt(31/15)/log k."""
    if n < 1 or k < 2:
        raise ValueError("require n >= 1 and k >= 2")
    # both moments share the power sums p_m(k), m <= max(2n-2, n); with
    # I(k,r,j) = j! G_j / (rising(kr, j) D^j) and k (k + 1/r) = k (kr+1)/r
    # the quotient is one integer ratio, reduced by a single gcd
    d, nums = _power_numerators(k, max(2 * n - 2, n))
    g = _moment_numerators(r, nums)
    kr = k * r
    exact_sq = Fraction(
        math.factorial(2 * n - 2) * g[2 * n - 2] * d * d * _rising(kr, n) ** 2 * r,
        _rising(kr, 2 * n - 2) * k * (kr + 1) * (math.factorial(n) * g[n]) ** 2)

    with mpmath.workdps(40):
        exact = mpmath.sqrt(mpmath.mpf(exact_sq.numerator) / exact_sq.denominator)
        bound = mpmath.sqrt(mpmath.mpf(31) / 15) / mpmath.log(k)
        exact_f = float(exact)
        bound_f = float(bound)

    # exact <= bound  <=>  exact_sq * (log k)^2 <= 31/15, decided on intervals
    iv = mpmath.iv
    with mpmath.workprec(120):
        lhs = iv.mpf(exact_sq.numerator) / iv.mpf(exact_sq.denominator) * iv.log(k) ** 2
        rhs = iv.mpf(31) / iv.mpf(15)
        within = lhs.b <= rhs.a

    return EpsilonRatio(exact=exact_f, exact_squared=exact_sq,
                        paper_bound=bound_f, within_bound=bool(within))
