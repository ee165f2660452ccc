"""Exact rational evaluation of the harmonic-weighted simplex moments.

The central quantity is

    I(k, r, n) = integral over Delta_{k-1} of (sum_s x_s/s)^n
                 against the symmetric Dirichlet-type measure of
                 :mod:`jetmorse.measures`,

together with its exact rational lower/upper bracket, its large-k
asymptotics ``(log k + gamma)^n / k^n``, and the error-quotient

    eps(k, r, n) = I(k, r, 2n-2)^{1/2} / ( (k (k + 1/r))^{1/2} I(k, r, n) )

which decays like 1/log k and is bounded by sqrt(31/15)/log k once
k >= e^{5n-5}.  Everything here is arbitrary-precision rational except the
final square roots and logarithms, which use mpmath with enough guard digits
(interval arithmetic for the bound comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

__all__ = [
    "EULER_GAMMA",
    "ResourceLimitError",
    "harmonic",
    "ikrn_exact",
    "ikrn_bounds",
    "ikrn_asymptotic",
    "EpsilonRatio",
    "epsilon_ratio",
]

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061


class ResourceLimitError(RuntimeError):
    """Raised when an exact enumeration would exceed the configured term ceiling."""


@lru_cache(maxsize=None)
def harmonic(k: int) -> Fraction:
    """Exact harmonic number H_k = 1 + 1/2 + ... + 1/k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = Fraction(0)
    for s in range(1, k + 1):
        total += Fraction(1, s)
    return total


def _rising(a: int, n: int) -> int:
    """a (a+1) ... (a+n-1)."""
    out = 1
    for i in range(n):
        out *= a + i
    return out


def ikrn_exact(k: int, r: int, n: int, *, term_ceiling: int = 10**8,
               method: str = "series") -> Fraction:
    """Exact rational value of I(k, r, n).

    ``method="series"`` extracts the coefficient of t^n in
    prod_{s<=k} (1 - t/s)^{-r}, which is algebraically identical to summing
    the weak-composition expansion but costs only O(k n^2) rational
    operations.  ``method="enumerate"`` performs the literal composition sum
    (useful as an independent oracle) and is guarded by ``term_ceiling``.
    """
    if k < 1 or r < 1 or n < 0:
        raise ValueError("require k >= 1, r >= 1, n >= 0")
    if n == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(1)  # x_1 = 1 forced on the zero-dimensional simplex
    if method == "series":
        return _ikrn_series(k, r, n, _power_sums(k, n))
    if method == "enumerate":
        count = math.comb(n + k - 1, n)
        if count > term_ceiling:
            raise ResourceLimitError(
                f"composition count {count} exceeds ceiling {term_ceiling}")
        return _ikrn_enumerate(k, r, n)
    raise ValueError(f"unknown method {method!r}")


def _power_sum(k: int, m: int) -> Fraction:
    # sum_{s=1}^{k} s^{-m}, balanced-tree summation keeps the big-int
    # denominators from being rebuilt k times
    terms = [Fraction(1, s**m) for s in range(1, k + 1)]
    while len(terms) > 1:
        it = iter(terms)
        terms = [a + b for a, b in zip(it, it)] + (
            [terms[-1]] if len(terms) % 2 else [])
    return terms[0]


def _power_sums(k: int, m_max: int) -> dict:
    """{m: p_m(k)} for m = 1..m_max."""
    return {m: _power_sum(k, m) for m in range(1, m_max + 1)}


def _ikrn_series(k: int, r: int, n: int, p: dict) -> Fraction:
    # coefficient of t^n in prod_{s=1}^{k} (1 - t/s)^{-r} = exp(r sum_m p_m t^m/m)
    # with power sums p_m = sum_s s^{-m}, via the exponential recurrence
    # f_j = (1/j) sum_{m=1}^{j} r p_m f_{j-m}; ``p`` holds p_m for at least m <= n
    f = [Fraction(1)]
    for j in range(1, n + 1):
        f.append(sum(r * p[m] * f[j - m] for m in range(1, j + 1)) / j)
    prefactor = Fraction(math.factorial(n), _rising(k * r, n))
    return prefactor * f[n]


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
    # both moments share the power sums p_m(k), m <= max(2n-2, n)
    p = _power_sums(k, max(2 * n - 2, n))
    i_2n2 = _ikrn_series(k, r, 2 * n - 2, p)
    i_n = _ikrn_series(k, r, n, p)
    denom = Fraction(k) * (Fraction(k) + Fraction(1, r))
    exact_sq = i_2n2 / (denom * i_n**2)

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
