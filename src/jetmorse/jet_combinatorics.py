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
pass over 1..k as numerators N_m over the shared denominator D^m,
D = lcm(1..k): merging two halves costs one gcd of their lcms, whatever
m_max is (Haible & Papanikolaou 1998).  A range of at most ``_LEAF_RUN``
leaves is summed directly instead (d the lcm of the run, N_m = sum (d/s)^m),
since merging small integers costs more interpreter time than the split
saves.  The leaves are taken in order of their largest prime factor, not
in the order 1..k.  A range of consecutive integers near k has an lcm close
to the product of its members, so in natural order the partial sums of a
middle level together hold about ln k times the bits of D^m; in
largest-prime-factor order each prime above sqrt(k) divides the lcm of a
single subtree per level, and every level stays near the size of D^m.  The moment recurrence
f_j = (1/j) sum_m r p_m f_{j-m} is run on the integers G_j = D^j f_j (each
division by j is exact).  A result x/y is not reduced by gcd(x, y): both
sides have up to m k log2(e) bits, while their common factor is small (150
of 190,682 bits in epsilon_ratio(22027, 1, 3)), and a gcd costs time
quadratic in the size.  ``_reduced`` strips gcd(x, q, y) instead, for a
small q that every common prime divides: n! rho gcd(G_n, D) for ikrn_exact,
with rho = kr (kr+1) ... (kr+n-1); r^n rho and 3 r^n rho for the two ends
of ikrn_bounds; and a b gcd(G_{2n-2}, G_n) gcd(D, G_n) for epsilon_ratio,
with a and b its small cofactors (at n = 3, k = 22027 the two gcds there
take 127k/95k and 32k/95k bits).  The ``Fraction`` is then built from the
reduced pair without one more gcd.  D^m has about m k log2(e) bits, and the recurrence
to order m makes about m^2/2 products of integers that large; a request
above ``EXACT_BIT_CEILING`` or ``EXACT_WORK_CEILING`` raises
:class:`ResourceLimitError` before any work (the CLI exits 3).  The quotient's
square root is an integer square root to at least 136 bits, the bound's root,
logarithm and quotient are calls on one 45-digit ``decimal.Context`` of this
module, and the bound comparison is read off their two rounded results.
"""

from __future__ import annotations

import decimal
import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "EULER_GAMMA",
    "EXACT_BIT_CEILING",
    "EXACT_WORK_CEILING",
    "MC_VARIATE_CEILING",
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

# Largest admitted k r variates of one simplex sample, and k r samples of a
# Monte-Carlo run of I(k, r, n) (ikrn --mode mc).  The draws take 25-85 ns
# per sample and coordinate on a 2-CPU Xeon, so a run stays under about 6 s;
# the largest admitted sample (k = 2^25, r = 1, 2 samples) holds three arrays
# of 256 MiB.  k = 10^8 at 10 samples (800 MB per array) ran past 20 s.
MC_VARIATE_CEILING = 1 << 26

# Largest range of leaves that _split sums directly instead of splitting: below
# it the merges of small integers cost more in interpreter overhead than the
# split saves in integer sizes.  On a 2-CPU Xeon, _power_numerators at
# k = 404, 2005 and 22027 (m 6, 6, 4) was within 15% of its best from 16 to
# 64 and up to 1.9x slower at 8 or 128.
_LEAF_RUN = 32

_PREC = 136  # bits of epsilon_ratio's integer square root, those of 40 decimal digits
# the bound's arithmetic: 45 digits (149 bits), each result rounded to
# nearest.  The exponent range and traps are given too, so no setting that
# could change a result is copied from decimal's DefaultContext; the calls
# only set its Inexact and Rounded flags, which nothing reads.
_BOUND_CTX = decimal.Context(prec=45, rounding=decimal.ROUND_HALF_EVEN,
                             Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
                             traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                    decimal.Overflow])
_ROOT_31_15 = _BOUND_CTX.sqrt(_BOUND_CTX.divide(31, 15))


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


class _LowestTerms:
    # a pair already in lowest terms, denominator > 0; registered as a
    # Rational, so Fraction(pair) copies its two fields without a gcd
    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator


numbers.Rational.register(_LowestTerms)


def _reduced(x: int, y: int, q: int) -> Fraction:
    """x/y (x, y > 0) in lowest terms, given that every prime of gcd(x, y) divides q.

    Each round strips h = gcd(gcd(x, q), y), at a cost linear in the sizes
    of x and y for a small q.  Every prime left in common divided the last h,
    so h takes the place of q until it is 1.
    """
    h = math.gcd(math.gcd(x, q), y)
    while h > 1:
        x //= h
        y //= h
        h = math.gcd(math.gcd(x, h), y)
    return Fraction(_LowestTerms(x, y))


def _check_exact_cost(k: int, m: int) -> None:
    """Raise :class:`ResourceLimitError` when exact rationals of order m at k
    pass ``EXACT_BIT_CEILING`` (the bits of D^m, D = lcm(1..k)) or
    ``EXACT_WORK_CEILING`` (the moment recurrence's m^2/2 products of
    integers that large)."""
    bits = m * k * math.log2(math.e)  # log lcm(1..k) ~ k
    if bits > EXACT_BIT_CEILING:
        raise ResourceLimitError(
            f"exact power sums to order {m} at k={k} need about "
            f"{bits:.3g} bits, above the ceiling of {EXACT_BIT_CEILING}")
    work = m * m / 2 * bits ** math.log2(3)
    if work > EXACT_WORK_CEILING:
        raise ResourceLimitError(
            f"the exact moment recurrence to order {m} at k={k} needs "
            f"about {work:.3g} bit operations, above the ceiling of "
            f"{EXACT_WORK_CEILING}")


def _power_numerators(k: int, m_max: int) -> tuple[int, list]:
    """(D, [N_1, ..., N_mmax]) with p_m(k) = N_m / D^m and D = lcm(1..k).

    After the size and work guards, a sieve orders 1..k by largest prime
    factor (ties ascending) and the binary split runs over that order.  A
    prime p > sqrt(k) then divides the lcm of one subtree per level, not of
    every subtree that holds a multiple of p, so the partial sums of a level
    hold about the bits of D^m in all, not ln k times as many.  (D, N) is
    unique, so the order changes no value.
    """
    _check_exact_cost(k, m_max)
    lpf = list(range(k + 1))  # largest prime factor of s, 1 for s = 1
    for p in range(2, k // 2 + 1):
        if lpf[p] == p:  # no smaller prime divides p
            lpf[2 * p::p] = [p] * (k // p - 1)
    leaves = sorted(range(1, k + 1), key=lpf.__getitem__)
    return _split(leaves, 0, k, m_max)


def _split(leaves: Sequence[int], a: int, b: int, m_max: int) -> tuple[int, list]:
    # sum_{a<=i<b} leaves[i]^{-m} = N_m / d^m with d the lcm of those leaves;
    # depth-first, so only O(log k) partial results are alive at once
    if b - a <= _LEAF_RUN:
        # summed directly: N_m = sum c_i^m with c_i = d / s_i, one running
        # product per power
        run = leaves[a:b]
        d = math.lcm(*run)
        c = [d // s for s in run]
        pw = c
        out = [sum(c)]
        for _ in range(1, m_max):
            pw = [x * y for x, y in zip(pw, c)]
            out.append(sum(pw))
        return d, out
    mid = (a + b) // 2
    d1, n1 = _split(leaves, a, mid, m_max)
    d2, n2 = _split(leaves, mid, b, m_max)
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


def ikrn_exact(k: int, r: int, n: int) -> Fraction:
    """Exact rational value of I(k, r, n).

    The coefficient of t^n in prod_{s<=k} (1 - t/s)^{-r}, which is
    algebraically identical to the weak-composition sum, in integers: the
    power sums p_m = N_m / D^m (D = lcm(1..k)) from one binary-splitting
    pass, G_j = D^j f_j from the integral form of the exponential
    recurrence, and I = n! G_n / (rho D^n) with rho = kr (kr+1) ... (kr+n-1).
    A prime of both sides that divides neither n! nor rho divides G_n and D,
    so the pair is reduced by the factors of n! rho gcd(G_n, D).  Raises
    :class:`ResourceLimitError` up front when D^n would exceed
    ``EXACT_BIT_CEILING`` bits or the recurrence ``EXACT_WORK_CEILING``.
    """
    if k < 1 or r < 1 or n < 0:
        raise ValueError("require k >= 1, r >= 1, n >= 0")
    if n == 0 or k == 1:
        return Fraction(1)  # at k = 1, x_1 = 1 on the zero-dimensional simplex
    d, nums = _power_numerators(k, n)
    g = _moment_numerators(r, nums)
    nf, rho = math.factorial(n), _rising(k * r, n)
    # a prime of both sides divides n!, rho, or G_n and D together
    return _reduced(nf * g[n], rho * d**n, nf * rho * math.gcd(g[n], d))


_ENUMERATE_CEILING = 10**8  # largest composition count _ikrn_enumerate sums


def _ikrn_enumerate(k: int, r: int, n: int) -> Fraction:
    """I(k, r, n) as the literal composition sum: the tests' oracle for ikrn_exact."""
    from .measures import nu_moment

    count = math.comb(n + k - 1, n)
    if count > _ENUMERATE_CEILING:
        raise ResourceLimitError(
            f"composition count {count} exceeds ceiling {_ENUMERATE_CEILING}")
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

    With H_k = h/d in lowest terms and rho = kr (kr+1) ... (kr+n-1), both are
    built from integers:  lower = r^n h^n / (rho d^n) and
    upper = r^n (3 h^n + sum_m 2^m n!/(n-m)! d^m h^{n-m}) / (3 rho d^n),
    reduced by the factors of r^n rho and 3 r^n rho.

    The ceilings of :func:`ikrn_exact` at the same (k, n) apply, before any
    work.  d divides lcm(1..k) and h < d (1 + ln k), so h^n, d^n and every
    term of the sum have about the n k log2(e) bits of D^n.  A term takes
    two powers by repeated squaring, which cost at most half a product of
    integers of the term's size each (the squarings' sizes halve, and a
    product costs size^log2(3)), and one product: under two full-size
    products in all.  The n - 1 terms thus cost under 2 (n - 1) <= n^2 / 2
    products ((n - 2)^2 >= 0), the count the recurrence's work model takes.
    """
    if k < 1 or r < 1 or n < 0:
        raise ValueError("require k >= 1, r >= 1, n >= 0")
    _check_exact_cost(k, n)
    hk = harmonic(k)
    h, d = hk.numerator, hk.denominator
    rn, hn, dn, rho = r**n, h**n, d**n, _rising(k * r, n)
    corr = sum(2**m * math.perm(n, m) * d**m * h ** (n - m) for m in range(2, n + 1))
    # gcd(h, d) = 1, so a prime of both sides of lower divides r or rho; the
    # upper numerator is 3 r^n h^n mod d, so one of upper divides 3, r or rho
    return (_reduced(rn * hn, rho * dn, rn * rho),
            _reduced(rn * (3 * hn + corr), 3 * rho * dn, 3 * rn * rho))


def ikrn_asymptotic(k: int, r: int, n: int) -> float:
    """Leading large-k approximation ((log k + gamma) / k)^n.

    The quotient is below 1 for every k >= 1, so the power cannot overflow;
    at n >= 1 a value below the smallest normal float raises
    ``FloatingPointError``.
    """
    if k < 1 or r < 1 or n < 0:
        raise ValueError("require k >= 1, r >= 1, n >= 0")
    value = ((math.log(k) + EULER_GAMMA) / k) ** n
    if n and not value >= sys.float_info.min:
        raise FloatingPointError(f"asymptotic value at k={k}, n={n} is below the "
                                 "smallest normal float")
    return value


@dataclass(frozen=True)
class EpsilonRatio:
    """The exact error quotient and its closed-form bound.

    ``exact`` and ``paper_bound`` = sqrt(31/15)/log k (valid for k >= e^{5n-5})
    are the floats nearest to a 136-bit value of the square root of the exact
    rational ``exact_squared`` and to a 45-digit value of the bound;
    ``within_bound`` certifies that the true quotient is below the true bound
    (see :func:`epsilon_ratio`).
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
    # the quotient is a G_{2n-2} D^2 / (b G_n^2) with small cofactors a, b
    d, nums = _power_numerators(k, max(2 * n - 2, n))
    g = _moment_numerators(r, nums)
    kr, gn = k * r, g[n]
    a = math.factorial(2 * n - 2) * _rising(kr, n) ** 2 * r
    b = _rising(kr, 2 * n - 2) * k * (kr + 1) * math.factorial(n) ** 2
    # at n = 2, G_{2n-2} is G_n: one factor cancels before any gcd
    top, bottom = (1, gn) if n == 2 else (g[2 * n - 2], gn * gn)
    # a prime of both sides divides a, b, or G_n together with G_{2n-2} or D
    exact_sq = _reduced(a * top * d * d, b * bottom,
                        a * b * math.gcd(top, gn) * math.gcd(d, gn))

    # The root: s = isqrt(floor(x 4^h / y)) is floor(2^h sqrt(x/y)), and h
    # makes s >= 2^(_PREC-1), so s / 2^h lies within 2^-135 of sqrt(x/y),
    # relative.  The bound: each of the four calls on _BOUND_CTX rounds to
    # nearest at 45 digits, so its decimal lies within 2.5e-44 < 2^-144 of the
    # truth, relative.  Both errors are far inside half the gap from a float to
    # either neighbour, and s / 2^h and float(Decimal) round to nearest, so each
    # float's neighbours bracket its true value strictly, and within_bound is
    # exact < nextafter(exact, inf) <= nextafter(bound, -inf) < bound.
    x, y = exact_sq.numerator, exact_sq.denominator
    h = max(0, (2 * _PREC - x.bit_length() + y.bit_length()) // 2)
    exact = math.isqrt((x << 2 * h) // y) / (1 << h)
    bound = float(_BOUND_CTX.divide(_ROOT_31_15, _BOUND_CTX.ln(k)))
    within = math.nextafter(exact, math.inf) <= math.nextafter(bound, -math.inf)
    return EpsilonRatio(exact, exact_sq, bound, within)
