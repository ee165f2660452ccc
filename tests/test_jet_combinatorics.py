import decimal
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmorse import jet_combinatorics
from jetmorse.jet_combinatorics import (EULER_GAMMA, EpsilonRatio,
                                        ResourceLimitError, _ikrn_enumerate,
                                        _power_numerators, _reduced,
                                        epsilon_ratio, harmonic, ikrn_asymptotic,
                                        ikrn_bounds, ikrn_exact, inverse_square_sum)
from jetmorse.measures import sample_nu_batch
from jetmorse.rng import stream


def test_harmonic():
    assert harmonic(1) == 1
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(4) == Fraction(25, 12)
    with pytest.raises(ValueError):
        harmonic(0)


def test_ikrn_small_values():
    # k=1 forces x_1=1 so the integrand is 1^n
    assert ikrn_exact(1, 3, 5) == 1
    assert ikrn_exact(2, 1, 1) == Fraction(3, 4)
    assert ikrn_exact(3, 1, 0) == 1


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_ikrn_k2_closed_form(n):
    # r = 1, k = 2: x_1 is uniform on [0, 1], so I = int_0^1 ((1+x)/2)^n dx;
    # n = 1000 runs the moment recurrence far beyond the orders used elsewhere
    assert ikrn_exact(2, 1, n) == Fraction(2 ** (n + 1) - 1, (n + 1) * 2**n)


def test_ikrn_first_moment_is_harmonic_over_k():
    # integral of sum x_s/s equals H_k/k for every r
    for k in (2, 3, 7, 25):
        for r in (1, 2, 3):
            assert k * ikrn_exact(k, r, 1) == harmonic(k)


def test_ikrn_series_matches_enumeration():
    for k, r, n in [(2, 1, 3), (3, 2, 2), (4, 1, 4), (5, 3, 2), (2, 2, 5)]:
        assert ikrn_exact(k, r, n) == _ikrn_enumerate(k, r, n)


def test_ikrn_matches_direct_mc():
    k, r, n = 6, 2, 3
    rng = stream(5, "ikrn-test")
    m = 200000
    x = sample_nu_batch(k, r, m, rng)
    vals = (x @ (1.0 / np.arange(1, k + 1))) ** n
    se = vals.std() / math.sqrt(m)
    assert abs(vals.mean() - float(ikrn_exact(k, r, n))) < 3 * se


def test_enumeration_resource_ceiling():
    with pytest.raises(ResourceLimitError):
        _ikrn_enumerate(10**4, 1, 5)


def test_bounds_bracket_exact():
    for k in (2, 5, 20):
        for r in (1, 3):
            for n in (1, 2, 4):
                lo, hi = ikrn_bounds(k, r, n)
                v = ikrn_exact(k, r, n)
                assert lo <= v <= hi


def _fraction_bounds(k, r, n):
    # the bracket as a chain of reduced Fraction operations: the oracle for
    # ikrn_bounds' integer form
    hk = harmonic(k)
    lower = Fraction(r**n) * hk**n / math.prod(range(k * r, k * r + n))
    corr = Fraction(0)
    for m in range(2, n + 1):
        corr += Fraction(2**m * math.factorial(n), math.factorial(n - m)) / hk**m
    return lower, lower * (1 + Fraction(1, 3) * corr)


@pytest.mark.parametrize("k", [*range(1, 61), 97, 400, 2007])
def test_bounds_match_fraction_formula(k):
    for r in (1, 2, 3):
        for n in range(1, 8):
            assert ikrn_bounds(k, r, n) == _fraction_bounds(k, r, n)


def test_n0_moment_is_one_in_every_form():
    for k, r in ((1, 1), (5, 2), (400, 3)):
        assert ikrn_exact(k, r, 0) == 1
        assert ikrn_bounds(k, r, 0) == (1, 1)
        assert ikrn_asymptotic(k, r, 0) == 1.0


def test_bounds_n1_tight():
    # for n=1 the bracket collapses onto the exact value r H_k / (kr)
    k, r = 9, 2
    lo, hi = ikrn_bounds(k, r, 1)
    assert lo == hi == ikrn_exact(k, r, 1)


def test_asymptotic_improves_with_k():
    for n in (2, 3):
        v_small = float(ikrn_exact(100, 1, n)) / ikrn_asymptotic(100, 1, n)
        v_large = float(ikrn_exact(3000, 1, n)) / ikrn_asymptotic(3000, 1, n)
        assert abs(v_large - 1) < abs(v_small - 1)


def test_euler_gamma_constant():
    assert abs(EULER_GAMMA - 0.5772156649015329) < 1e-15


def test_epsilon_ratio_structure():
    e = epsilon_ratio(200, 1, 2)
    assert isinstance(e, EpsilonRatio)
    # exact field is the root of the exact rational square
    assert abs(e.exact**2 - float(e.exact_squared)) < 1e-14
    assert abs(e.paper_bound - math.sqrt(31 / 15) / math.log(200)) < 1e-15
    assert e.within_bound


@pytest.mark.parametrize("k,r,n", [(2, 1, 1), (7, 2, 2), (30, 3, 3), (12, 1, 4)])
def test_epsilon_ratio_squared_is_exact_quotient(k, r, n):
    # the shared power sums must give the same rational as two ikrn_exact calls
    want = ikrn_exact(k, r, 2 * n - 2) / (Fraction(k) * (k + Fraction(1, r))
                                          * ikrn_exact(k, r, n) ** 2)
    assert epsilon_ratio(k, r, n).exact_squared == want


@pytest.mark.parametrize("k,r,n,exact,bound", [
    (200, 1, 2, "0x1.546e36e0cae6ap-3", "0x1.15d770548bacap-2"),
    (150, 2, 2, "0x1.69959f46d32c7p-3", "0x1.25cb2b95b1b89p-2"),
    (22027, 1, 3, "0x1.83c90a10999d3p-4", "0x1.266af74e845f2p-3"),
])
def test_epsilon_ratio_floats_pinned(k, r, n, exact, bound):
    # the nearest floats, as the 40-digit mpmath-context evaluation gave them
    e = epsilon_ratio(k, r, n)
    assert (e.exact.hex(), e.paper_bound.hex(), e.within_bound) == (exact, bound, True)


def _hostile(ctx):
    # caller settings that would change the bound, or raise, if it read them:
    # three digits, rounded down, and Inexact trapped
    ctx.prec, ctx.rounding = 3, decimal.ROUND_FLOOR
    ctx.traps[decimal.Inexact] = True
    ctx.clear_flags()


def _untouched(ctx):
    return (decimal.getcontext() is ctx and ctx.prec == 3
            and ctx.rounding == decimal.ROUND_FLOOR and ctx.traps[decimal.Inexact]
            and not any(ctx.flags.values()))


def test_epsilon_ratio_ignores_caller_decimal_context():
    # the bound runs on the module's own decimal context: the caller's is
    # neither read nor changed, flags included
    want = epsilon_ratio(200, 1, 2)
    with decimal.localcontext() as ctx:
        _hostile(ctx)
        assert epsilon_ratio(200, 1, 2) == want
        assert _untouched(ctx)


def test_epsilon_ratio_thread_safe():
    # two pool threads and the caller, each under a hostile decimal context,
    # run epsilon_ratio at once; mpmath's global precision, saved and restored
    # around each call, used to change a result in its last bit here
    cases = [(200, 1, 2), (150, 2, 2), (404, 1, 3), (97, 3, 2), (1000, 1, 2), (60, 2, 3)]
    want = [epsilon_ratio(*c) for c in cases]

    def call(c):
        ctx = decimal.getcontext()
        e = epsilon_ratio(*c)
        assert _untouched(ctx)
        return e

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often
    try:
        with (decimal.localcontext() as ctx,
              ThreadPoolExecutor(2, initializer=lambda: _hostile(decimal.getcontext())) as pool):
            _hostile(ctx)
            for _ in range(300):
                results = pool.map(call, cases)
                assert [call(c) for c in cases] == want
                assert list(results) == want
    finally:
        sys.setswitchinterval(interval)


def test_epsilon_ratio_rejects_degenerate():
    with pytest.raises(ValueError):
        epsilon_ratio(1, 1, 2)
    with pytest.raises(ValueError):
        epsilon_ratio(10, 1, 0)


def _fraction_tree_sum(k, m):
    # independent oracle for p_m(k) = sum_{s<=k} s^{-m}: balanced pairwise
    # summation of reduced Fractions
    terms = [Fraction(1, s**m) for s in range(1, k + 1)]
    while len(terms) > 1:
        it = iter(terms)
        terms = [a + b for a, b in zip(it, it)] + (
            [terms[-1]] if len(terms) % 2 else [])
    return terms[0]


# 31..33 and 64, 65 sit on either side of a leaf run (_LEAF_RUN = 32) and of
# two runs; every m_max <= 6 is asked for, so a run's power loop is checked
# at each length
@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 16, 31, 32, 33, 64, 65, 97, 128,
                               1001, 2005, 3000])
def test_power_numerators_match_fraction_oracle(k):
    oracle = [_fraction_tree_sum(k, m) for m in range(1, 7)]
    for m_max in range(1, 7):
        d, nums = _power_numerators(k, m_max)
        assert d == math.lcm(*range(1, k + 1))
        assert len(nums) == m_max
        for m, num in enumerate(nums, start=1):
            assert Fraction(num, d**m) == oracle[m - 1]


def _contiguous_split(a, b, m_max):
    # the split over the leaves a, a+1, ..., b-1 in natural order: the oracle
    # for the largest-prime-factor order, which must give the same (D, N)
    if b - a == 1:
        return a, [1] * m_max
    mid = (a + b) // 2
    d1, n1 = _contiguous_split(a, mid, m_max)
    d2, n2 = _contiguous_split(mid, b, m_max)
    g = math.gcd(d1, d2)
    e1, e2 = d2 // g, d1 // g
    out = []
    p1 = p2 = 1
    for x, y in zip(n1, n2):
        p1 *= e1
        p2 *= e2
        out.append(x * p1 + y * p2)
    return d1 * e1, out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 9, 25, 27, 49, 97, 121, 400, 2003, 2048, 22027])
def test_split_order_matches_contiguous(k):
    assert _power_numerators(k, 6) == _contiguous_split(1, k + 1, 6)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 5000), m=st.integers(1, 6))
def test_split_order_matches_contiguous_property(k, m):
    assert _power_numerators(k, m) == _contiguous_split(1, k + 1, m)


def _largest_prime_factor(s):
    out, p = 1, 2
    while p * p <= s:
        while s % p == 0:
            out, s = p, s // p
        p += 1
    return max(out, s)


@pytest.mark.parametrize("k", [1, 2, 12, 40, 256, 1000])
def test_split_leaves_in_largest_prime_factor_order(k, monkeypatch):
    seen = []
    real = jet_combinatorics._split

    def spy(leaves, a, b, m_max):
        seen.append(list(leaves))
        return real(leaves, a, b, m_max)

    monkeypatch.setattr(jet_combinatorics, "_split", spy)
    _power_numerators(k, 2)
    leaves = seen[0]
    assert sorted(leaves) == list(range(1, k + 1))
    keys = [(_largest_prime_factor(s), s) for s in leaves]
    assert keys == sorted(keys)


def test_epsilon_ratio_at_e10_pinned():
    # blake2b of exact_squared at k = ceil(e^10), n = 3, as computed by the
    # reducing Fraction implementation this integer path replaced
    v = epsilon_ratio(22027, 1, 3)
    digest = hashlib.blake2b(f"{v.exact_squared.numerator:x}/{v.exact_squared.denominator:x}"
                             .encode(), digest_size=16).hexdigest()
    assert digest == "6f2da1adb3ca73c87ede7e2476fe0ed8"
    assert v.within_bound and 0 < v.exact <= v.paper_bound


# g is a product of small prime powers, so some primes need several rounds
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g=st.lists(st.sampled_from([2, 3, 5, 7, 97]), max_size=60).map(math.prod),
       u=st.integers(1, 2**300), v=st.integers(1, 2**300), c=st.integers(1, 2**40))
def test_reduced_matches_fraction_property(g, u, v, c):
    # x = g u, y = g v, q = g w: with w a multiple of gcd(u, v), every prime
    # of gcd(x, y) divides q, as _reduced requires
    w = c * math.gcd(u, v)
    got = _reduced(g * u, g * v, g * w)
    want = Fraction(g * u, g * v)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_epsilon_ratio_takes_no_full_size_gcd(monkeypatch):
    # at k = ceil(e^10), n = 3 both sides of the quotient have about 190,000
    # bits and share a 150-bit factor; no gcd may take two operands that large
    real = math.gcd
    big = []

    def spy(*args):
        if len(args) == 2 and min(abs(a).bit_length() for a in args) > 150_000:
            big.append(tuple(a.bit_length() for a in args))
        return real(*args)

    monkeypatch.setattr(math, "gcd", spy)
    epsilon_ratio(22027, 1, 3)
    assert big == []


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 5), r=st.integers(1, 3), n=st.integers(0, 4))
def test_series_matches_enumeration_property(k, r, n):
    assert ikrn_exact(k, r, n) == _ikrn_enumerate(k, r, n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 400), r=st.integers(1, 4), n=st.integers(1, 6))
def test_bounds_contain_exact_property(k, r, n):
    lo, hi = ikrn_bounds(k, r, n)
    assert lo <= ikrn_exact(k, r, n) <= hi


def test_guard_rejects_before_any_work(monkeypatch):
    def fail(*args):
        raise AssertionError("binary splitting ran past the guard")

    monkeypatch.setattr(jet_combinatorics, "_split", fail)
    with pytest.raises(ResourceLimitError):
        ikrn_exact(3 * 10**6, 1, 2)
    with pytest.raises(ResourceLimitError):
        epsilon_ratio(3 * 10**5, 1, 3)
    with pytest.raises(ResourceLimitError):
        harmonic(10**7)
    with pytest.raises(ResourceLimitError):
        ikrn_bounds(10**7, 1, 2)


def test_guard_admits_epsilon_at_1e5(monkeypatch):
    # the guard passes epsilon_ratio(10^5, r, 3); stop at the work it admits
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(jet_combinatorics, "_split", admitted)
    for r in (1, 3):
        with pytest.raises(Admitted):
            epsilon_ratio(10**5, r, 3)


def test_harmonic_cache_is_bounded():
    assert harmonic.cache_info().maxsize is not None


def test_inverse_square_sum():
    assert inverse_square_sum(1) == 1.0
    assert inverse_square_sum(3) == math.fsum([1.0, 0.25, 1.0 / 9])
    assert abs(inverse_square_sum(10**5) - math.pi**2 / 6) < 1.1e-5


def test_work_guard_rejects_long_recurrence(monkeypatch):
    def fail(*args):
        raise AssertionError("binary splitting ran past the guard")

    monkeypatch.setattr(jet_combinatorics, "_split", fail)
    with pytest.raises(ResourceLimitError, match="recurrence"):
        ikrn_exact(2, 1, 4000)
    with pytest.raises(ResourceLimitError, match="recurrence"):
        ikrn_exact(10, 1, 1100)


def test_bounds_ceiling_before_any_work(monkeypatch):
    # h^n, d^n and the bracket's sum are as large as D^n: the ceilings of
    # ikrn_exact apply before H_k is computed
    def fail(*args):
        raise AssertionError("H_k was computed past the ceiling")

    monkeypatch.setattr(jet_combinatorics, "harmonic", fail)
    with pytest.raises(ResourceLimitError, match="bits"):
        ikrn_bounds(1000, 1, 1000)
    with pytest.raises(ResourceLimitError, match="recurrence"):
        ikrn_bounds(1000, 1, 500)


def test_bounds_ceiling_admits_certify_grid():
    # the bench's certify grid: k up to 2,007, r up to 3, n 2, 4, 6
    for k in [*range(40, 48), *range(400, 408), *range(2000, 2008)]:
        for n in (2, 4, 6):
            jet_combinatorics._check_exact_cost(k, n)
    assert ikrn_bounds(2007, 3, 6) == _fraction_bounds(2007, 3, 6)


def test_exact_grid_pinned():
    # one blake2b over the numerator and denominator of every exact value on
    # a grid, as computed by the full-gcd reduction: a value that changes, or
    # a pair left out of lowest terms, changes the digest
    h = hashlib.blake2b(digest_size=16)

    def put(v):
        h.update(f"{v.numerator:x}/{v.denominator:x};".encode())

    for k in [*range(1, 41), 97, 400, 2007]:
        put(harmonic(k))
        for r in (1, 2, 3):
            for n in range(1, 7):
                put(ikrn_exact(k, r, n))
                for v in ikrn_bounds(k, r, n):
                    put(v)
                if k >= 2:
                    put(epsilon_ratio(k, r, n).exact_squared)
    assert h.hexdigest() == "a65bc16c33f188d013f56005e3fd17cd"
