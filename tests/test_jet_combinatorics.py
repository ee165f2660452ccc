import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmorse import jet_combinatorics
from jetmorse.jet_combinatorics import (EULER_GAMMA, EpsilonRatio,
                                        ResourceLimitError, _power_numerators,
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
        assert ikrn_exact(k, r, n) == ikrn_exact(k, r, n, method="enumerate")


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
        ikrn_exact(10**4, 1, 5, method="enumerate", term_ceiling=10**6)


def test_bounds_bracket_exact():
    for k in (2, 5, 20):
        for r in (1, 3):
            for n in (1, 2, 4):
                lo, hi = ikrn_bounds(k, r, n)
                v = ikrn_exact(k, r, n)
                assert lo <= v <= hi


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


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 16, 97, 128, 1001, 3000])
def test_power_numerators_match_fraction_oracle(k):
    d, nums = _power_numerators(k, 6)
    assert d == math.lcm(*range(1, k + 1))
    assert len(nums) == 6
    for m, num in enumerate(nums, start=1):
        assert Fraction(num, d**m) == _fraction_tree_sum(k, m)


def test_epsilon_ratio_at_e10_pinned():
    # blake2b of exact_squared at k = ceil(e^10), n = 3, as computed by the
    # reducing Fraction implementation this integer path replaced
    v = epsilon_ratio(22027, 1, 3)
    digest = hashlib.blake2b(f"{v.exact_squared.numerator:x}/{v.exact_squared.denominator:x}"
                             .encode(), digest_size=16).hexdigest()
    assert digest == "6f2da1adb3ca73c87ede7e2476fe0ed8"
    assert v.within_bound and 0 < v.exact <= v.paper_bound


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 5), r=st.integers(1, 3), n=st.integers(0, 4))
def test_series_matches_enumeration_property(k, r, n):
    assert ikrn_exact(k, r, n) == ikrn_exact(k, r, n, method="enumerate")


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
