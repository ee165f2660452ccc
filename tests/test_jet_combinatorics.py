import math
from fractions import Fraction

import numpy as np
import pytest

from jetmorse.jet_combinatorics import (EULER_GAMMA, EpsilonRatio,
                                        ResourceLimitError, epsilon_ratio,
                                        harmonic, ikrn_asymptotic, ikrn_bounds,
                                        ikrn_exact)
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
