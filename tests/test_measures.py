import math
from fractions import Fraction

import numpy as np
import pytest

from jetmorse.measures import (dirichlet_integral, mean_std_error, nu_moment,
                               sample_nu_batch, sample_sphere_batch)
from jetmorse.rng import stream


def test_sample_nu_moments():
    # E[x_1] = 1/k and E[x_1 x_2] from the closed form, checked by MC
    rng = stream(11, "nu")
    k, r, m = 4, 2, 200000
    x = sample_nu_batch(k, r, m, rng)
    assert np.allclose(x.sum(axis=1), 1.0)
    want = float(nu_moment(k, r, [1, 0, 0, 0]))
    se = x[:, 0].std() / math.sqrt(m)
    assert abs(x[:, 0].mean() - want) < 3 * se
    prod = x[:, 0] * x[:, 1]
    want2 = float(nu_moment(k, r, [1, 1, 0, 0]))
    assert abs(prod.mean() - want2) < 3 * prod.std() / math.sqrt(m)


def test_nu_moment_values():
    # first moment 1/k, second moment (r+1)/(k(kr+1))
    for k in (1, 2, 5):
        for r in (1, 2, 3):
            beta = [0] * k
            beta[0] = 1
            assert nu_moment(k, r, beta) == Fraction(1, k)
            beta[0] = 2
            assert nu_moment(k, r, beta) == Fraction(r + 1, k * (k * r + 1))


def test_nu_moment_zero_order():
    assert nu_moment(3, 2, [0, 0, 0]) == 1


def test_dirichlet_integral_closed_form():
    assert dirichlet_integral([1, 1, 1]) == Fraction(1, 2)
    assert dirichlet_integral([2, 1]) == Fraction(1, 2)
    r = [3, 2, 1]
    want = Fraction(math.factorial(2) * math.factorial(1), math.factorial(5))
    assert dirichlet_integral(r) == want


def test_dirichlet_integral_rejects_bad_input():
    with pytest.raises(ValueError):
        dirichlet_integral([0, 1])
    with pytest.raises(ValueError):
        dirichlet_integral([])


def test_sphere_sampler_unit_norm_and_moment():
    rng = stream(7, "sph")
    u = sample_sphere_batch(3, (50000,), rng)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0)
    # E[|u_1|^2] = 1/dim by symmetry
    m = np.abs(u[:, 0]) ** 2
    assert abs(m.mean() - 1 / 3) < 3 * m.std() / math.sqrt(len(m))


def test_sample_nu_single_slot():
    rng = stream(1, "one")
    assert sample_nu_batch(1, 3, 1, rng).tolist() == [[1.0]]
    v = sample_sphere_batch(1, (), rng)
    assert abs(abs(v[0]) - 1.0) < 1e-12


@pytest.mark.parametrize("k, r", [(0, 2), (3, 0), (1, 0), (-1, 1)])
def test_sample_nu_batch_rejects_bad_orders(k, r):
    with pytest.raises(ValueError, match=">= 1"):
        sample_nu_batch(k, r, 10, stream(1, "bad"))


def test_mean_std_error_matches_numpy():
    vals = stream(3, "mse").standard_normal(1001) + 5.0
    mean, se = mean_std_error(vals)
    assert mean == float(vals.mean())
    assert se == float(vals.std(ddof=1) / math.sqrt(vals.size))
    assert mean_std_error(np.array([1.0, 3.0])) == (2.0, 1.0)


@pytest.mark.parametrize("n", [0, 1])
def test_mean_std_error_needs_two_values(n):
    with pytest.raises(ValueError, match="at least 2"):
        mean_std_error(np.ones(n))
