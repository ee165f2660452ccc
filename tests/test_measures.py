import math
from fractions import Fraction

import numpy as np
import pytest

from jetmorse.measures import (block_moments, dirichlet_integral, estimate, merge_moments,
                               nu_moment, sample_nu_batch, sample_sphere_batch)
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


@pytest.mark.parametrize("sizes", [[1001], [1, 1000], [4096, 4096, 17], [3, 1, 500, 2, 777]])
def test_moments_merge_matches_numpy(sizes):
    # ragged blocks, merged as single blocks and as the rows of (2, m) blocks
    vals = stream(3, "mse").standard_normal((2, sum(sizes)))
    vals *= [[1.0], [0.5]]
    vals += [[5.0], [-3.0]]
    single = rows = (0, 0.0, 0.0)
    for block in np.split(vals, np.cumsum(sizes)[:-1], axis=1):
        single = merge_moments(single, block_moments(block[0].copy()))
        rows = merge_moments(rows, block_moments(block.copy()))
    n = vals.shape[1]
    assert single[0] == rows[0] == n
    for mean, m2, want in [(single[1], single[2], vals[0]),
                           (rows[1][0], rows[2][0], vals[0]),
                           (rows[1][1], rows[2][1], vals[1])]:
        assert math.isclose(mean, want.mean(), rel_tol=1e-14)
        assert math.isclose(math.sqrt(m2 / (n - 1)), want.std(ddof=1), rel_tol=1e-14)


def _estimate_of(vals, block):
    """:func:`estimate` over the last axis of ``vals``, in blocks of ``block``,
    recording the calls it makes."""
    calls = []

    def values(first, m):
        calls.append((first, m))
        return vals[..., first:first + m].copy()

    return (*estimate(values, vals.shape[-1], block), calls)


@pytest.mark.parametrize("shape, block", [
    ((5000,), 4096),      # ragged last block
    ((5000,), 5000),      # one block
    ((37,), 1),           # block 1
    ((2,), 4096),         # n = 2
    ((4, 3, 3000), 1024),  # the (K, Q, m) blocks of a morse chunk, ragged
    ((2, 3, 2), 1),
])
def test_estimate_matches_numpy(shape, block):
    vals = stream(5, "estimate", *shape).standard_normal(shape) * 0.5 + 7.0
    n = shape[-1]
    mean, se, calls = _estimate_of(vals, block)
    assert calls == [(lo, min(block, n - lo)) for lo in range(0, n, block)]
    assert np.shape(mean) == np.shape(se) == shape[:-1]
    np.testing.assert_allclose(mean, vals.mean(axis=-1), rtol=1e-14, atol=0)
    np.testing.assert_allclose(se, vals.std(axis=-1, ddof=1) / math.sqrt(n), rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [0, 1])
def test_estimate_needs_two_samples_before_any_call(n):
    def values(first, m):
        raise AssertionError("no block may be asked for")

    with pytest.raises(ValueError, match=">= 2"):
        estimate(values, n, 16)
