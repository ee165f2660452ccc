import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetmorse.measures import sample_sphere_batch
from jetmorse.rng import stream
from jetmorse.wps import (FiberEvaluationError, WeightSpec, integrate_fiber,
                          integrate_fiber_limit, volume_closed_form)


def test_weight_spec_validation():
    w = WeightSpec((1, 2, 3), (1, 1, 1))
    assert w.p == 6.0  # lcm default
    with pytest.raises(ValueError):
        WeightSpec((2, 4), (1, 1))  # not coprime
    with pytest.raises(ValueError):
        WeightSpec((1, 2), (1,))
    with pytest.raises(ValueError):
        WeightSpec((1, 3), (1, 1), p=2.0)  # p below max weight


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_weight_spec_rejects_non_finite_p(p):
    # nan < max(a) is False, so NaN used to pass the C^2 check
    with pytest.raises(ValueError, match="finite"):
        WeightSpec((1, 2), (1, 1), p=p)


def test_volume_closed_form():
    assert volume_closed_form(WeightSpec((1, 2, 3), (1, 1, 1))) == Fraction(1, 6)
    assert volume_closed_form(WeightSpec((1, 2), (2, 1))) == Fraction(1, 2)
    assert volume_closed_form(WeightSpec((1,), (4,))) == 1


def test_integrate_fiber_constant_matches_volume():
    w = WeightSpec((1, 2), (2, 1))
    est, se = integrate_fiber(w, lambda z: 1.0, 40000, 3)
    assert abs(est - 0.5) <= 3 * se + 1e-12


def test_integrate_fiber_deterministic():
    w = WeightSpec((2, 3), (1, 2))
    f = lambda z: float(np.linalg.norm(z[0]) ** 2)
    a = integrate_fiber(w, f, 5000, 9)
    b = integrate_fiber(w, f, 5000, 9)
    assert a == b
    c = integrate_fiber(w, f, 5000, 10)
    assert a != c


def test_integrate_fiber_limit_sphere_moment():
    # the p -> infinity measure is volume times the product-of-spheres average;
    # |u_1|^2 averages to 1/r on the first block
    w = WeightSpec((1,), (3,))
    f = lambda z: float(abs(z[0][0]) ** 2)
    est, se = integrate_fiber_limit(w, f, 60000, 21)
    assert abs(est - 1 / 3) <= 3 * se


def test_integrate_fiber_nonfinite_raises():
    w = WeightSpec((1, 2), (1, 1))
    with pytest.raises(FiberEvaluationError) as err:
        integrate_fiber(w, lambda z: float("nan"), 100, 5)
    assert err.value.sample_index == 0


@pytest.mark.parametrize("n", [0, 1])
def test_fiber_needs_two_samples(n):
    # the std error divides M2 by n - 1
    with pytest.raises(ValueError, match=">= 2"):
        integrate_fiber(WeightSpec((1, 2), (1, 1)), lambda z: 1.0, n, 1)


def test_huge_constant_integrand_has_zero_std_error():
    # with every multiplicity 1 the weight is 1, so every value is 2^600 and
    # every deviation 0; merging the first block into the empty summary must
    # not square its mean, which overflows (inf * 0 would make M2 NaN)
    w = WeightSpec((1, 2), (1, 1))
    assert integrate_fiber(w, lambda z: 2.0**600, 5000, 1) == (2.0**599, 0.0)


def _loop_points(w, n_samples, seed, limit):
    """Per-sample points of the scalar loop the batched sampler replaced."""
    if limit:
        rng = stream(seed, "fiber", "limit", w.a, w.r)
        u = [sample_sphere_batch(r_s, (n_samples,), rng) for r_s in w.r]
        weight = np.ones(n_samples)
        return weight, (tuple(u[s][m] for s in range(w.k)) for m in range(n_samples))
    rng = stream(seed, "fiber", "p", w.a, w.r)
    k = w.k
    if k == 1:
        x, weight = np.ones((n_samples, 1)), np.ones(n_samples)
        u = [sample_sphere_batch(w.r[0], (n_samples,), rng)]
    else:
        g = rng.gamma(shape=1.0, size=(n_samples, k))
        x = g / g.sum(axis=1, keepdims=True)
        const = Fraction(math.factorial(sum(w.r) - 1), math.factorial(k - 1))
        for r_s in w.r:
            const /= math.factorial(r_s - 1)
        weight = float(const) * np.prod(x ** (np.asarray(w.r, dtype=float) - 1.0), axis=1)
        u = [sample_sphere_batch(r_s, (n_samples,), rng) for r_s in w.r]
    exps = [a_s / (2.0 * w.p) for a_s in w.a]
    return weight, (tuple(x[m, s] ** exps[s] * u[s][m] for s in range(k))
                    for m in range(n_samples))


def _loop_oracle(w, f, n_samples, seed, limit=False):
    weight, points = _loop_points(w, n_samples, seed, limit)
    vals = np.empty(n_samples)
    for m, point in enumerate(points):
        v = f(point)
        if not np.isfinite(v):
            raise FiberEvaluationError(m, point)
        vals[m] = v
    vals *= weight
    vol = float(volume_closed_form(w))
    return float(vals.mean()) * vol, float(vals.std(ddof=1) / math.sqrt(n_samples)) * vol


def _blockwise(z):
    # weights each block differently, so a swapped or mis-scaled block shows
    return float(sum((s + 1) * np.vdot(v, v).real + 0.25 * v[0].real
                     for s, v in enumerate(z)))


def _integrate(w, f, n_samples, seed, limit):
    return (integrate_fiber_limit if limit else integrate_fiber)(w, f, n_samples, seed)


def _assert_matches_oracle(w, f, n_samples, seed, limit):
    # numpy's vectorized pow differs from the scalar one by 1 ulp on some entries
    got = _integrate(w, f, n_samples, seed, limit)
    want = _loop_oracle(w, f, n_samples, seed, limit)
    for g, o in zip(got, want):
        assert math.isclose(g, o, rel_tol=1e-14, abs_tol=0.0), (got, want)


ORACLE_SPECS = [((1,), (3,)), ((1, 2), (2, 1)), ((1, 2, 3), (2, 1, 1)), ((2, 3, 5), (1, 2, 3))]


@pytest.mark.parametrize("limit", [False, True])
@pytest.mark.parametrize("a,r", ORACLE_SPECS)
def test_batched_sampler_matches_loop(a, r, limit):
    w = WeightSpec(a, r)
    _assert_matches_oracle(w, _blockwise, 3000, 17, limit)
    _assert_matches_oracle(w, lambda z: 1.0, 3000, 18, limit)


# blake2b of the float.hex pair, pinned so that a refactor keeps every bit
# of the p -> infinity limit and of the k = 1 branch (numpy 2.4 / OpenBLAS 0.3
# on x86-64)
@pytest.mark.parametrize("a, r, limit, digest", [
    ((1,), (3,), False, "d0242135382391b1d58f62fd96de9f2c"),
    ((1,), (3,), True, "4f0d0e08099a4d7ca581f7949dad9611"),
    ((1, 2), (2, 1), True, "0d66aaceb9263d66b0b5937836c73075"),
    ((2, 3, 5), (1, 2, 3), True, "3ac41204e2980e34297539f8a1561424"),
])
def test_fiber_estimate_bytes_pinned(a, r, limit, digest):
    est, se = _integrate(WeightSpec(a, r), _blockwise, 3000, 17, limit)
    assert hashlib.blake2b(f"{est.hex()} {se.hex()}".encode(),
                           digest_size=16).hexdigest() == digest


@pytest.mark.parametrize("limit", [False, True])
def test_integrand_called_once_per_sample_with_row_blocks(limit):
    w = WeightSpec((2, 3, 5), (1, 2, 3))
    shapes = []

    def f(z):
        shapes.append(tuple(np.shape(v) for v in z))
        return 1.0

    _integrate(w, f, 257, 4, limit)
    assert shapes == [((1,), (2,), (3,))] * 257


@pytest.mark.parametrize("limit", [False, True])
def test_nonfinite_reports_first_index_and_point(limit):
    w = WeightSpec((1, 2, 3), (2, 1, 1))

    def nan_at_37_and_80(calls):
        def f(z):
            calls.append(z)
            return math.nan if len(calls) - 1 in (37, 80) else 1.0
        return f

    calls = []
    with pytest.raises(FiberEvaluationError) as err:
        _integrate(w, nan_at_37_and_80(calls), 200, 6, limit)
    assert err.value.sample_index == 37
    assert len(calls) == 200  # the whole block runs before the check
    with pytest.raises(FiberEvaluationError) as want:
        _loop_oracle(w, nan_at_37_and_80([]), 200, 6, limit)
    assert want.value.sample_index == 37
    assert len(err.value.point) == w.k
    for got_s, want_s in zip(err.value.point, want.value.point):
        np.testing.assert_allclose(got_s, want_s, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("limit", [False, True])
def test_nonfinite_in_a_later_block_reports_global_index(limit):
    # samples run in blocks of 4096: the NaN sits in the second block, and
    # the third block is never evaluated
    w = WeightSpec((1, 2, 3), (2, 1, 1))
    calls = []

    def f(z):
        calls.append(None)
        return math.nan if len(calls) == 5001 else 1.0

    with pytest.raises(FiberEvaluationError) as err:
        _integrate(w, f, 20000, 6, limit)
    assert err.value.sample_index == 5000
    assert len(calls) == 8192


@pytest.mark.parametrize("limit", [False, True])
def test_fiber_memory_bounded(limit):
    # every sample used to be held at once: a 35.9 MiB peak at 200,000
    # samples for the finite-p fiber, 19.0 MiB for the limit
    w = WeightSpec((1, 2, 3), (2, 1, 1))
    tracemalloc.start()
    try:
        _integrate(w, lambda z: 1.0, 200000, 1, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@st.composite
def _weight_specs(draw):
    k = draw(st.integers(1, 4))
    a = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)
             .filter(lambda a: math.gcd(*a) == 1))
    r = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return WeightSpec(tuple(a), tuple(r))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(w=_weight_specs(), seed=st.integers(0, 2**32 - 1), limit=st.booleans())
def test_batched_sampler_matches_loop_property(w, seed, limit):
    _assert_matches_oracle(w, _blockwise, 300, seed, limit)


@st.composite
def _permuted_specs(draw):
    w = draw(_weight_specs())
    return w, tuple(draw(st.permutations(range(w.k))))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(case=_permuted_specs(), seed=st.integers(0, 2**32 - 1), samples=st.just(2000))
@example(case=(WeightSpec((1, 2), (2, 1)), (1, 0)), seed=12, samples=40000)
def test_permutation_invariance(case, seed, samples):
    # permuting the (a_s, r_s) pairs changes draws but not the integral of an
    # integrand that follows its blocks
    w, order = case
    v = WeightSpec(tuple(w.a[i] for i in order), tuple(w.r[i] for i in order))
    f = lambda z: float(sum((s + 1) * np.vdot(b, b).real for s, b in enumerate(z)))
    assert volume_closed_form(v) == volume_closed_form(w)
    back = np.argsort(order)  # block s of w is block back[s] of v
    e1, s1 = integrate_fiber(w, f, samples, seed)
    e2, s2 = integrate_fiber(v, lambda z: f([z[i] for i in back]), samples, seed)
    assert abs(e1 - e2) <= 3 * math.hypot(s1, s2) + 1e-12


@pytest.mark.parametrize("limit", [False, True])
def test_volume_below_normal_floats_raises_before_sampling(limit, monkeypatch):
    # the volume became 0.0 and every estimate and std error read 0
    monkeypatch.setattr("jetmorse.wps.stream", None)  # no draw may start
    run = integrate_fiber_limit if limit else integrate_fiber
    with pytest.raises(FloatingPointError, match=r"volume 10\^-308.0 is below"):
        run(WeightSpec((1, 2**1023), (1, 1)), lambda z: 1.0, 100, 1)  # volume 2^-1023
    monkeypatch.undo()  # the smallest normal volume, 2^-1022, still runs
    assert run(WeightSpec((1, 2**1022), (1, 1)), lambda z: 1.0, 10, 1) == (2.0**-1022, 0.0)


@pytest.mark.parametrize("limit", [False, True])
@pytest.mark.parametrize("value", [0.5, -2.0**-60])
def test_estimate_below_normal_floats_raises(limit, value):
    # a nonzero mean times the smallest normal volume, 2^-1022, used to be
    # returned as a subnormal or as 0.0
    run = integrate_fiber_limit if limit else integrate_fiber
    with pytest.raises(FloatingPointError, match=r"^estimate -?\d.* below the smallest normal"):
        run(WeightSpec((1, 2**1022), (1, 1)), lambda z: value, 10, 1)
    assert run(WeightSpec((1, 2**1022), (1, 1)), lambda z: 0.0, 10, 1) == (0.0, 0.0)


def test_fiber_memory_bounded_in_multiplicity():
    # blocks of 2^12 samples at mults (1, 1000) held 125 MiB of sphere draws;
    # the block is capped at measures._BLOCK_BYTES of them (98 samples here)
    w = WeightSpec((1, 1), (1, 1000))
    tracemalloc.start()
    try:
        est, se = integrate_fiber(w, lambda z: 1.0, 8192, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(est) and se > 0
    assert peak < 16 * 2**20


def test_density_constant_past_float_range_raises_before_sampling(monkeypatch):
    # 1199! / 599!^2 is about 10^360; at (400, 400) it is about 10^242 and runs
    monkeypatch.setattr("jetmorse.wps.stream", None)  # no draw may start
    with pytest.raises(FloatingPointError, match=r"multiplicities \(600, 600\) is past"):
        integrate_fiber(WeightSpec((1, 1), (600, 600)), lambda z: 1.0, 1000, 1)
    monkeypatch.undo()
    est, se = integrate_fiber(WeightSpec((1, 1), (400, 400)), lambda z: 1.0, 1000, 1)
    assert math.isfinite(est) and math.isfinite(se)


def test_all_importance_weights_underflow_raises():
    # each weight 10^5 x_2^99999 underflows to 0 for these draws: the mean
    # was exactly 0, and 0 +- 0 was returned for the volume 1
    w = WeightSpec((1, 1), (1, 100000))
    with pytest.raises(FloatingPointError, match="every importance weight underflows"):
        integrate_fiber(w, lambda z: 1.0, 10, 1)
    # a zero integrand is still exactly 0 +- 0
    assert integrate_fiber(w, lambda z: 0.0, 10, 1) == (0.0, 0.0)
