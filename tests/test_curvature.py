import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmorse.curvature import (CurvatureTensor, _tensor_map, eta,
                                g_k_batch, tensor_from_json, tensor_to_json, trace_free)
from jetmorse.hermitian import _herm_coords, _herm_matrices, _triu_pairs
from jetmorse.measures import sample_nu_batch, sample_sphere_batch
from jetmorse.models import random_tensor
from jetmorse.rng import stream


def test_tensor_validation():
    c = np.zeros((2, 2, 3, 3), dtype=complex)
    c[0, 1, 0, 1] = 1 + 2j
    with pytest.raises(ValueError):
        CurvatureTensor(c)
    c[1, 0, 1, 0] = 1 - 2j
    t = CurvatureTensor(c)
    assert (t.n, t.r) == (2, 3)
    for bad in (np.nan, np.inf):
        d = c.copy()
        d[0, 0, 0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            CurvatureTensor(d)


def test_eta_is_fiber_trace():
    t = random_tensor(2, 3, 1.0, 1)
    e = eta(t)
    want = np.einsum("ijaa->ij", t.c)
    assert np.allclose(e.entries, want)


def test_trace_free_kills_eta():
    t = random_tensor(3, 2, 1.0, 5)
    assert float(np.abs(eta(trace_free(t)).entries).max()) < 1e-12


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_g_k_single_vs_batch(n, r, k):
    t = random_tensor(n, r, 1.0, 4)
    rng = stream(7, "gk", n, r, k)
    x = sample_nu_batch(k, r, 3, rng)
    u = sample_sphere_batch(r, (3, k), rng)
    batch = g_k_batch(t, x, u)
    assert batch.shape == (3, n, n)
    for xm, um, got in zip(x, u, batch):
        # entry formula: sum_s (x_s/s) sum_ab c[i,j,a,b] u_s[a] conj(u_s[b])
        single = np.zeros((n, n), dtype=complex)
        for s in range(k):
            for i, j, a, b in np.ndindex(t.c.shape):
                single[i, j] += xm[s] / (s + 1) * t.c[i, j, a, b] * um[s, a] * np.conj(um[s, b])
        assert np.abs(got - single).max() <= 1e-13 * np.abs(single).max()


def test_tensor_map_matches_einsum_build():
    # the map built from c's entries against an einsum over the matrices of
    # the coordinate basis, to the bit
    for n in range(1, 5):
        for r in range(1, 8):
            t = random_tensor(n, r, 1.0, 80 + 4 * n + r)
            basis = _herm_matrices(np.eye(r * r), r)
            want = _herm_coords(np.einsum("ijab,xab->xij", t.c, basis))
            got = _tensor_map(t)
            assert got.shape == (r * r, n * n)
            assert np.array_equal(got, want)
    assert not _triu_pairs(3)[0].flags.writeable


def test_tensor_map_memory_linear_in_entries():
    # the (r^2, r^2) complex basis took 1.6 GB at r = 100; the map itself
    # is 80 KB there at n = 1
    t = random_tensor(1, 100, 1.0, 3)
    tracemalloc.start()
    try:
        got = _tensor_map(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (100 * 100, 1)
    assert np.array_equal(got[:100, 0], t.c[0, 0].diagonal().real)
    assert peak < 2**20


def test_tensor_symmetrization_keeps_huge_finite_entries():
    big = 0.75 * np.finfo(float).max
    c = np.zeros((1, 1, 2, 2), dtype=complex)
    c[0, 0, 0, 0] = big
    c[0, 0, 1, 1] = 1.0
    t = CurvatureTensor(c)
    assert t.c[0, 0, 0, 0] == big
    assert np.isfinite(t.c).all()


def test_json_roundtrip():
    t = random_tensor(2, 3, 1.0, 17)
    t2 = tensor_from_json(tensor_to_json(t))
    assert np.array_equal(t.c, t2.c)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.0, 1e6))
def test_json_roundtrip_property(n, r, seed, scale):
    t = random_tensor(n, r, scale, seed)
    c = tensor_from_json(tensor_to_json(t)).c
    assert np.array_equal(c, t.c)
    assert np.array_equal(c, np.conj(np.transpose(c, (1, 0, 3, 2))))


def test_json_rejects_asymmetric():
    t = random_tensor(1, 2, 1.0, 1)
    import json
    doc = json.loads(tensor_to_json(t))
    doc["c"][1][0] += 1.0
    with pytest.raises(ValueError):
        tensor_from_json(json.dumps(doc))
