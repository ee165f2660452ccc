import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmorse.curvature import (CurvatureTensor, curvature_pairing, eta,
                                expected_g_k, g_k_batch, q_form, sigma_variance,
                                sup_norm, tensor_from_json, tensor_to_json,
                                trace_free)
from jetmorse.measures import sample_nu_batch, sample_sphere_batch
from jetmorse.models import fubini_study_tensor, random_tensor
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


def test_q_form_and_pairing_consistency():
    t = random_tensor(2, 2, 1.0, 9)
    rng = stream(3, "qf")
    zeta = sample_sphere_batch(2, (), rng)
    u = sample_sphere_batch(2, (), rng)
    q = q_form(t, zeta)
    assert curvature_pairing(t, zeta, u) == pytest.approx(-q.quadratic(u))


def test_g_k_single_vs_batch():
    t = random_tensor(2, 2, 1.0, 4)
    rng = stream(7, "gk")
    k = 3
    x = sample_nu_batch(k, t.r, 1, rng)[0]
    u = sample_sphere_batch(t.r, (k,), rng)
    # entry formula: sum_s (x_s/s) sum_ab c[i,j,a,b] u_s[a] conj(u_s[b])
    single = np.zeros((t.n, t.n), dtype=complex)
    for s in range(k):
        for i, j, a, b in np.ndindex(t.c.shape):
            single[i, j] += x[s] / (s + 1) * t.c[i, j, a, b] * u[s, a] * np.conj(u[s, b])
    batch = g_k_batch(t, x[None, :], u[None])
    assert np.allclose(single, batch[0])


def test_expected_g_k_mc():
    t = random_tensor(2, 2, 1.0, 13)
    k, m = 4, 150000
    rng = stream(5, "egk-test")
    g = rng.gamma(shape=t.r, size=(m, k))
    x = g / g.sum(axis=1, keepdims=True)
    u = sample_sphere_batch(t.r, (m, k), rng)
    forms = g_k_batch(t, x, u)
    want = expected_g_k(t, k).entries
    for part in (np.real, np.imag):
        dev = np.abs(part(forms.mean(axis=0)) - part(want))
        se = part(forms).std(axis=0) / math.sqrt(m)
        assert np.all(dev <= 3 * np.maximum(se, 1e-12))


def test_sigma_variance_direct_mc():
    t = trace_free(random_tensor(2, 2, 1.0, 3))
    est, se = sigma_variance(t, 50000, 4)
    rng = stream(8, "direct")
    m = 100000
    z = sample_sphere_batch(2, (m,), rng)
    u = sample_sphere_batch(2, (m,), rng)
    vals = np.real(np.einsum("ijab,mi,mj,ma,mb->m", t.c, z, z.conj(),
                             u, u.conj(), optimize=True)) ** 2
    se2 = vals.std() / math.sqrt(m)
    assert abs(est - vals.mean()) < 3 * math.hypot(se, se2)


def test_sigma_variance_bytes_pinned():
    # blake2b of the float.hex pair, pinned so that a refactor keeps every
    # bit (numpy 2.4 / OpenBLAS 0.3 on x86-64)
    est, se = sigma_variance(trace_free(random_tensor(2, 2, 1.0, 3)), 5000, 4)
    digest = hashlib.blake2b(f"{est.hex()} {se.hex()}".encode(),
                             digest_size=16).hexdigest()
    assert digest == "8e727cb8ae4d1d47a6226e4a18121f3d"


def test_sigma_variance_warns_on_traceful():
    t = random_tensor(2, 2, 1.0, 3)
    with pytest.warns(UserWarning):
        sigma_variance(t, 100, 1)


def test_sup_norm_diagonal_oracle():
    # decoupled tensor c[ijab] = d_i delta_ij delta_ab: sup is max |d_i|
    d = np.array([0.5, -2.0, 1.0])
    c = np.einsum("i,ij,ab->ijab", d, np.eye(3), np.eye(2)).astype(complex)
    t = CurvatureTensor(c)
    assert sup_norm(t, 8, 1) == pytest.approx(2.0, abs=1e-8)


def test_tensor_symmetrization_keeps_huge_finite_entries():
    big = 0.75 * np.finfo(float).max
    c = np.zeros((1, 1, 2, 2), dtype=complex)
    c[0, 0, 0, 0] = big
    c[0, 0, 1, 1] = 1.0
    t = CurvatureTensor(c)
    assert t.c[0, 0, 0, 0] == big
    assert np.isfinite(t.c).all()


def test_sup_norm_fubini_study():
    for n in (1, 2, 3):
        assert sup_norm(fubini_study_tensor(n), 6, 2) == pytest.approx(2.0, abs=1e-9)


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
