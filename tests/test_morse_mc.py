import math
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest

from jetmorse import morse_mc
from jetmorse.curvature import CurvatureTensor, g_k_batch, trace_free
from jetmorse.hermitian import HermitianForm
from jetmorse.jet_combinatorics import harmonic, ikrn_exact
from jetmorse.models import fubini_study_tensor, random_tensor
from jetmorse.morse_mc import (ManifoldPoint, ManifoldSample, MorseReport,
                               MorseRow, convergence_study, eta_index_integral,
                               full_morse_constant, reduced_morse_integral,
                               twist_delta)
from jetmorse.rng import stream


def _scalar_tensor(c):
    return CurvatureTensor(np.array(c, dtype=complex).reshape(1, 1, 1, 1))


def _single(t, twist=None):
    return ManifoldSample((ManifoldPoint("p", t, 1.0, twist),))


def test_sample_validation():
    t = random_tensor(2, 2, 1.0, 1)
    with pytest.raises(ValueError):
        ManifoldSample(())
    with pytest.raises(ValueError):
        ManifoldSample((ManifoldPoint("a", t, 0.7),))  # weights must sum to 1
    with pytest.raises(ValueError):
        ManifoldSample((ManifoldPoint("a", t, 0.5),
                        ManifoldPoint("a", t, 0.5)))  # duplicate id
    mixed = random_tensor(2, 1, 1.0, 1)
    with pytest.raises(ValueError):
        ManifoldSample((ManifoldPoint("a", t, 0.5),
                        ManifoldPoint("b", mixed, 0.5)))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ManifoldPoint("a", t, bad)
        with pytest.raises(ValueError):
            ManifoldSample((ManifoldPoint("a", t, 1.0),), total_volume=bad)


def test_eta_index_integral_examples():
    M = _single(fubini_study_tensor(2))
    assert eta_index_integral(M, 2, 1e-9) == pytest.approx(9.0)
    assert eta_index_integral(M, 0, 1e-9) == 0.0
    assert eta_index_integral(M, 1, 1e-9) == 0.0


def test_eta_index_integral_with_twist():
    # twist shifts eta = -(n+1) id into the positive cone
    t = fubini_study_tensor(2)
    twist = HermitianForm(5.0 * np.eye(2, dtype=complex))
    M = _single(t, twist)
    assert eta_index_integral(M, 0, 1e-9) == pytest.approx(4.0)
    assert eta_index_integral(M, 2, 1e-9) == 0.0


def test_reduced_scalar_k1():
    # k=1 forces x=1 and |u|=1 so the scalar tensor gives exactly c
    M = _single(_scalar_tensor(2.5))
    est, se = reduced_morse_integral(M, 1, 0, 1000, 3, 1e-9)
    assert est == pytest.approx(2.5)
    assert se < 1e-12


def test_std_error_vanishes_for_constant_draws():
    # k=1, r=1: every draw is the constant form diag(1e4, 1.5e4) up to
    # rounding, so the standard error is rounding noise around det = 1.5e8
    c = np.diag([1e4, 1.5e4]).astype(complex).reshape(2, 2, 1, 1)
    M = _single(CurvatureTensor(c))
    est, se = reduced_morse_integral(M, 1, 0, 20000, 3, 1e-9)
    assert est == pytest.approx(1.5e8, rel=1e-12)
    assert se <= 1e-12 * abs(est)


def test_std_error_matches_two_pass_when_mean_dominates():
    # a large twist under a tiny tensor: det ~ 1e8 with a spread of a few
    # units, where a sum-of-squares variance would cancel away
    twist = HermitianForm(1e4 * np.eye(2, dtype=complex))
    point = ManifoldPoint("p", random_tensor(2, 2, 1e-4, 12), 1.0, twist)
    m, k = 16000, 3
    est, se = reduced_morse_integral(_single(point.tensor, twist), k, 0, m, 8, 1e-9)
    v = stream(8, "morse", "p").standard_normal((m, k, 4)).view(complex)
    g = np.sum(np.abs(v) ** 2, axis=-1)
    u = v / np.sqrt(g)[..., None]
    x = g / g.sum(axis=1, keepdims=True)
    forms = k * 2 / float(harmonic(k)) * g_k_batch(point.tensor, x, u) + twist.entries
    vals = np.prod(np.linalg.eigvalsh(forms), axis=1)
    assert vals.min() > 0
    assert est == pytest.approx(vals.mean(), rel=1e-12)
    assert se == pytest.approx(vals.std(ddof=1) / math.sqrt(m), rel=1e-6)


def test_reduced_scalar_k2():
    M = _single(_scalar_tensor(1.0))
    est, se = reduced_morse_integral(M, 2, 0, 100000, 3, 1e-9)
    assert abs(est - float(ikrn_exact(2, 1, 1))) <= 3 * se


def test_reduced_q_above_n_is_zero():
    M = _single(random_tensor(2, 2, 1.0, 5))
    assert reduced_morse_integral(M, 3, 5, 100, 1, 1e-9) == (0.0, 0.0)


def test_rank1_factorization():
    # r=1: g_k = (sum x_s/s) C, so the reduced integral factorizes exactly
    t = random_tensor(3, 1, 1.0, 21)
    M = _single(t)
    k, n = 5, 3
    for q in range(n + 1):
        est, se = reduced_morse_integral(M, k, q, 80000, 6, 1e-9)
        want = float(ikrn_exact(k, 1, n)) * eta_index_integral(M, q, 1e-9)
        assert abs(est - want) <= 3 * se + 1e-12


def test_index_partition_sums_to_det():
    # summing over q recovers E[det g_k] on nondegenerate draws
    t = random_tensor(2, 2, 1.0, 8)
    M = _single(t)
    k, m = 3, 50000
    total, var = 0.0, 0.0
    for q in range(3):
        est, se = reduced_morse_integral(M, k, q, m, 11, 1e-9)
        total += est
        var += se**2
    # the same partition at tol=0 covers every nondegenerate draw
    parts = [reduced_morse_integral(M, k, q, m, 11, 0.0) for q in range(3)]
    det_sum = sum(p[0] for p in parts)
    assert abs(total - det_sum) <= 3 * math.sqrt(var + sum(p[1] ** 2 for p in parts))


def test_worker_count_determinism():
    pts = tuple(ManifoldPoint(f"p{i}", random_tensor(2, 2, 1.0, 30 + i), 0.25)
                for i in range(4))
    M = ManifoldSample(pts)
    a = reduced_morse_integral(M, 4, 1, 20000, 13, 1e-9, workers=1)
    b = reduced_morse_integral(M, 4, 1, 20000, 13, 1e-9, workers=4)
    assert a == b


def test_degenerate_fraction_shrinks_with_tol():
    t = random_tensor(2, 2, 1.0, 3)
    M = _single(t)
    rep_loose = convergence_study(M, [3], 0, 20000, 5, 1e-2)
    rep_tight = convergence_study(M, [3], 0, 20000, 5, 1e-3)
    assert rep_tight.rows[0].degenerate_fraction <= rep_loose.rows[0].degenerate_fraction


def test_full_morse_constant():
    assert full_morse_constant(1, 1, 1) == (Fraction(1), pytest.approx(0.0))
    assert full_morse_constant(2, 1, 1)[0] == Fraction(1)
    # the prefactor is not monotone in k (3, 5/2, ... for n=r=2); only
    # finiteness and consistency of the log are guaranteed
    for k in (1, 2, 5, 20):
        exact, log = full_morse_constant(2, k, 2)
        assert math.isfinite(log)
        assert log == pytest.approx(math.log(exact), abs=1e-10)
    exact, log = full_morse_constant(2, 3, 2)
    assert log == pytest.approx(math.log(exact))


def test_twist_delta():
    assert twist_delta(1, 1) == 1
    assert twist_delta(2, 1) == Fraction(3, 4)
    assert twist_delta(4, 2) == Fraction(25, 96)


def test_convergence_study_report_shape():
    M = _single(random_tensor(2, 2, 1.0, 41))
    rep = convergence_study(M, [2, 4], [0, 1, 2], 5000, 3, 1e-9)
    assert len(rep.rows) == 6
    keys = {(r.k, r.q) for r in rep.rows}
    assert keys == {(k, q) for k in (2, 4) for q in (0, 1, 2)}
    csv = rep.to_csv()
    assert csv.splitlines()[0] == ("k,q,reduced_estimate,std_error,eta_integral,"
                                   "normalized_deviation,degenerate_fraction,"
                                   "log_full_constant")
    doc = rep.to_json_dict()
    assert doc["rows"][0]["full_constant"]["den"].isdigit()


def test_convergence_study_rejects_unsorted():
    M = _single(random_tensor(1, 1, 1.0, 2))
    with pytest.raises(ValueError):
        convergence_study(M, [4, 2], 0, 100, 1, 1e-9)


def test_convergence_study_rejects_bad_k_and_tol():
    M = _single(random_tensor(1, 1, 1.0, 2))
    with pytest.raises(ValueError, match="k must be >= 1"):
        reduced_morse_integral(M, 0, 0, 100, 1, 1e-9)
    for tol in (-1e-9, math.nan):
        with pytest.raises(ValueError, match="tol"):
            convergence_study(M, [2], 0, 100, 1, tol)


def test_report_duplicate_keys_rejected():
    row = MorseRow(2, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        MorseReport((row, row))


def test_twisted_study_deviation_uses_direct_scale():
    # with a twist the renormalized form targets eta + Theta_F directly
    t = fubini_study_tensor(2)
    twist = HermitianForm(4.0 * np.eye(2, dtype=complex))
    M = _single(t, twist)
    # the deviation has a hump around k ~ 16 before the 1/log k decay sets
    # in, so compare a point on the hump with a point well past it
    rep = convergence_study(M, [16, 512], 0, 40000, 7, 1e-9)
    want = eta_index_integral(M, 0, 1e-9)
    assert want == pytest.approx(1.0)
    for row in rep.rows:
        assert row.normalized_deviation == pytest.approx(
            abs(row.reduced_estimate - want))
    devs = {row.k: row.normalized_deviation for row in rep.rows}
    assert devs[512] < devs[16]


def _reference_chunk(point, g, u, k_list, q_list, tol):
    """Per k: per-q sums of 1_{index q} det, the degenerate count, and the
    median smallest |eigenvalue|, all via g_k_batch and eigvalsh."""
    t = point.tensor
    out = {}
    for k in k_list:
        x = g[:, :k] / g[:, :k].sum(axis=1, keepdims=True)
        forms = g_k_batch(t, x, u[:, :k])
        if point.twist is not None:
            factor = k * t.r / float(harmonic(k))
            forms = factor * forms + point.twist.entries
        lam = np.linalg.eigvalsh(forms)
        plus = np.sum(lam > tol, axis=1)
        minus = np.sum(lam < -tol, axis=1)
        det = np.prod(lam, axis=1)
        sums = [float(np.where((minus == q) & (plus == t.n - q), det, 0.0).sum())
                for q in q_list]
        out[k] = (sums, int(np.sum(plus + minus < t.n)),
                  float(np.median(np.abs(lam).min(axis=1))))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("twisted", [False, True])
def test_fused_kernel_matches_reference(n, r, twisted):
    rng = stream(5, "kernel-test", n, r, twisted)
    twist = None
    if twisted:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        twist = HermitianForm(0.5 * (a + a.conj().T))
    point = ManifoldPoint("p", random_tensor(n, r, 1.0, 60 + n + r), 1.0, twist)
    k_list, q_list, m = [1, 3, 7], list(range(n + 1)), 3000
    # polar identity: |v_s|^2 ~ Gamma(r) and v_s/|v_s| uniform on the sphere
    v = rng.standard_normal((m, max(k_list), 2 * r)).view(complex)
    g = np.sum(np.abs(v) ** 2, axis=-1)
    u = v / np.sqrt(g)[..., None]
    forms = morse_mc._chunk_forms(point, v, k_list)
    strict = _reference_chunk(point, g, u, k_list, q_list, 1e-9)
    # a band holding half the smallest eigenvalues at k=3 forces the
    # screen to hand rows to the eigensolve
    loose_tol = strict[3][2]
    for tol in (1e-9, loose_tol):
        want = _reference_chunk(point, g, u, k_list, q_list, tol)
        for j, k in enumerate(k_list):
            stats, degen = morse_mc._index_stats(forms[:, j].T, q_list, tol)
            sums, want_degen, _ = want[k]
            assert degen == want_degen
            for (mean, m2), ref in zip(stats, sums):
                assert mean * m == pytest.approx(ref, rel=1e-12, abs=0.0)
                assert m2 >= 0.0
    assert want[3][1] > 0


def _sync_pool(monkeypatch, cpus):
    """Replace the thread pool by a synchronous fake and fix the CPU count.

    Returns the list of pool sizes requested; no thread is started.
    """
    seen = []

    class SyncPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(morse_mc, "ThreadPoolExecutor", SyncPool)
    monkeypatch.setattr(morse_mc.os, "cpu_count", lambda: cpus)
    return seen


def test_pool_clamped_to_point_count(monkeypatch):
    seen = _sync_pool(monkeypatch, 8)
    pts = tuple(ManifoldPoint(f"p{i}", random_tensor(2, 2, 1.0, 70 + i), 1 / 3)
                for i in range(3))
    M = ManifoldSample(pts)
    pooled = reduced_morse_integral(M, 2, 1, 200, 4, 1e-9, workers=64)
    assert seen == [3]
    assert reduced_morse_integral(M, 2, 1, 200, 4, 1e-9, workers=1) == pooled
    assert seen == [3]
    single = _single(random_tensor(2, 2, 1.0, 70))
    reduced_morse_integral(single, 2, 1, 200, 4, 1e-9, workers=64)
    assert seen == [3]


def test_pool_clamped_to_cpu_count(monkeypatch):
    seen = _sync_pool(monkeypatch, 2)
    pts = tuple(ManifoldPoint(f"p{i}", random_tensor(2, 2, 1.0, 70 + i), 1 / 3)
                for i in range(3))
    M = ManifoldSample(pts)
    pooled = reduced_morse_integral(M, 2, 1, 200, 4, 1e-9, workers=10**6)
    monkeypatch.setenv("JETMORSE_THREADS", "1000000")
    assert reduced_morse_integral(M, 2, 1, 200, 4, 1e-9) == pooled
    assert seen == [2, 2]


@pytest.mark.parametrize("workers", [0, -2])
def test_bad_worker_count_rejected(monkeypatch, workers):
    seen = _sync_pool(monkeypatch, 8)
    M = _single(random_tensor(2, 2, 1.0, 70))
    with pytest.raises(ValueError, match="workers must be >= 1"):
        reduced_morse_integral(M, 2, 1, 200, 4, 1e-9, workers=workers)
    assert seen == []


@pytest.mark.parametrize("env", ["0", "-3", "two"])
def test_bad_thread_env_rejected(monkeypatch, env):
    seen = _sync_pool(monkeypatch, 8)
    monkeypatch.setenv("JETMORSE_THREADS", env)
    M = _single(random_tensor(2, 2, 1.0, 70))
    with pytest.raises(ValueError, match="JETMORSE_THREADS"):
        reduced_morse_integral(M, 2, 1, 200, 4, 1e-9)
    assert seen == []


def test_tensor_map_matches_einsum_build():
    # the cached-basis map against a fresh einsum over the basis matrices
    for n in range(1, 5):
        for r in range(1, 4):
            t = random_tensor(n, r, 1.0, 80 + 4 * n + r)
            basis = morse_mc._herm_matrices(np.eye(r * r), r)
            want = morse_mc._herm_coords(np.einsum("ijab,xab->xij", t.c, basis))
            got = morse_mc._tensor_map(t)
            assert got.shape == (r * r, n * n)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert not morse_mc._herm_basis(2).flags.writeable
    assert not morse_mc._triu_pairs(3)[0].flags.writeable
