import math
import os
import sys
import tracemalloc
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest

from jetmorse import morse_mc
from jetmorse.curvature import CurvatureTensor, g_k_batch, trace_free
from jetmorse.hermitian import HermitianForm, _herm_matrices
from jetmorse.jet_combinatorics import ResourceLimitError, harmonic, ikrn_exact
from jetmorse.models import build_sample, fubini_study_tensor, random_tensor
from jetmorse.morse_mc import (ManifoldPoint, ManifoldSample, MorseReport,
                               MorseRow, convergence_study, eta_index_integral,
                               full_morse_constant, reduced_morse_integral)
from jetmorse.rng import stream


def _scalar_tensor(c):
    return CurvatureTensor(np.array(c, dtype=complex).reshape(1, 1, 1, 1))


def _single(t, twist=None):
    return ManifoldSample((ManifoldPoint("p", t, 1.0, twist),))


def test_sample_validation():
    t = random_tensor(2, 2, 1.0, 1)
    with pytest.raises(ValueError):
        ManifoldSample(())
    # the volume is the sum of the weights, which need not be 1
    assert ManifoldSample((ManifoldPoint("a", t, 0.7),)).total_volume == 0.7
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
    with pytest.raises(ValueError, match="total volume must be finite"):
        ManifoldSample((ManifoldPoint("a", t, 1e308), ManifoldPoint("b", t, 1e308)))


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


def test_eta_column_is_one_stacked_eigensolve(monkeypatch):
    M = build_sample({"type": "fermat", "n": 3, "d": 5, "points": 16, "seed": 1})
    want = morse_mc._eta_index_integrals(M, [0, 1, 2, 3], 1e-9)
    calls, built = [], []
    real, init = np.linalg.eigvalsh, HermitianForm.__post_init__
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
    monkeypatch.setattr(HermitianForm, "__post_init__",
                        lambda self: built.append(self) or init(self))
    assert morse_mc._eta_index_integrals(M, [0, 1, 2, 3], 1e-9) == want
    assert calls == [(16, 3, 3)] and built == []


def test_eta_integral_overflow_raises_without_warning(monkeypatch):
    # det eta = (-3e200)^2 is past the float range: it reads inf, without a
    # RuntimeWarning, and the study raises
    M = _single(CurvatureTensor(np.diag([-3e200, -3e200]).astype(complex).reshape(2, 2, 1, 1)))
    assert morse_mc._eta_index_integrals(M, [0, 2], 1e-9) == {0: 0.0, 2: math.inf}
    monkeypatch.setattr(morse_mc, "_run_points",
                        lambda *args: ({(2, 2): 0.0}, {(2, 2): 0.0}, {2: 0.0}))
    with pytest.raises(FloatingPointError, match="q=2: non-finite eta integral inf"):
        convergence_study(M, [2], [2], 100, 1, 1e-9)


def test_eta_integral_rejects_non_finite_entries():
    # finite coefficients whose fiber trace overflows
    big = np.finfo(float).max
    M = _single(CurvatureTensor(np.diag([big, big]).astype(complex).reshape(1, 1, 2, 2)))
    with pytest.raises(ValueError, match="entries must be finite"):
        eta_index_integral(M, 0, 1e-9)


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


@pytest.mark.parametrize("workers", [1, 2])
def test_reduced_non_finite_raises(workers):
    # finite input whose forms overflow: the estimate comes out -inf/nan;
    # the overflow itself must not warn (RuntimeWarning fails this suite)
    M = build_sample({"type": "random", "n": 3, "r": 2, "points": 2,
                      "scale": 1e120, "seed": 1})
    with pytest.raises(FloatingPointError, match="k=2, q=1: non-finite"):
        reduced_morse_integral(M, 2, 1, 100, 1, 1e-9, workers=workers)


@pytest.mark.parametrize("ses", [(1.5e308, 1.5e308), (math.inf, 1e300)])
def test_std_error_past_float_range_raises(ses, monkeypatch):
    # per-point std errors whose root-sum-square is past the largest float:
    # it must read inf and raise FloatingPointError, not OverflowError
    M = ManifoldSample(tuple(ManifoldPoint(f"p{m}", random_tensor(1, 1, 1.0, m), 1.0)
                             for m in range(2)))
    it = iter(ses)
    monkeypatch.setattr(morse_mc, "_point_study",
                        lambda *args: (np.zeros((1, 1)), np.full((1, 1), next(it)), np.zeros(1)))
    with pytest.raises(FloatingPointError, match=r"k=2, q=0: .*inf\)"):
        reduced_morse_integral(M, 2, 0, 100, 1, 1e-9, workers=1)


def _overflow_sample(kind, scale, n=3):
    if kind == "random":
        return build_sample({"type": "random", "n": n, "r": 2, "points": 4,
                             "scale": scale, "seed": 3})
    # the twist scales with the tensor, so the renormalized forms scale too
    return ManifoldSample(tuple(
        ManifoldPoint(f"p{m}", random_tensor(n, 2, scale, 20 + m), 0.5,
                      HermitianForm(scale * np.diag([1.0, -0.5, 2.0 + m, 0.75][:n])))
        for m in range(2)))


@pytest.mark.parametrize("kind, workers, n", [
    pytest.param("random", 1, 3, id="random-1"), pytest.param("random", 2, 3, id="random-2"),
    pytest.param("twisted", 1, 3, id="twisted-1"), ("random", 1, 4), ("twisted", 1, 4)])
def test_std_error_scales_past_square_overflow(kind, workers, n):
    # 1_{index q} det is homogeneous of degree n, so scaling the model by
    # 2^j scales every estimate and std error by exactly 2^nj: at j = 176
    # past the point (about 1e154) where squared deviations overflow, at
    # j = -200 past the point where they underflow
    def study(scale):
        return convergence_study(_overflow_sample(kind, scale, n), [2, 4], range(n + 1),
                                 200, 1, 0.0, workers=workers).rows

    base = study(1.0)
    for j in (176, -200):
        rows = study(2.0**j)
        for a, b in zip(base, rows):
            assert b.reduced_estimate == math.ldexp(a.reduced_estimate, n * j)
            assert b.std_error == math.ldexp(a.std_error, n * j)
        if j > 0:
            assert max(r.std_error for r in rows) > 1e154
    assert all(r.std_error > 0 for r in base if r.reduced_estimate != 0)


@pytest.mark.parametrize("n", [3, 4])
def test_screen_rows_independent_of_scale(n, monkeypatch):
    # forms in the point's power-of-two frame keep the inertia screen's
    # margins finite, so at scale 2^176 (with the band scaled alike) the
    # eigensolve gets the same rows as at scale 1, and not every row, as
    # when the margins overflow; n = 4 takes the same screen as n = 3
    eigvalsh = np.linalg.eigvalsh
    sent = []

    def spy(a):
        sent.append(a.copy())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rows = []
    for scale in (1.0, 2.0**176):
        sent.clear()
        # the kernel alone: the eta column's stacked eigensolve is not a screen row
        morse_mc._run_points(_overflow_sample("random", scale, n), [2, 4], range(n + 1),
                             2000, 1, 1e-3 * scale, 1)
        rows.append(np.concatenate(sent))
    assert 0 < len(rows[0]) < 4 * 2 * 2000 // 10
    assert np.array_equal(rows[0], rows[1])


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


def test_point_study_memory_bounded():
    # k 4096 x 256 samples: one (m, k, 2r) draw and its r^2 outer-product
    # planes took 80 MiB; blocks of _DRAW_BLOCK // k samples hold about 2 MiB
    point = ManifoldPoint("p", random_tensor(2, 2, 1.0, 1), 1.0)
    tracemalloc.start()
    try:
        morse_mc._point_study(point, [4096], [0, 1, 2], 256, 1, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_draw_blocks_keep_result_bits(monkeypatch):
    # the morse-random bench shape: one 4096-sample chunk filled from one
    # block and from four; the blocks draw the same normals in stream order
    point = ManifoldPoint("p", random_tensor(2, 2, 1.0, 1), 1 / 16)
    args = ([4, 8, 16, 32], [0, 1, 2], 4096, 1, 1e-9)
    monkeypatch.setattr(morse_mc, "_DRAW_BLOCK", 32 * 4096)
    one = morse_mc._point_study(point, *args)
    monkeypatch.setattr(morse_mc, "_DRAW_BLOCK", 32 * 1024)
    four = morse_mc._point_study(point, *args)
    assert all(np.array_equal(a, b) for a, b in zip(four, one))


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
    rep_loose = convergence_study(M, [3], [0], 20000, 5, 1e-2)
    rep_tight = convergence_study(M, [3], [0], 20000, 5, 1e-3)
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
    # the twist amplitude H_k / (k r) that renormalizes twisted forms
    assert harmonic(1) / (1 * 1) == 1
    assert harmonic(2) / (2 * 1) == Fraction(3, 4)
    assert harmonic(4) / (4 * 2) == Fraction(25, 96)


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
    assert rep.full_constants == {k: full_morse_constant(2, k, 2)[0] for k in (2, 4)}
    doc = rep.to_json_dict()
    assert [c["k"] for c in doc["full_constants"]] == [2, 4]
    assert doc["full_constants"][0]["den"].isdigit()


@pytest.mark.parametrize("twisted, k, n", [(False, 400_000, 3), (True, 800_000, 2)])
def test_convergence_study_refuses_exact_ceiling_before_sampling(twisted, k, n, monkeypatch):
    # untwisted studies need I(k, r, n), twisted ones H_k: a k past the
    # ceiling used to be refused only after the whole Monte-Carlo run
    twist = HermitianForm(np.eye(n)) if twisted else None
    M = _single(random_tensor(n, 1, 1.0, 3), twist)

    def fail(*args):
        raise AssertionError("sampling ran before the ceiling check")

    monkeypatch.setattr(morse_mc, "_run_points", fail)
    with pytest.raises(ResourceLimitError, match=f"order {1 if twisted else n} at k={k}"):
        convergence_study(M, [2, k], [0], 256, 1, 1e-9)


def test_int_text_equals_str():
    # past Python's digit limit, which the test lifts to read str(v)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        values = [0, 7, -12345, 10**4300 - 1, 10**4300, -(3**30000),
                  math.factorial(3000) ** 2, 7**100_000 + 1, (1 << 200_000) - 1]
        for v in values:
            assert morse_mc._int_text(v) == str(v)
        # about 10^6 digits, with texts known without a quadratic str
        e = 10**6
        nines = 10**e - 1
        assert morse_mc._int_text(nines) == "9" * e
        assert morse_mc._int_text(nines // 9 * 7) == "7" * e
    finally:
        sys.set_int_max_str_digits(old)


def test_json_converts_each_constant_once(monkeypatch):
    rep = convergence_study(_single(random_tensor(2, 2, 1.0, 41)), [2, 4], [0, 1, 2],
                            100, 3, 1e-9)
    seen = []
    real = morse_mc._int_text
    monkeypatch.setattr(morse_mc, "_int_text", lambda v: seen.append(v) or real(v))
    doc = rep.to_json_dict()
    assert len(seen) == 4  # numerator and denominator of two k
    assert [(c["k"], c["num"], c["den"]) for c in doc["full_constants"]] == [
        (k, str(c.numerator), str(c.denominator)) for k, c in rep.full_constants.items()]


def test_convergence_study_rejects_unsorted():
    M = _single(random_tensor(1, 1, 1.0, 2))
    with pytest.raises(ValueError):
        convergence_study(M, [4, 2], [0], 100, 1, 1e-9)


def test_convergence_study_rejects_bad_k_and_tol():
    M = _single(random_tensor(1, 1, 1.0, 2))
    with pytest.raises(ValueError, match="k must be >= 1"):
        reduced_morse_integral(M, 0, 0, 100, 1, 1e-9)
    for tol in (-1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            convergence_study(M, [2], [0], 100, 1, tol)


def test_report_duplicate_keys_rejected():
    row = MorseRow(2, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="keyed uniquely"):
        MorseReport((row, row), {2: Fraction(1)})
    # a row whose k has no constant, and a constant of no row's k
    for consts in ({}, {3: Fraction(1)}, {2: Fraction(1), 3: Fraction(1)}):
        with pytest.raises(ValueError, match="one constant per k"):
            MorseReport((row,), consts)
    assert MorseReport((row,), {2: Fraction(1)}).full_constants == {2: 1}


def test_twisted_study_deviation_uses_direct_scale():
    # with a twist the renormalized form targets eta + Theta_F directly
    t = fubini_study_tensor(2)
    twist = HermitianForm(4.0 * np.eye(2, dtype=complex))
    M = _single(t, twist)
    # the deviation has a hump around k ~ 16 before the 1/log k decay sets
    # in, so compare a point on the hump with a point well past it
    rep = convergence_study(M, [16, 512], [0], 40000, 7, 1e-9)
    want = eta_index_integral(M, 0, 1e-9)
    assert want == pytest.approx(1.0)
    for row in rep.rows:
        assert row.normalized_deviation == pytest.approx(
            abs(row.reduced_estimate - want))
    devs = {row.k: row.normalized_deviation for row in rep.rows}
    assert devs[512] < devs[16]


def _reference_stats(lam, q_list, tol):
    """Per-q sums of 1_{index q} det and the degenerate count, from eigenvalues."""
    n = lam.shape[1]
    plus = np.sum(lam > tol, axis=1)
    minus = np.sum(lam < -tol, axis=1)
    det = np.prod(lam, axis=1)
    sums = [float(np.where((minus == q) & (plus == n - q), det, 0.0).sum())
            for q in q_list]
    return sums, int(np.sum(plus + minus < n))


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
        out[k] = (*_reference_stats(lam, q_list, tol),
                  float(np.median(np.abs(lam).min(axis=1))))
    return out


def _assert_matches(vals, degen, sums, want_degen, m):
    assert degen == want_degen
    assert vals.shape == (len(sums), m)
    for mean, ref in zip(vals.mean(axis=1), sums):
        assert mean * m == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
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
    forms = morse_mc._chunk_forms(point, v, k_list, 0)
    strict = _reference_chunk(point, g, u, k_list, q_list, 1e-9)
    # a band holding half the smallest eigenvalues at k=3 forces the
    # screen to hand rows to the eigensolve
    loose_tol = strict[3][2]
    # elimination without pivoting at its most fragile: a leading entry of
    # 1e-13 (even rows) or exactly 0 (odd rows) next to O(1) off-diagonal
    # terms, where the pivots' determinant would be inaccurate or undefined
    edge = forms[:, 1].copy()
    edge[0, ::2] = 1e-13
    edge[0, 1::2] = 0.0
    edge_lam = np.linalg.eigvalsh(_herm_matrices(edge.T, n))
    for tol in (1e-9, loose_tol):
        want = _reference_chunk(point, g, u, k_list, q_list, tol)
        for j, k in enumerate(k_list):
            sums, want_degen, _ = want[k]
            _assert_matches(*morse_mc._index_stats(forms[:, j].T, q_list, tol),
                            sums, want_degen, m)
        _assert_matches(*morse_mc._index_stats(edge.T, q_list, tol),
                        *_reference_stats(edge_lam, q_list, tol), m)
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
    monkeypatch.setattr(morse_mc, "_usable_cpus", lambda: cpus)
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
    # the default is every usable CPU
    assert reduced_morse_integral(M, 2, 1, 200, 4, 1e-9) == pooled
    assert seen == [2, 2]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity mask")
def test_usable_cpus_follow_affinity_mask():
    # os.cpu_count() also counts the host's CPUs outside the mask
    assert morse_mc._usable_cpus() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("workers", [0, -2])
def test_bad_worker_count_rejected(monkeypatch, workers):
    seen = _sync_pool(monkeypatch, 8)
    M = _single(random_tensor(2, 2, 1.0, 70))
    with pytest.raises(ValueError, match="workers must be >= 1"):
        reduced_morse_integral(M, 2, 1, 200, 4, 1e-9, workers=workers)
    assert seen == []

