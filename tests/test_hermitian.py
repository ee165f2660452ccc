import math
import struct

import numpy as np
import pytest

from jetmorse import hermitian, morse_mc
from jetmorse.cli import main
from jetmorse.curvature import CurvatureTensor, eta
from jetmorse.hermitian import (HermitianForm, _index_dets, det_diff_bound_holds,
                                eigenvalues, operator_norm, sphere_second_moment)
from jetmorse.measures import sample_sphere_batch
from jetmorse.models import build_sample, random_tensor
from jetmorse.morse_mc import ManifoldPoint, ManifoldSample, eta_index_integral
from jetmorse.rng import stream


def _random_form(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianForm(scale * 0.5 * (a + a.conj().T))


def test_form_validation():
    HermitianForm(np.array([[1.0, 2j], [-2j, 3.0]]))
    with pytest.raises(ValueError):
        HermitianForm(np.array([[1.0, 2j], [2j, 3.0]]))
    with pytest.raises(ValueError):
        HermitianForm(np.zeros((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            HermitianForm(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_form_symmetrization_keeps_huge_finite_entries():
    # a finite entry above half the largest float must survive the exact
    # symmetrization instead of overflowing to inf+nanj
    big = 0.75 * np.finfo(float).max
    form = HermitianForm(np.diag([big, 1.0]))
    assert form.entries[0, 0] == big
    assert np.isfinite(form.entries).all()


def test_index_dets():
    # index -1 wherever an eigenvalue lies in the closed band [-tol, tol]
    lam = np.array([[-3.0, -3.0], [-1.0, 2.0], [0.5, 4.0], [-1e-9, 2.0], [0.0, 1.0]])
    index, det = _index_dets(lam, 1e-9)
    assert index.tolist() == [2, 1, 0, -1, -1]
    assert det.tolist() == [9.0, -2.0, 2.0, -2e-9, 0.0]
    index, det = _index_dets(lam.reshape(5, 1, 2), 0.0)
    assert index.tolist() == [[2], [1], [0], [1], [-1]] and det.shape == (5, 1)


def test_operator_norm_scales():
    a = HermitianForm(np.eye(3))
    assert 1e-9 * max(1.0, operator_norm(a)) == pytest.approx(1e-9)
    assert 1e-9 * max(1.0, operator_norm(HermitianForm(100.0 * a.entries))) == pytest.approx(1e-7)


def test_det_diff_bound_random_pairs():
    rng = stream(4, "lemma")
    for dim in (1, 2, 4):
        for _ in range(200):
            a = _random_form(dim, rng)
            b = _random_form(dim, rng)
            for q in range(dim + 1):
                assert det_diff_bound_holds(a, b, q)


def test_det_diff_bound_equal_forms():
    a = HermitianForm(np.diag([1.0, -2.0]))
    assert det_diff_bound_holds(a, a, 1)


def test_spectrum_cached_and_read_only():
    a = _random_form(3, stream(7, "spectrum"))
    lam = eigenvalues(a)
    assert lam is a.spectrum is eigenvalues(a)
    np.testing.assert_array_equal(lam, np.linalg.eigvalsh(a.entries))
    with pytest.raises(ValueError):
        lam[0] = 0.0


def test_det_diff_eigensolves_each_form_once(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or real(m))
    rng = stream(8, "det-diff-count")
    dim = 3
    a, b = _random_form(dim, rng), _random_form(dim, rng)
    for q in range(dim + 1):
        assert det_diff_bound_holds(a, b, q)
    # a and b once for the pair, plus a - b in every call whose left side is
    # nonzero: at lhs == 0 the bound holds without it
    nonzero = sum(_np_signed_index_det(a, q, 0.0) != _np_signed_index_det(b, q, 0.0)
                  for q in range(dim + 1))
    assert 0 < nonzero < dim + 1
    assert len(calls) == 2 + nonzero


def test_det_diff_runs_index_rule_once_per_form(monkeypatch):
    # every q of a pair reads the index and determinant that each form
    # computed once through the array rule
    calls = []
    real = hermitian._index_dets
    monkeypatch.setattr(hermitian, "_index_dets",
                        lambda lam, tol: calls.append((lam.shape, tol)) or real(lam, tol))
    rng = stream(12, "inertia-count")
    dim = 4
    a, b = _random_form(dim, rng), _random_form(dim, rng)
    for slack in (1e-9, -0.5):
        monkeypatch.setattr(hermitian, "_DET_DIFF_SLACK", slack)
        for q in range(dim + 1):
            det_diff_bound_holds(a, b, q)
            det_diff_bound_holds(b, a, q)
    operator_norm(a)
    assert calls == [((dim,), 0.0), ((dim,), 0.0)]


def test_sphere_second_moment_closed_form():
    # diag(1, -1): moments sum lam^2 = 2, (sum lam)^2 = 0, n(n+1) = 6
    a = HermitianForm(np.diag([1.0, -1.0]))
    assert sphere_second_moment(a) == pytest.approx(1 / 3)


def test_sphere_second_moment_mc():
    rng = stream(6, "moment")
    a = _random_form(3, rng)
    want = sphere_second_moment(a)
    v = sample_sphere_batch(3, (100000,), rng)
    vals = np.real(np.einsum("ab,ma,mb->m", a.entries, v, v.conj())) ** 2
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - want) < 3 * se


def test_sphere_second_moment_sandwich():
    rng = stream(8, "sw")
    for dim in (1, 2, 5):
        for _ in range(50):
            a = _random_form(dim, rng)
            v = sphere_second_moment(a)
            nrm = operator_norm(a)
            assert nrm**2 / dim**2 - 1e-12 <= v <= nrm**2 + 1e-12


@pytest.mark.parametrize("tol", [math.nan, -5.0, -0.5e-300, math.inf])
def test_bad_tolerance_raises(tol):
    c = np.diag([2.0, -1.0, 0.5]).astype(complex)[:, :, None, None]
    M = ManifoldSample((ManifoldPoint("a", CurvatureTensor(c), 1.0),))
    for q in range(M.n + 1):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            eta_index_integral(M, q, tol)


# numpy versions of the spectrum helpers, as they read the ndarray spectrum
# before the helpers moved to plain Python floats; the oracle for bit equality

def _np_signed_index_det(a, q, tol):
    lam = a.spectrum
    plus = int(np.sum(lam > tol))
    minus = int(np.sum(lam < -tol))
    if minus == q and plus == a.dim - q:
        return float(np.prod(lam))
    return 0.0


def _np_operator_norm(a):
    return float(np.abs(a.spectrum).max())


def _np_det_diff_bound_holds(a, b, q, slack=1e-9):
    n = a.dim
    lhs = abs(_np_signed_index_det(a, q, 0.0) - _np_signed_index_det(b, q, 0.0))
    if lhs == 0:
        return True
    na, nb = _np_operator_norm(a), _np_operator_norm(b)
    diff = _np_operator_norm(HermitianForm(a.entries - b.entries))
    rhs = diff * sum(na**i * nb ** (n - 1 - i) for i in range(n))
    return lhs <= rhs + slack * max(1.0, rhs)


def _bits(x):
    assert type(x) is float
    return struct.pack("<d", x)


def _edge_forms(rng):
    forms = [HermitianForm(np.diag(v)) for v in (
        [0.0], [-0.0], [0.0, -0.0], [-0.0, 2.0, -3.0], [0.0, 1.0, -2.0],
        [2.0, 2.0, -1.0, -1.0], [-4.0, -4.0, -4.0], [1e-300, -1e-300, 5.0])]
    forms.append(HermitianForm(np.eye(5)))
    # repeated eigenvalues in a random basis
    for dim in (2, 4, 6):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _ = np.linalg.qr(z)
        lam = np.repeat([-1.5, 0.0, 2.5], dim)[:dim]
        m = u @ np.diag(lam) @ u.conj().T
        forms.append(HermitianForm(0.5 * (m + m.conj().T)))
    return forms


def _helper_cases():
    rng = stream(10, "spectrum-helpers")
    forms = _edge_forms(rng)
    for dim in range(1, 9):
        for scale in (1e-6, 1.0, 1e6):
            forms += [_random_form(dim, rng, scale) for _ in range(25)]
    return forms


def test_spectrum_helpers_bit_equal_numpy():
    by_dim = {}
    for a in _helper_cases():
        by_dim.setdefault(a.dim, []).append(a)
        lam = a.spectrum
        # zero, every eigenvalue's magnitude (the band edge itself) and a
        # norm-relative band
        scaled = 1e-9 * max(1.0, operator_norm(a))
        for tol in [0.0, 1e-9, scaled] + [abs(x) for x in lam.tolist()]:
            index, det = _index_dets(lam, tol)
            for q in range(a.dim + 1):
                got = float(det) if index == q else 0.0
                assert _bits(got) == _bits(_np_signed_index_det(a, q, tol))
        assert _bits(operator_norm(a)) == _bits(_np_operator_norm(a))
    # a stack gives each row's own (index, det)
    for forms in by_dim.values():
        index, det = _index_dets(np.stack([a.spectrum for a in forms]), 1e-9)
        for a, i, d in zip(forms, index.tolist(), det.tolist()):
            for q in range(a.dim + 1):
                assert _bits(d if i == q else 0.0) == _bits(_np_signed_index_det(a, q, 1e-9))


def test_det_diff_verdicts_equal_numpy(monkeypatch):
    forms = _helper_cases()
    by_dim = {}
    for f in forms:
        by_dim.setdefault(f.dim, []).append(f)
    checked = 0
    verdicts = set()
    for group in by_dim.values():
        pairs = list(zip(group, group[1:] + group[:1])) + [(f, f) for f in group]
        for a, b in pairs:
            for q in range(a.dim + 1):
                # negative slack moves the comparison onto both sides of its edge
                for slack in (1e-9, 0.0, -0.5):
                    monkeypatch.setattr(hermitian, "_DET_DIFF_SLACK", slack)
                    got = det_diff_bound_holds(a, b, q)
                    assert got == _np_det_diff_bound_holds(a, b, q, slack)
                    verdicts.add(got)
                    checked += 1
    assert verdicts == {True, False} and checked > 5000


def test_det_diff_rejects_overflowing_difference():
    # finite forms whose difference overflows: 0.95 max - (-0.95 max) = inf
    a = HermitianForm(np.diag([np.finfo(float).max / 2, 1.0]) * 1.9)
    b = HermitianForm(-a.entries)
    assert np.isfinite(a.entries).all() and np.isfinite(b.entries).all()
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        det_diff_bound_holds(a, b, 0)
    with pytest.raises(ValueError, match="dimension"):
        det_diff_bound_holds(a, HermitianForm(np.eye(3)), 0)
    with pytest.raises(ValueError, match="q must"):
        det_diff_bound_holds(a, a, 3)


def test_det_diff_skips_eigensolve_only_where_lhs_is_zero(monkeypatch):
    # A = B with norm^2 past the float range: lhs = 0 decides the check
    # before the right side is formed (it used to raise OverflowError)
    a = HermitianForm(np.diag([1e200, 1e-100, 1e-100]))
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or real(m))
    for q in range(a.dim + 1):
        assert det_diff_bound_holds(a, a, q)
    assert len(calls) == 1  # the spectrum of a, once
    # the checks ahead of the skip still raise on equal forms
    with pytest.raises(ValueError, match="q must"):
        det_diff_bound_holds(a, a, 4)


def test_det_diff_right_side_overflow_holds():
    # ||A||^2 = 4e400 is past the float range: float ** int raised
    # OverflowError where the product reads inf; the bound then holds
    a = HermitianForm(np.diag([1e200, 1.0, 1.0]))
    b = HermitianForm(np.diag([2e200, 1.0, 1.0]))
    for q in range(a.dim + 1):
        assert det_diff_bound_holds(a, b, q)
        assert det_diff_bound_holds(b, a, q)


def _np_eta_index_integrals(M, q_list, tol):
    # one form and one eigensolve per point, as the eta column was computed
    # before it became one stacked eigensolve
    forms = [eta(p.tensor) if p.twist is None
             else HermitianForm(eta(p.tensor).entries + p.twist.entries)
             for p in M.points]
    return {q: math.fsum(p.weight * _np_signed_index_det(f, q, tol)
                         for p, f in zip(M.points, forms)) for q in q_list}


def test_morse_output_matches_numpy_index_det(tmp_path, monkeypatch):
    # the stacked eta column must keep every byte of the README model's
    # report that the per-point numpy reductions gave
    model = '{"type":"random","n":2,"r":2,"points":4,"scale":1.0,"seed":9}'

    def run(tag):
        out = str(tmp_path / tag)
        assert main(["morse", "--model", model, "--k-list", "4,8,16", "--q", "all",
                     "--samples", "4000", "--seed", "3", "--out", out]) == 0
        return [open(out + ext, "rb").read() for ext in (".csv", ".json")]

    got = run("floats")
    monkeypatch.setattr(morse_mc, "_eta_index_integrals", _np_eta_index_integrals)
    assert got == run("numpy")


def test_eta_column_bit_equal_per_point_oracle():
    rng = stream(11, "eta-column")
    twisted = ManifoldSample(tuple(
        ManifoldPoint(f"p{m}", random_tensor(3, 2, 1.0, m), 0.1 * (m + 1),
                      _random_form(3, rng)) for m in range(8)))
    samples = [build_sample(spec) for spec in (
        {"type": "fermat", "n": 3, "d": 5, "points": 16, "seed": 1},
        {"type": "fermat", "n": 2, "d": 60, "points": 8, "seed": 2},
        {"type": "random", "n": 2, "r": 2, "points": 16, "seed": 1},
        {"type": "random", "n": 4, "r": 2, "points": 8, "scale": 1e100, "seed": 3},
        {"type": "fubini_study", "n": 3})] + [twisted]
    for M in samples:
        q_list = list(range(M.n + 1))
        for tol in (0.0, 1e-9, 0.5):
            got = morse_mc._eta_index_integrals(M, q_list, tol)
            with np.errstate(over="ignore"):  # the oracle's np.prod at scale 1e100
                want = _np_eta_index_integrals(M, q_list, tol)
            assert [_bits(got[q]) for q in q_list] == [_bits(want[q]) for q in q_list]
