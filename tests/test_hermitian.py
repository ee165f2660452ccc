import math

import numpy as np
import pytest

from jetmorse.hermitian import (HermitianForm, default_tolerance,
                                det_diff_bound_holds, eigenvalues, operator_norm,
                                signature, signed_index_det,
                                sphere_second_moment, trace_free_part)
from jetmorse.measures import sample_sphere_batch
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


def test_quadratic_real_and_matches_eigen():
    rng = stream(2, "herm")
    a = _random_form(4, rng)
    v = sample_sphere_batch(4, (), rng)
    q = a.quadratic(v)
    lam = eigenvalues(a)
    assert lam[0] - 1e-12 <= q <= lam[-1] + 1e-12


def test_signature_counts():
    a = HermitianForm.diagonal([2.0, -1.0, 0.0])
    assert signature(a, 1e-9) == (1, 1, 1)
    assert signature(a, 1e-12) == (1, 1, 1)


def test_signed_index_det():
    a = HermitianForm.diagonal([-3.0, -3.0])
    assert signed_index_det(a, 2, 1e-9) == pytest.approx(9.0)
    assert signed_index_det(a, 0, 1e-9) == 0.0
    assert signed_index_det(a, 1, 1e-9) == 0.0
    b = HermitianForm.diagonal([1.0, 2.0, 3.0])
    assert signed_index_det(b, 0, 1e-9) == pytest.approx(6.0)


def test_default_tolerance_scales():
    a = HermitianForm.identity(3)
    assert default_tolerance(a) == pytest.approx(1e-9)
    assert default_tolerance(100.0 * a) == pytest.approx(1e-7)


def test_det_diff_bound_random_pairs():
    rng = stream(4, "lemma")
    for dim in (1, 2, 4):
        for _ in range(200):
            a = _random_form(dim, rng)
            b = _random_form(dim, rng)
            for q in range(dim + 1):
                assert det_diff_bound_holds(a, b, q)


def test_det_diff_bound_equal_forms():
    a = HermitianForm.diagonal([1.0, -2.0])
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
    # a and b once for the pair, plus the new form a - b in every call
    assert len(calls) == 2 + (dim + 1)


def test_arithmetic_matches_validated_constructor():
    rng = stream(9, "form-arith")
    a, b = _random_form(3, rng), _random_form(3, rng)
    for got, raw in [(a + b, a.entries + b.entries), (a - b, a.entries - b.entries),
                     (a * -2.5, a.entries * -2.5), (0.5 * a, a.entries * 0.5)]:
        assert isinstance(got, HermitianForm)
        np.testing.assert_array_equal(got.entries, HermitianForm(raw).entries)
        assert not got.entries.flags.writeable
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        a * math.inf


def test_sphere_second_moment_closed_form():
    # diag(1, -1): moments sum lam^2 = 2, (sum lam)^2 = 0, n(n+1) = 6
    a = HermitianForm.diagonal([1.0, -1.0])
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


def test_trace_free_part():
    a = HermitianForm.diagonal([1.0, 3.0])
    t = trace_free_part(a)
    assert abs(np.trace(t.entries)) < 1e-14
    assert t.entries[0, 0] == pytest.approx(-1.0)
