import json
import math
from fractions import Fraction

import numpy as np
import pytest

from jetmorse.curvature import eta, trace_free
from jetmorse.measures import sample_sphere_batch
from jetmorse.models import (CompleteIntersectionSpec, SecondFundamentalForm,
                             _fermat_points, _projection_jacobians,
                             _unit_fermat_points, build_sample, ci_threshold,
                             fermat_sample, fermat_second_fundamental_form,
                             fubini_study_tensor, hypersurface_tensor, random_tensor)
from jetmorse.rng import stream


def test_fubini_study_eta():
    assert np.allclose(eta(fubini_study_tensor(1)).entries, [[-2.0]])
    assert np.allclose(eta(fubini_study_tensor(2)).entries, -3.0 * np.eye(2))


def _pairing(t, z, u):
    # geometric pairing <Theta(z,z)u,u>: minus the stored coefficient sum
    return -np.einsum("ijab,i,j,a,b->", t.c, z, z.conj(), u, u.conj()).real


def test_fubini_study_pairing_contract():
    rng = stream(1, "fs-contract")
    for n in (1, 2, 3):
        t = fubini_study_tensor(n)
        for _ in range(200):
            z = sample_sphere_batch(n, (), rng)
            u = sample_sphere_batch(n, (), rng)
            want = 1.0 + abs(np.vdot(u, z)) ** 2
            assert abs(_pairing(t, z, u) - want) < 1e-10


def test_hypersurface_zero_beta_is_fubini_study():
    ff = SecondFundamentalForm(np.zeros((1, 2, 2), dtype=complex))
    assert np.array_equal(hypersurface_tensor(ff, 2).c, fubini_study_tensor(2).c)


def test_hypersurface_pairing_contract():
    rng = stream(2, "hyp")
    b = rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2))
    b = 0.5 * (b + np.transpose(b, (0, 2, 1)))
    ff = SecondFundamentalForm(b)
    t = hypersurface_tensor(ff, 2)
    for _ in range(200):
        z = sample_sphere_batch(2, (), rng)
        u = sample_sphere_batch(2, (), rng)
        beta_zu = np.einsum("sia,i,a->s", ff.beta, z, u)
        want = 1.0 + abs(np.vdot(u, z)) ** 2 - np.sum(np.abs(beta_zu) ** 2)
        assert abs(_pairing(t, z, u) - want) < 1e-10


def test_beta_scaling_quadratic_in_eta():
    b = np.full((1, 1, 1), 1.0 + 0.0j)
    e1 = eta(hypersurface_tensor(SecondFundamentalForm(b), 1)).entries[0, 0]
    e2 = eta(hypersurface_tensor(SecondFundamentalForm(2 * b), 1)).entries[0, 0]
    # eta = |b|^2 - 2 in rank one, so the beta part scales by 4
    assert (e2 + 2) == pytest.approx(4 * (e1 + 2))


def test_second_fundamental_form_symmetry_enforced():
    bad = np.zeros((1, 2, 2), dtype=complex)
    bad[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        SecondFundamentalForm(bad)


def _fermat_point(n, d, seed):
    rng = stream(seed, "pt", n, d)
    rest = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    z = np.append(rest, (-np.sum(rest**d)) ** (1.0 / d))
    return z / np.linalg.norm(z)


def test_fermat_point_rejection():
    with pytest.raises(ValueError):
        fermat_second_fundamental_form(2, 6, np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        fermat_second_fundamental_form(2, 6, np.zeros(4, dtype=complex))


def test_fermat_linear_has_zero_beta():
    z = _fermat_point(2, 1, 3)
    ff = fermat_second_fundamental_form(2, 1, z)
    assert not np.any(ff.beta)


def test_fermat_trace_identity():
    # eta = Tr(beta beta^*) - (n+1) id, assembled independently from beta
    n, d = 2, 6
    for seed in range(20):
        z = _fermat_point(n, d, seed)
        ff = fermat_second_fundamental_form(n, d, z)
        t = hypersurface_tensor(ff, n)
        want = (np.einsum("sia,sja->ij", ff.beta, ff.beta.conj())
                - (n + 1) * np.eye(n))
        assert float(np.abs(eta(t).entries - want).max()) < 1e-8


def test_fermat_frame_choice_invariance():
    # scalar invariants do not depend on the unitary frame freedom; a
    # rescaled representative of the same projective point gives the same eta
    n, d = 2, 6
    z = _fermat_point(n, d, 7)
    t1 = hypersurface_tensor(fermat_second_fundamental_form(n, d, z), n)
    t2 = hypersurface_tensor(fermat_second_fundamental_form(n, d, 3.7j * z), n)
    e1 = np.linalg.eigvalsh(eta(t1).entries)
    e2 = np.linalg.eigvalsh(eta(t2).entries)
    assert np.allclose(e1, e2, atol=1e-8)


def test_fermat_curve_eta_averages_to_zero():
    # degree-3 curve in the projective plane has trivial canonical bundle,
    # so the weighted quadrature average of the scalar eta vanishes
    S = fermat_sample(1, 3, 10000, 5)
    w = np.array([p.weight for p in S.points])
    v = np.array([float(eta(p.tensor).entries[0, 0].real) for p in S.points])
    avg = float(w @ v)
    m = len(w)
    se = math.sqrt(np.var(w * m * (v - avg)) / m)
    assert abs(avg) <= 3 * se
    assert abs(avg) < 0.05


def _reference_fermat_sample(n, d, count, seed):
    # one point at a time: the draw in stream order, a QR tangent frame, one
    # projection Gram determinant per dropped coordinate, and the tangent
    # tensor assembled from the second fundamental form
    rng = stream(seed, "fermat", n, d)
    tensors, raw = [], []
    for _ in range(count):
        drop = int(rng.integers(n + 2))
        rest = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        branch = int(rng.integers(d))
        root = (-np.sum(rest**d)) ** (1.0 / d) * np.exp(2j * np.pi * branch / d)
        z = np.insert(rest, drop, root)
        z = z / np.linalg.norm(z)
        g = d * z ** (d - 1)
        gn = float(np.linalg.norm(g))
        q, _ = np.linalg.qr(np.stack([z, g.conj() / gn], axis=1), mode="complete")
        frame = q[:, 2:]
        dets = []
        for drop in range(n + 2):
            keep = np.arange(n + 2) != drop
            zeta, a = z[keep], frame[keep, :]
            nz2 = float(np.vdot(zeta, zeta).real)
            proj = a.conj().T @ zeta
            gram = (a.conj().T @ a) * nz2 - np.outer(proj, proj.conj())
            dets.append(max(0.0, float(np.linalg.det(gram / nz2**2).real)))
        raw.append(1.0 / math.fsum(dets))
        hess = d * (d - 1) * z ** (d - 2)
        b = np.einsum("j,ji,ja->ia", hess, frame, frame) / gn
        tensors.append(hypersurface_tensor(SecondFundamentalForm(b[None]), n).c)
    total = math.fsum(raw)
    return tensors, [w / total for w in raw]


@pytest.mark.parametrize("n, d", [(1, 3), (2, 4), (3, 5)])
def test_fermat_sample_matches_per_point_reference(n, d):
    S = fermat_sample(n, d, 40, 11)
    tensors, weights = _reference_fermat_sample(n, d, 40, 11)
    for p, c, w in zip(S.points, tensors, weights):
        assert float(np.abs(p.tensor.c - c).max()) < 1e-12
        assert abs(p.weight - w) < 1e-12 * w
    # the one-point call is row m of the batched pass, bit for bit
    z = _fermat_points(n, d, 40, stream(11, "fermat", n, d))
    for m, p in enumerate(S.points):
        ff = fermat_second_fundamental_form(n, d, z[m])
        assert np.array_equal(hypersurface_tensor(ff, n).c, p.tensor.c)


@pytest.mark.parametrize("n, d", [(2, 60), (1, 80), (3, 200)])
def test_fermat_sample_high_degree_matches_reference(n, d):
    # smooth hypersurfaces where the gradient norm at some unit points is
    # below 1e-12, which an absolute "singular point" guard used to refuse.  The
    # batched and per-point draws round their unit points differently in the
    # last place, and the tensors (up to 2.5e3 here) move by about d ulps per
    # ulp of the point, so they are compared relative to their size and d.
    S = fermat_sample(n, d, 40, 11)
    tensors, weights = _reference_fermat_sample(n, d, 40, 11)
    for p, c, w in zip(S.points, tensors, weights):
        assert float(np.abs(p.tensor.c - c).max()) < 1e-13 * d * float(np.abs(c).max())
        assert abs(p.weight - w) < 1e-12 * w


@pytest.mark.parametrize("n, d", [(1, 1), (1, 3), (2, 2), (2, 60), (3, 5), (4, 7), (3, 200)])
def test_projection_jacobians_rows_at_least_1(n, d):
    # the |g_j|^2 sum to 1 and no denominator exceeds 1, so every raw
    # weight 1 / sum_j J_j lies in (0, 1]
    z = _unit_fermat_points(_fermat_points(n, d, 200, stream(4, "fermat", n, d)), d)
    rows = _projection_jacobians(z, d).sum(axis=1)
    assert np.isfinite(rows).all() and rows.min() >= 1 - 1e-12


def test_fermat_sample_degree_past_float_range():
    # |rest_j|^1200 overflows; the root used to come out nan, with numpy
    # RuntimeWarnings, and the study exited 2 on non-finite weights
    S = fermat_sample(2, 1200, 8, 1)
    assert all(0 < p.weight < 1 and np.isfinite(p.tensor.c).all() for p in S.points)


def test_fermat_rank1_trace_free_vanishes():
    z = _fermat_point(1, 3, 11)
    t = hypersurface_tensor(fermat_second_fundamental_form(1, 3, z), 1)
    assert float(np.abs(trace_free(t).c).max()) < 1e-12


def test_random_tensor_properties():
    t = random_tensor(2, 3, 1.0, 5)
    assert np.array_equal(t.c, random_tensor(2, 3, 1.0, 5).c)
    assert not np.array_equal(t.c, random_tensor(2, 3, 1.0, 6).c)
    assert not np.any(random_tensor(2, 3, 0.0, 5).c)


def test_random_models_share_no_tensor_across_seeds():
    # point m used to take seed + m, so seeds 1 and 2 shared 15 of 16 tensors
    spec = {"type": "random", "n": 2, "r": 2, "points": 16, "scale": 1.0}
    a, b = (build_sample(dict(spec, seed=seed)) for seed in (1, 2))
    assert not any(np.array_equal(p.tensor.c, q.tensor.c) for p in a.points for q in b.points)


def test_random_model_point_is_random_tensor_keyed_by_point():
    M = build_sample({"type": "random", "n": 2, "r": 3, "points": 3, "scale": 0.5, "seed": 4})
    for m, p in enumerate(M.points):
        assert np.array_equal(p.tensor.c, random_tensor(2, 3, 0.5, 4, m).c)
    assert not np.array_equal(random_tensor(2, 3, 0.5, 4).c, M.points[0].tensor.c)


@pytest.mark.parametrize("n, d", [(1, 3), (1, 5), (2, 6), (2, 8)])
def test_fermat_chern_number(n, d):
    # eta is the curvature of K_X = O(d - n - 2), with O(1) of identity form,
    # so by adjunction the uniform average of det eta over X is (d - n - 2)^n;
    # checks the importance weights, the sign and the scale of eta together
    M = fermat_sample(n, d, 20000, 1)
    w = np.array([p.weight for p in M.points])
    y = np.linalg.det(np.array([eta(p.tensor).entries for p in M.points])).real
    mean = w @ y
    se = math.sqrt(np.sum(w**2 * (y - mean) ** 2))  # self-normalized importance sampling
    assert abs(mean - (d - n - 2) ** n) <= 4 * se


def test_ci_threshold_example():
    spec = CompleteIntersectionSpec(2, 1, (15,), Fraction(1))
    assert ci_threshold(spec) == pytest.approx(106.874, abs=5e-3)


def test_ci_threshold_boundary_and_monotone():
    with pytest.raises(ValueError):
        ci_threshold(CompleteIntersectionSpec(2, 1, (5,), Fraction(1)))
    vals = [ci_threshold(CompleteIntersectionSpec(2, 1, (d,), Fraction(1)))
            for d in (8, 12, 20, 100)]
    assert vals == sorted(vals, reverse=True)


def test_ci_threshold_large_degree_limit():
    big = ci_threshold(CompleteIntersectionSpec(2, 1, (10**9,), Fraction(1)))
    assert abs(big - 7.38 * 2**2.5) < 1e-6


def test_build_sample_kinds():
    s = build_sample({"type": "fubini_study", "n": 2})
    assert s.n == 2 and s.r == 2 and len(s.points) == 1
    s = build_sample({"type": "random", "n": 2, "r": 1, "points": 3, "seed": 4})
    assert len(s.points) == 3 and s.r == 1
    s = build_sample({"type": "fermat", "n": 1, "d": 3, "points": 10, "seed": 2})
    assert len(s.points) == 10
    with pytest.raises(ValueError):
        build_sample({"type": "unknown"})


def test_build_sample_explicit_roundtrip():
    from jetmorse.curvature import tensor_to_json
    t = random_tensor(2, 2, 1.0, 9)
    doc = {"type": "explicit", "points": [
        {"id": "a", "weight": 0.5, "tensor": json.loads(tensor_to_json(t)),
         "twist": [[[2.0, 0.0], [0.5, -0.5]], [[0.5, 0.5], [3.0, 0.0]]]},
        {"id": "b", "weight": 0.5, "tensor": json.loads(tensor_to_json(t)),
         "twist": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    ]}
    s = build_sample(doc)
    assert s.has_twist
    assert np.array_equal(s.points[0].twist.entries, [[2, 0.5 - 0.5j], [0.5 + 0.5j, 3]])
    assert np.array_equal(s.points[1].twist.entries, np.eye(2))
    assert np.array_equal(s.points[0].tensor.c, t.c)
    # a sample that mixes twisted and untwisted points is rejected
    del doc["points"][0]["twist"]
    with pytest.raises(ValueError, match="all twisted or all untwisted"):
        build_sample(doc)
