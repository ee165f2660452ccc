"""Concrete curvature models: projective space, Fermat hypersurfaces, random tensors.

Sign ledger.  The coefficient arrays are stored so that the fiber trace
eta is the curvature of the dual determinant bundle; the geometric pairing
<Theta(zeta,zeta)u,u> is minus the raw coefficient sum,
-Re sum c[i,j,a,b] zeta_i conj(zeta_j) u_a conj(u_b).  For the tangent bundle
of a hypersurface of projective space the pairing is

    |zeta|^2 |u|^2 + |<zeta, u>|^2 - |beta(zeta) . u|^2,

so the stored coefficients are c = -(delta_ij delta_ab + delta_ib delta_ja)
plus the positive beta-square term, and the trace identity reads

    eta = Tr(beta beta*) - (n+1) . identity.

Fermat sampling.  Points of X = {P = sum z_j^d = 0} are drawn by solving
for a uniformly chosen coordinate over a uniform base direction, and carry
the importance weight 1 / sum_j J_j, with J_j the Fubini-Study Jacobian of
the projection dropping coordinate j; this removes the branched-covering
bias of any single solve coordinate.  At unit z on X, with g = conj(grad P) / |grad P|,

    J_j = |g_j|^2 / (1 - |z_j|^2)^(n+1).

C^{n+2} splits orthogonally into z, g and the tangent frame A (Euler's
identity gives <g, z> ~ d P(z) = 0).  Drop z_j, let b be the j-th row of A
and zeta the rest of z: the pulled-back Gram matrix
|zeta|^2 (I - b b*) - |z_j|^2 b b* equals |zeta|^2 I - b b*, and its
determinant over |zeta|^{4n} is |g_j|^2 / |zeta|^{2(n+1)}.  The |g_j|^2 sum
to 1 and no denominator exceeds 1, so every raw weight lies in (0, 1].  The
draws run point by point in stream order; the geometry then runs once on
the stacked unit points: one complete QR of the (P, n+2, 2) spans gives the
horizontal tangent frames, one einsum each gives the second fundamental
forms and the coefficients FS(n) + b b*, and the one-point functions are
single-row calls of that pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .curvature import (CurvatureTensor, _json_complex, _json_field, _json_float,
                        _json_int, tensor_from_json)
from .hermitian import HermitianForm
from .morse_mc import ManifoldPoint, ManifoldSample
from .rng import stream

__all__ = [
    "SecondFundamentalForm",
    "CompleteIntersectionSpec",
    "fubini_study_tensor",
    "hypersurface_tensor",
    "fermat_second_fundamental_form",
    "fermat_sample",
    "random_tensor",
    "ci_threshold",
    "build_sample",
]

_POINT_TOL = 1e-10


@dataclass(frozen=True)
class SecondFundamentalForm:
    """Bilinear coefficients B[sigma, i, a]: (zeta, u) -> sum B zeta_i u_a per normal sigma."""

    beta: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=complex)
        if b.ndim != 3:
            raise ValueError("beta must have shape (s, n, r)")
        if b.shape[1] == b.shape[2] and b.size:
            # tangent-bundle case: integrability forces symmetry in (i, a)
            sym_err = float(np.abs(b - np.transpose(b, (0, 2, 1))).max())
            if sym_err > 1e-8 * max(1.0, float(np.abs(b).max())):
                raise ValueError("beta must be symmetric in its two lower indices")
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)


@dataclass(frozen=True)
class CompleteIntersectionSpec:
    """X of dimension n cut out by s hypersurfaces of degrees d_j, with twist weight a."""

    n: int
    s: int
    degrees: tuple
    a: Fraction = Fraction(0)

    def __post_init__(self):
        degrees = tuple(int(d) for d in self.degrees)
        if self.n < 1 or self.s < 1 or len(degrees) != self.s:
            raise ValueError("need n >= 1 and one degree per hypersurface")
        if any(d < 1 for d in degrees):
            raise ValueError("degrees must be >= 1")
        a = Fraction(self.a)
        if a < 0:
            raise ValueError("twist weight a must be >= 0")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "a", a)


def fubini_study_tensor(n: int) -> CurvatureTensor:
    """Tangent-bundle curvature of projective n-space, r = n, eta = -(n+1) id."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eye = np.eye(n)
    c = -(np.einsum("ij,ab->ijab", eye, eye) + np.einsum("ib,ja->ijab", eye, eye))
    return CurvatureTensor(c.astype(complex))


def hypersurface_tensor(ff: SecondFundamentalForm, n: int) -> CurvatureTensor:
    """Ambient projective curvature corrected by the second fundamental form."""
    b = ff.beta
    if b.shape[1] != n or b.shape[2] != n:
        raise ValueError("beta must act on (n, n) for the tangent bundle")
    return CurvatureTensor(_hypersurface_coefficients(b))


def _hypersurface_coefficients(beta: np.ndarray) -> np.ndarray:
    """FS(n) + sum_s beta_s beta_s* for beta of shape (..., s, n, n), stacked over ..."""
    base = fubini_study_tensor(beta.shape[-1]).c
    return base + np.einsum("...sia,...sjb->...ijab", beta, beta.conj())


def _fermat_points(n: int, d: int, count: int, rng) -> np.ndarray:
    """count ambient points (count, n+2) of the hypersurface, each solving a random coordinate.

    The draws run point by point in stream order (solved coordinate, real
    parts, imaginary parts, branch); the root solve and the assembly run on
    all points at once.  The root is solved on rest / max_j |rest_j| and
    scaled back, so that no power |rest_j|^d overflows at high degree.
    """
    dim = n + 2
    drops = np.empty(count, dtype=np.intp)
    branches = np.empty(count)
    re = np.empty((count, dim - 1))
    im = np.empty((count, dim - 1))
    for m in range(count):
        drops[m] = rng.integers(dim)
        rng.standard_normal(out=re[m])
        rng.standard_normal(out=im[m])
        branches[m] = rng.integers(d)
    rest = re + 1j * im
    top = np.abs(rest).max(axis=1)
    root = (top * (-np.sum((rest / top[:, None]) ** d, axis=1)) ** (1.0 / d)
            * np.exp(2j * np.pi * branches / d))
    z = np.empty((count, dim), dtype=complex)
    z[np.arange(dim) != drops[:, None]] = rest.ravel()
    z[np.arange(count), drops] = root
    return z


def _unit_fermat_points(z: np.ndarray, d: int) -> np.ndarray:
    """Rows of z (P, n+2) scaled to the unit sphere, each on {sum z_j^d = 0} to 1e-10."""
    nz = np.linalg.norm(z, axis=1)
    if not nz.all():
        raise ValueError("point must be nonzero")
    z = z / nz[:, None]
    if (np.abs(np.sum(z**d, axis=1)) > _POINT_TOL).any():
        raise ValueError("point does not satisfy the defining equation")
    return z


def _fermat_geometry(z: np.ndarray, d: int) -> np.ndarray:
    """Second fundamental forms (P, n, n) at the unit rows z of X.

    b[p] is the holomorphic Hessian of the defining polynomial on a
    horizontal tangent frame, whose orthonormal columns span {w : <w, z_p> = 0,
    sum_j w_j dP/dz_j = 0}, divided by the gradient norm.  Both are taken at
    z / max_j |z_j|, where |grad P| >= d, and b is scaled back.
    """
    top = np.abs(z).max(axis=1)
    w = z / top[:, None]
    grad = d * w ** (d - 1)
    gn = np.linalg.norm(grad, axis=1)
    span = np.stack([z, grad.conj() / gn[:, None]], axis=2)
    frames = np.linalg.qr(span, mode="complete").Q[:, :, 2:]
    hess = d * (d - 1) * w ** max(d - 2, 0)
    return np.einsum("pj,pji,pja->pia", hess, frames, frames) / (gn * top)[:, None, None]


def _projection_jacobians(z: np.ndarray, d: int) -> np.ndarray:
    """(P, n+2) Jacobians J_j of the module docstring at unit rows z on X, with
    the powers taken on |z| / max_j |z_j|, so that none underflows."""
    a = np.abs(z / np.abs(z).max(axis=1, keepdims=True)) ** 2
    g = a ** (d - 1)
    total = a.sum(axis=1, keepdims=True)
    return g / g.sum(axis=1, keepdims=True) / ((total - a) / total) ** (z.shape[1] - 1)


def fermat_second_fundamental_form(n: int, d: int, point: Sequence[complex]
                                   ) -> SecondFundamentalForm:
    """Second fundamental form of {sum z_j^d = 0} in projective (n+1)-space.

    ``point`` is an ambient representative (n+2 components); it is
    normalized to the unit sphere and must satisfy the defining equation to
    1e-10.  The coefficients are the holomorphic Hessian of the defining
    polynomial on an orthonormal horizontal tangent frame, divided by the
    gradient norm.
    """
    z = np.asarray(point, dtype=complex).reshape(-1)
    if z.size != n + 2:
        raise ValueError("point must have n+2 components")
    return SecondFundamentalForm(_fermat_geometry(_unit_fermat_points(z[None, :], d), d))


def fermat_sample(n: int, d: int, count: int, seed: int) -> ManifoldSample:
    """Weighted quadrature of curvature tensors at random hypersurface points."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = stream(seed, "fermat", n, d)
    z = _unit_fermat_points(_fermat_points(n, d, count, rng), d)
    raw = [1.0 / math.fsum(row) for row in _projection_jacobians(z, d).tolist()]
    total = math.fsum(raw)
    c = _hypersurface_coefficients(_fermat_geometry(z, d)[:, None])
    pts = tuple(ManifoldPoint(f"pt{m:05d}", CurvatureTensor(c[m]), w / total)
                for m, w in enumerate(raw))
    return ManifoldSample(pts)


def random_tensor(n: int, r: int, scale: float, seed: int, *point) -> CurvatureTensor:
    """Hermitian-symmetrized complex-Gaussian coefficient tensor keyed by
    (seed, *point): a ``random`` model keys point m by (seed, m)."""
    if n < 1 or r < 1:
        raise ValueError(f"random tensor needs n >= 1 and r >= 1, got n={n}, r={r}")
    if not 0 <= scale < math.inf:
        raise ValueError("scale must be finite and >= 0")
    rng = stream(seed, "random-tensor", n, r, *point)
    a = (rng.standard_normal((n, n, r, r))
         + 1j * rng.standard_normal((n, n, r, r)))
    sym = 0.5 * (a + np.conj(np.transpose(a, (1, 0, 3, 2))))
    return CurvatureTensor(scale * sym)


def ci_threshold(spec: CompleteIntersectionSpec) -> float:
    """Natural log of the jet-order threshold 7.38 n^{n+1/2} ((D+1)/(D-n-s-a-1))^n.

    Raises FloatingPointError where it passes the float range (from n = 140
    at s = 1, D = 10 n)."""
    n, s, a = spec.n, spec.s, spec.a
    total = sum(spec.degrees)
    margin = Fraction(total) - (n + s + a + 1)
    if margin <= 0:
        raise ValueError(
            f"degree sum {total} must exceed n+s+a+1 = {n + s + float(a) + 1}")
    ratio = Fraction(total + 1) / margin
    try:
        ln_k = 7.38 * n ** (n + 0.5) * float(ratio) ** n
    except OverflowError:  # float ** raises past the float range, * gives inf
        ln_k = math.inf
    if not math.isfinite(ln_k):
        raise FloatingPointError(f"ln_k_min overflows the float range at n = {n}")
    return ln_k


def build_sample(spec: dict) -> ManifoldSample:
    """Construct a ManifoldSample from a model description dictionary.

    Types: "fubini_study" (n), "fermat" (n, d, points, seed),
    "random" (n, r, scale, points, seed), "explicit" (points list embedding
    serialized tensors and optional twist matrices).
    """
    if not isinstance(spec, dict):
        raise ValueError(f"model must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("type")
    if kind == "fubini_study":
        n = _json_int(spec, "n")
        return ManifoldSample((ManifoldPoint("fs", fubini_study_tensor(n), 1.0),))
    if kind == "fermat":
        return fermat_sample(_json_int(spec, "n"), _json_int(spec, "d"),
                             _json_int(spec, "points", 100), _json_int(spec, "seed"))
    if kind == "random":
        n, r = _json_int(spec, "n"), _json_int(spec, "r")
        count = _json_int(spec, "points", 1)
        scale = _json_float(spec, "scale", 1.0)
        seed = _json_int(spec, "seed")
        pts = tuple(
            ManifoldPoint(f"pt{m:05d}", random_tensor(n, r, scale, seed, m),
                          1.0 / count)
            for m in range(count))
        return ManifoldSample(pts)
    if kind == "explicit":
        entries, pts = _json_field(spec, "points"), []
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("model field 'points' must be a list of objects")
        for entry in entries:
            tensor = tensor_from_json(_json_field(entry, "tensor"))
            rows = entry.get("twist")
            twist = None
            if rows is not None:
                if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                    raise ValueError("model field 'twist' must be a list of rows "
                                     "of [re, im] pairs")
                twist = HermitianForm(np.array(
                    [[_json_complex(pair) for pair in row] for row in rows]))
            pts.append(ManifoldPoint(str(_json_field(entry, "id")), tensor,
                                     _json_float(entry, "weight"), twist))
        return ManifoldSample(tuple(pts))
    raise ValueError(f"unknown model type {kind!r}")
