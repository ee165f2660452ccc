"""Concrete curvature models: projective space, Fermat hypersurfaces, random tensors.

Sign ledger.  The coefficient arrays are stored so that the fiber trace
eta is the curvature of the dual determinant bundle; the geometric pairing
(see :func:`jetmorse.curvature.curvature_pairing`) is minus the raw
coefficient sum.  For the tangent bundle of a hypersurface of projective
space the pairing is

    |zeta|^2 |u|^2 + |<zeta, u>|^2 - |beta(zeta) . u|^2,

so the stored coefficients are c = -(delta_ij delta_ab + delta_ib delta_ja)
plus the positive beta-square term, and the trace identity reads

    eta = Tr(beta beta*) - (n+1) . identity.

Fermat sampling.  Points of {sum z_j^d = 0} are generated by solving for
one coordinate over a uniformly drawn base direction; the solved coordinate
index is itself uniform, and each point carries an importance weight
1 / sum_j det(Gram of the j-th coordinate projection), which removes the
branched-covering bias of any single solve coordinate while keeping the
weights bounded (every branch locus {z_j = 0} is covered by the other
coordinates' schemes).  The draws run point by point in stream order; the
geometry then runs once on the stacked unit points: one complete QR of the
(P, n+2, 2) spans gives the horizontal tangent frames, one batched
determinant per dropped coordinate gives the projection Gram determinants,
and one einsum each gives the second fundamental forms and the coefficients
FS(n) + b b*.  The one-point functions are single-row calls of that pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .curvature import CurvatureTensor, eta, sup_norm, tensor_from_json, trace_free
from .hermitian import HermitianForm, operator_norm
from .jet_combinatorics import inverse_square_sum
from .morse_mc import ManifoldPoint, ManifoldSample
from .rng import stream

__all__ = [
    "SecondFundamentalForm",
    "CompleteIntersectionSpec",
    "fubini_study_tensor",
    "hypersurface_tensor",
    "fermat_second_fundamental_form",
    "fermat_tangent_tensor",
    "fermat_sample",
    "random_tensor",
    "ci_threshold",
    "j_bound",
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

    @property
    def s(self) -> int:
        return self.beta.shape[0]

    def apply(self, zeta: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.einsum("sia,i,a->s", self.beta, zeta, u)


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

    @property
    def degree_sum(self) -> int:
        return sum(self.degrees)


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
    all points at once.
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
    root = (-np.sum(rest**d, axis=1)) ** (1.0 / d) * np.exp(2j * np.pi * branches / d)
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


def _fermat_geometry(z: np.ndarray, d: int) -> tuple:
    """Horizontal tangent frames (P, n+2, n) and second fundamental forms (P, n, n).

    The columns of frames[p] are orthonormal and span {w : <w, z_p> = 0,
    sum_j w_j dP/dz_j = 0}; b[p] is the holomorphic Hessian of the defining
    polynomial on that frame, divided by the gradient norm.
    """
    grad = d * z ** (d - 1)
    gn = np.linalg.norm(grad, axis=1)
    if (gn < 1e-12).any():
        raise ValueError("singular point: gradient vanishes on the cone")
    span = np.stack([z, grad.conj() / gn[:, None]], axis=2)
    frames = np.linalg.qr(span, mode="complete").Q[:, :, 2:]
    if d == 1:
        n = z.shape[1] - 2
        return frames, np.zeros((len(z), n, n), dtype=complex)
    hess = d * (d - 1) * z ** (d - 2)
    b = np.einsum("pj,pji,pja->pia", hess, frames, frames) / gn[:, None, None]
    return frames, b


def _projection_gram_dets(z: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """(P, n+2) dets of the pulled-back Fubini-Study Gram of each coordinate projection.

    Column j is the projection dropping coordinate j; it reads 0 where the
    kept coordinates nearly vanish.
    """
    dim = z.shape[1]
    dets = np.empty(z.shape)
    for drop in range(dim):
        keep = np.arange(dim) != drop
        zeta = z[:, keep]
        a = frames[:, keep, :]
        ah = a.conj().transpose(0, 2, 1)
        nz2 = np.einsum("pk,pk->p", zeta.conj(), zeta).real
        proj = ah @ zeta[:, :, None]
        gram = (ah @ a) * nz2[:, None, None] - proj @ proj.conj().transpose(0, 2, 1)
        live = nz2 >= 1e-14
        scale = np.where(live, nz2, 1.0) ** 2
        det = np.linalg.det(gram / scale[:, None, None]).real
        dets[:, drop] = np.where(live, np.fmax(det, 0.0), 0.0)
    return dets


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
    _, b = _fermat_geometry(_unit_fermat_points(z[None, :], d), d)
    return SecondFundamentalForm(b)


def fermat_tangent_tensor(n: int, d: int, point: Sequence[complex]) -> CurvatureTensor:
    return hypersurface_tensor(fermat_second_fundamental_form(n, d, point), n)


def fermat_sample(n: int, d: int, count: int, seed: int) -> ManifoldSample:
    """Weighted quadrature of curvature tensors at random hypersurface points."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = stream(seed, "fermat", n, d)
    z = _unit_fermat_points(_fermat_points(n, d, count, rng), d)
    frames, b = _fermat_geometry(z, d)
    raw = []
    for m, dets in enumerate(_projection_gram_dets(z, frames).tolist()):
        mix = math.fsum(dets)
        if not mix > 0:
            raise FloatingPointError(
                f"fermat point {m}: the projection Gram determinants sum to {mix!r}, "
                "so its importance weight is undefined")
        raw.append(1.0 / mix)
    total = math.fsum(raw)
    c = _hypersurface_coefficients(b[:, None])
    pts = tuple(ManifoldPoint(f"pt{m:05d}", CurvatureTensor(c[m]), w / total)
                for m, w in enumerate(raw))
    return ManifoldSample(pts, total_volume=1.0)


def random_tensor(n: int, r: int, scale: float, seed: int) -> CurvatureTensor:
    """Hermitian-symmetrized complex-Gaussian coefficient tensor."""
    if not 0 <= scale < math.inf:
        raise ValueError("scale must be finite and >= 0")
    rng = stream(seed, "random-tensor", n, r)
    a = (rng.standard_normal((n, n, r, r))
         + 1j * rng.standard_normal((n, n, r, r)))
    sym = 0.5 * (a + np.conj(np.transpose(a, (1, 0, 3, 2))))
    return CurvatureTensor(scale * sym)


def ci_threshold(spec: CompleteIntersectionSpec) -> float:
    """Natural log of the jet-order threshold 7.38 n^{n+1/2} ((D+1)/(D-n-s-a-1))^n."""
    n, s, a = spec.n, spec.s, spec.a
    total = spec.degree_sum
    margin = Fraction(total) - (n + s + a + 1)
    if margin <= 0:
        raise ValueError(
            f"degree sum {total} must exceed n+s+a+1 = {n + s + float(a) + 1}")
    ratio = Fraction(total + 1) / margin
    return 7.38 * n ** (n + 0.5) * float(ratio) ** n


def j_bound(M: ManifoldSample, k: int, restarts: int = 8, seed: int = 0) -> float:
    """Quadrature bound n r^{1/2} (sum_{s<=k} 1/s^2)^{1/2} sum_p w |T~| sum_i r^i |T|^i |eta|^{n-1-i}.

    Norms of the full and trace-free tensors come from the restart
    maximizer; the eta norm is the exact operator norm.  n = 1 gives 0 (the
    inner sum is empty), as does a sample whose trace-free parts all vanish.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n, r = M.n, M.r
    if n == 1:
        return 0.0
    partial = inverse_square_sum(k)
    terms = []
    for p in M.points:
        tf = trace_free(p.tensor)
        if float(np.abs(tf.c).max()) == 0.0:
            continue
        norm_tf = sup_norm(tf, restarts, seed)
        norm_t = sup_norm(p.tensor, restarts, seed)
        norm_eta = operator_norm(eta(p.tensor))
        inner = math.fsum(r**i * norm_t**i * norm_eta ** (n - 1 - i)
                          for i in range(1, n))
        terms.append(p.weight * norm_tf * inner)
    return n * math.sqrt(r) * math.sqrt(partial) * math.fsum(terms)


def build_sample(spec: dict) -> ManifoldSample:
    """Construct a ManifoldSample from a model description dictionary.

    Types: "fubini_study" (n), "fermat" (n, d, points, seed),
    "random" (n, r, scale, points, seed), "explicit" (points list embedding
    serialized tensors and optional twist matrices).
    """
    kind = spec.get("type")
    if kind == "fubini_study":
        n = int(spec["n"])
        return ManifoldSample((ManifoldPoint("fs", fubini_study_tensor(n), 1.0),))
    if kind == "fermat":
        return fermat_sample(int(spec["n"]), int(spec["d"]),
                             int(spec.get("points", 100)), int(spec["seed"]))
    if kind == "random":
        n, r = int(spec["n"]), int(spec["r"])
        count = int(spec.get("points", 1))
        scale = float(spec.get("scale", 1.0))
        seed = int(spec["seed"])
        pts = tuple(
            ManifoldPoint(f"pt{m:05d}", random_tensor(n, r, scale, seed + m),
                          1.0 / count)
            for m in range(count))
        return ManifoldSample(pts)
    if kind == "explicit":
        pts = []
        for entry in spec["points"]:
            tensor = tensor_from_json(entry["tensor"])
            twist = None
            if entry.get("twist") is not None:
                twist = HermitianForm(np.array(
                    [[complex(re, im) for re, im in row]
                     for row in entry["twist"]]))
            pts.append(ManifoldPoint(str(entry["id"]), tensor,
                                     float(entry["weight"]), twist))
        weights = math.fsum(p.weight for p in pts)
        return ManifoldSample(tuple(pts), total_volume=weights)
    raise ValueError(f"unknown model type {kind!r}")
