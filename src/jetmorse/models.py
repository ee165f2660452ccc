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
coordinates' schemes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .curvature import (CurvatureTensor, TwistForm, eta, sup_norm, tensor_from_json,
                        trace_free)
from .hermitian import HermitianForm, operator_norm
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
    base = fubini_study_tensor(n).c
    corr = np.einsum("sia,sjb->ijab", b, b.conj())
    return CurvatureTensor(base + corr)


def _fermat_gradient(z: np.ndarray, d: int) -> np.ndarray:
    return d * z ** (d - 1)


def _horizontal_tangent_frame(z: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal columns spanning {w : <w, z> = 0, sum w_j dP/dz_j = 0}."""
    g = _fermat_gradient(z, d)
    gn = float(np.linalg.norm(g))
    if gn < 1e-12:
        raise ValueError("singular point: gradient vanishes on the cone")
    span = np.stack([z, g.conj() / gn], axis=1)
    q, _ = np.linalg.qr(span, mode="complete")
    return q[:, 2:]


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
    nz = float(np.linalg.norm(z))
    if nz == 0:
        raise ValueError("point must be nonzero")
    z = z / nz
    if abs(np.sum(z**d)) > _POINT_TOL:
        raise ValueError("point does not satisfy the defining equation")
    if d == 1:
        return SecondFundamentalForm(np.zeros((1, n, n), dtype=complex))
    frame = _horizontal_tangent_frame(z, d)
    gn = float(np.linalg.norm(_fermat_gradient(z, d)))
    hess_diag = d * (d - 1) * z ** (d - 2)
    b = np.einsum("j,ji,ja->ia", hess_diag, frame, frame) / gn
    return SecondFundamentalForm(b[None, :, :])


def fermat_tangent_tensor(n: int, d: int, point: Sequence[complex]) -> CurvatureTensor:
    return hypersurface_tensor(fermat_second_fundamental_form(n, d, point), n)


def _projection_gram_det(z: np.ndarray, frame: np.ndarray, drop: int) -> float:
    """det of the pulled-back Fubini-Study Gram of the projection dropping coordinate drop."""
    keep = np.arange(z.size) != drop
    zeta = z[keep]
    a = frame[keep, :]
    nz2 = float(np.vdot(zeta, zeta).real)
    if nz2 < 1e-14:
        return 0.0
    proj = a.conj().T @ zeta
    gram = (a.conj().T @ a) * nz2 - np.outer(proj, proj.conj())
    return max(0.0, float(np.linalg.det(gram / nz2**2).real))


def _fermat_draw(n: int, d: int, rng) -> np.ndarray:
    """One ambient unit point of the hypersurface: solve a random coordinate."""
    dim = n + 2
    drop = int(rng.integers(dim))
    rest = rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1)
    branch = int(rng.integers(d))
    rhs = -np.sum(rest**d)
    root = rhs ** (1.0 / d) * np.exp(2j * np.pi * branch / d)
    z = np.empty(dim, dtype=complex)
    z[np.arange(dim) != drop] = rest
    z[drop] = root
    return z / np.linalg.norm(z)


def fermat_sample(n: int, d: int, count: int, seed: int) -> ManifoldSample:
    """Weighted quadrature of curvature tensors at random hypersurface points."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = stream(seed, "fermat", n, d)
    points = []
    raw = []
    for m in range(count):
        z = _fermat_draw(n, d, rng)
        frame = _horizontal_tangent_frame(z, d)
        mix = math.fsum(_projection_gram_det(z, frame, j) for j in range(n + 2))
        raw.append(1.0 / mix)
        points.append((f"pt{m:05d}", fermat_tangent_tensor(n, d, z)))
    total = math.fsum(raw)
    pts = tuple(ManifoldPoint(id=pid, tensor=t, weight=w / total)
                for (pid, t), w in zip(points, raw))
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
    partial = math.fsum(1.0 / s**2 for s in range(1, k + 1))
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
                twist = TwistForm(HermitianForm(np.array(
                    [[complex(re, im) for re, im in row]
                     for row in entry["twist"]])))
            pts.append(ManifoldPoint(str(entry["id"]), tensor,
                                     float(entry["weight"]), twist))
        weights = math.fsum(p.weight for p in pts)
        return ManifoldSample(tuple(pts), total_volume=weights)
    raise ValueError(f"unknown model type {kind!r}")
