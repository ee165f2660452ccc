"""Curvature tensor data model and its probabilistic (1,1)-forms.

A :class:`CurvatureTensor` stores coefficients c[i,j,a,b] (base indices i,j
up to n, fiber indices a,b up to r) with the hermitian symmetry
c[i,j,a,b] = conj(c[j,i,b,a]).  The sign convention is fixed so that
eta[i,j] = sum_a c[i,j,a,a] is the curvature form of the dual determinant
bundle; the geometric pairing <Theta(zeta,zeta)u,u> is then the *negative*
of the assembled scalar sum c zeta conj(zeta) u conj(u).

From the tensor we build:

* the n x n trace form eta and the trace-free tensor,
* the fiber form Q(zeta) (r x r) and the sampled curvature form
  sum_s (x_s/s) Q-contraction with u_s (n x n) of a draw (x, u), batched
  over draws by :func:`g_k_batch`,
* its exact expectation H_k/(k r) eta,
* the variance of the trace-free tensor over product spheres and a
  restart-based estimate of the sup norm over unit (zeta, u).

Sampled forms live in the real hermitian coordinates that ``hermitian`` owns.
This module owns the tensor map (:func:`_tensor_map`, a real (r*r, n*n)
matrix): :func:`g_k_batch` and the ``morse_mc`` kernel both take fiber
matrices to forms through :func:`_apply_tensor`.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .hermitian import (HermitianForm, _herm_basis, _herm_coords, _herm_matrices,
                        _symmetrized, _triu_pairs)
from .jet_combinatorics import harmonic
from .measures import mean_std_error, sample_sphere_batch
from .rng import stream

__all__ = [
    "CurvatureTensor",
    "eta",
    "trace_free",
    "q_form",
    "curvature_pairing",
    "g_k_batch",
    "expected_g_k",
    "sigma_variance",
    "sup_norm",
    "tensor_to_json",
    "tensor_from_json",
]

@dataclass(frozen=True)
class CurvatureTensor:
    """Coefficients c[i,j,a,b] of a curvature tensor in orthonormal frames."""

    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.ndim != 4 or c.shape[0] != c.shape[1] or c.shape[2] != c.shape[3]:
            raise ValueError("coefficients must have shape (n, n, r, r)")
        object.__setattr__(self, "c", _symmetrized(
            c, (1, 0, 3, 2), "coefficients", "coefficients violate hermitian symmetry"))

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def r(self) -> int:
        return self.c.shape[2]


def eta(t: CurvatureTensor) -> HermitianForm:
    """Trace over the fiber indices: eta[i,j] = sum_a c[i,j,a,a]."""
    return HermitianForm(np.einsum("ijaa->ij", t.c))


def trace_free(t: CurvatureTensor) -> CurvatureTensor:
    """Remove the fiber-trace part: c - (1/r) eta[i,j] delta_{ab}."""
    e = eta(t).entries
    correction = np.einsum("ij,ab->ijab", e / t.r, np.eye(t.r, dtype=complex))
    return CurvatureTensor(t.c - correction)


def q_form(t: CurvatureTensor, zeta: np.ndarray) -> HermitianForm:
    """Fiber form Q[a,b] = sum_{ij} c[i,j,a,b] zeta_i conj(zeta_j) for unit zeta."""
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != (t.n,):
        raise ValueError("zeta must be an n-vector")
    if abs(np.linalg.norm(zeta) - 1.0) > 1e-9:
        raise ValueError("zeta must be a unit vector")
    return HermitianForm(np.einsum("ijab,i,j->ab", t.c, zeta, zeta.conj()))


def curvature_pairing(t: CurvatureTensor, zeta: np.ndarray, u: np.ndarray) -> float:
    """Geometric pairing <Theta(zeta,zeta)u,u> = -sum c zeta conj(zeta) u conj(u)."""
    zeta = np.asarray(zeta, dtype=complex)
    u = np.asarray(u, dtype=complex)
    s = np.einsum("ijab,i,j,a,b->", t.c, zeta, zeta.conj(), u, u.conj())
    return -float(np.real(s))


def _outer_coords(u: np.ndarray) -> np.ndarray:
    """Coordinates (r*r, ...) of the hermitian outer products u u* of (..., r) vectors.

    The coordinate axis comes first, so that each coordinate is one
    contiguous plane.  The diagonal planes are filled in place; each pair
    above the diagonal takes one complex product u_a conj(u_b).
    """
    r = u.shape[-1]
    planes = np.moveaxis(u, -1, 0)
    out = np.empty((r * r,) + u.shape[:-1])
    for a in range(r):
        np.multiply(planes[a].real, planes[a].real, out=out[a])
        out[a] += planes[a].imag ** 2
    iu, ju = _triu_pairs(r)
    for i, (a, b) in enumerate(zip(iu, ju), start=r):
        z = planes[a] * planes[b].conj()
        out[i] = z.real
        out[i + iu.size] = z.imag
    return out


def _tensor_map(t: CurvatureTensor) -> np.ndarray:
    """(r*r, n*n) real matrix of H -> sum_ab c[i,j,a,b] H[a,b] in coordinates."""
    n, r = t.n, t.r
    images = _herm_basis(r) @ t.c.reshape(n * n, r * r).T
    return _herm_coords(images.reshape(r * r, n, n))


# Largest matrix product, in multiply-adds, handed to BLAS in one call.
# OpenBLAS runs products above 2^18 multiply-adds on its own threads, which
# then compete with the point pool for the same cores.
_BLAS_BLOCK = 1 << 18


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in blocks small enough for BLAS to keep each on the calling thread."""
    rows, inner, cols = a.shape[0], a.shape[1], b.shape[1]
    if rows * inner * cols <= _BLAS_BLOCK:
        return a @ b
    out = np.empty((rows, cols))
    if rows >= cols:
        step = max(1, _BLAS_BLOCK // (inner * cols))
        for lo in range(0, rows, step):
            np.matmul(a[lo:lo + step], b, out=out[lo:lo + step])
    else:
        step = max(1, _BLAS_BLOCK // (inner * rows))
        for lo in range(0, cols, step):
            np.matmul(a, b[:, lo:lo + step], out=out[:, lo:lo + step])
    return out


def _apply_tensor(t: CurvatureTensor, fiber: np.ndarray) -> np.ndarray:
    """Forms (n*n, m) in coordinates of m fiber matrices (r*r, m) in coordinates."""
    return _matmul(_tensor_map(t).T, fiber)


def g_k_batch(t: CurvatureTensor, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sampled curvature forms of m draws (x, u); returns (m, n, n).

    x has shape (m, k) and u shape (m, k, r); entries are
    sum_s (x_s/s) sum_{ab} c[i,j,a,b] u_s[a] conj(u_s[b]).
    """
    weights = x / np.arange(1, x.shape[1] + 1)
    fiber = np.einsum("xms,ms->xm", _outer_coords(u), weights)
    return _herm_matrices(_apply_tensor(t, fiber).T, t.n)


def expected_g_k(t: CurvatureTensor, k: int) -> HermitianForm:
    """Exact expectation of the sampled curvature form: (H_k / (k r)) eta."""
    if k < 1:
        raise ValueError("k must be >= 1")
    factor = float(harmonic(k)) / (k * t.r)
    return HermitianForm(factor * eta(t).entries)


# sigma_variance warns when |eta| > _ETA_TOL max(1, |c|); a sup_norm restart
# stops when the value moves by <= _SUP_TOL max(1, value) or after _SUP_MAX_ITER.
_ETA_TOL, _SUP_TOL, _SUP_MAX_ITER = 1e-8, 1e-10, 200


def sigma_variance(t: CurvatureTensor, n_zeta: int, seed: int) -> tuple[float, float]:
    """Estimate of the squared deviation of a trace-free tensor over unit (zeta, u).

    The inner u-average is closed form (sum of squared eigenvalues of the
    trace-free fiber form over r(r+1)); only the zeta-average is Monte-Carlo.
    Returns (estimate, std_error).  Warns when the tensor is not trace free.
    """
    if n_zeta < 2:
        raise ValueError("n_zeta must be >= 2")
    e = eta(t)
    if float(np.abs(e.entries).max()) > _ETA_TOL * max(1.0, float(np.abs(t.c).max())):
        warnings.warn("sigma_variance expects a trace-free tensor; "
                      "pass trace_free(T)", stacklevel=2)
    rng = stream(seed, "sigma", t.n, t.r)
    zetas = sample_sphere_batch(t.n, (n_zeta,), rng)
    r = t.r
    forms = np.einsum("ijab,mi,mj->mab", t.c, zetas, zetas.conj(), optimize=True)
    lam = np.linalg.eigvalsh(forms)
    return mean_std_error(np.sum(lam**2, axis=1) / (r * (r + 1)))


def sup_norm(t: CurvatureTensor, restarts: int, seed: int) -> float:
    """Lower-bound estimate of sup over unit (zeta, u) of |sum c zeta conj(zeta) u conj(u)|.

    Alternating maximization: for fixed u the optimum over zeta is the
    top-|eigenvalue| eigenvector of the base form, for fixed zeta the
    optimum over u is the top eigenvector of the fiber form; iterate until
    stagnation, keep the best over random restarts.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = stream(seed, "supnorm", t.n, t.r)
    best = 0.0
    for _ in range(restarts):
        zeta = sample_sphere_batch(t.n, (), rng)
        u = sample_sphere_batch(t.r, (), rng)
        value = 0.0
        for _ in range(_SUP_MAX_ITER):
            # top eigenvector of the quadratic form in our index convention
            # is the conjugate of the matrix eigenvector
            base = np.einsum("ijab,a,b->ij", t.c, u, u.conj())
            lam, vecs = np.linalg.eigh(base)
            zeta = np.conj(vecs[:, np.argmax(np.abs(lam))])
            fiber = np.einsum("ijab,i,j->ab", t.c, zeta, zeta.conj())
            lam, vecs = np.linalg.eigh(fiber)
            u = np.conj(vecs[:, np.argmax(np.abs(lam))])
            new_value = abs(curvature_pairing(t, zeta, u))
            if abs(new_value - value) <= _SUP_TOL * max(1.0, new_value):
                value = new_value
                break
            value = new_value
        best = max(best, value)
    return best


def tensor_to_json(t: CurvatureTensor) -> str:
    """Serialize as {"n":..., "r":..., "c": flat row-major [re, im] pairs}."""
    flat = t.c.reshape(-1)
    pairs = [[float(v.real), float(v.imag)] for v in flat]
    return json.dumps({"n": t.n, "r": t.r, "c": pairs})


def tensor_from_json(text: str) -> CurvatureTensor:
    """Inverse of :func:`tensor_to_json`; validates symmetry on load."""
    data = json.loads(text) if isinstance(text, str) else text
    n, r = int(data["n"]), int(data["r"])
    pairs = data["c"]
    if len(pairs) != n * n * r * r:
        raise ValueError("coefficient array has wrong length")
    flat = np.array([complex(re, im) for re, im in pairs])
    return CurvatureTensor(flat.reshape(n, n, r, r))
