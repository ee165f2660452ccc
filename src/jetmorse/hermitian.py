"""Hermitian-form calculus: eigenvalues, index determinants, norms.

A :class:`HermitianForm` stores the coefficient matrix A of a sesquilinear
form  Q(v) = sum_{a,b} A[a,b] v_a conj(v_b).  With the hermitian symmetry
A[a,b] = conj(A[b,a]) this is the standard hermitian matrix convention, so
eigenvalues, determinants and signatures can be read off the matrix
directly.  The q-index indicator is 1 when the form has exactly q negative
and dim-q positive eigenvalues (no nullity at the working tolerance).

One validator, shared with ``curvature.CurvatureTensor``, admits finite input
hermitian to ``_SYM_TOL`` and stores the exact mean 0.5 a + 0.5 a*.

It also owns the real coordinates of hermitian matrices (:func:`_herm_coords`,
inverse :func:`_herm_matrices`) that ``curvature`` and ``morse_mc`` share, and
the index and determinant of stacked spectra (:func:`_index_dets`).

Each form eigensolves once and keeps its read-only spectrum
(:attr:`HermitianForm.spectrum`); from it, once per form, it caches the
lemma's inertia as Python scalars: the index at tolerance 0 and the
determinant through :func:`_index_dets`, and the norm max |lambda_i| read off
the two ends of the ascending spectrum.
:func:`det_diff_bound_holds` compares with the fixed floating slack
``_DET_DIFF_SLACK`` and eigensolves A - B directly, without building a form
for it, and only when the lemma's left side is nonzero: with ``lhs == 0``
the bound holds for every right side, so the check returns True after the
dimension, q and finiteness checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "HermitianForm",
    "eigenvalues",
    "det_diff_bound_holds",
    "sphere_second_moment",
    "operator_norm",
]

_SYM_TOL = 1e-12
_DET_DIFF_SLACK = 1e-9


@dataclass(frozen=True)
class HermitianForm:
    """An n x n hermitian coefficient matrix."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("entries must be a square matrix")
        object.__setattr__(self, "entries", _symmetrized(
            a, (1, 0), "entries", "matrix is not hermitian within tolerance"))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending real eigenvalues, computed once per form (read-only)."""
        lam = np.linalg.eigvalsh(self.entries)
        lam.setflags(write=False)
        return lam

    @cached_property
    def _inertia(self) -> tuple:
        # (index at tol 0, det, norm) as Python scalars, for the lemma's checks;
        # an overflowing determinant reads inf
        with np.errstate(over="ignore", invalid="ignore"):
            index, det = _index_dets(self.spectrum, 0.0)
        return int(index), float(det), _norm(self.spectrum.tolist())

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _symmetrized(a: np.ndarray, axes: tuple, what: str, asymmetric: str) -> np.ndarray:
    """Read-only 0.5 a + 0.5 a* of a finite ``a`` within ``_SYM_TOL`` of a*, the
    conjugate of ``a`` with its axes permuted; as two halves, it cannot overflow."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    h = a.conj().transpose(axes)
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - h).max()) > _SYM_TOL * scale:
        raise ValueError(asymmetric)
    a = 0.5 * a + 0.5 * h
    a.setflags(write=False)
    return a


@lru_cache(maxsize=16)
def _triu_pairs(d: int) -> tuple:
    """Row and column indices of the strict upper triangle of a d x d matrix."""
    pairs = np.triu_indices(d, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _herm_coords(a: np.ndarray) -> np.ndarray:
    """Real coordinates (..., d*d) of hermitian matrices (..., d, d).

    The diagonal comes first, then the real and then the imaginary parts of
    the strict upper triangle in row-major order.
    """
    iu, ju = _triu_pairs(a.shape[-1])
    off = a[..., iu, ju]
    return np.concatenate([np.diagonal(a, axis1=-2, axis2=-1).real,
                           off.real, off.imag], axis=-1)


def _herm_matrices(f: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`_herm_coords`: (..., d*d) coordinates to (..., d, d)."""
    iu, ju = _triu_pairs(d)
    p = iu.size
    a = np.zeros(f.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    a[..., diag, diag] = f[..., :d]
    off = f[..., d:d + p] + 1j * f[..., d + p:]
    a[..., iu, ju] = off
    a[..., ju, iu] = off.conj()
    return a


@lru_cache(maxsize=16)
def _herm_basis(d: int) -> np.ndarray:
    """(d*d, d*d) complex: row x is the flattened matrix with coordinates e_x."""
    basis = _herm_matrices(np.eye(d * d), d).reshape(d * d, d * d)
    basis.setflags(write=False)
    return basis


def eigenvalues(a: HermitianForm) -> np.ndarray:
    """Ascending real eigenvalues of the form (its cached, read-only spectrum)."""
    return a.spectrum


def _check_tol(tol: float) -> None:
    """Reject a band half-width that is negative, NaN or infinite."""
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be >= 0 and finite")


def _index_dets(lam: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(index, det) of stacked spectra (..., n): the count of eigenvalues below
    -tol, or -1 where one lies in [-tol, tol], and their product."""
    minus = (lam < -tol).sum(axis=-1)
    index = np.where(minus + (lam > tol).sum(axis=-1) == lam.shape[-1], minus, -1)
    return index, lam.prod(axis=-1)


def _norm(lam) -> float:
    # max |lambda_i| of an ascending spectrum; abs also clears the sign of a zero
    return max(abs(lam[0]), abs(lam[-1]))


def operator_norm(a: HermitianForm) -> float:
    """Hermitian operator norm max |lambda_i|."""
    return a._inertia[2]


def det_diff_bound_holds(a: HermitianForm, b: HermitianForm, q: int) -> bool:
    """Check |1_{A,q} det A - 1_{B,q} det B| <= ||A-B|| sum ||A||^i ||B||^{n-1-i}.

    The inequality is a theorem for exact signatures (zero tolerance); we
    evaluate the indicators at tol=0 and allow the slack ``_DET_DIFF_SLACK``.
    """
    n = a.dim
    if n != b.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= q <= n:
        raise ValueError("q must lie in [0, dim]")
    index_a, det_a, na = a._inertia
    index_b, det_b, nb = b._inertia
    lhs = abs((det_a if index_a == q else 0.0) - (det_b if index_b == q else 0.0))
    # finite - finite can still overflow to inf
    d = a.entries - b.entries
    if not np.isfinite(d).all():
        raise ValueError("entries must be finite")
    if lhs == 0:
        return True  # 0 <= rhs + slack max(1, rhs) for every rhs >= 0
    # A - B is hermitian by construction and is eigensolved once, without a form
    diff = _norm(np.linalg.eigvalsh(d).tolist())
    try:
        rhs = diff * sum(na**i * nb ** (n - 1 - i) for i in range(n))
    except OverflowError:  # float ** int raises past the float range, * gives inf
        rhs = math.inf
    return lhs <= rhs + _DET_DIFF_SLACK * max(1.0, rhs)


def sphere_second_moment(a: HermitianForm) -> float:
    """Closed form of the sphere average of |Q(v)|^2 over unit v.

    Equals (sum lambda_i^2 + (sum lambda_i)^2) / (n (n+1)).
    """
    lam = eigenvalues(a)
    n = a.dim
    return float((np.sum(lam**2) + np.sum(lam) ** 2) / (n * (n + 1)))
