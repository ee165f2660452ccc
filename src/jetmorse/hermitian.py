"""Hermitian-form calculus: eigenvalues, signatures, signed index determinants.

A :class:`HermitianForm` stores the coefficient matrix A of a sesquilinear
form  Q(v) = sum_{a,b} A[a,b] v_a conj(v_b).  With the hermitian symmetry
A[a,b] = conj(A[b,a]) this is the standard hermitian matrix convention, so
eigenvalues, determinants and signatures can be read off the matrix
directly.  The q-index indicator is 1 when the form has exactly q negative
and dim-q positive eigenvalues (no nullity at the working tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HermitianForm",
    "eigenvalues",
    "signature",
    "signed_index_det",
    "det_diff_bound_holds",
    "sphere_second_moment",
    "trace_free_part",
    "operator_norm",
    "default_tolerance",
]

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class HermitianForm:
    """An n x n hermitian coefficient matrix."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("entries must be a square matrix")
        if not np.isfinite(a).all():
            raise ValueError("entries must be finite")
        scale = max(1.0, float(np.abs(a).max()))
        if float(np.abs(a - a.conj().T).max()) > _SYM_TOL * scale:
            raise ValueError("matrix is not hermitian within tolerance")
        # exact symmetrization so downstream eigensolves see a clean input
        a = 0.5 * (a + a.conj().T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def identity(n: int) -> "HermitianForm":
        return HermitianForm(np.eye(n, dtype=complex))

    @staticmethod
    def diagonal(values) -> "HermitianForm":
        return HermitianForm(np.diag(np.asarray(values, dtype=complex)))

    def quadratic(self, v: np.ndarray) -> float:
        """Q(v) = sum A[a,b] v_a conj(v_b); real for hermitian A."""
        v = np.asarray(v, dtype=complex)
        return float(np.real(np.einsum("ab,a,b->", self.entries, v, v.conj())))

    def __add__(self, other: "HermitianForm") -> "HermitianForm":
        return HermitianForm(self.entries + other.entries)

    def __sub__(self, other: "HermitianForm") -> "HermitianForm":
        return HermitianForm(self.entries - other.entries)

    def __mul__(self, scalar: float) -> "HermitianForm":
        return HermitianForm(self.entries * float(scalar))

    __rmul__ = __mul__


def eigenvalues(a: HermitianForm) -> np.ndarray:
    """Ascending real eigenvalues of the form."""
    return np.linalg.eigvalsh(a.entries)


def default_tolerance(a: HermitianForm) -> float:
    """Default nullity band: 1e-9 * max(1, operator norm)."""
    return 1e-9 * max(1.0, operator_norm(a))


def signature(a: HermitianForm, tol: float) -> tuple[int, int, int]:
    """(plus, minus, zero) eigenvalue counts at tolerance band [-tol, tol]."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    lam = eigenvalues(a)
    plus = int(np.sum(lam > tol))
    minus = int(np.sum(lam < -tol))
    return plus, minus, a.dim - plus - minus


def signed_index_det(a: HermitianForm, q: int, tol: float) -> float:
    """det(A) if the signature is exactly (dim-q, q) with no nullity, else 0."""
    if not 0 <= q <= a.dim:
        raise ValueError("q must lie in [0, dim]")
    lam = eigenvalues(a)
    plus = int(np.sum(lam > tol))
    minus = int(np.sum(lam < -tol))
    if minus == q and plus == a.dim - q:
        return float(np.prod(lam))
    return 0.0


def operator_norm(a: HermitianForm) -> float:
    """Hermitian operator norm max |lambda_i|."""
    return float(np.abs(eigenvalues(a)).max())


def det_diff_bound_holds(a: HermitianForm, b: HermitianForm, q: int,
                         slack: float = 1e-9) -> bool:
    """Check |1_{A,q} det A - 1_{B,q} det B| <= ||A-B|| sum ||A||^i ||B||^{n-1-i}.

    The inequality is a theorem for exact signatures (zero tolerance); we
    evaluate the indicators at tol=0 and allow a small floating slack.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    n = a.dim
    lhs = abs(signed_index_det(a, q, 0.0) - signed_index_det(b, q, 0.0))
    na, nb = operator_norm(a), operator_norm(b)
    diff = operator_norm(a - b)
    rhs = diff * sum(na**i * nb ** (n - 1 - i) for i in range(n))
    return lhs <= rhs + slack * max(1.0, rhs)


def sphere_second_moment(a: HermitianForm) -> float:
    """Closed form of the sphere average of |Q(v)|^2 over unit v.

    Equals (sum lambda_i^2 + (sum lambda_i)^2) / (n (n+1)).
    """
    lam = eigenvalues(a)
    n = a.dim
    return float((np.sum(lam**2) + np.sum(lam) ** 2) / (n * (n + 1)))


def trace_free_part(a: HermitianForm) -> HermitianForm:
    """A minus (tr A / dim) times the identity."""
    t = np.trace(a.entries) / a.dim
    return HermitianForm(a.entries - t * np.eye(a.dim))
