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
  over draws by :func:`g_k_batch`, whose expectation is H_k/(k r) eta.

Sampled forms live in the real hermitian coordinates that ``hermitian`` owns.
This module owns the tensor map (:func:`_tensor_map`, a real (r*r, n*n)
matrix): :func:`g_k_batch` and the ``morse_mc`` kernel both take fiber
matrices to forms through :func:`_apply_tensor`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .hermitian import (HermitianForm, _herm_basis, _herm_coords, _herm_matrices,
                        _symmetrized, _triu_pairs)

__all__ = [
    "CurvatureTensor",
    "eta",
    "trace_free",
    "g_k_batch",
    "tensor_to_json",
    "tensor_from_json",
]

@dataclass(frozen=True)
class CurvatureTensor:
    """Coefficients c[i,j,a,b] of a curvature tensor in orthonormal frames."""

    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.ndim != 4 or c.shape[0] != c.shape[1] or c.shape[2] != c.shape[3] or not c.size:
            raise ValueError(f"coefficient shape {c.shape} is not (n, n, r, r) with n, r >= 1")
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


def tensor_to_json(t: CurvatureTensor) -> str:
    """Serialize as {"n":..., "r":..., "c": flat row-major [re, im] pairs}."""
    flat = t.c.reshape(-1)
    pairs = [[float(v.real), float(v.imag)] for v in flat]
    return json.dumps({"n": t.n, "r": t.r, "c": pairs})


def _json_field(data: dict, key: str):
    """``data[key]``; raises ValueError naming ``key`` when it is absent."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"model field {key!r} is missing") from None


def _json_int(data: dict, key: str, default: int | None = None) -> int:
    """``data[key]`` (or ``default`` when absent) as an int; raises ValueError
    naming ``key`` for a missing, null, bool, non-numeric or non-integral value."""
    value = _json_field(data, key) if default is None else data.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"model field {key!r} must be an integer, got {value!r}")
    return int(value)


def _json_float(data: dict, key: str, default: float | None = None) -> float:
    """``data[key]`` (or ``default`` when absent) as a float; raises ValueError
    naming ``key`` for a missing, null, bool or non-numeric value."""
    value = _json_field(data, key) if default is None else data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"model field {key!r} must be a number, got {value!r}")
    return float(value)


def _json_complex(pair) -> complex:
    """complex(re, im) of a JSON [re, im] pair; raises ValueError otherwise."""
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)):
        raise ValueError(f"expected a [re, im] pair of numbers, got {pair!r}")
    return complex(*pair)


def tensor_from_json(text: str) -> CurvatureTensor:
    """Inverse of :func:`tensor_to_json`; validates symmetry on load."""
    data = json.loads(text) if isinstance(text, str) else text
    if not isinstance(data, dict):
        raise ValueError("model field 'tensor' must be an object")
    n, r = _json_int(data, "n"), _json_int(data, "r")
    pairs = _json_field(data, "c")
    if not isinstance(pairs, list):
        raise ValueError("model field 'c' must be a list of [re, im] pairs")
    if len(pairs) != n * n * r * r:
        raise ValueError("coefficient array has wrong length")
    flat = np.array([_json_complex(pair) for pair in pairs])
    return CurvatureTensor(flat.reshape(n, n, r, r))
