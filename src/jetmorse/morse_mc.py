"""Monte-Carlo q-index integrals over a sampled manifold.

A :class:`ManifoldSample` is a fixed quadrature: points with weights, each
carrying a curvature tensor and an optional twist form.  For each point the
inner expectation over (simplex, product-of-spheres) draws of

    1_{index q}(form) * det(form),   form = sampled curvature form  (or its
    twisted renormalization (k r / H_k) form + Theta_F when a twist is present)

is estimated by vectorized Monte Carlo, weighted-summed over points, and
compared against the quadrature version of the limiting index integral of
eta.  The comparison is normalized through the exact rational I(k, r, n)
so that normalized_deviation should decay like 1/log k.

Kernel: each chunk of draws is processed once for every k of a study.
Hermitian matrices are handled in real coordinates (diagonal, then real
and imaginary parts of the upper triangle).  The draws are standard complex
Gaussian vectors v_s in C^r.  By the polar identity, g_s = |v_s|^2 is a
Gamma(r) variable independent of u_s = v_s / |v_s|, which is uniform on the
unit sphere, and g_s u_s u_s* = v_s v_s*.  With x_s = g_s / G_k and
G_k = sum_{s<=k} g_s, the fiber matrix of the sampled form is therefore
(1/G_k) sum_{s<=k} v_s v_s* / s: one product of the outer-product
coordinates with a fixed (k_max, 2K) weight matrix gives the weighted sums
and the traces G_k for all k, and a second product with the tensor, mapped
to those coordinates, gives all forms.  No gamma draw, no sphere
normalization and no division by |v_s| is needed.  Products are handed to
BLAS in blocks small enough to stay on the calling thread, so that BLAS
threads do not compete with the point pool.  The index of a form with
n <= 3 is read off its leading principal minors (Sylvester's law of
inertia, Jacobi's sign rule).  A screen with explicit rounding margins
accepts a row only when |det| proves that no eigenvalue lies in the band
[-tol, tol]; every other row, and every row for n >= 4, goes to an
eigensolve, so the band and the degenerate fraction are exactly those of
the eigenvalues.  Per-chunk (count, mean, M2) summaries are merged with
the Chan-Golub-LeVeque update, which keeps the variance free of the
cancellation a sum of squares suffers when the mean dominates.

Determinism: every point gets its own counter-based stream keyed by
(seed, point id); each chunk is one ``standard_normal((m, k_max, 2r))``
draw at the largest k of a study, re-used for smaller k (common random
numbers: for every k the first k of the k_max vectors give an exact
symmetric Dirichlet(r, ..., r) point x and independent uniform sphere
vectors).  Aggregation over points follows the sample's point order, so the
result is bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

# g_k_batch and sample_sphere_batch are not called here: bench/tracing.py
# wraps both by name on this module.
from .curvature import CurvatureTensor, eta, g_k_batch  # noqa: F401
from .hermitian import HermitianForm, signed_index_det
from .jet_combinatorics import harmonic, ikrn_exact
from .measures import sample_sphere_batch  # noqa: F401
from .rng import stream

__all__ = [
    "ManifoldPoint",
    "ManifoldSample",
    "MorseRow",
    "MorseReport",
    "eta_index_integral",
    "reduced_morse_integral",
    "full_morse_constant",
    "convergence_study",
    "twist_delta",
    "default_workers",
]

# fixed inner-MC chunk so that chunked accumulation (and hence the floating
# result) does not depend on the total sample count's factorization
_CHUNK = 16384


def default_workers() -> int:
    """Worker count from ``JETMORSE_THREADS``, or the number of CPUs when unset."""
    env = os.environ.get("JETMORSE_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"JETMORSE_THREADS must be an integer >= 1, got {env!r}")
    return workers


@dataclass(frozen=True)
class ManifoldPoint:
    id: str
    tensor: CurvatureTensor
    weight: float
    twist: Optional[HermitianForm] = None

    def __post_init__(self):
        if not 0 < self.weight < math.inf:
            raise ValueError("point weights must be positive and finite")
        if self.twist is not None and self.twist.dim != self.tensor.n:
            raise ValueError("twist dimension does not match tensor")


@dataclass(frozen=True)
class ManifoldSample:
    """A finite quadrature on the base manifold; weights sum to total_volume."""

    points: tuple
    total_volume: float = 1.0

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("sample needs at least one point")
        n, r = pts[0].tensor.n, pts[0].tensor.r
        for p in pts:
            if (p.tensor.n, p.tensor.r) != (n, r):
                raise ValueError("all tensors must share (n, r)")
        if len({p.id for p in pts}) != len(pts):
            raise ValueError("point ids must be unique")
        if not math.isfinite(self.total_volume):
            raise ValueError("total volume must be finite")
        w = math.fsum(p.weight for p in pts)
        if abs(w - self.total_volume) > 1e-9 * max(1.0, abs(self.total_volume)):
            raise ValueError("weights must sum to the stated total volume")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points[0].tensor.n

    @property
    def r(self) -> int:
        return self.points[0].tensor.r

    @property
    def has_twist(self) -> bool:
        return any(p.twist is not None for p in self.points)


@dataclass(frozen=True)
class MorseRow:
    k: int
    q: int
    reduced_estimate: float
    std_error: float
    eta_integral: float
    normalized_deviation: float
    predicted_decay: float
    degenerate_fraction: float
    log_full_constant: float
    full_constant: Fraction = field(repr=False, default=Fraction(0))


_CSV_HEADER = ("k,q,reduced_estimate,std_error,eta_integral,"
               "normalized_deviation,degenerate_fraction,log_full_constant")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


@dataclass(frozen=True)
class MorseReport:
    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        keys = [(r.k, r.q) for r in rows]
        if len(set(keys)) != len(keys):
            raise ValueError("rows must be keyed uniquely by (k, q)")
        if any(r.std_error < 0 for r in rows):
            raise ValueError("standard errors must be nonnegative")
        object.__setattr__(self, "rows", rows)

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                str(r.k), str(r.q), _fmt(r.reduced_estimate), _fmt(r.std_error),
                _fmt(r.eta_integral), _fmt(r.normalized_deviation),
                _fmt(r.degenerate_fraction), _fmt(r.log_full_constant),
            ]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        rows = []
        for r in self.rows:
            rows.append({
                "k": r.k, "q": r.q,
                "reduced_estimate": r.reduced_estimate,
                "std_error": r.std_error,
                "eta_integral": r.eta_integral,
                "normalized_deviation": r.normalized_deviation,
                "predicted_decay": r.predicted_decay,
                "degenerate_fraction": r.degenerate_fraction,
                "log_full_constant": r.log_full_constant,
                "full_constant": {"num": str(r.full_constant.numerator),
                                  "den": str(r.full_constant.denominator)},
            })
        return {"rows": rows}


def eta_index_integral(M: ManifoldSample, q: int, tol: float) -> float:
    """Quadrature of the limiting index integral: sum_p w_p 1_{eta,q} det(eta + twist)."""
    return _eta_index_integrals(M, [q], tol)[q]


def _eta_index_integrals(M: ManifoldSample, q_list: Sequence[int], tol: float) -> dict:
    """:func:`eta_index_integral` for every q of q_list, from one spectrum per point."""
    if any(not 0 <= q <= M.n for q in q_list):
        raise ValueError("q must lie in [0, n]")
    forms = []
    for p in M.points:
        form = eta(p.tensor)
        if p.twist is not None:
            form = HermitianForm(form.entries + p.twist.entries)
        forms.append(form)
    return {q: math.fsum(p.weight * signed_index_det(form, q, tol)
                         for p, form in zip(M.points, forms))
            for q in q_list}


def full_morse_constant(n: int, k: int, r: int) -> tuple[Fraction, float]:
    """Prefactor (n+kr-1)! / (n! (k!)^r (kr-1)!) as exact rational and natural log."""
    if n < 0 or k < 1 or r < 1:
        raise ValueError("require n >= 0, k >= 1, r >= 1")
    exact = Fraction(math.factorial(n + k * r - 1),
                     math.factorial(n) * math.factorial(k) ** r
                     * math.factorial(k * r - 1))
    log = (math.lgamma(n + k * r) - math.lgamma(n + 1)
           - r * math.lgamma(k + 1) - math.lgamma(k * r))
    return exact, log


def twist_delta(k: int, r: int) -> Fraction:
    """Exact twist amplitude H_k / (k r)."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    return harmonic(k) / (k * r)


# Rounding margin of the inertia screen, relative to the magnitudes involved:
# a generous multiple of the unit roundoff that covers the closed-form minors,
# the computed Frobenius norm and the backward error of an eigensolve of the
# same n <= 3 form.
_SCREEN_EPS = 64 * np.finfo(float).eps


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


@lru_cache(maxsize=64)
def _prefix_weights(k_list: tuple) -> np.ndarray:
    """(k_max, 2K) read-only matrix of the prefix sums over s of a study's k.

    Column j sums s <= k_j with weight 1/s, column K + j sums the same s
    with weight 1.
    """
    s = np.arange(1, k_list[-1] + 1)[:, None]
    inside = (s <= np.array(k_list)).astype(float)
    w = np.concatenate([inside / s, inside], axis=1)
    w.setflags(write=False)
    return w


def _chunk_forms(point: ManifoldPoint, v: np.ndarray,
                 k_list: Sequence[int]) -> np.ndarray:
    """Coordinates of the sampled form at every k of one draw, shape (n*n, len(k_list), m).

    ``v`` (m, k_max, r) holds standard complex Gaussian vectors, with
    k_max = max(k_list).  By the polar identity, g_s = |v_s|^2 is a
    Gamma(r) variable independent of u_s = v_s / |v_s|, which is uniform on
    the unit sphere, and g_s u_s u_s* = v_s v_s*.  With G_k = sum_{s<=k} g_s
    and x_s = g_s / G_k, the fiber matrix of the sampled form is therefore
    (1/G_k) sum_{s<=k} v_s v_s* / s, and G_k is the trace of the same sum
    without the 1/s weights.  One product of the outer-product planes with
    :func:`_prefix_weights` gives both sums for every k, and a second one
    applies the tensor.
    """
    t = point.tensor
    k_list = tuple(k_list)
    n_k, (m, k_max, r) = len(k_list), v.shape
    sums = _matmul(_outer_coords(v).reshape(-1, k_max), _prefix_weights(k_list))
    sums = sums.reshape(r * r, m, 2 * n_k)
    total = sums[:r, :, n_k:].sum(axis=0)
    if point.twist is not None:
        total /= [k * r / float(harmonic(k)) for k in k_list]
    fiber = (sums[:, :, :n_k] / total).transpose(0, 2, 1).reshape(r * r, -1)
    forms = _matmul(_tensor_map(t).T, fiber).reshape(t.n * t.n, n_k, m)
    if point.twist is not None:
        forms += _herm_coords(point.twist.entries)[:, None, None]
    return forms


def _leading_minors(f: np.ndarray, n: int) -> tuple:
    """Leading principal minors D_1..D_n (n <= 3) of forms in coordinates (n*n, m).

    Returns two (n, m) arrays: the minors, and the sums of the absolute
    values of their terms, which bound their rounding errors.
    """
    d = np.empty((n, f.shape[1]))
    s = np.empty_like(d)
    a = f[0]
    d[0] = a
    np.abs(a, out=s[0])
    if n == 1:
        return d, s
    ab = a * f[1]
    # |f_12|^2, and for n = 3 also |f_13|^2 and |f_23|^2
    p = f[n:n + n * (n - 1) // 2] ** 2
    p += f[n + n * (n - 1) // 2:] ** 2
    np.subtract(ab, p[0], out=d[1])
    np.abs(ab, out=s[1])
    s[1] += p[0]
    if n == 2:
        return d, s
    x12, x13, x23, y12, y13, y23 = f[3:]
    # Re(f12 f23 conj(f13))
    cyc = (x12 * x23 - y12 * y23) * x13 + (x12 * y23 + y12 * x23) * y13
    abc = ab * f[2]
    # a |f23|^2, b |f13|^2, c |f12|^2
    dp = f[:3] * p[::-1]
    np.subtract(abc + 2 * cyc, dp.sum(axis=0), out=d[2])
    np.abs(abc, out=s[2])
    s[2] += 2 * np.sqrt(p.prod(axis=0))
    s[2] += np.abs(dp, out=dp).sum(axis=0)
    return d, s


def _index_stats(forms: np.ndarray, q_list: Sequence[int], tol: float):
    """Per-q (mean, M2) of 1_{index q} det over a chunk of forms, and the degenerate count.

    ``forms`` has shape (m, n*n): coordinates of m sampled forms (see
    :func:`_herm_coords`); M2 is the sum of squared deviations from the mean.
    For n <= 3 the inertia comes from the leading principal minors by
    Jacobi's rule.  A row is decided that way only when it provably has no
    eigenvalue in [-tol, tol]: |det| <= |lambda_min| ||A||_F^(n-1), so
    |det| > tol ||A||_F^(n-1) plus rounding margins suffices, and the
    intermediate minors must be clear of zero.  Every other row, and every
    row for n >= 4, goes to an eigensolve, so the tolerance band and the
    degenerate count are those of the eigenvalues.
    """
    m, n = forms.shape[0], math.isqrt(forms.shape[1])
    f = forms.T
    if n <= 3:
        d, s = _leading_minors(f, n)
        sq = f * f
        fro = np.sqrt(sq[:n].sum(axis=0) + 2 * sq[n:].sum(axis=0))
        det = d[-1]
        ok = np.abs(det) > ((tol + _SCREEN_EPS * fro) * fro ** (n - 1)
                            * (1 + _SCREEN_EPS) + _SCREEN_EPS * s[-1])
        ok &= (np.abs(d[:-1]) > _SCREEN_EPS * s[:-1]).all(axis=0)
        # Jacobi: the index is the number of sign changes in 1, D_1, ..., D_n
        neg = d < 0
        minus = neg[0] + (neg[1:] != neg[:-1]).sum(axis=0)
    else:
        det = np.zeros(m)
        minus = np.zeros(m, dtype=np.int64)
        ok = np.zeros(m, dtype=bool)
    rest = np.flatnonzero(~ok)
    if rest.size:
        lam = np.linalg.eigvalsh(_herm_matrices(forms[rest], n))
        neg = np.sum(lam < -tol, axis=1)
        det[rest] = np.prod(lam, axis=1)
        minus[rest] = neg
        ok[rest] = neg + np.sum(lam > tol, axis=1) == n
    minus[~ok] = -1
    vals = np.where(minus == np.array(q_list)[:, None], det, 0.0)
    mean = vals.mean(axis=1)
    vals -= mean[:, None]
    m2 = np.einsum("qi,qi->q", vals, vals)
    return list(zip(mean.tolist(), m2.tolist())), m - int(np.count_nonzero(ok))


def _merge(a: tuple, b: tuple) -> tuple:
    """Chan-Golub-LeVeque merge of two (count, mean, M2) summaries."""
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    d = mb - ma
    return n, ma + d * (nb / n), sa + sb + d * d * (na * nb / n)


def _point_study(point: ManifoldPoint, k_list, q_list, n_samples, seed, tol):
    """Inner MC for one quadrature point, all k and q at once.

    Returns ({(k, q): (mean, se)}, {k: degenerate_fraction}).
    """
    r = point.tensor.r
    k_max = max(k_list)
    rng = stream(seed, "morse", point.id)
    acc = {(k, q): (0, 0.0, 0.0) for k in k_list for q in q_list}
    degen = dict.fromkeys(k_list, 0)
    done = 0
    while done < n_samples:
        m = min(_CHUNK, n_samples - done)
        v = rng.standard_normal((m, k_max, 2 * r)).view(complex)
        forms = _chunk_forms(point, v, k_list)
        for j, k in enumerate(k_list):
            stats, d = _index_stats(forms[:, j].T, q_list, tol)
            degen[k] += d
            for q, (mean, m2) in zip(q_list, stats):
                acc[(k, q)] = _merge(acc[(k, q)], (m, mean, m2))
        done += m
    out = {key: (mean, math.sqrt(m2 / (n_samples - 1) / n_samples))
           for key, (_, mean, m2) in acc.items()}
    return out, {k: degen[k] / n_samples for k in k_list}


def _run_points(M, k_list, q_list, n_samples, seed, tol, workers):
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    if min(k_list) < 1:
        raise ValueError("k must be >= 1")
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1, len(M.points))
    args = (k_list, q_list, n_samples, seed, tol)
    if workers == 1:
        results = [_point_study(p, *args) for p in M.points]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_point_study, p, *args) for p in M.points]
            results = [f.result() for f in futures]
    est, var, degen = {}, {}, {}
    for k in k_list:
        frac_terms = []
        for p, (stats, dfrac) in zip(M.points, results):
            frac_terms.append(p.weight * dfrac[k])
        degen[k] = math.fsum(frac_terms) / M.total_volume
        for q in q_list:
            est[(k, q)] = math.fsum(
                p.weight * stats[(k, q)][0]
                for p, (stats, _) in zip(M.points, results))
            var[(k, q)] = math.fsum(
                (p.weight * stats[(k, q)][1]) ** 2
                for p, (stats, _) in zip(M.points, results))
    se = {key: math.sqrt(v) for key, v in var.items()}
    return est, se, degen


def reduced_morse_integral(M: ManifoldSample, k: int, q: int, n_samples: int,
                           seed: int, tol: float,
                           workers: Optional[int] = None) -> tuple[float, float]:
    """MC estimate of sum_p w_p E[1_{form,q} det(form)] over the sampled forms.

    Returns (estimate, std_error).  q > n returns (0, 0) exactly: an n x n
    form cannot have index exceeding n.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q > M.n:
        return 0.0, 0.0
    est, se, _ = _run_points(M, [k], [q], n_samples, seed, tol, workers)
    return est[(k, q)], se[(k, q)]


def convergence_study(M: ManifoldSample, k_list: Sequence[int], q,
                      n_samples: int, seed: int, tol: float,
                      workers: Optional[int] = None) -> MorseReport:
    """Reduced estimates for every k in ascending k_list, compared to eta's integral.

    ``q`` may be a single index or a sequence.  For untwisted samples
    normalized_deviation = |estimate * r^n / I(k, r, n) - eta_integral|;
    with a twist the renormalized form already has expectation
    eta + Theta_F, so the deviation is |estimate - eta_integral| instead.
    predicted_decay is C / log k with C matched on the first k.
    """
    k_list = [int(k) for k in k_list]
    if k_list != sorted(k_list) or len(set(k_list)) != len(k_list):
        raise ValueError("k_list must be strictly ascending")
    q_list = [int(q)] if np.isscalar(q) else [int(v) for v in q]
    if any(v < 0 or v > M.n for v in q_list):
        raise ValueError("q must lie in [0, n]")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    n, r = M.n, M.r
    est, se, degen = _run_points(M, k_list, q_list, n_samples, seed, tol, workers)
    eta_int = _eta_index_integrals(M, q_list, tol)
    rows = []
    decay_const = {}
    for k in k_list:
        const, log_const = full_morse_constant(n, k, r)
        if M.has_twist:
            scale = 1.0
        else:
            scale = float(r**n / ikrn_exact(k, r, n))
        for q in q_list:
            dev = abs(est[(k, q)] * scale - eta_int[q])
            if q not in decay_const:
                decay_const[q] = dev * math.log(k) if k > 1 else 0.0
            pred = decay_const[q] / math.log(k) if k > 1 else math.inf
            rows.append(MorseRow(
                k=k, q=q,
                reduced_estimate=est[(k, q)], std_error=se[(k, q)],
                eta_integral=eta_int[q], normalized_deviation=dev,
                predicted_decay=pred, degenerate_fraction=degen[k],
                log_full_constant=log_const, full_constant=const))
    return MorseReport(tuple(rows))
