"""Monte-Carlo q-index integrals over a sampled manifold.

A :class:`ManifoldSample` is a fixed quadrature: weighted points carrying a
curvature tensor each, and a twist form on every point or on none.  For
each point the inner expectation over (simplex, product-of-spheres) draws of

    1_{index q}(form) * det(form),   form = sampled curvature form  (or its
    twisted renormalization (k r / H_k) form + Theta_F when a twist is present)

is estimated by vectorized Monte Carlo, weighted-summed over points, and
compared against the quadrature version of the limiting index integral of
eta.  The comparison is normalized through the exact rational I(k, r, n)
so that normalized_deviation should decay like 1/log k.

Kernel: each chunk of draws is processed once for every k of a study.
Hermitian matrices are handled in the real coordinates that ``hermitian``
owns (diagonal, then real and imaginary parts of the upper triangle), and
the tensor is applied through ``curvature``'s tensor map, the same path as
``curvature.g_k_batch``.  The draws are standard complex Gaussian vectors
v_s in C^r.  By the polar identity, g_s = |v_s|^2 is a
Gamma(r) variable independent of u_s = v_s / |v_s|, which is uniform on the
unit sphere, and g_s u_s u_s* = v_s v_s*.  With x_s = g_s / G_k and
G_k = sum_{s<=k} g_s, the fiber matrix of the sampled form is therefore
(1/G_k) sum_{s<=k} v_s v_s* / s: one product of the outer-product
coordinates with a fixed (k_max, 2K) weight matrix gives the weighted sums
and the traces G_k for all k, and a second product with the tensor, mapped
to those coordinates, gives all forms.  No gamma draw, no sphere
normalization and no division by |v_s| is needed.  Each chunk's forms are
filled from sample blocks of _DRAW_BLOCK // k_max samples (at least one),
so a worker holds about 2^15 (2r + r^2) 8 bytes of draws and outer-product
planes (2 MiB at r = 2) for any k_max up to 2^15, next to the chunk's
(n^2, K, 16384) forms; the statistics still see the whole chunk.  Products
are handed to BLAS in blocks small enough to stay on the calling thread, so
that BLAS threads do not compete with the point pool.  The index of a form,
at every n, is the number of negative pivots of its LDL* factorization
without pivoting (Sylvester's law of inertia, Jacobi's rule), taken in one
batched pass over the real coordinates.  A screen accepts the pivots only
when their product, the factorization's backward error (Higham) and Weyl's
inequality prove that no eigenvalue lies in the band [-tol, tol]; every
other row goes to an eigensolve, so the band and the degenerate fraction
are exactly those of the eigenvalues.  A point's (K, Q) means and std
errors come from one ``measures.estimate`` over chunks of _CHUNK samples,
each chunk's (K, Q, m) values filled by one index pass per k, so the
variance is free of the cancellation a sum of squares suffers when the
mean dominates.  Each point is studied in one power-of-two frame: its
forms and the band are scaled by 2^-s, with 2^s just above its largest
coefficient, and its mean and std error are scaled back by 2^ns.  Scaling
by a power of two is exact and 1_{index q} det is homogeneous of degree n,
so the frame changes no result that stays inside the float range, while
the determinants, their squares and the screen's margins stay far from
overflow and underflow at any magnitude of the point.

Determinism: every point gets its own counter-based stream keyed by
(seed, point id); each chunk's draw is made at the largest k of a study,
as ``standard_normal((b, k_max, 2r))`` calls over its sample blocks in
stream order, which give the same normals as one ``(m, k_max, 2r)`` draw,
and is re-used for smaller k (common random numbers: for every k the first
k of the k_max vectors give an exact symmetric Dirichlet(r, ..., r) point x
and independent uniform sphere vectors).  The block size depends only on
k_max, and aggregation over points follows the sample's point order, so the
result is bit-identical for any worker count.

Report: a :class:`MorseRow` is exactly one CSV line; the exact prefactor
C(n+kr-1, n) / (k!)^r of each k (86,087 digits in its denominator at
k = 22,027, n = 3) is kept and written once, in ``MorseReport.full_constants``.
"""

from __future__ import annotations

import decimal
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .curvature import CurvatureTensor, _apply_tensor, _matmul, _outer_coords
from .hermitian import (HermitianForm, _check_tol, _herm_coords, _herm_matrices,
                        _index_dets, _symmetrized)
from .jet_combinatorics import _check_exact_cost, harmonic, ikrn_exact
from .measures import estimate
from .rng import stream

# g_k_batch and sample_sphere_batch are not called here: bench/tracing.py
# wraps both by name on this module.
from .curvature import g_k_batch  # noqa: F401
from .measures import sample_sphere_batch  # noqa: F401

__all__ = [
    "ManifoldPoint",
    "ManifoldSample",
    "MorseRow",
    "MorseReport",
    "eta_index_integral",
    "reduced_morse_integral",
    "full_morse_constant",
    "convergence_study",
]

# fixed inner-MC chunk so that chunked accumulation (and hence the floating
# result) does not depend on the total sample count's factorization
_CHUNK = 16384

# Draw vectors a Monte-Carlo kernel holds at a time: a chunk is drawn in
# blocks of _DRAW_BLOCK // k samples (at least 1), so that a worker's memory
# does not grow with k times the sample count.
_DRAW_BLOCK = 2**15


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (``os.cpu_count`` also counts the host's CPUs outside it)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    """A finite quadrature on the base manifold; its volume is the sum of its weights."""

    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("sample needs at least one point")
        n, r = pts[0].tensor.n, pts[0].tensor.r
        for p in pts:
            if (p.tensor.n, p.tensor.r) != (n, r):
                raise ValueError("all tensors must share (n, r)")
            if (p.twist is None) != (pts[0].twist is None):
                raise ValueError("points must be all twisted or all untwisted")
        if len({p.id for p in pts}) != len(pts):
            raise ValueError("point ids must be unique")
        try:
            math.fsum(p.weight for p in pts)
        except OverflowError:
            raise ValueError("total volume must be finite") from None
        object.__setattr__(self, "points", pts)

    @property
    def total_volume(self) -> float:
        """The correctly rounded sum of the point weights."""
        return math.fsum(p.weight for p in self.points)

    @property
    def n(self) -> int:
        return self.points[0].tensor.n

    @property
    def r(self) -> int:
        return self.points[0].tensor.r

    @property
    def has_twist(self) -> bool:
        return self.points[0].twist is not None


@dataclass(frozen=True)
class MorseRow:
    k: int
    q: int
    reduced_estimate: float
    std_error: float
    eta_integral: float
    normalized_deviation: float
    degenerate_fraction: float
    log_full_constant: float


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# Widest integer, in bits (about 4,900 digits), that _int_text converts in
# one Decimal(v) call, which takes time quadratic in the size.
_TEXT_LEAF_BITS = 1 << 14


def _int_text(v: int) -> str:
    """Decimal digits of v, equal to str(v) but free of Python's
    int-to-str digit limit (4300 digits by default).

    A wider v is split in binary halves, v = hi 2^h + lo, and recombined
    exactly in ``decimal``, whose large products use a number-theoretic
    transform, so the conversion takes about M(N) log N time where
    ``Decimal(v)`` and ``str(v)`` are quadratic (913,147 digits: 0.4 s
    against 15 s on a 2-CPU Xeon).  The widths of a level take at most two
    values, so each power 2^h is built once.
    """
    powers = {}

    def power(w):
        if w not in powers:
            powers[w] = (decimal.Decimal(2) ** w if w <= _TEXT_LEAF_BITS
                         else power(w // 2) * power(w - w // 2))
        return powers[w]

    def split(x, w):
        if w <= _TEXT_LEAF_BITS:
            return decimal.Decimal(x)
        h = w // 2
        hi = x >> h
        return split(hi, w - h) * power(h) + split(x - (hi << h), h)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(split(v, v.bit_length()))


@dataclass(frozen=True)
class MorseReport:
    rows: tuple
    full_constants: dict

    def __post_init__(self):
        rows = tuple(self.rows)
        keys = [(r.k, r.q) for r in rows]
        if len(set(keys)) != len(keys):
            raise ValueError("rows must be keyed uniquely by (k, q)")
        if any(r.std_error < 0 for r in rows):
            raise ValueError("standard errors must be nonnegative")
        if set(self.full_constants) != {r.k for r in rows}:
            raise ValueError("full_constants must hold one constant per k of the rows")
        object.__setattr__(self, "rows", rows)

    def to_csv(self) -> str:
        names = [f.name for f in fields(MorseRow)]
        lines = [",".join(names)]
        for r in self.rows:
            lines.append(",".join([str(r.k), str(r.q)]
                                  + [_fmt(getattr(r, f)) for f in names[2:]]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"rows": [asdict(r) for r in self.rows],
                "full_constants": [
                    {"k": k, "num": _int_text(c.numerator), "den": _int_text(c.denominator)}
                    for k, c in sorted(self.full_constants.items())]}


def eta_index_integral(M: ManifoldSample, q: int, tol: float) -> float:
    """Quadrature of the limiting index integral: sum_p w_p 1_{eta,q} det(eta + twist)."""
    return _eta_index_integrals(M, [q], tol)[q]


def _eta_index_integrals(M: ManifoldSample, q_list: Sequence[int], tol: float) -> dict:
    """:func:`eta_index_integral` for every q of q_list, from one eigensolve of the
    validated (P, n, n) stack eta (+ twist); an overflowing determinant reads inf."""
    if any(not 0 <= q <= M.n for q in q_list):
        raise ValueError("q must lie in [0, n]")
    _check_tol(tol)
    forms = _symmetrized(np.einsum("pijaa->pij", np.stack([p.tensor.c for p in M.points])),
                         (0, 2, 1), "entries", "matrix is not hermitian within tolerance")
    if M.has_twist:
        forms = _symmetrized(forms + np.stack([p.twist.entries for p in M.points]),
                             (0, 2, 1), "entries", "matrix is not hermitian within tolerance")
    with np.errstate(over="ignore", invalid="ignore"):
        index, det = _index_dets(np.linalg.eigvalsh(forms), tol)
    rows = list(zip([p.weight for p in M.points], index.tolist(), det.tolist()))
    return {q: math.fsum(w * d if i == q else 0.0 for w, i, d in rows) for q in q_list}


def full_morse_constant(n: int, k: int, r: int) -> tuple[Fraction, float]:
    """Prefactor (n+kr-1)! / (n! (k!)^r (kr-1)!) = C(n+kr-1, n) / (k!)^r as exact
    rational and natural log."""
    if n < 0 or k < 1 or r < 1:
        raise ValueError("require n >= 0, k >= 1, r >= 1")
    exact = Fraction(math.comb(n + k * r - 1, n), math.factorial(k) ** r)
    log = (math.lgamma(n + k * r) - math.lgamma(n + 1)
           - r * math.lgamma(k + 1) - math.lgamma(k * r))
    return exact, log


# Margin of the inertia screen per unit of (n+2)^2 B (see _index_stats): 2^10
# times a bound on the LDL* backward error, which leaves room for an
# eigensolve's own error and bounds the determinant's relative error.
_SCREEN_EPS = 2**10 * np.finfo(float).eps


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


def _chunk_forms(point: ManifoldPoint, v: np.ndarray, k_list: Sequence[int],
                 s: int) -> np.ndarray:
    """Coordinates of 2^-s times the sampled forms of one draw, shape (n*n, len(k_list), m).

    ``v`` (m, k_max, r) holds standard complex Gaussian vectors, with
    k_max = max(k_list).  By the polar identity, g_s = |v_s|^2 is a
    Gamma(r) variable independent of u_s = v_s / |v_s|, which is uniform on
    the unit sphere, and g_s u_s u_s* = v_s v_s*.  With G_k = sum_{s<=k} g_s
    and x_s = g_s / G_k, the fiber matrix of the sampled form is therefore
    (1/G_k) sum_{s<=k} v_s v_s* / s, and G_k is the trace of the same sum
    without the 1/s weights.  One product of the outer-product planes with
    :func:`_prefix_weights` gives both sums for every k, and a second one
    applies the tensor.  The factor 2^-s enters through G_k and the twist,
    so it is exact.
    """
    t = point.tensor
    k_list = tuple(k_list)
    n_k, (m, k_max, r) = len(k_list), v.shape
    sums = _matmul(_outer_coords(v).reshape(-1, k_max), _prefix_weights(k_list))
    sums = sums.reshape(r * r, m, 2 * n_k)
    total = np.ldexp(sums[:r, :, n_k:].sum(axis=0), s)
    if point.twist is not None:
        total /= [k * r / float(harmonic(k)) for k in k_list]
    fiber = (sums[:, :, :n_k] / total).transpose(0, 2, 1).reshape(r * r, -1)
    forms = _apply_tensor(t, fiber).reshape(t.n * t.n, n_k, m)
    if point.twist is not None:
        forms += np.ldexp(_herm_coords(point.twist.entries), -s)[:, None, None]
    return forms


def _index_stats(forms: np.ndarray, q_list: Sequence[int], tol: float):
    """The (len(q_list), m) values of 1_{index q} det over a chunk of forms,
    and the degenerate count.

    ``forms`` has shape (m, n*n): coordinates of m sampled forms (see
    :func:`_herm_coords`).
    Each row A is factored U* D U (LDL* without pivoting, U unit upper
    triangular, pivots d_j) in these coordinates, and the same pass sums
    B = sum_j |d_j| (1 + sum_{k>j} |U_jk|^2) >= || |U*| |D| |U| ||_F.  With
    beta = _SCREEN_EPS (n+2)^2 B, the pivots decide a row only when

        |d_1 ... d_n| (1 - 2n eps) > (tol + beta) (||A||_F + beta)^(n-1).

    1. Backward error (Higham, Accuracy and Stability of Numerical
       Algorithms, ch. 3 and 9): each update S_ik -= conj(S_ji) S_jk / d_j
       rounds within gamma_3 |S_ji| |S_jk| / |d_j| per real part (gamma_k =
       k u / (1 - k u), u = eps / 2), so the d_j are the exact pivots of
       A + E, |E| <= sqrt(2) gamma_(n+2) |U*| |D| |U|.  beta / 2^10 =
       (n+2)^2 eps B bounds ||E||_2 and the rounding of B and of ||A||_F;
       1 - 2n eps covers that of the product and of the right side.
    2. |det(A + E)| <= |lambda|_min(A + E) (||A||_F + beta)^(n-1), so every
       eigenvalue of A + E has modulus above tol + beta.
    3. Weyl: those of A lie within beta / 2^10 of them, so none is within
       1023 backward errors of [-tol, tol]: room for an eigensolve's own.
    4. Sylvester, Jacobi: none crosses 0 between A and A + E = U* D U, so the
       index is the number of negative pivots.
    5. |det A - d_1 ... d_n| <= n 2^-10 |d_1 ... d_n|, so a large growth B
       (a tiny pivot beside O(1) entries) sends the row to the eigensolve.

    A zero or NaN pivot fails the comparison through inf or NaN.  Rows that
    fail go to an eigensolve, whose eigenvalues set their band and index.
    """
    m, n = forms.shape[0], math.isqrt(forms.shape[1])
    f = forms.T
    p = n * (n - 1) // 2
    # the pivots, then one term |S_jk|^2 / d_j per upper entry: B sums their moduli
    terms = np.empty((n + p, m))
    d = terms[:n]
    d[...] = f[:n]
    xy = f[n:].copy()
    x, y = xy[:p], xy[p:]
    # row i of the upper triangle, row-major, in x, y and terms[n:]
    rows = [slice(i * (2 * n - i - 1) // 2, (i + 1) * (2 * n - i - 2) // 2) for i in range(n)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(n - 1):
            xr, yr = x[rows[j]], y[rows[j]]
            wx, wy = xr / d[j], yr / d[j]
            t = np.multiply(xr, wx, out=terms[n:][rows[j]])
            t += yr * wy
            d[j + 1:] -= t
            # the trailing rows j + i: S_ik -= conj(S_ji) S_jk / d_j
            for i in range(1, n - 1 - j):
                x[rows[j + i]] -= xr[i - 1] * wx[i:] + yr[i - 1] * wy[i:]
                y[rows[j + i]] -= xr[i - 1] * wy[i:] - yr[i - 1] * wx[i:]
        det = d.prod(axis=0)
        minus = (d < 0).sum(axis=0, dtype=np.int8)
        beta = np.abs(terms, out=terms).sum(axis=0)
        beta *= _SCREEN_EPS * (n + 2) ** 2
        sq = f * f
        sq[n:] *= 2
        fro = np.sqrt(sq.sum(axis=0))
        fro += beta
        bound = tol + beta
        for _ in range(n - 1):
            bound *= fro
        ok = np.abs(det) * (1 - 2 * n * np.finfo(float).eps) > bound
    rest = np.flatnonzero(~ok)
    if rest.size:
        minus[rest], det[rest] = _index_dets(
            np.linalg.eigvalsh(_herm_matrices(forms[rest], n)), tol)
    return (np.where(minus == np.array(q_list)[:, None], det, 0.0),
            int(np.count_nonzero(minus < 0)))


def _point_study(point: ManifoldPoint, k_list, q_list, n_samples, seed, tol):
    """Inner MC for one quadrature point, all k and q at once.

    Returns (mean, std error, degenerate fraction), arrays of shapes
    (K, Q), (K, Q) and (K,) over k_list and q_list.  The kernel runs in the
    point's power-of-two frame (see the module docstring): forms and tol are
    scaled by 2^-s, with 2^s just above the largest tensor or twist
    coefficient, and mean and std error back by 2^ns.  Overflow on the way
    back reads inf and is not warned about, since :func:`_run_points`
    rejects non-finite results; the errstate is set here because it does
    not carry into threads.
    """
    r, n = point.tensor.r, point.tensor.n
    parts = [point.tensor.c] + ([] if point.twist is None else [point.twist.entries])
    s = math.frexp(max(np.abs(a).max() for a in parts))[1]
    k_max = max(k_list)
    block = max(1, _DRAW_BLOCK // k_max)
    rng = stream(seed, "morse", point.id)
    degen = np.zeros(len(k_list), dtype=np.int64)

    def chunk(first, m):
        forms = np.empty((n * n, len(k_list), m))
        for lo in range(0, m, block):
            v = rng.standard_normal((min(block, m - lo), k_max, 2 * r)).view(complex)
            forms[:, :, lo:lo + block] = _chunk_forms(point, v, k_list, s)
        vals = np.empty((len(k_list), len(q_list), m))
        for j in range(len(k_list)):
            vals[j], d = _index_stats(forms[:, j].T, q_list, tol)
            degen[j] += d
        return vals

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tol = float(np.ldexp(tol, -s))
        mean, se = estimate(chunk, n_samples, _CHUNK)
        return np.ldexp(mean, n * s), np.ldexp(se, n * s), degen / n_samples


def _run_points(M, k_list, q_list, n_samples, seed, tol, workers):
    """Point-weighted ({(k, q): estimate}, {(k, q): std error}, {k: degenerate fraction}).

    Raises FloatingPointError at the first (k, q), k-major, whose estimate
    or std error is not finite.
    """
    _check_tol(tol)
    if not k_list:
        raise ValueError("k_list must name at least one k")
    if min(k_list) < 1:
        raise ValueError("k must be >= 1")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cpus = _usable_cpus()
    workers = min(workers or cpus, cpus, len(M.points))
    args = (k_list, q_list, n_samples, seed, tol)
    if workers == 1:
        results = [_point_study(p, *args) for p in M.points]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_point_study, p, *args) for p in M.points]
            results = [f.result() for f in futures]
    w = np.array([p.weight for p in M.points])
    means, ses, degens = (np.stack(a) for a in zip(*results))
    with np.errstate(over="ignore"):
        means *= w[:, None, None]
        ses *= w[:, None, None]
    est, se, degen = {}, {}, {}
    for j, k in enumerate(k_list):
        degen[k] = math.fsum(w * degens[:, j]) / M.total_volume
        for i, q in enumerate(q_list):
            est[(k, q)] = math.fsum(means[:, j, i])
            t = ses[:, j, i]
            # root-sum-square in the frame of the largest term, so no square
            # overflows or underflows; a result past the float range reads inf
            e = math.frexp(t.max())[1]
            with np.errstate(over="ignore"):
                se[(k, q)] = float(np.ldexp(math.sqrt(math.fsum(np.ldexp(t, -e) ** 2)), e))
            if not (math.isfinite(est[(k, q)]) and math.isfinite(se[(k, q)])):
                raise FloatingPointError(f"k={k}, q={q}: non-finite (estimate, std error) "
                                         f"= {(est[(k, q)], se[(k, q)])}")
    return est, se, degen


def reduced_morse_integral(M: ManifoldSample, k: int, q: int, n_samples: int,
                           seed: int, tol: float,
                           workers: Optional[int] = None) -> tuple[float, float]:
    """MC estimate of sum_p w_p E[1_{form,q} det(form)] over the sampled forms.

    Returns (estimate, std_error).  q > n returns (0, 0) exactly: an n x n
    form cannot have index exceeding n.  A non-finite estimate or std error
    raises FloatingPointError.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q > M.n:
        return 0.0, 0.0
    est, se, _ = _run_points(M, [k], [q], n_samples, seed, tol, workers)
    return est[(k, q)], se[(k, q)]


def convergence_study(M: ManifoldSample, k_list: Sequence[int], q_list: Sequence[int],
                      n_samples: int, seed: int, tol: float,
                      workers: Optional[int] = None) -> MorseReport:
    """Reduced estimates for every k in ascending k_list, compared to eta's integral.

    For untwisted samples
    normalized_deviation = |estimate * r^n / I(k, r, n) - eta_integral|;
    with a twist the renormalized form already has expectation
    eta + Theta_F, so the deviation is |estimate - eta_integral| instead.
    A non-finite estimate, std error (see :func:`_run_points`) or eta
    integral raises FloatingPointError; a k past the exact layer's ceilings
    raises ResourceLimitError before any sampling.
    """
    k_list = [int(k) for k in k_list]
    if k_list != sorted(k_list) or len(set(k_list)) != len(k_list):
        raise ValueError("k_list must be strictly ascending")
    q_list = [int(q) for q in q_list]
    if any(v < 0 or v > M.n for v in q_list):
        raise ValueError("q must lie in [0, n]")
    n, r = M.n, M.r
    # the exact layer's ceilings, before any sampling: each k needs
    # I(k, r, n) untwisted, and H_k (order 1) with a twist
    for k in k_list:
        _check_exact_cost(k, 1 if M.has_twist else n)
    est, se, degen = _run_points(M, k_list, q_list, n_samples, seed, tol, workers)
    eta_int = _eta_index_integrals(M, q_list, tol)
    for q in q_list:
        if not math.isfinite(eta_int[q]):
            raise FloatingPointError(f"q={q}: non-finite eta integral {eta_int[q]}")
    rows, consts = [], {}
    for k in k_list:
        consts[k], log_const = full_morse_constant(n, k, r)
        scale = 1.0 if M.has_twist else float(r**n / ikrn_exact(k, r, n))
        for q in q_list:
            rows.append(MorseRow(
                k=k, q=q,
                reduced_estimate=est[(k, q)], std_error=se[(k, q)],
                eta_integral=eta_int[q],
                normalized_deviation=abs(est[(k, q)] * scale - eta_int[q]),
                degenerate_fraction=degen[k],
                log_full_constant=log_const))
    return MorseReport(tuple(rows), consts)
