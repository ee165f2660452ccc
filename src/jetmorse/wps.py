"""Hermitian geometry of weighted projective spaces.

A weight specification (a_1^{[r_1]}, ..., a_k^{[r_k]}) with exponent p
carries the degenerate Kaehler potential

    phi(z) = (1/p) log sum_s |z_s|^{2p/a_s},   z_s in C^{r_s},

whose top-power volume is exactly 1 / prod_s a_s^{r_s} for every p.  Fiber
integrals of invariant functions are evaluated through the simplex-times-
spheres parametrization: draw x uniformly on the simplex and weight by the
density (|r|-1)! prod x_s^{r_s-1} / prod (r_s-1)!, draw u_s uniform on the
unit sphere of C^{r_s}, and average the weighted values of
f(x_1^{a_1/2p} u_1, ..., x_k^{a_k/2p} u_k).  As p -> infinity the measure
concentrates on the product of unit spheres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .measures import dirichlet_integral, mean_std_error, sample_sphere_batch
from .rng import stream

__all__ = [
    "WeightSpec",
    "FiberPoint",
    "FiberEvaluationError",
    "phi",
    "phi_limit",
    "volume_closed_form",
    "integrate_fiber",
    "integrate_fiber_limit",
]


class FiberEvaluationError(ValueError):
    """Raised when the integrand returns a non-finite value at some sample."""

    def __init__(self, sample_index: int, point):
        self.sample_index = sample_index
        self.point = point
        super().__init__(f"integrand returned a non-finite value at sample {sample_index}")


@dataclass(frozen=True)
class WeightSpec:
    """Weights a_s, multiplicities r_s and exponent p of a weighted projective space."""

    a: tuple
    r: tuple
    p: float = None

    def __post_init__(self):
        a = tuple(int(v) for v in self.a)
        r = tuple(int(v) for v in self.r)
        if len(a) != len(r) or len(a) < 1:
            raise ValueError("weights and multiplicities must have equal positive length")
        if any(v < 1 for v in a) or any(v < 1 for v in r):
            raise ValueError("weights and multiplicities must be positive integers")
        if math.gcd(*a) != 1:
            raise ValueError("weights must be globally coprime")
        p = self.p
        if p is None:
            p = float(math.lcm(*a))  # real-analytic potential by default
        p = float(p)
        if not math.isfinite(p):
            raise ValueError("p must be finite; integrate_fiber_limit covers p -> infinity")
        if p < max(a):
            raise ValueError("p must be at least max(a_s) for a C^2 potential")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def total_rank(self) -> int:
        return sum(self.r)


@dataclass(frozen=True)
class FiberPoint:
    """A tuple of complex vectors z_s in C^{r_s}, not all zero."""

    z: tuple

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in self.z)
        if len(vecs) < 1:
            raise ValueError("fiber point must have at least one block")
        if all(float(np.linalg.norm(v)) == 0.0 for v in vecs):
            raise ValueError("fiber point must be nonzero")
        object.__setattr__(self, "z", vecs)

    def scaled(self, lam: complex, a: Sequence[int]) -> "FiberPoint":
        """The weighted action lambda . z = (lambda^{a_s} z_s)."""
        return FiberPoint(tuple(lam**a_s * v for a_s, v in zip(a, self.z)))


def _norms(w: WeightSpec, z: FiberPoint) -> np.ndarray:
    if len(z.z) != w.k:
        raise ValueError("fiber point has wrong number of blocks")
    for v, r_s in zip(z.z, w.r):
        if v.size != r_s:
            raise ValueError("fiber point block dimension mismatch")
    return np.array([np.linalg.norm(v) for v in z.z])


def phi(w: WeightSpec, z: FiberPoint) -> float:
    """Potential (1/p) log sum_s |z_s|^{2p/a_s}; log-homogeneous under the action.

    Evaluated in log space so that large p does not underflow the powers.
    """
    norms = _norms(w, z)
    logs = np.array([(2.0 * w.p / a_s) * np.log(n) if n > 0 else -np.inf
                     for n, a_s in zip(norms, w.a)])
    top = logs.max()
    return float((top + np.log(np.sum(np.exp(logs - top)))) / w.p)


def phi_limit(w: WeightSpec, z: FiberPoint) -> float:
    """Pointwise p -> infinity limit: log max_s |z_s|^{2/a_s}."""
    norms = _norms(w, z)
    if np.all(norms == 0):
        raise ValueError("fiber point must be nonzero")
    vals = [2.0 / a_s * np.log(n) if n > 0 else -np.inf
            for n, a_s in zip(norms, w.a)]
    return float(np.max(vals))


def volume_closed_form(w: WeightSpec) -> Fraction:
    """Exact volume 1 / prod_s a_s^{r_s}, independent of p."""
    denom = 1
    for a_s, r_s in zip(w.a, w.r):
        denom *= a_s**r_s
    return Fraction(1, denom)


def _sample_blocks(w: WeightSpec, n_samples: int, rng) -> tuple[np.ndarray, list]:
    """Uniform simplex draws with the Dirichlet-density importance weight.

    The true simplex density is (|r|-1)! prod x_s^{r_s-1} / prod (r_s-1)!;
    sampling the uniform reference and weighting keeps the volume estimate
    genuinely stochastic (the weight integrates to 1 by the simplex moment
    identity) while the weights stay bounded since every r_s >= 1.

    Returns ``(weight, blocks)`` with ``blocks[s] = x_s^{a_s/2p} u_s`` of
    shape (n_samples, r_s).  Draw order: gamma, then the spheres in block order.
    """
    k = w.k
    if k == 1:
        return np.ones(n_samples), [sample_sphere_batch(w.r[0], (n_samples,), rng)]
    g = rng.gamma(shape=1.0, size=(n_samples, k))
    x = g / g.sum(axis=1, keepdims=True)
    const = 1 / (math.factorial(k - 1) * dirichlet_integral(w.r))
    weight = float(const) * np.prod(
        x ** (np.asarray(w.r, dtype=float) - 1.0), axis=1)
    u = [sample_sphere_batch(r_s, (n_samples,), rng) for r_s in w.r]
    scale = x ** (np.asarray(w.a, dtype=float) / (2.0 * w.p))
    return weight, [scale[:, s, None] * u_s for s, u_s in enumerate(u)]


def _evaluate(f: Callable, blocks: list, n_samples: int) -> np.ndarray:
    """``f`` at every sample, in order, then one check that all values are finite."""
    vals = np.fromiter(map(f, zip(*blocks)), float, count=n_samples)
    bad = ~np.isfinite(vals)
    if bad.any():
        m = int(bad.argmax())
        raise FiberEvaluationError(m, tuple(b[m] for b in blocks))
    return vals


def integrate_fiber(w: WeightSpec, f: Callable, n_samples: int, seed: int
                    ) -> tuple[float, float]:
    """Monte-Carlo estimate of the fiber integral of an invariant function.

    Returns (estimate, std_error).  ``f`` is called once per sample, in
    sample order, with a tuple of complex vectors
    (x_1^{a_1/2p} u_1, ..., x_k^{a_k/2p} u_k) of shapes (r_s,), and must
    return a real scalar.  Values are checked after the whole pass: a
    non-finite one raises :class:`FiberEvaluationError` at its first index.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    rng = stream(seed, "fiber", "p", w.a, w.r)
    weight, blocks = _sample_blocks(w, n_samples, rng)
    mean, se = mean_std_error(_evaluate(f, blocks, n_samples) * weight)
    scale = float(volume_closed_form(w))
    return mean * scale, se * scale


def integrate_fiber_limit(w: WeightSpec, f: Callable, n_samples: int, seed: int
                          ) -> tuple[float, float]:
    """Estimate of the p -> infinity limit: spheres-only average times the volume.

    ``f`` gets the unit vectors (u_1, ..., u_k) under the same contract as
    in :func:`integrate_fiber`.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    rng = stream(seed, "fiber", "limit", w.a, w.r)
    u = [sample_sphere_batch(r_s, (n_samples,), rng) for r_s in w.r]
    mean, se = mean_std_error(_evaluate(f, u, n_samples))
    scale = float(volume_closed_form(w))
    return mean * scale, se * scale
