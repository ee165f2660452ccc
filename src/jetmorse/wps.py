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

One estimator serves both :func:`integrate_fiber` and
:func:`integrate_fiber_limit`: they differ in the stream key and in the
draw, which for the limit is the spheres alone, with weight 1 (at k = 1 the
finite-p draw reduces to the same: the one-point simplex draws nothing).
Samples run in blocks of _BLOCK through ``measures.estimate``, fewer where
``measures._block_samples`` of their sphere draws (16 sum(r_s) bytes a
sample) is smaller: each block draws its simplex points, then its spheres in
block order, calls the integrand, checks its values and returns them
weighted, so memory stays at one block for any sample count and any
multiplicities.  A nonzero estimate or a closed-form volume below the
smallest normal float raises ``FloatingPointError``, and so do a study whose
importance weights all underflow to 0 where the integrand is nonzero and a
simplex density constant past the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .measures import (_block_samples, dirichlet_integral, estimate, sample_nu_batch,
                       sample_sphere_batch)
from .rng import stream

__all__ = [
    "WeightSpec",
    "FiberEvaluationError",
    "volume_closed_form",
    "integrate_fiber",
    "integrate_fiber_limit",
]

_BLOCK = 2**12  # its fixed numpy calls cost about 2% of its integrand calls


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


def volume_closed_form(w: WeightSpec) -> Fraction:
    """Exact volume 1 / prod_s a_s^{r_s}, independent of p."""
    denom = 1
    for a_s, r_s in zip(w.a, w.r):
        denom *= a_s**r_s
    return Fraction(1, denom)


def _sample_blocks(w: WeightSpec, n_samples: int, rng, const) -> tuple:
    """Uniform simplex draws with the Dirichlet-density importance weight.

    The true simplex density is (|r|-1)! prod x_s^{r_s-1} / prod (r_s-1)!;
    sampling the uniform reference and weighting keeps the volume estimate
    genuinely stochastic (the weight integrates to 1 by the simplex moment
    identity) while the weights stay bounded since every r_s >= 1.

    ``const`` is the run's (density constant, r_s - 1, a_s / 2p), or None for
    the p -> infinity limit, which draws the spheres alone with weight 1.
    Returns ``(weight, blocks)`` with ``blocks[s] = x_s^{a_s/2p} u_s`` of
    shape (n_samples, r_s).  Draw order: gamma, then the spheres in block order.
    """
    if const is None:
        return 1.0, [sample_sphere_batch(r_s, (n_samples,), rng) for r_s in w.r]
    density, powers, exponents = const
    x = sample_nu_batch(w.k, 1, n_samples, rng)
    weight = density * np.prod(x ** powers, axis=1)
    u = [sample_sphere_batch(r_s, (n_samples,), rng) for r_s in w.r]
    scale = x ** exponents
    return weight, [scale[:, s, None] * u_s for s, u_s in enumerate(u)]


def _estimate(w: WeightSpec, f: Callable, n_samples: int, seed: int, limit: bool) -> tuple:
    volume = volume_closed_form(w)  # at most 1, so only an underflow fails here
    if not (scale := float(volume)) >= np.finfo(float).smallest_normal:
        raise FloatingPointError(f"closed-form volume 10^{-math.log10(volume.denominator):.1f}"
                                 " is below the smallest normal float")
    const = None
    if not limit:
        # the simplex density (|r|-1)! / (prod_s (r_s-1)! (k-1)!) against the uniform
        # one, made once per run: at r = (1, 100000) a factorial has 456,569 digits
        try:
            density = float(1 / (math.factorial(w.k - 1) * dirichlet_integral(w.r)))
        except OverflowError:
            raise FloatingPointError(f"the simplex density constant of multiplicities {w.r}"
                                     " is past the float range") from None
        const = (density, np.asarray(w.r, dtype=float) - 1.0,
                 np.asarray(w.a, dtype=float) / (2.0 * w.p))
    rng = stream(seed, "fiber", "limit" if limit else "p", w.a, w.r)
    # whether some integrand value, and some weighted value, is nonzero
    nonzero = [False, False]

    def weighted(first, m):
        weight, blocks = _sample_blocks(w, m, rng, const)
        vals = np.fromiter(map(f, zip(*blocks)), float, count=m)
        bad = ~np.isfinite(vals)
        if bad.any():
            i = int(bad.argmax())
            raise FiberEvaluationError(first + i, tuple(b[i] for b in blocks))
        out = vals * weight
        nonzero[0] = nonzero[0] or bool(vals.any())
        nonzero[1] = nonzero[1] or bool(out.any())
        return out

    # a sample's sphere draws take 16 sum(r_s) bytes
    mean, se = estimate(weighted, n_samples, min(_BLOCK, _block_samples(16 * sum(w.r))))
    if nonzero[0] and not nonzero[1]:
        raise FloatingPointError("every importance weight underflows to 0 where the "
                                 "integrand is nonzero")
    est = float(mean) * scale
    if mean and not abs(est) >= np.finfo(float).smallest_normal:
        raise FloatingPointError(f"estimate {est!r} is below the smallest normal float")
    return est, float(se) * scale


def integrate_fiber(w: WeightSpec, f: Callable, n_samples: int, seed: int
                    ) -> tuple[float, float]:
    """Monte-Carlo estimate of the fiber integral of an invariant function.

    Returns (estimate, std_error).  ``f`` is called once per sample, in
    sample order, with a tuple of complex vectors
    (x_1^{a_1/2p} u_1, ..., x_k^{a_k/2p} u_k) of shapes (r_s,), and must
    return a real scalar.  Values are checked after each block of 2^12
    samples: a non-finite one raises :class:`FiberEvaluationError` at its
    first index, and no later block is drawn or evaluated.  A closed-form
    volume or a nonzero estimate below the smallest normal float raises
    ``FloatingPointError``.
    """
    return _estimate(w, f, n_samples, seed, limit=False)


def integrate_fiber_limit(w: WeightSpec, f: Callable, n_samples: int, seed: int
                          ) -> tuple[float, float]:
    """Estimate of the p -> infinity limit: spheres-only average times the volume.

    ``f`` gets the unit vectors (u_1, ..., u_k) under the same contract as
    in :func:`integrate_fiber`.
    """
    return _estimate(w, f, n_samples, seed, limit=True)
