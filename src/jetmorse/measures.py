"""Samplers and exact moments for the simplex and product-of-spheres measures.

Two probability measures are used throughout the curvature statistics:

* the Dirichlet-type measure on the simplex Delta_{k-1} with density
  ``(kr-1)! (x_1...x_k)^{r-1} / ((r-1)!)^k`` (equal multiplicity r in every
  slot), and
* the rotation invariant probability measure on a product of unit spheres
  ``S^{2r-1}`` in C^r.

Moments of both are available in closed form as exact rationals; the samplers
are exact (normalized Gamma draws, normalized complex Gaussians) so no
rejection step is needed.  Every Monte-Carlo estimate (``morse``, the fiber
integrals, ``ikrn --mode mc``) is one :func:`estimate` over blocks of
samples: each block is summarized as (count, mean, M2), and the summaries are
merged in order (Chan, Golub & LeVeque 1983), so an estimator holds one
block at a time, free of the cancellation a sum of squares suffers when the
mean dominates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "sample_nu_batch",
    "nu_moment",
    "dirichlet_integral",
    "sample_sphere_batch",
    "block_moments",
    "merge_moments",
    "estimate",
]


def sample_nu_batch(k: int, r: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Draw points of Delta_{k-1} with density (kr-1)! (prod x_s)^{r-1}/((r-1)!)^k.

    Equivalent to symmetric Dirichlet(r, ..., r) draws, realized as
    normalized Gamma(r) variables; returns shape (n_samples, k).
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    if k == 1:
        return np.ones((n_samples, 1))
    g = rng.gamma(shape=r, size=(n_samples, k))
    return g / g.sum(axis=1, keepdims=True)


def nu_moment(k: int, r: int, beta: Sequence[int]) -> Fraction:
    """Exact moment  integral of x_1^beta_1 ... x_k^beta_k  against the simplex measure.

    The measure has density prod_s x_s^(r-1) / dirichlet_integral([r]*k), so
    the moment is dirichlet_integral([r+beta_s]) / dirichlet_integral([r]*k).
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    beta = [int(b) for b in beta]
    if len(beta) != k:
        raise ValueError("beta must have length k")
    if any(b < 0 for b in beta):
        raise ValueError("beta entries must be nonnegative")
    return dirichlet_integral([r + b for b in beta]) / dirichlet_integral([r] * k)


def dirichlet_integral(r: Sequence[int]) -> Fraction:
    """Exact value of  integral over Delta_{k-1} of prod_s x_s^{r_s - 1} dx.

    Equals prod_s (r_s-1)! / (|r|-1)!  for positive integer multiplicities.
    """
    r = [int(v) for v in r]
    if len(r) < 1 or any(v < 1 for v in r):
        raise ValueError("multiplicities must be positive integers")
    total = sum(r)
    num = 1
    for v in r:
        num *= math.factorial(v - 1)
    return Fraction(num, math.factorial(total - 1))


def sample_sphere_batch(dim: int, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws on the unit sphere of C^dim; returns shape ``shape + (dim,)``."""
    z = rng.standard_normal(shape + (dim,)) + 1j * rng.standard_normal(shape + (dim,))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def block_moments(values: np.ndarray) -> tuple:
    """``(count, mean, M2)`` along the last axis of a block of shape (..., m),
    one summary per leading index; ``values`` is overwritten."""
    mean = values.mean(axis=-1)
    values -= mean[..., None]
    return values.shape[-1], mean, np.einsum("...i,...i->...", values, values)


def merge_moments(a: tuple, b: tuple) -> tuple:
    """Chan-Golub-LeVeque merge of two (count, mean, M2) summaries; an empty
    ``a`` gives ``b`` as is, so a first mean past 1e154 is never squared."""
    na, ma, sa = a
    nb, mb, sb = b
    if not na:
        return b
    n = na + nb
    d = mb - ma
    return n, ma + d * (nb / n), sa + sb + d * d * (na * nb / n)


def estimate(values: Callable, n: int, block: int) -> tuple:
    """``(mean, sqrt(M2 / (n - 1) / n))`` of n samples: ``values(first, m)``, called
    in sample order with m = ``block`` (less for a ragged last block), returns
    samples first .. first + m - 1 as a (..., m) array, which is overwritten.
    n < 2 raises ``ValueError`` before any call."""
    if n < 2:
        raise ValueError(f"a std error needs n >= 2 samples, got {n}")
    acc = (0, 0.0, 0.0)
    for first in range(0, n, block):
        acc = merge_moments(acc, block_moments(values(first, min(block, n - first))))
    _, mean, m2 = acc
    return mean, np.sqrt(m2 / (n - 1) / n)
