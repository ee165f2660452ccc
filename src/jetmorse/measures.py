"""Samplers and exact moments for the simplex and product-of-spheres measures.

Two probability measures are used throughout the curvature statistics:

* the Dirichlet-type measure on the simplex Delta_{k-1} with density
  ``(kr-1)! (x_1...x_k)^{r-1} / ((r-1)!)^k`` (equal multiplicity r in every
  slot), and
* the rotation invariant probability measure on a product of unit spheres
  ``S^{2r-1}`` in C^r.

Moments of both are available in closed form as exact rationals; the samplers
are exact (normalized Gamma draws, normalized complex Gaussians) so no
rejection step is needed.  :func:`mean_std_error` is the one mean and
standard-error reduction of the whole-array Monte-Carlo estimates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "sample_nu_batch",
    "nu_moment",
    "dirichlet_integral",
    "sample_sphere_batch",
    "mean_std_error",
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

    Closed form: (kr-1)!/(kr+n-1)! * prod_s (r+beta_s-1)!/(r-1)!  with n = sum(beta).
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    beta = [int(b) for b in beta]
    if len(beta) != k:
        raise ValueError("beta must have length k")
    if any(b < 0 for b in beta):
        raise ValueError("beta entries must be nonnegative")
    n = sum(beta)
    value = Fraction(math.factorial(k * r - 1), math.factorial(k * r + n - 1))
    for b in beta:
        value *= Fraction(math.factorial(r + b - 1), math.factorial(r - 1))
    return value


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


def mean_std_error(values: np.ndarray) -> tuple[float, float]:
    """Sample mean of a 1-d array and its standard error std(ddof=1)/sqrt(n)."""
    n = values.size
    if n < 2:
        raise ValueError("a standard error needs at least 2 values")
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))
