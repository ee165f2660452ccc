"""Curvature statistics on weighted projective jet spaces.

Exact rational combinatorics, Monte-Carlo fiber integration and q-index
Morse integrals for curvature tensors, with deterministic counter-based
random streams throughout.
"""

__version__ = "0.1.0"

from .curvature import CurvatureTensor
from .hermitian import HermitianForm
from .jet_combinatorics import epsilon_ratio, harmonic, ikrn_bounds, ikrn_exact
from .measures import dirichlet_integral, nu_moment
from .morse_mc import ManifoldPoint, ManifoldSample, MorseReport, convergence_study
from .wps import WeightSpec, integrate_fiber, volume_closed_form

__all__ = [
    "CurvatureTensor", "HermitianForm",
    "epsilon_ratio", "harmonic", "ikrn_bounds", "ikrn_exact",
    "dirichlet_integral", "nu_moment",
    "ManifoldPoint", "ManifoldSample", "MorseReport", "convergence_study",
    "WeightSpec", "integrate_fiber", "volume_closed_form",
    "__version__",
]
