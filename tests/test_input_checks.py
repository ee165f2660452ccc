from fractions import Fraction

import numpy as np
import pytest

from jetmorse.curvature import tensor_from_json
from jetmorse.hermitian import HermitianForm
from jetmorse.jet_combinatorics import ikrn_bounds, ikrn_exact
from jetmorse.measures import nu_moment
from jetmorse.models import (CompleteIntersectionSpec, SecondFundamentalForm,
                             fermat_sample, fermat_second_fundamental_form,
                             fubini_study_tensor, hypersurface_tensor)
from jetmorse.morse_mc import (ManifoldPoint, ManifoldSample, MorseReport, MorseRow,
                               eta_index_integral, full_morse_constant,
                               reduced_morse_integral)
from jetmorse.wps import WeightSpec


def _sample():
    return ManifoldSample((ManifoldPoint("p", fubini_study_tensor(2), 1.0),))


# argument checks that no command-line or study test reaches: each call must
# fail with its own message before any work
CHECKS = {
    "tensor_from_json-length": (lambda: tensor_from_json({"n": 1, "r": 1, "c": []}),
                                "coefficient array has wrong length"),
    "ikrn_exact-k": (lambda: ikrn_exact(0, 1, 1), r"require k >= 1, r >= 1, n >= 0"),
    "ikrn_exact-r": (lambda: ikrn_exact(2, 0, 1), r"require k >= 1, r >= 1, n >= 0"),
    "ikrn_exact-n": (lambda: ikrn_exact(2, 1, -1), r"require k >= 1, r >= 1, n >= 0"),
    "ikrn_bounds-k": (lambda: ikrn_bounds(0, 1, 1), r"require k >= 1, r >= 1, n >= 0"),
    "ikrn_bounds-r": (lambda: ikrn_bounds(2, 0, 1), r"require k >= 1, r >= 1, n >= 0"),
    "ikrn_bounds-n": (lambda: ikrn_bounds(2, 1, -1), r"require k >= 1, r >= 1, n >= 0"),
    "nu_moment-k": (lambda: nu_moment(0, 1, []), "k and r must be >= 1"),
    "nu_moment-r": (lambda: nu_moment(2, 0, [0, 0]), "k and r must be >= 1"),
    "nu_moment-length": (lambda: nu_moment(2, 1, [1]), "beta must have length k"),
    "nu_moment-negative": (lambda: nu_moment(2, 1, [1, -1]),
                           "beta entries must be nonnegative"),
    "SecondFundamentalForm-ndim": (lambda: SecondFundamentalForm(np.zeros((2, 2))),
                                   r"beta must have shape \(s, n, r\)"),
    "CompleteIntersectionSpec-degrees": (lambda: CompleteIntersectionSpec(2, 2, (3,)),
                                         "one degree per hypersurface"),
    "CompleteIntersectionSpec-degree": (lambda: CompleteIntersectionSpec(2, 1, (0,)),
                                        "degrees must be >= 1"),
    "CompleteIntersectionSpec-a": (lambda: CompleteIntersectionSpec(2, 1, (3,), Fraction(-1)),
                                   "twist weight a must be >= 0"),
    "fubini_study_tensor-n": (lambda: fubini_study_tensor(0), "n must be >= 1"),
    "hypersurface_tensor-shape": (
        lambda: hypersurface_tensor(SecondFundamentalForm(np.zeros((1, 2, 2))), 3),
        r"beta must act on \(n, n\)"),
    "fermat_second_fundamental_form-point": (
        lambda: fermat_second_fundamental_form(2, 3, [1, -1]),
        r"point must have n\+2 components"),
    "fermat_sample-count": (lambda: fermat_sample(2, 3, 0, 1), "count must be >= 1"),
    "fermat_sample-d": (lambda: fermat_sample(2, 0, 4, 1), "d must be >= 1"),
    "ManifoldPoint-twist": (
        lambda: ManifoldPoint("p", fubini_study_tensor(2), 1.0, HermitianForm(np.eye(3))),
        "twist dimension does not match tensor"),
    "MorseReport-std_error": (
        lambda: MorseReport((MorseRow(1, 0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0),),
                            {1: Fraction(1)}),
        "standard errors must be nonnegative"),
    "eta_index_integral-q": (lambda: eta_index_integral(_sample(), 3, 1e-9),
                             r"q must lie in \[0, n\]"),
    "full_morse_constant-n": (lambda: full_morse_constant(-1, 1, 1),
                              r"require n >= 0, k >= 1, r >= 1"),
    "full_morse_constant-k": (lambda: full_morse_constant(1, 0, 1),
                              r"require n >= 0, k >= 1, r >= 1"),
    "full_morse_constant-r": (lambda: full_morse_constant(1, 1, 0),
                              r"require n >= 0, k >= 1, r >= 1"),
    "reduced_morse_integral-q": (lambda: reduced_morse_integral(_sample(), 2, -1, 100, 1, 1e-9),
                                 "q must be nonnegative"),
    "WeightSpec-length": (lambda: WeightSpec((1, 2), (1,)),
                          "weights and multiplicities must have equal positive length"),
}


@pytest.mark.parametrize("call, match", CHECKS.values(), ids=CHECKS.keys())
def test_input_check_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()
