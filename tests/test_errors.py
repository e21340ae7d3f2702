"""Offending values in error messages: one formatter, ``errors._shown``.

Python refuses to write out an int with more digits than
``sys.get_int_max_str_digits()`` (4300 by default), and a ``Fraction`` made of
one.  A message that formatted such a value with ``{value}`` raised a bare
``ValueError`` in place of its typed error; ``_shown`` names its size instead,
and leaves every other value as ``repr``, ``str`` or ``format`` writes it.
The same entry points refuse a value that is not a number with a typed error
too, through the gates of ``recurrences``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cmvpencil import cmv, dunkl, maps, measures, recurrences
from cmvpencil.errors import CmvPencilError, _shown

JACOBI = recurrences.jacobi_opuc_reflections(0.3, 0.7)
FREE = recurrences.sdg_recurrence(recurrences.ReflectionSequence.constant(0.0))
MATRIX = cmv.BandedSymmetricMatrix((np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0])))
WEIGHT = measures.named_weight("sdg", xi=0.0, eta=0.0)
TRUNC = cmv.TruncationSpec(2)

# entry point -> a call that puts the huge positive value h where it is refused;
# a count, index or degree (the names in COUNTS) takes -h, as a huge positive
# one is valid
CALLS = {
    "band_census inflate": lambda h: cmv.band_census(MATRIX, [(-1.0, 1.0)], h),
    "band_census band edge": lambda h: cmv.band_census(MATRIX, [(-1.0, h)], 0.05),
    "build_K lam": lambda h: cmv.build_K(JACOBI, h, TRUNC),
    "verify_identities lam": lambda h: cmv.verify_identities(JACOBI, h, TRUNC),
    "eigenvalue_counts shift": lambda h: cmv.eigenvalue_counts(MATRIX, [h]),
    "TruncationSpec": lambda h: cmv.TruncationSpec(-h),
    "TruncationSpec.from_dim": lambda h: cmv.TruncationSpec.from_dim(-h),
    "pencil_recurrence lam": lambda h: recurrences.pencil_recurrence(JACOBI, h),
    "jacobi_opuc_reflections": lambda h: recurrences.jacobi_opuc_reflections(h, 0.5),
    "CirclePoint": lambda h: recurrences.CirclePoint(h),
    "szego_eval raw point": lambda h: recurrences.szego_eval(JACOBI, 3, h),
    "eval_monic degree": lambda h: recurrences.eval_monic(FREE, -h, 0.5),
    "ReflectionSequence.constant read": lambda h: recurrences.ReflectionSequence.constant(h)(0),
    "ReflectionSequence.from_list read": lambda h: recurrences.ReflectionSequence.from_list([h])(0),
    "ReflectionSequence.take": lambda h: recurrences.ReflectionSequence.constant(h).take(2),
    "ReflectionSequence.take count": lambda h: JACOBI.take(-h),
    "ReflectionSequence index": lambda h: JACOBI(-h),
    "lambda_reduction lam": lambda h: maps.lambda_reduction(JACOBI, h, "lambda-1"),
    "big_m1_parameters lam": lambda h: maps.big_m1_parameters(0.0, 0.0, h),
    "big_m1_recurrence c": lambda h: maps.big_m1_recurrence(1, 1, h),
    "christoffel n_max": lambda h: maps.christoffel(FREE, 3.0, -h),
    "christoffel theta": lambda h: maps.christoffel(FREE, h, 3),
    "scale_map g": lambda h: maps.scale_map(FREE, h),
    "essential_spectrum_periodic": lambda h: measures.essential_spectrum_periodic(h),
    "named_weight periodic lam": lambda h: measures.named_weight("periodic", lam=h),
    "named_weight big_m1 alpha": lambda h: measures.named_weight("big_m1", alpha=h, beta=1.0, c=0.5),
    "named_weight family": lambda h: measures.named_weight(h),
    "Measure exponent": lambda h: measures.Measure(((-1.0, 1.0),), np.abs, ((1.0, h),)),
    "m_per z": lambda h: measures.m_per(h, 2.0),
    "m_per lam": lambda h: measures.m_per(1j, h),
    "stieltjes_perron_density t": lambda h: measures.stieltjes_perron_density(2.0, h),
    "stieltjes_recurrence n_max": lambda h: measures.stieltjes_recurrence(WEIGHT, h),
    "stieltjes_recurrence tol": lambda h: measures.stieltjes_recurrence(WEIGHT, 4, tol=h),
    "integrate tol": lambda h: measures.integrate(WEIGHT, np.abs, h),
    "discretize n_nodes": lambda h: measures.discretize(WEIGHT, -h),
    "discretize n_nodes with no rule": lambda h: measures.discretize(WEIGHT, h),
    "verify_eigenfunction degree": lambda h: dunkl.verify_eigenfunction(1, 1, Fraction(1, 2), -h),
    "dunkl_eigenvalue degree": lambda h: dunkl.dunkl_eigenvalue(-h, 1, 1),
}
COUNTS = {
    "TruncationSpec",
    "TruncationSpec.from_dim",
    "eval_monic degree",
    "ReflectionSequence.take count",
    "ReflectionSequence index",
    "christoffel n_max",
    "stieltjes_recurrence n_max",
    "discretize n_nodes",
    "verify_eigenfunction degree",
    "dunkl_eigenvalue degree",
}


@pytest.mark.parametrize("huge", [10**5000, Fraction(10**5000, 3)], ids=["int", "Fraction"])
@pytest.mark.parametrize("name", list(CALLS))
def test_a_value_too_long_to_print_raises_the_typed_error(name, huge):
    with pytest.raises(CmvPencilError) as info:
        CALLS[name](huge)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("value", ["x", None], ids=repr)
@pytest.mark.parametrize("name", [name for name in CALLS if name not in COUNTS])
def test_a_value_that_is_not_a_number_raises_the_typed_error(name, value):
    # most raised a bare TypeError or ValueError from a comparison or a conversion
    with pytest.raises(CmvPencilError):
        CALLS[name](value)


@pytest.mark.parametrize("lam", [np.float64(2.0), np.int64(2), np.array(2.0), True], ids=repr)
def test_numbers_that_compare_pass_the_gates(lam):
    # numpy scalars, 0-d arrays and bools compare as their values
    measures.m_per(0.5 + 1j, lam)
    cmv.build_K(JACOBI, lam, TRUNC)
    cmv.verify_identities(JACOBI, lam, TRUNC)
    measures.named_weight("periodic", lam=lam)
    maps.big_m1_parameters(0.5, 1.0, lam)


def test_shown_names_the_size_of_a_value_too_long_to_print():
    assert _shown(10**5000) == "<int of about 10^5000>"
    assert _shown(-(10**5000), format) == "<int of about -10^5000>"
    assert _shown(Fraction(1, 10**5000)) == "<Fraction of about 10^-5000>"
    assert _shown([(-(10**5000), 1.5)]) == "[[<int of about -10^5000>, 1.5]]"


@pytest.mark.parametrize(
    "value", [-1, 10**400, 2.5, -0.0, math.nan, -math.inf, Fraction(-3, 2), np.float64(0.1), np.int64(-5), "x", None, [(-1.0, 1.0)]]
)
@pytest.mark.parametrize("form", [repr, str, format])
def test_shown_writes_every_other_value_as_its_form_does(value, form):
    assert _shown(value, form) == form(value)
