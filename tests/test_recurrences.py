"""Reflection sequences, recurrence tables, and circle evaluation."""

import cmath
import gc
import math
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmvpencil.cmv import TruncationSpec, build_J
from cmvpencil.dunkl import dunkl_eigenvalue, verify_eigenfunction
from cmvpencil import recurrences
from cmvpencil.errors import InvalidParameterError, ReflectionBoundError, TruncationError
from cmvpencil.maps import big_m1_recurrence, christoffel, dg_eval_from_circle
from cmvpencil.recurrences import (
    CirclePoint,
    MonicThreeTerm,
    ReflectionSequence,
    _c_div,
    _c_mul,
    _complement,
    _require_count,
    _require_real,
    companion_symmetric_recurrence,
    dg_symmetric_recurrence,
    eval_monic,
    jacobi_opuc_reflections,
    pencil_recurrence,
    sdg_recurrence,
    szego_eval,
)
from oracles import chebyshev_closed_form, third_kind_coeffs

reflection_lists = st.lists(
    st.floats(min_value=-0.95, max_value=0.95, allow_nan=False), min_size=1, max_size=12
)


def test_reflection_convention():
    a = ReflectionSequence.constant(0.25)
    assert a(-1) == -1
    assert a(0) == 0.25
    assert a.r(0) == pytest.approx(math.sqrt(1 - 0.0625))
    with pytest.raises(InvalidParameterError):
        a(-2)


def test_reflection_bound_is_lazy_and_names_index():
    a = ReflectionSequence.from_list([0.5, 2.0])
    assert a(0) == 0.5  # construction and first access are fine
    with pytest.raises(ReflectionBoundError) as excinfo:
        a(1)
    assert excinfo.value.index == 1
    assert excinfo.value.value == 2.0


def test_from_list_range():
    a = ReflectionSequence.from_list([0.1])
    with pytest.raises(InvalidParameterError):
        a(1)


def test_jacobi_closed_form_exact():
    a = jacobi_opuc_reflections(Fraction(1, 2), Fraction(1))
    assert a(0) == Fraction(1, 7)
    assert a(1) == Fraction(-5, 9)
    assert a(2) == Fraction(1, 11)
    assert a(3) == Fraction(-5, 13)


def test_jacobi_parameter_domain():
    with pytest.raises(InvalidParameterError):
        jacobi_opuc_reflections(-1.5, 0.0)


def test_pencil_first_coefficients_free():
    # a == 0: b_0 = lam, b_n = 0, u_n alternates lam^2 / 1
    rec = pencil_recurrence(ReflectionSequence.constant(0.0), 2.5)
    assert rec.b(0) == 2.5
    assert rec.u(0) == 0
    assert all(rec.b(n) == 0 for n in range(1, 8))
    assert rec.u(1) == 1 and rec.u(3) == 1
    assert rec.u(2) == 6.25 and rec.u(4) == 6.25


def test_pencil_at_one_equals_sdg():
    a = jacobi_opuc_reflections(0.3, 0.7)
    lhs = pencil_recurrence(a, 1.0)
    rhs = sdg_recurrence(a)
    for n in range(12):
        assert lhs.b(n) == pytest.approx(rhs.b(n), abs=1e-15)
        assert lhs.u(n) == pytest.approx(rhs.u(n), abs=1e-15)


def test_symmetric_first_coefficient():
    a = jacobi_opuc_reflections(Fraction(1, 2), Fraction(1))
    v = dg_symmetric_recurrence(a)
    assert v.u(1) == 2 * (1 + Fraction(1, 7))  # uses a_{-1} = -1
    w = companion_symmetric_recurrence(a)
    assert w.u(1) == (1 + a(0)) * (1 - a(1))
    for rec in (v, w):
        assert rec.u(0) == 0
        assert all(rec.b(n) == 0 for n in range(6))


def _same(lhs, rhs):
    # bit for bit: same type and repr (signed zeros included), or same array bytes
    if isinstance(lhs, np.ndarray):
        same_dtype = isinstance(rhs, np.ndarray) and lhs.dtype == rhs.dtype
        return same_dtype and lhs.tobytes() == rhs.tobytes()
    return type(lhs) is type(rhs) and repr(lhs) == repr(rhs)


# the sequence kinds the lam = 1 and symmetric families must keep bit for bit
SEQUENCE_KINDS = {
    "jacobi-float": lambda: jacobi_opuc_reflections(0.3, 0.7),
    "jacobi-numpy": lambda: jacobi_opuc_reflections(np.float64(0.3), np.float64(0.7)),
    "jacobi-fraction": lambda: jacobi_opuc_reflections(Fraction(3, 10), Fraction(7, 10)),
    "float-list": lambda: ReflectionSequence.from_list(
        [0.25, -0.5, 0.125, 0.75, -0.875, 0.1, -0.3, 0.6, 0.9, -0.2, 0.05, 0.33, -0.66]
    ),
    "fraction-list": lambda: ReflectionSequence.from_list(
        [Fraction(k, 13) for k in (3, -5, 7, 1, -12, 4, 0, -2, 9, -7, 11, 5, -1)]
    ),
    "constant+0.0": lambda: ReflectionSequence.constant(0.0),
    "constant-0.0": lambda: ReflectionSequence.constant(-0.0),
}


@pytest.mark.parametrize("make", SEQUENCE_KINDS.values(), ids=list(SEQUENCE_KINDS))
def test_lam1_and_symmetric_families_are_their_literal_formulas(make):
    # written out here, not taken from pencil_recurrence or build_K, which
    # sdg_recurrence and build_J go through
    a = make()
    sdg, dg, comp = sdg_recurrence(a), dg_symmetric_recurrence(a), companion_symmetric_recurrence(a)
    for n in range(12):
        assert _same(sdg.b(n), a(n) - a(n - 1)), n
        assert _same(sdg.u(n), 0 if n == 0 else 1 - a(n - 1) ** 2), n
        assert _same(dg.u(n), 0 if n == 0 else (1 + a(n - 1)) * (1 - a(n - 2))), n
        assert _same(comp.u(n), 0 if n == 0 else (1 + a(n - 1)) * (1 - a(n))), n
        assert _same(dg.b(n), 0) and _same(comp.b(n), 0)
    # J's diagonal a_n - a_{n-1} rounded once, its off-diagonal r_n as ReflectionSequence.r
    J = build_J(a, TruncationSpec.from_dim(12))
    assert _same(J.bands[0], np.array([float(a(n) - a(n - 1)) for n in range(12)]))
    assert _same(J.bands[1], np.array([math.sqrt(1.0 - float(a(n)) ** 2) for n in range(11)]))


def _symmetric_oracle(v, n, x):
    # the symmetric recursion S_0 = 1, S_1 = x, S_{k+1} = x S_k - v_k S_{k-1}
    one = x * 0 + 1
    if n == 0:
        return one
    p_prev, p_cur = one, x
    for k in range(1, n):
        p_prev, p_cur = p_cur, x * p_cur - v(k) * p_prev
    return p_cur


@pytest.mark.parametrize(
    "make", [dg_symmetric_recurrence, companion_symmetric_recurrence]
)
def test_eval_monic_on_symmetric_families_is_the_symmetric_recursion(make):
    xs = np.linspace(-2.5, 2.5, 41)
    for xi, eta in ((0.0, 0.0), (0.3, 0.7), (-0.5, -0.5)):
        rec = make(jacobi_opuc_reflections(xi, eta))
        ladder = eval_monic(rec, 24, xs)
        for n in range(25):
            assert ladder[n].tobytes() == _symmetric_oracle(rec.u, n, xs).tobytes()
        for x in (*xs.tolist(), -0.0):
            ladder = eval_monic(rec, 24, x)
            for n in range(25):
                assert _same(ladder[n], _symmetric_oracle(rec.u, n, x))
    rec = make(jacobi_opuc_reflections(Fraction(1, 2), Fraction(1)))
    for x in (Fraction(1, 3), Fraction(-7, 4), Fraction(0), 2):
        for n, value in enumerate(eval_monic(rec, 14, x)):
            assert _same(value, _symmetric_oracle(rec.u, n, x))
            assert not isinstance(value, float)


def _eval_monic_oracle(rec, n, x):
    # the single-degree forward recurrence, one call per degree
    one = x * 0 + 1
    if n == 0:
        return one
    p_prev, p_cur = one, x - rec.b(0) * one
    for k in range(1, n):
        p_prev, p_cur = p_cur, (x - rec.b(k)) * p_cur - rec.u(k) * p_prev
    return p_cur


def _szego_oracle(a, n, z):
    # the single-degree circle recursion, one call per degree
    zz = z.z if isinstance(z, CirclePoint) else complex(z)
    phi, phis = 1.0 + 0.0j, 1.0 + 0.0j
    for k in range(n):
        ak = a(k)
        phi, phis = zz * phi - ak * phis, phis - ak * zz * phi
    return phi, phis


def test_eval_monic_ladder_is_the_single_degree_recurrence():
    a = jacobi_opuc_reflections(0.3, 0.7)
    floats = [
        pencil_recurrence(a, 2.5),
        sdg_recurrence(a),
        dg_symmetric_recurrence(a),
        companion_symmetric_recurrence(a),
        pencil_recurrence(ReflectionSequence.constant(-0.0), 0.5),
    ]
    xs = np.linspace(-2.5, 2.5, 41)
    for rec in floats:
        for x in (xs, -xs, *xs.tolist(), -0.0, 0.0, 1.0, 2):
            ladder = eval_monic(rec, 20, x)
            assert len(ladder) == 21
            for n, value in enumerate(ladder):
                assert _same(value, _eval_monic_oracle(rec, n, x))
    exact = jacobi_opuc_reflections(Fraction(1, 2), Fraction(1))
    cases = [
        (pencil_recurrence(exact, Fraction(3, 2)), 15),
        (dg_symmetric_recurrence(exact), 15),
        (big_m1_recurrence(2, 3, Fraction(2, 5)), 15),
        (MonicThreeTerm.from_arrays([1, -2, 0, 3, 1], [0, 2, 5, 1, 4]), 5),
    ]
    for rec, n_max in cases:
        for x in (Fraction(1, 3), Fraction(-7, 4), Fraction(0), 0, 2, -3):
            for n, value in enumerate(eval_monic(rec, n_max, x)):
                expected = _eval_monic_oracle(rec, n, x)
                assert value == expected and type(value) is type(expected)


def test_szego_ladder_is_the_single_degree_recursion():
    sequences = [
        jacobi_opuc_reflections(0.3, 0.7),
        jacobi_opuc_reflections(-0.5, -0.5),
        ReflectionSequence.constant(-0.0),
        ReflectionSequence.from_list([0.9 * math.sin(1.7 * k) for k in range(20)]),
        jacobi_opuc_reflections(Fraction(1, 2), Fraction(1)),
    ]
    points = [CirclePoint(phi) for phi in (0.0, 0.7, 2.0, math.pi, 4.5)]
    for a in sequences:
        for z in (*points, 0.0, 1.0, -0.0):
            ladder = szego_eval(a, 20, z)
            assert len(ladder) == 21
            for n, pair in enumerate(ladder):
                assert _same(pair, _szego_oracle(a, n, z))


def test_eval_monic_is_exact_for_fractions():
    a = jacobi_opuc_reflections(Fraction(1, 2), Fraction(1))
    rec = pencil_recurrence(a, Fraction(3, 2))
    ladder = eval_monic(rec, 4, Fraction(1, 3))
    assert len(ladder) == 5
    assert all(isinstance(value, Fraction) for value in ladder)
    # independent route: expand the recurrence by hand at degree 2
    p1 = Fraction(1, 3) - rec.b(0)
    p2 = (Fraction(1, 3) - rec.b(1)) * p1 - rec.u(1)
    assert ladder[:3] == [1, p1, p2]


def test_eval_degree_validation():
    rec = sdg_recurrence(ReflectionSequence.constant(0.0))
    with pytest.raises(InvalidParameterError):
        eval_monic(rec, -1, 0.5)


_SDG = sdg_recurrence(ReflectionSequence.constant(0.0))
_JACOBI = jacobi_opuc_reflections(0.3, 0.7)
# entry points of recurrences, maps and dunkl that take a degree (or a
# largest index), each called with degree n, and the two test oracles that
# take one: third_kind_coeffs reads dunkl's Chebyshev builder, which checks it
DEGREE_CALLS = {
    "dunkl_eigenvalue": lambda n: dunkl_eigenvalue(n, 1, 1),
    "verify_eigenfunction": lambda n: verify_eigenfunction(1, 1, Fraction(1, 2), n),
    "third_kind_coeffs": third_kind_coeffs,
    "eval_monic": lambda n: eval_monic(_SDG, n, 0.5),
    "szego_eval": lambda n: szego_eval(_JACOBI, n, CirclePoint(1.0)),
    "dg_eval_from_circle": lambda n: dg_eval_from_circle(_JACOBI, n, CirclePoint(1.0)),
    "christoffel": lambda n: christoffel(_SDG, 3.0, n),
    "chebyshev_closed_form": lambda n: chebyshev_closed_form("third", n, 0.5),
}


@pytest.mark.parametrize("n", [2.0, 2.5, -1, True, "2", None], ids=repr)
@pytest.mark.parametrize("name", list(DEGREE_CALLS))
def test_degrees_must_be_nonnegative_integers(name, n):
    with pytest.raises(InvalidParameterError, match=r"need an integer (degree|n_max) >= 0, got "):
        DEGREE_CALLS[name](n)


@pytest.mark.parametrize("name", list(DEGREE_CALLS))
def test_numpy_integer_degrees_are_accepted(name):
    got = DEGREE_CALLS[name](np.int64(25))
    if name != "christoffel":  # its result holds closures, equal only to itself
        assert got == DEGREE_CALLS[name](25)


def test_szego_free_case_is_power():
    a = ReflectionSequence.constant(0.0)
    z = CirclePoint(1.234)
    ladder = szego_eval(a, 7, z)
    assert len(ladder) == 8
    for n, (phi, phis) in enumerate(ladder):
        assert phi == pytest.approx(z.z**n, abs=1e-14)
        assert phis == pytest.approx(1.0, abs=1e-14)


def test_szego_values_at_zero_and_one():
    a = jacobi_opuc_reflections(0.3, 0.7)
    at_zero, at_one = szego_eval(a, 7, 0.0), szego_eval(a, 7, 1.0)
    for n in range(1, 8):
        phi, _ = at_zero[n]
        assert phi == pytest.approx(-a(n - 1), abs=1e-15)
        phi1, _ = at_one[n]
        prod = 1.0
        for k in range(n):
            prod *= 1 - a(k)
        assert phi1 == pytest.approx(prod, abs=1e-14)


def test_szego_frozen_values():
    # independently computed with 40-digit arithmetic
    a = jacobi_opuc_reflections(0.3, 0.7)
    z = cmath.exp(1.1j)
    phi, phis = szego_eval(a, 6, z)[6]
    assert phi == pytest.approx(
        0.6265968974000016 + 0.1243210781640373j, abs=1e-14
    )
    assert phis == pytest.approx(
        0.6341439521342538 + 0.0770769114503567j, abs=1e-14
    )


def test_numpy_float_parameters_give_the_python_float_sweep():
    # numpy.float64 coefficients once ran the sweep in numpy's complex scalar
    # arithmetic, which rounds differently from CPython's
    def hexed(ladder):
        assert all(type(p) is complex and type(ps) is complex for p, ps in ladder)
        return [(p.real.hex(), p.imag.hex(), ps.real.hex(), ps.imag.hex()) for p, ps in ladder]

    numpy_params = jacobi_opuc_reflections(np.float64(0.3), np.float64(0.7))
    python_params = jacobi_opuc_reflections(0.3, 0.7)
    for phi in (0.7, 1.1, 2.0, 4.5):
        p = CirclePoint(phi)
        assert hexed(szego_eval(numpy_params, 20, p)) == hexed(szego_eval(python_params, 20, p))


@given(reflection_lists, st.floats(min_value=0.0, max_value=6.28))
def test_szego_moduli_agree_on_circle(values, phi):
    a = ReflectionSequence.from_list(values)
    for p, ps in szego_eval(a, len(values), CirclePoint(phi)):
        assert abs(p) == pytest.approx(abs(ps), rel=1e-9, abs=1e-9)


@given(reflection_lists)
def test_szego_constant_term_is_reflection(values):
    a = ReflectionSequence.from_list(values)
    ladder = szego_eval(a, len(values), 0.0)
    for (phi, _), value in zip(ladder[1:], values):
        assert phi == pytest.approx(-value, abs=1e-12)


@pytest.mark.parametrize(
    "phi",
    [math.nan, math.inf, -math.inf, 10**400, -(10**400), Fraction(10**400)],
    ids=["nan", "inf", "-inf", "huge-int", "-huge-int", "huge-Fraction"],
)
def test_circle_point_rejects_non_finite_angle(phi):
    with pytest.raises(InvalidParameterError, match="finite"):
        CirclePoint(phi)


def test_circle_point_normalization_and_branch():
    p = CirclePoint(3 * math.pi)
    assert p.phi == pytest.approx(math.pi)
    assert p.x == pytest.approx(2 * math.cos(p.phi / 2))
    assert p.half == pytest.approx(cmath.exp(0.5j * p.phi))
    assert p.z == pytest.approx(p.half**2)


@pytest.mark.parametrize("phi", [-1e-20, -1e-16, -5e-324])
def test_circle_point_tiny_negative_angle_stays_below_two_pi(phi):
    # phi % (2*pi) rounds these up to 2*pi, outside the documented [0, 2*pi)
    p = CirclePoint(phi)
    assert 0 <= p.phi < 2 * math.pi
    assert p.phi == math.nextafter(2 * math.pi, 0)
    # the x = -2 end of the branch: z^{1/2} just above -1 in the upper half plane
    assert p.x == -2.0 and p.half.imag > 0


def test_free_symmetric_family_is_first_kind():
    # a == 0 gives v_1 = 2, v_n = 1: the family 2*cos(n*tau) at x = 2*cos(tau)
    rec = dg_symmetric_recurrence(ReflectionSequence.constant(0.0))
    for tau in (0.3, 1.1, 2.0):
        for n, value in enumerate(eval_monic(rec, 8, 2 * math.cos(tau))):
            assert value == pytest.approx(chebyshev_closed_form("first", n, tau), abs=1e-12)


def test_monic_third_and_fourth_kind_closed_forms():
    # (b_0, b_n, u_n) = (1, 0, 1) on [-2, 2] is the monic third-kind family;
    # b_0 = -1 gives the fourth kind.  Closed forms live at x = cos(tau),
    # so evaluate the monic family at 2*cos(tau) against 2^n * closed form.
    third = MonicThreeTerm(b=lambda n: 1.0 if n == 0 else 0.0, u=lambda n: 0.0 if n == 0 else 1.0)
    fourth = MonicThreeTerm(b=lambda n: -1.0 if n == 0 else 0.0, u=lambda n: 0.0 if n == 0 else 1.0)
    for tau in (0.4, 1.0, 2.2):
        third_ladder = eval_monic(third, 7, 2 * math.cos(tau))
        fourth_ladder = eval_monic(fourth, 7, 2 * math.cos(tau))
        for n in range(8):
            assert third_ladder[n] == pytest.approx(
                chebyshev_closed_form("third", n, tau), abs=1e-12
            )
            assert fourth_ladder[n] == pytest.approx(
                chebyshev_closed_form("fourth", n, tau), abs=1e-12
            )


def test_chebyshev_closed_form_pole_guard():
    with pytest.raises(InvalidParameterError):
        chebyshev_closed_form("third", 3, math.pi)
    with pytest.raises(InvalidParameterError):
        chebyshev_closed_form("fourth", 3, 0.0)
    with pytest.raises(InvalidParameterError):
        chebyshev_closed_form("second", 3, 1.0)


def test_from_arrays_refuses_indices_outside_its_tables():
    # a negative index used to wrap around: b(-1) returned 3
    rec = MonicThreeTerm.from_arrays([1, 2, 3], [7, 1, 2])
    assert [rec.b(n) for n in range(3)] == [1, 2, 3]
    assert [rec.u(n) for n in range(3)] == [0, 1, 2]  # u_0 = 0 whatever the table holds
    for read in (rec.b, rec.u):
        for n in (-1, 3):
            with pytest.raises(InvalidParameterError, match="outside 0..2"):
                read(n)


# the largest float whose square is finite
LAM_EDGE = math.sqrt(sys.float_info.max)


@pytest.mark.parametrize(
    "lam",
    [math.nan, math.nextafter(LAM_EDGE, math.inf), 1e300, -1e300, 10**400, Fraction(10**400)],
    ids=["nan", "edge+ulp", "1e300", "-1e300", "huge-int", "huge-Fraction"],
)
def test_pencil_recurrence_refuses_a_lam_whose_square_overflows(lam):
    # u_n = lam^2 (1 - a_{n-1}^2) came out inf, and `cmvpencil recurrence` printed it
    with pytest.raises(InvalidParameterError, match=r"need \|lam\| <= 1.3407807929942596e\+154"):
        pencil_recurrence(jacobi_opuc_reflections(0.3, 0.7), lam)


@pytest.mark.parametrize("lam", [LAM_EDGE, -LAM_EDGE, int(LAM_EDGE)], ids=["edge", "-edge", "int"])
def test_pencil_recurrence_is_finite_up_to_its_lam_edge(lam):
    rec = pencil_recurrence(jacobi_opuc_reflections(0.3, 0.7), lam)
    assert all(math.isfinite(rec.b(n)) and math.isfinite(rec.u(n)) for n in range(6))


@pytest.mark.parametrize("z", [10**400, Fraction(10**400)], ids=["int", "Fraction"])
def test_szego_eval_refuses_a_point_too_large_for_a_float(z):
    # complex(z) raised a bare OverflowError
    with pytest.raises(InvalidParameterError, match="float value"):
        szego_eval(jacobi_opuc_reflections(0.3, 0.7), 3, z)


@pytest.mark.parametrize(
    "n, z",
    [(2, math.nan), (3, math.inf), (3, 1e300), (3, complex(1e200, 0))],
    ids=["nan", "inf", "1e300", "complex-1e200"],
)
def test_szego_eval_refuses_a_raw_point_that_is_not_finite_or_overflows(n, z):
    # each returned ((nan+nanj), (nan+nanj)) as its last pair and raised nothing
    with pytest.raises(InvalidParameterError):
        szego_eval(jacobi_opuc_reflections(0.3, 0.7), n, z)


def _parts(rng, size):
    """Seeded float parts from 1e-150 to 1e150 in size, either sign, one in
    ten a signed zero."""
    parts = rng.uniform(-1, 1, size) * 10.0 ** rng.uniform(-150, 150, size)
    kind = rng.integers(0, 20, size)
    parts[kind == 0] = 0.0
    parts[kind == 1] = -0.0
    return parts


def test_lane_arithmetic_is_cpython_complex_arithmetic_bit_for_bit():
    # numpy's complex product and quotient differ from CPython's in the last
    # bit on a share of these draws, so either in place of a helper fails here
    rng = np.random.default_rng(20261022)
    size = 100_000
    ar, ai, br, bi = (_parts(rng, size) for _ in range(4))
    kind = rng.integers(0, 10, size)
    bi[kind == 0] = br[kind == 0]  # ties |br| = |bi|, either sign
    bi[kind == 1] = -br[kind == 1]
    bi[kind == 2] = 0.0  # real divisors, either zero
    bi[kind == 3] = -0.0
    zero = (br == 0) & (bi == 0)
    br[zero] = rng.choice([1.0, -1e-150, 1e150], zero.sum())  # zero divisors are tested below
    lhs = [complex(x, y) for x, y in zip(ar.tolist(), ai.tolist())]
    rhs = [complex(x, y) for x, y in zip(br.tolist(), bi.tolist())]
    for helper, op in ((_c_mul, lambda x, y: x * y), (_c_div, lambda x, y: x / y)):
        real, imag = helper(ar, ai, br, bi)
        got = [(x.hex(), y.hex()) for x, y in zip(real.tolist(), imag.tolist())]
        assert got == [(w.real.hex(), w.imag.hex()) for w in map(op, lhs, rhs)], helper.__name__


@pytest.mark.parametrize("br, bi", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
def test_a_lane_quotient_by_zero_raises_as_complex_division_does(br, bi):
    with pytest.raises(ZeroDivisionError):
        complex(1.0, 2.0) / complex(br, bi)
    with pytest.raises(ZeroDivisionError):
        _c_div(np.array([1.0, 3.0]), np.array([2.0, 4.0]), np.array([1.0, br]), np.array([1.0, bi]))


def test_szego_eval_array_form_is_the_scalar_form_on_each_lane():
    sequences = [jacobi_opuc_reflections(0.3, 0.7), ReflectionSequence.constant(-0.0), ReflectionSequence.constant(0)]
    points = [CirclePoint(2.0), 0.0, -0.0, 0.5 - 1j, Fraction(1, 3)]
    phi, phis = szego_eval(sequences, 9, points)
    assert phi.shape == phis.shape == (10, 3, 5)
    for s, a in enumerate(sequences):
        for j, z in enumerate(points):
            lane = list(zip(phi[:, s, j].tolist(), phis[:, s, j].tolist()))
            assert all(_same(x, y) for x, y in zip(lane, szego_eval(a, 9, z)))
    # one point is a lane of its own; no sequence or point gives an empty axis
    assert szego_eval(sequences, 9, CirclePoint(2.0))[0].shape == (10, 3, 1)
    assert szego_eval((), 9, points)[0].shape == (10, 0, 5)
    with pytest.raises(InvalidParameterError, match=r"overflows at z = 1e\+300"):
        szego_eval(sequences, 3, [CirclePoint(1.0), 1e300])
    with pytest.raises(InvalidParameterError, match="float value"):
        szego_eval(sequences, 3, [CirclePoint(1.0), "0.5"])


def _same_bits(taken, reads):
    return len(taken) == len(reads) and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(taken.tolist(), reads)
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: jacobi_opuc_reflections(0.3, 0.7),
        lambda: jacobi_opuc_reflections(-0.5, 0.25),
        lambda: ReflectionSequence.constant(-0.0),
        lambda: ReflectionSequence.constant(0.375),
        lambda: ReflectionSequence.from_list(
            [math.sin(1.7 * k) * 0.99 for k in range(1200)]
        ),
    ],
)
def test_take_equals_per_index_reads_bitwise(make):
    taken = make().take(1000)
    reads = [make()(k) for k in range(1000)]
    assert taken.dtype == float
    assert _same_bits(taken, reads)


def test_take_keeps_fractions_exact():
    a = jacobi_opuc_reflections(Fraction(1, 2), Fraction(1))
    taken = a.take(6)
    assert taken.dtype == object
    assert list(taken) == [a(k) for k in range(6)]
    assert all(isinstance(v, Fraction) for v in taken)
    listed = ReflectionSequence.from_list([Fraction(1, 3), 0.25, Fraction(-2, 7)])
    assert listed.take(3).dtype == object
    assert list(listed.take(3)) == [Fraction(1, 3), 0.25, Fraction(-2, 7)]
    assert list(ReflectionSequence.constant(Fraction(1, 5)).take(2)) == [Fraction(1, 5)] * 2


def test_take_raises_the_per_index_errors():
    a = ReflectionSequence.from_list([0.5, 2.0, 0.1])
    assert list(a.take(1)) == [0.5]
    with pytest.raises(ReflectionBoundError) as excinfo:
        a.take(3)
    assert excinfo.value.index == 1 and excinfo.value.value == 2.0
    with pytest.raises(ReflectionBoundError) as excinfo:
        ReflectionSequence.from_list([0.1, -1.0]).take(5)  # bound error comes first
    assert excinfo.value.index == 1
    with pytest.raises(ReflectionBoundError) as excinfo:
        ReflectionSequence.constant(1.5).take(3)
    assert excinfo.value.index == 0
    with pytest.raises(ReflectionBoundError):
        ReflectionSequence.from_list([0.1, float("nan")]).take(2)
    short = ReflectionSequence.from_list([0.1, 0.2])
    assert list(short.take(2)) == [0.1, 0.2]
    with pytest.raises(InvalidParameterError) as excinfo:
        short.take(3)
    assert not isinstance(excinfo.value, ReflectionBoundError)
    assert "beyond provided list of length 2" in str(excinfo.value)
    with pytest.raises(InvalidParameterError):
        short.take(-1)
    assert short.take(0).size == 0


def test_a_read_that_raises_stores_nothing():
    calls = []

    def values(n):
        calls.append(n)
        if n == 1 and calls.count(1) == 1:
            raise RuntimeError("transient")
        return 2.0 if n == 2 else 0.5

    a = ReflectionSequence(values)
    with pytest.raises(RuntimeError):
        a(1)
    with pytest.raises(ReflectionBoundError):
        a(2)
    with pytest.raises(ReflectionBoundError):
        a(2)
    assert a(1) == 0.5 and a(1) == 0.5 and a(0) == 0.5
    # each failed read ran the function again; each good one ran it once
    assert calls == [1, 2, 2, 1, 0]


@given(reflection_lists)
def test_take_of_a_list_is_the_list(values):
    a = ReflectionSequence.from_list(values)
    assert _same_bits(a.take(len(values)), values)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ReflectionSequence.from_list(np.linspace(-0.9, 0.9, 1000).tolist()),
        lambda: ReflectionSequence.constant(0.25),
        lambda: jacobi_opuc_reflections(0.3, 0.7),
        lambda: jacobi_opuc_reflections(Fraction(1, 2), Fraction(1, 3)),
        # a_n = (-1)^n sqrt(1 - u_{n+1}) at u = 0.75: values alone, no array route
        lambda: ReflectionSequence(lambda n: (-1) ** n * math.sqrt(1.0 - 0.75)),
    ],
    ids=["from_list", "constant", "jacobi", "jacobi-fraction", "from_u"],
)
def test_a_dropped_sequence_dies_by_reference_counting(make):
    # the memo used to close over the sequence itself, a cycle that only
    # the cyclic collector could free
    gc.disable()
    try:
        a = make()
        a(0), a(7), a.r(3)
        a.take(64)
        alive = weakref.ref(a)
        del a
        assert alive() is None
    finally:
        gc.enable()


def _pow_squares(values):
    """The squares as ``ReflectionSequence.r`` forms them, one Python float power each."""
    return np.array([v**2 for v in values.tolist()])


def test_complement_squares_are_the_per_element_float_power():
    rng = np.random.default_rng(1108_3535)
    tiny = np.array(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1.4916681462400413e-154]
    )
    samples = [
        rng.uniform(-1.0, 1.0, 1_000_000),
        rng.uniform(-1e-150, 1e-150, 10_000),
        tiny,
        -tiny,
    ]
    for values in samples:
        expected = np.sqrt(1.0 - _pow_squares(values))
        got = _complement(values)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    # the route is the float power, not x * x: these draws round differently
    values = samples[0]
    assert np.any((values * values).view(np.int64) != _pow_squares(values).view(np.int64))


# ---------------------------------------------------------------------------
# The two gates of a caller's number: _require_real and _require_count
# ---------------------------------------------------------------------------

BIG = sys.float_info.max


def _passes(value, *args, **ends) -> bool:
    try:
        _require_real(value, "a value in range", *args, **ends)
    except InvalidParameterError as exc:
        assert str(exc).startswith("need a value in range, got ")
        return False
    return True


@pytest.mark.parametrize(
    "value, passes",
    [
        (BIG, True),
        (-BIG, True),
        (int(BIG), True),
        (int(BIG) + 1, False),  # compared exactly: float() would round it to BIG
        (math.inf, False),
        (-math.inf, False),
        (math.nan, False),
        (10**400, False),
        (-(10**400), False),
        (Fraction(10**400), False),
        (Fraction(-(10**400), 3), False),
        (Fraction(1, 10**400), True),
        (-0.0, True),
        (np.float64(0.5), True),
        (np.float64(math.nan), False),
        (np.int64(-5), True),
        (np.array(0.5), True),
        (np.array([0.5, 0.5]), False),  # no single truth value
        (True, True),
        ("x", False),
        (None, False),
        (1j, False),
        ([0.5], False),
    ],
    ids=repr,
)
def test_real_gate_defaults_to_the_float_range(value, passes):
    assert _passes(value) is passes


@pytest.mark.parametrize(
    "value, ends, passes",
    [
        (0.0, "[]", True),
        (1.0, "[]", True),
        (-0.0, "[]", True),
        (math.nextafter(0.0, -1.0), "[]", False),
        (math.nextafter(1.0, 2.0), "[]", False),
        (0.0, "(]", False),
        (-0.0, "(]", False),
        (1.0, "(]", True),
        (1.0, "[)", False),
        (0.0, "[)", True),
        (math.nextafter(0.0, 1.0), "()", True),
        (math.nextafter(1.0, 0.0), "()", True),
        (False, "[]", True),
        (True, "[]", True),
        (True, "[)", False),
        (np.float64(1.0), "[)", False),
        (Fraction(1, 2), "()", True),
        (math.nan, "()", False),
        (math.inf, "[]", False),
    ],
    ids=repr,
)
def test_real_gate_ends_open_and_closed(value, ends, passes):
    assert _passes(value, 0, 1, open_lo=ends[0] == "(", open_hi=ends[1] == ")") is passes


def test_real_gate_formats_a_message_only_to_raise(monkeypatch):
    def refuse(value, form=repr):
        raise AssertionError("a valid call formatted a message")

    monkeypatch.setattr(recurrences, "_shown", refuse)
    _require_real(0.5, "a value in range")
    _require_count(3, "an integer n", 0)
    recurrences._require_lam(2.0)
    pencil_recurrence(jacobi_opuc_reflections(0.3, 0.7), 2.0)


def test_real_gate_names_the_value_too_long_to_print():
    with pytest.raises(InvalidParameterError, match=r"^need a finite g, got <int of about 10\^5000>$"):
        _require_real(10**5000, "a finite g")


@pytest.mark.parametrize(
    "value, lo, hi, passes",
    [
        (2, 2, None, True),
        (10**400, 0, None, True),
        (np.int64(7), 2, 7, True),
        (8, 2, 7, False),
        (1, 2, None, False),
        (True, 0, None, False),
        (2.0, 0, None, False),
        (Fraction(2), 0, None, False),
        ("2", 0, None, False),
        (None, 0, None, False),
    ],
    ids=repr,
)
def test_count_gate(value, lo, hi, passes):
    if passes:
        got = _require_count(value, "an integer n", lo, hi)
        assert got == value and type(got) is int
        return
    bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    with pytest.raises(TruncationError, match=f"^need an integer n {bounds}, got "):
        _require_count(value, "an integer n", lo, hi, TruncationError)
