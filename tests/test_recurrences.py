"""Reflection sequences, recurrence tables, and circle evaluation."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmvpencil.errors import InvalidParameterError, ReflectionBoundError
from cmvpencil.recurrences import (
    CirclePoint,
    MonicThreeTerm,
    ReflectionSequence,
    chebyshev_closed_form,
    companion_symmetric_recurrence,
    dg_symmetric_recurrence,
    eval_monic,
    jacobi_opuc_reflections,
    pencil_recurrence,
    reflections_from_u,
    sdg_recurrence,
    szego_eval,
)

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
    def same(lhs, rhs):
        return type(lhs) is type(rhs) and repr(lhs) == repr(rhs)

    xs = np.linspace(-2.5, 2.5, 41)
    for xi, eta in ((0.0, 0.0), (0.3, 0.7), (-0.5, -0.5)):
        rec = make(jacobi_opuc_reflections(xi, eta))
        for n in range(25):
            expected = _symmetric_oracle(rec.u, n, xs)
            assert eval_monic(rec, n, xs).tobytes() == expected.tobytes()
            for x in (*xs.tolist(), -0.0):
                assert same(eval_monic(rec, n, x), _symmetric_oracle(rec.u, n, x))
    rec = make(jacobi_opuc_reflections(Fraction(1, 2), Fraction(1)))
    for x in (Fraction(1, 3), Fraction(-7, 4), Fraction(0), 2):
        for n in range(15):
            value = eval_monic(rec, n, x)
            assert same(value, _symmetric_oracle(rec.u, n, x))
            assert not isinstance(value, float)


def test_eval_monic_is_exact_for_fractions():
    a = jacobi_opuc_reflections(Fraction(1, 2), Fraction(1))
    rec = pencil_recurrence(a, Fraction(3, 2))
    value = eval_monic(rec, 4, Fraction(1, 3))
    assert isinstance(value, Fraction)
    # independent route: expand the recurrence by hand at degree 2
    p1 = Fraction(1, 3) - rec.b(0)
    p2 = (Fraction(1, 3) - rec.b(1)) * p1 - rec.u(1)
    assert eval_monic(rec, 2, Fraction(1, 3)) == p2


def test_eval_degree_validation():
    rec = sdg_recurrence(ReflectionSequence.constant(0.0))
    with pytest.raises(InvalidParameterError):
        eval_monic(rec, -1, 0.5)


def test_szego_free_case_is_power():
    a = ReflectionSequence.constant(0.0)
    z = CirclePoint(1.234)
    phi, phis = szego_eval(a, 7, z)
    assert phi == pytest.approx(z.z**7, abs=1e-14)
    assert phis == pytest.approx(1.0, abs=1e-14)


def test_szego_values_at_zero_and_one():
    a = jacobi_opuc_reflections(0.3, 0.7)
    for n in range(1, 8):
        phi, _ = szego_eval(a, n, 0.0)
        assert phi == pytest.approx(-a(n - 1), abs=1e-15)
        phi1, _ = szego_eval(a, n, 1.0)
        prod = 1.0
        for k in range(n):
            prod *= 1 - a(k)
        assert phi1 == pytest.approx(prod, abs=1e-14)


def test_szego_frozen_values():
    # independently computed with 40-digit arithmetic
    a = jacobi_opuc_reflections(0.3, 0.7)
    z = cmath.exp(1.1j)
    phi, phis = szego_eval(a, 6, z)
    assert phi == pytest.approx(
        0.6265968974000016 + 0.1243210781640373j, abs=1e-14
    )
    assert phis == pytest.approx(
        0.6341439521342538 + 0.0770769114503567j, abs=1e-14
    )


@given(reflection_lists, st.floats(min_value=0.0, max_value=6.28))
def test_szego_moduli_agree_on_circle(values, phi):
    a = ReflectionSequence.from_list(values)
    n = len(values)
    p, ps = szego_eval(a, n, CirclePoint(phi))
    assert abs(p) == pytest.approx(abs(ps), rel=1e-9, abs=1e-9)


@given(reflection_lists)
def test_szego_constant_term_is_reflection(values):
    a = ReflectionSequence.from_list(values)
    n = len(values)
    phi, _ = szego_eval(a, n, 0.0)
    assert phi == pytest.approx(-values[-1], abs=1e-12)


def test_circle_point_normalization_and_branch():
    p = CirclePoint(3 * math.pi)
    assert p.phi == pytest.approx(math.pi)
    assert p.x == pytest.approx(2 * math.cos(p.phi / 2))
    assert p.half == pytest.approx(cmath.exp(0.5j * p.phi))
    assert p.z == pytest.approx(p.half**2)


def test_free_symmetric_family_is_first_kind():
    # a == 0 gives v_1 = 2, v_n = 1: the family 2*cos(n*tau) at x = 2*cos(tau)
    rec = dg_symmetric_recurrence(ReflectionSequence.constant(0.0))
    for tau in (0.3, 1.1, 2.0):
        x = 2 * math.cos(tau)
        for n in range(9):
            assert eval_monic(rec, n, x) == pytest.approx(
                chebyshev_closed_form("first", n, tau), abs=1e-12
            )


def test_monic_third_and_fourth_kind_closed_forms():
    # (b_0, b_n, u_n) = (1, 0, 1) on [-2, 2] is the monic third-kind family;
    # b_0 = -1 gives the fourth kind.  Closed forms live at x = cos(tau),
    # so evaluate the monic family at 2*cos(tau) against 2^n * closed form.
    third = MonicThreeTerm(b=lambda n: 1.0 if n == 0 else 0.0, u=lambda n: 0.0 if n == 0 else 1.0)
    fourth = MonicThreeTerm(b=lambda n: -1.0 if n == 0 else 0.0, u=lambda n: 0.0 if n == 0 else 1.0)
    for tau in (0.4, 1.0, 2.2):
        for n in range(8):
            assert eval_monic(third, n, 2 * math.cos(tau)) == pytest.approx(
                chebyshev_closed_form("third", n, tau), abs=1e-12
            )
            assert eval_monic(fourth, n, 2 * math.cos(tau)) == pytest.approx(
                chebyshev_closed_form("fourth", n, tau), abs=1e-12
            )


def test_chebyshev_closed_form_pole_guard():
    with pytest.raises(InvalidParameterError):
        chebyshev_closed_form("third", 3, math.pi)
    with pytest.raises(InvalidParameterError):
        chebyshev_closed_form("fourth", 3, 0.0)
    with pytest.raises(InvalidParameterError):
        chebyshev_closed_form("second", 3, 1.0)


def test_reflections_from_u_roundtrip():
    a = jacobi_opuc_reflections(0.3, 0.7)
    u = sdg_recurrence(a).u  # u_{n+1} = 1 - a_n^2
    signs = lambda n: 1 if a(n) >= 0 else -1
    recovered = reflections_from_u(u, signs)
    for n in range(10):
        assert recovered(n) == pytest.approx(a(n), abs=1e-14)


def test_reflections_from_u_rejects_bad_input():
    bad = reflections_from_u(lambda n: 1.5, lambda n: 1)
    with pytest.raises(InvalidParameterError):
        bad(0)
    bad_sign = reflections_from_u(lambda n: 0.5, lambda n: 2)
    with pytest.raises(InvalidParameterError):
        bad_sign(0)


def test_require_positive():
    rec = MonicThreeTerm.from_arrays([0.0, 0.0, 0.0], [0.0, 1.0, -0.5])
    with pytest.raises(InvalidParameterError):
        rec.require_positive(2)
    sdg_recurrence(jacobi_opuc_reflections(0.3, 0.7)).require_positive(20)


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


@given(reflection_lists)
def test_take_of_a_list_is_the_list(values):
    a = ReflectionSequence.from_list(values)
    assert _same_bits(a.take(len(values)), values)
