"""Transform calculus: rank-one shifts, splits, rescalings, identifications."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmvpencil.errors import InvalidParameterError, PolePointError
from cmvpencil.maps import (
    big_m1_parameters,
    big_m1_recurrence,
    chihara_split,
    christoffel,
    companion_eval_from_circle,
    dg_eval_from_circle,
    lambda_reduction,
    little_m1_recurrence,
    reflect_map,
    scale_map,
    sdg_eval_from_circle,
)
from cmvpencil.measures import Measure, gram
from cmvpencil.recurrences import (
    CirclePoint,
    MonicThreeTerm,
    ReflectionSequence,
    companion_symmetric_recurrence,
    dg_symmetric_recurrence,
    eval_monic,
    jacobi_opuc_reflections,
    pencil_recurrence,
    sdg_recurrence,
)


def test_christoffel_ratios_are_polynomial_ratios():
    a = jacobi_opuc_reflections(Fraction(1, 2), Fraction(1))
    src = sdg_recurrence(a)
    theta = Fraction(3)
    data = christoffel(src, theta, 8)
    for n in range(7):
        ratio = eval_monic(src, n + 1, theta) / eval_monic(src, n, theta)
        assert data.A(n) == ratio  # exact
    assert data.C(0) == 0
    for n in range(1, 7):
        assert data.C(n) == src.u(n) / data.A(n - 1)


def test_christoffel_reconstruction_identity():
    # P_n = new_n - C_n * new_{n-1} recovers the source family
    a = jacobi_opuc_reflections(0.2, 0.4)
    src = pencil_recurrence(a, 1.3)
    data = christoffel(src, -3.0, 15)
    xs = np.linspace(-2.1, 2.1, 9)
    for n in range(1, 14):
        direct = eval_monic(src, n, xs)
        rebuilt = eval_monic(data.transformed, n, xs) - data.C(n) * eval_monic(
            data.transformed, n - 1, xs
        )
        np.testing.assert_allclose(rebuilt, direct, rtol=1e-11, atol=1e-11)


def test_christoffel_pole_detection():
    # theta = 1 is the root of P_1 for the monic third-kind table
    rec = MonicThreeTerm(b=lambda n: 1.0 if n == 0 else 0.0, u=lambda n: 0.0 if n == 0 else 1.0)
    with pytest.raises(PolePointError) as excinfo:
        christoffel(rec, 1.0, 5)
    assert excinfo.value.index == 1


def test_christoffel_range_checks():
    src = sdg_recurrence(jacobi_opuc_reflections(0.3, 0.7))
    data = christoffel(src, -3.0, 4)
    with pytest.raises(InvalidParameterError):
        data.A(5)
    with pytest.raises(InvalidParameterError):
        data.C(-1)


def test_christoffel_transform_is_orthogonal_for_shifted_weight():
    # weight-level oracle: the transformed family must be orthogonal under
    # (x - theta) * w(x); here w is the lam = 1 closed-form weight
    xi, eta = 0.5, 0.25
    theta = -3.0
    a = jacobi_opuc_reflections(xi, eta)
    data = christoffel(sdg_recurrence(a), theta, 10)

    def density(x):
        x = np.asarray(x, dtype=float)
        return (x - theta) * (x + 2.0) * (4.0 - x * x) ** xi * np.abs(x) ** (2 * eta + 1)

    m = Measure(
        support=((-2.0, 2.0),),
        density=density,
        endpoint_exponents=((-2.0, 1 + xi), (2.0, xi), (0.0, 2 * eta + 1)),
    )
    for n, k in ((0, 1), (1, 2), (0, 3), (2, 4), (3, 5)):
        assert abs(gram(m, data.transformed, data.transformed, n, k)) < 1e-9
    assert gram(m, data.transformed, data.transformed, 3, 3) == pytest.approx(1.0)


def test_lambda_reduction_closed_forms_exact():
    # ratio closed forms for the circle-Jacobi coefficients, checked exactly
    xi, eta = Fraction(1, 2), Fraction(3, 4)
    lam = Fraction(7, 3)
    a = jacobi_opuc_reflections(xi, eta)
    data, transformed = lambda_reduction(a, lam, "lambda-1")
    for n in range(0, 12, 2):
        assert data.A(n) == -Fraction(n + 2 + 2 * eta, 1) / (n + 2 + xi + eta)
        if n:
            assert data.C(n) == lam * n / (n + 1 + xi + eta)
    for n in range(1, 12, 2):
        assert data.A(n) == lam * (n + 3 + 2 * xi + 2 * eta) / (n + 2 + xi + eta)
        assert data.C(n) == -(n + 1 + 2 * xi) / (n + 1 + xi + eta)
    for n in range(12):
        assert transformed.b(n) == (-1) ** n * (lam + 1)


def test_lambda_reduction_other_branch_positive():
    a = jacobi_opuc_reflections(0.3, 0.7)
    _, transformed = lambda_reduction(a, 2.0, "lambda+1")
    transformed.require_positive(15)  # u is lam*(1+a_{n-1})(1-a_n) > 0
    for n in range(10):
        assert transformed.b(n) == pytest.approx((-1) ** n * 1.0)


def test_lambda_reduction_branch_validation():
    a = jacobi_opuc_reflections(0.3, 0.7)
    with pytest.raises(InvalidParameterError):
        lambda_reduction(a, 2.0, "other")
    with pytest.raises(InvalidParameterError):
        lambda_reduction(a, -1.0, "lambda-1")


def test_scale_map_polynomial_covariance():
    rec = sdg_recurrence(jacobi_opuc_reflections(0.3, 0.7))
    g = -2.5
    scaled = scale_map(rec, g)
    for x in (-1.0, 0.3, 1.7):
        for n in range(8):
            assert eval_monic(scaled, n, x) == pytest.approx(
                g**n * eval_monic(rec, n, x / g), rel=1e-12
            )
    with pytest.raises(InvalidParameterError):
        scale_map(rec, 0)


def test_scale_map_symmetric():
    sym = dg_symmetric_recurrence(jacobi_opuc_reflections(0.3, 0.7))
    scaled = scale_map(sym, 3.0)
    assert scaled.u(2) == pytest.approx(9 * sym.u(2))
    assert all(scaled.b(n) == 0 for n in range(6))
    for x in (0.4, -1.1):
        for n in range(6):
            assert eval_monic(scaled, n, x) == pytest.approx(
                3.0**n * eval_monic(sym, n, x / 3.0), rel=1e-12
            )


def test_reflect_map_parity():
    rec = pencil_recurrence(jacobi_opuc_reflections(0.2, 0.4), 1.7)
    flipped = reflect_map(rec)
    for x in (-1.2, 0.5, 2.0):
        for n in range(9):
            assert eval_monic(flipped, n, x) == pytest.approx(
                (-1) ** n * eval_monic(rec, n, -x), rel=1e-12, abs=1e-12
            )


def test_adjacent_companion_is_reflected_family():
    # the adjacent companion of the lam = 1 family is its reflection
    a = jacobi_opuc_reflections(0.3, 0.7)
    q = sdg_recurrence(a)
    q_minus = reflect_map(q)
    for n in range(10):
        assert q_minus.b(n) == pytest.approx(-q.b(n))
        assert q_minus.u(n) == pytest.approx(q.u(n))


@given(
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=-1.9, max_value=1.9),
    st.floats(min_value=0.2, max_value=3.0),
)
def test_scale_then_unscale_is_identity(n, x, g):
    rec = sdg_recurrence(jacobi_opuc_reflections(0.3, 0.7))
    roundtrip = scale_map(scale_map(rec, g), 1.0 / g)
    assert eval_monic(roundtrip, n, x) == pytest.approx(
        eval_monic(rec, n, x), rel=1e-10, abs=1e-10
    )


def test_chihara_split_exact_identities():
    chi = Fraction(2, 5)
    shift = Fraction(-1, 4)
    v_values = {n: Fraction(-(n + 1), n + 4) for n in range(1, 24)}
    alternating = MonicThreeTerm(
        b=lambda n: chi if n % 2 == 0 else -chi,
        u=lambda n: 0 if n == 0 else v_values[n],
    )
    split = chihara_split(alternating, shift)
    assert split.chi == chi
    assert split.theta == chi * chi + shift
    for x in (Fraction(1, 2), Fraction(-3, 7)):
        y = x * x + shift
        for n in range(7):
            assert eval_monic(alternating, 2 * n, x) == eval_monic(split.P, n, y)
            assert eval_monic(alternating, 2 * n + 1, x) == (x - chi) * eval_monic(
                split.P_tilde, n, y
            )


def test_chihara_split_warns_on_sign_violation():
    # positive u makes C = -u negative: advisory warning, not an error
    split = chihara_split(dg_symmetric_recurrence(ReflectionSequence.constant(0.0)))
    assert split.chi == 0
    with pytest.warns(UserWarning):
        split.C(1)


def test_big_m1_parameters_frozen_example():
    # (xi, eta, lam) = (0, 0, 3): c = 1/2, g = -4, A(0) = -1, A(0)/g = 1/4
    params = big_m1_parameters(0.0, 0.0, 3.0)
    assert params.alpha == 1.0 and params.beta == 1.0
    assert params.c == pytest.approx(0.5)
    assert params.g == pytest.approx(-4.0)
    assert params.A_scaled(0) == pytest.approx(0.25)
    assert params.affine(1.5) == pytest.approx(-6.0)


def test_big_m1_star_really_differs_from_resolved():
    # the literal g-rescaling is not the family of the two-interval weight;
    # the gap is O(1), which the identification resolves (reciprocal lam)
    params = big_m1_parameters(0.0, 0.0, 2.0)
    gap = max(
        abs(float(params.star.b(n)) - float(params.resolved.b(n))) for n in range(8)
    )
    assert gap > 0.1


def test_big_m1_recurrence_exact_values():
    rec = big_m1_recurrence(2, 3, Fraction(2, 5))
    assert rec.b(0) == Fraction(2, 5)
    assert rec.u(1) == Fraction(12, 25)
    with pytest.raises(InvalidParameterError):
        big_m1_recurrence(2, 3, Fraction(7, 5))


def test_little_m1_first_coefficients():
    rec = little_m1_recurrence(1, 1)
    assert rec.b(0) == Fraction(1, 2)
    assert rec.u(1) == Fraction(1, 4)


def test_little_m1_is_scaled_sdg():
    # c = 0 reduces the identification to half-scale of the lam = 1 family
    a = jacobi_opuc_reflections(0.5, 1.0)
    direct = scale_map(sdg_recurrence(a), 0.5)
    rec = little_m1_recurrence(2.0, 3.0)
    for n in range(10):
        assert float(rec.b(n)) == pytest.approx(float(direct.b(n)), abs=1e-15)
        assert float(rec.u(n)) == pytest.approx(float(direct.u(n)), abs=1e-15)


def test_circle_evaluators_match_recurrences():
    a = jacobi_opuc_reflections(0.3, 0.7)
    sym = dg_symmetric_recurrence(a)
    mono = sdg_recurrence(a)
    comp = companion_symmetric_recurrence(a)
    for phi in (0.7, 2.0, 4.5):
        point = CirclePoint(phi)
        for n in range(12):
            assert dg_eval_from_circle(a, n, point) == pytest.approx(
                eval_monic(sym, n, point.x), rel=1e-11, abs=1e-11
            )
            assert sdg_eval_from_circle(a, n, point) == pytest.approx(
                eval_monic(mono, n, point.x), rel=1e-11, abs=1e-11
            )
            assert companion_eval_from_circle(a, n, point) == pytest.approx(
                eval_monic(comp, n, point.x), rel=1e-11, abs=1e-11
            )


def test_companion_eval_pole_guard():
    a = jacobi_opuc_reflections(0.3, 0.7)
    with pytest.raises(InvalidParameterError):
        companion_eval_from_circle(a, 3, CirclePoint(0.0))
