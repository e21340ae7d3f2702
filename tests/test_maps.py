"""Transform calculus: rank-one shifts, splits, rescalings, identifications."""

import cmath
import dataclasses
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmvpencil import maps
from cmvpencil.errors import InternalConsistencyError, InvalidParameterError, PolePointError
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
    values = eval_monic(src, 7, theta)
    for n in range(7):
        assert data.A(n) == values[n + 1] / values[n]  # exact
    assert data.C(0) == 0
    for n in range(1, 7):
        assert data.C(n) == src.u(n) / data.A(n - 1)


def test_christoffel_reconstruction_identity():
    # P_n = new_n - C_n * new_{n-1} recovers the source family
    a = jacobi_opuc_reflections(0.2, 0.4)
    src = pencil_recurrence(a, 1.3)
    data = christoffel(src, -3.0, 15)
    xs = np.linspace(-2.1, 2.1, 9)
    direct = eval_monic(src, 13, xs)
    transformed = eval_monic(data.transformed, 13, xs)
    for n in range(1, 14):
        rebuilt = transformed[n] - data.C(n) * transformed[n - 1]
        np.testing.assert_allclose(rebuilt, direct[n], rtol=1e-11, atol=1e-11)


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


def _reduction_literal(a, lam, branch, n):
    """(theta, A_n, C_n, b_n, u_n) as the closed forms of lambda_reduction's docstring."""
    even = n % 2 == 0
    sign = 1 if even else -1
    if branch == "lambda-1":
        theta = lam - 1
        A = -(1 + a(n)) if even else lam * (1 - a(n))
        C = lam * (1 + a(n - 1)) if even else a(n - 1) - 1
        b = (lam + 1) if even else -(lam + 1)
        u = -lam * (1 + sign * a(n)) * (1 + sign * a(n - 1))
    else:
        theta = lam + 1
        A = 1 - a(n) if even else lam * (1 - a(n))
        C = lam * (1 + a(n - 1)) if even else 1 + a(n - 1)
        b = (lam - 1) if even else -(lam - 1)
        u = lam * (1 + a(n - 1)) * (1 - a(n))
    return theta, A, C, b, 0 if n == 0 else u


@pytest.mark.parametrize(
    "a, lams",
    [
        (jacobi_opuc_reflections(0.3, 0.7), (0.5, 1.0, 2.0)),
        (ReflectionSequence.from_list([0.25, -0.5, 0.125, 0.75, -0.875] * 5), (0.5, 3.0)),
        (jacobi_opuc_reflections(Fraction(3, 10), Fraction(7, 10)), (Fraction(1, 2), 2, Fraction(7, 3))),
    ],
    ids=["jacobi-float", "float-list", "jacobi-fraction"],
)
@pytest.mark.parametrize("branch", ["lambda-1", "lambda+1"])
def test_lambda_reduction_is_its_literal_closed_forms(a, lams, branch):
    # by type and repr, so the one s = -/+1 body rounds as each written form
    # (signed zeros included: b_1 = -(lam - 1) is -0.0 at lam = 1.0)
    for lam in lams:
        data, transformed = lambda_reduction(a, lam, branch)
        for n in range(21):
            theta, A, C, b, u = _reduction_literal(a, lam, branch, n)
            got = (data.theta, data.A(n), data.C(n), transformed.b(n), transformed.u(n))
            for mine, literal in zip(got, (theta, A, C, b, u)):
                assert type(mine) is type(literal) and repr(mine) == repr(literal), (lam, n)


def test_lambda_reduction_other_branch_positive():
    a = jacobi_opuc_reflections(0.3, 0.7)
    _, transformed = lambda_reduction(a, 2.0, "lambda+1")
    # u is lam*(1+a_{n-1})(1-a_n) > 0: the family is positive definite
    assert all(transformed.u(n) > 0 for n in range(1, 16))
    for n in range(10):
        assert transformed.b(n) == pytest.approx((-1) ** n * 1.0)


def test_lambda_reduction_branch_validation():
    a = jacobi_opuc_reflections(0.3, 0.7)
    with pytest.raises(InvalidParameterError):
        lambda_reduction(a, 2.0, "other")
    with pytest.raises(InvalidParameterError):
        lambda_reduction(a, -1.0, "lambda-1")


@pytest.mark.parametrize("lam", [math.inf, math.nan, Fraction(10**400), 10**400])
def test_non_finite_lam_is_rejected(lam):
    # lam = inf used to give b_0 = inf and pass the self-check on nan residuals
    a = jacobi_opuc_reflections(0.3, 0.7)
    for branch in ("lambda-1", "lambda+1"):
        with pytest.raises(InvalidParameterError, match="need lam > 0 and finite"):
            lambda_reduction(a, lam, branch)
    # this used to report "need -1 < c < 1, got nan"
    with pytest.raises(InvalidParameterError, match="need lam > 0 and finite"):
        big_m1_parameters(0.3, 0.7, lam)


@pytest.mark.parametrize(
    "lam",
    [1e16, 2.0**53 + 4, 2.0**53 + 8, 2.0**54, 1e300, 2**55 - 1],
    ids=["1e16", "2**53+4", "2**53+8", "2**54", "1e300", "int 2**55-1"],
)
def test_big_m1_parameters_refuses_a_lam_where_c_rounds_to_one(lam):
    # c = (lam - 1)/(lam + 1) == 1.0 ended in a bare ZeroDivisionError
    with pytest.raises(InvalidParameterError, match="rounds to 1"):
        big_m1_parameters(0.3, 0.7, lam)


@pytest.mark.parametrize(
    "lam",
    [2.0**53, 2.0**53 + 2, 2.0**53 + 6, 2**55 - 2, Fraction(10**16)],
    ids=["2**53", "2**53+2", "2**53+6", "int 2**55-2", "Fraction 1e16"],
)
def test_big_m1_parameters_below_the_c_edge(lam):
    assert big_m1_parameters(0.3, 0.7, lam).c < 1


def test_lambda_reduction_self_check_fails_on_nan(monkeypatch):
    real = maps.christoffel

    def with_nan(src, theta, n_max):
        data = real(src, theta, n_max)
        u = data.transformed.u
        spoiled = MonicThreeTerm(b=data.transformed.b, u=lambda n: math.nan if n == 3 else u(n))
        return dataclasses.replace(data, transformed=spoiled)

    monkeypatch.setattr(maps, "christoffel", with_nan)
    with pytest.raises(InternalConsistencyError, match="by nan"):
        lambda_reduction(jacobi_opuc_reflections(0.3, 0.7), 2.0, "lambda-1")


def test_scale_map_polynomial_covariance():
    rec = sdg_recurrence(jacobi_opuc_reflections(0.3, 0.7))
    g = -2.5
    scaled = scale_map(rec, g)
    for x in (-1.0, 0.3, 1.7):
        lhs, rhs = eval_monic(scaled, 7, x), eval_monic(rec, 7, x / g)
        for n in range(8):
            assert lhs[n] == pytest.approx(g**n * rhs[n], rel=1e-12)
    with pytest.raises(InvalidParameterError):
        scale_map(rec, 0)


def test_scale_map_symmetric():
    sym = dg_symmetric_recurrence(jacobi_opuc_reflections(0.3, 0.7))
    scaled = scale_map(sym, 3.0)
    assert scaled.u(2) == pytest.approx(9 * sym.u(2))
    assert all(scaled.b(n) == 0 for n in range(6))
    for x in (0.4, -1.1):
        lhs, rhs = eval_monic(scaled, 5, x), eval_monic(sym, 5, x / 3.0)
        for n in range(6):
            assert lhs[n] == pytest.approx(3.0**n * rhs[n], rel=1e-12)


def test_reflect_map_parity():
    rec = pencil_recurrence(jacobi_opuc_reflections(0.2, 0.4), 1.7)
    flipped = reflect_map(rec)
    for x in (-1.2, 0.5, 2.0):
        lhs, rhs = eval_monic(flipped, 8, x), eval_monic(rec, 8, -x)
        for n in range(9):
            assert lhs[n] == pytest.approx((-1) ** n * rhs[n], rel=1e-12, abs=1e-12)


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
    assert eval_monic(roundtrip, n, x)[n] == pytest.approx(
        eval_monic(rec, n, x)[n], rel=1e-10, abs=1e-10
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
    # the rank-one relations hold at theta = chi^2 + shift
    theta = chi * chi + shift
    for n in range(6):
        assert split.P.b(n) == theta - split.A(n) - split.C(n)
        assert split.P_tilde.b(n) == theta - split.A(n) - split.C(n + 1)
    for x in (Fraction(1, 2), Fraction(-3, 7)):
        y = x * x + shift
        s = eval_monic(alternating, 13, x)
        p, p_tilde = eval_monic(split.P, 6, y), eval_monic(split.P_tilde, 6, y)
        for n in range(7):
            assert s[2 * n] == p[n]
            assert s[2 * n + 1] == (x - chi) * p_tilde[n]


def test_chihara_split_warns_on_sign_violation():
    # positive u makes C = -u negative: advisory warning, not an error
    split = chihara_split(dg_symmetric_recurrence(ReflectionSequence.constant(0.0)))
    assert split.chi == 0
    with pytest.warns(UserWarning):
        split.C(1)


def test_big_m1_parameters_frozen_example():
    # (xi, eta, lam) = (0, 0, 3): c = 1/2 and g = -2/(1 - c) = -4
    params = big_m1_parameters(0.0, 0.0, 3.0)
    assert params.alpha == 1.0 and params.beta == 1.0
    assert params.c == pytest.approx(0.5)
    src = pencil_recurrence(jacobi_opuc_reflections(0.0, 0.0), 3.0)
    for n in range(6):
        assert params.star.b(n) == pytest.approx(src.b(n) / -4.0)
        assert params.star.u(n) == pytest.approx(src.u(n) / 16.0)
    assert params.resolved.b(0) == big_m1_recurrence(1.0, 1.0, params.c).b(0)


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
        for evaluate, rec in (
            (dg_eval_from_circle, sym),
            (sdg_eval_from_circle, mono),
            (companion_eval_from_circle, comp),
        ):
            via_circle = evaluate(a, 11, point)
            assert len(via_circle) == 12
            assert via_circle == pytest.approx(
                eval_monic(rec, 11, point.x), rel=1e-11, abs=1e-11
            )


def _old_circle_values(a, n, point):
    # the single-degree circle recursion and the per-degree formulas of
    # dg_eval_from_circle, sdg_eval_from_circle and companion_eval_from_circle
    zz = point.z
    phi, phis = 1.0 + 0.0j, 1.0 + 0.0j
    for k in range(n):
        ak = a(k)
        phi, phis = zz * phi - ak * phis, phis - ak * zz * phi
    half = point.half
    zmh = half ** (-n)
    z = half * half
    return (
        zmh * (phi + phis) / (1 - a(n - 1)),
        zmh * (phis + half * phi) / (1 + half),
        zmh * (z * phi - phis) / (z - 1),
    )


def test_circle_evaluator_ladders_are_the_per_degree_formulas():
    # the 25 points and five (xi, eta) pairs of the shipped maps suite
    points = [CirclePoint(float(phi)) for phi in np.linspace(0.2, 2 * math.pi - 0.2, 25)]
    for xi, eta in ((0.0, 0.0), (0.3, 0.7), (1.0, 0.5), (-0.25, 0.75), (-0.5, -0.5)):
        a = jacobi_opuc_reflections(xi, eta)
        for point in points:
            ladders = [
                dg_eval_from_circle(a, 20, point),
                sdg_eval_from_circle(a, 20, point),
                companion_eval_from_circle(a, 20, point),
            ]
            for n, values in enumerate(zip(*ladders)):
                expected = _old_circle_values(a, n, point)
                assert [repr(v) for v in values] == [repr(v) for v in expected]
            assert len(ladders[0]) == 21


class _GaussianRational:
    """Exact re + im*i with Fraction parts."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def lift(value):
        return value if isinstance(value, _GaussianRational) else _GaussianRational(value)

    def __add__(self, other):
        other = self.lift(other)
        return _GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + -self.lift(other)

    def __rsub__(self, other):
        return self.lift(other) - self

    def __mul__(self, other):
        other = self.lift(other)
        return _GaussianRational(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.lift(other)
        norm = other.re * other.re + other.im * other.im
        return self * _GaussianRational(other.re / norm, -other.im / norm)


def test_circle_map_is_exact_at_rational_circle_points():
    # w = ((1 - t^2) + 2t i)/(1 + t^2) lies on the circle for rational t; with
    # z = w^2 and x = w + 1/w every quantity of the circle route is
    # Gaussian-rational, so S_n and Q_n must be real and equal the recurrence
    checks = 0
    for xi, eta in (
        (Fraction(0), Fraction(0)),
        (Fraction(3, 10), Fraction(7, 10)),
        (Fraction(1), Fraction(1, 2)),
        (Fraction(-1, 4), Fraction(3, 4)),
    ):
        a = jacobi_opuc_reflections(xi, eta)
        for t in (Fraction(1, 2), Fraction(2, 3), Fraction(-3, 5), Fraction(7, 4)):
            w = _GaussianRational(1 - t * t, 2 * t) / (1 + t * t)
            w_inv = _GaussianRational(1) / w
            x = (w + w_inv).re
            assert (w + w_inv).im == 0 and isinstance(x, Fraction)
            sym = eval_monic(dg_symmetric_recurrence(a), 20, x)
            mono = eval_monic(sdg_recurrence(a), 20, x)
            z = w * w
            phi, phis = _GaussianRational(1), _GaussianRational(1)
            w_pow = _GaussianRational(1)  # w^{-k}
            for k in range(21):
                s_k = w_pow * (phi + phis) / (1 - a(k - 1))
                q_k = w_pow * (phis + w * phi) / (1 + w)
                for via_circle, direct in ((s_k, sym[k]), (q_k, mono[k])):
                    assert isinstance(direct, Fraction)
                    assert via_circle.im == 0 and via_circle.re == direct
                    checks += 1
                phi, phis = z * phi - a(k) * phis, phis - a(k) * z * phi
                w_pow = w_pow * w_inv
    assert checks == 672


@pytest.mark.parametrize("xi,eta", [(0.0, 0.0), (0.3, 0.7), (1.0, 0.5), (-0.5, -0.5)])
def test_shifted_circle_evaluator_near_the_x_minus_2_pole(xi, eta):
    # 1 + z^{1/2} -> 0 as phi -> 2*pi, so the division costs accuracy like
    # eps / (2*pi - phi), and no angle in [0, 2*pi) reaches the pole itself
    a = jacobi_opuc_reflections(xi, eta)
    rec = sdg_recurrence(a)
    eps = sys.float_info.epsilon
    for gap in (1e-2, 1e-4, 1e-6, 1e-8):
        point = CirclePoint(2 * math.pi - gap)
        via_circle = sdg_eval_from_circle(a, 20, point)
        direct = eval_monic(rec, 20, point.x)
        worst = max(abs(v - d) / max(1.0, abs(d)) for v, d in zip(via_circle, direct))
        assert worst <= 10 * eps / gap
    last = CirclePoint(math.nextafter(2 * math.pi, 0))
    assert 1 + last.half != 0
    values = sdg_eval_from_circle(a, 20, last)
    assert all(cmath.isfinite(v) for v in values)


def test_companion_eval_pole_guard():
    a = jacobi_opuc_reflections(0.3, 0.7)
    with pytest.raises(InvalidParameterError):
        companion_eval_from_circle(a, 3, CirclePoint(0.0))
