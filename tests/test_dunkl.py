"""The reflection-differential operator and its exact eigenfunctions."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cmvpencil import dunkl
from cmvpencil.dunkl import (
    PolynomialCoeffs,
    apply_dunkl,
    dunkl_eigenvalue,
    fourth_kind_identity_residual,
    third_kind_identity_residual,
    verify_eigenfunction,
)
from cmvpencil.errors import InvalidParameterError
from cmvpencil.maps import big_m1_recurrence
from cmvpencil.recurrences import MonicThreeTerm, eval_monic
from oracles import fourth_kind_coeffs, third_kind_coeffs

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)
small_polys = st.lists(fractions, min_size=1, max_size=6).map(
    lambda cs: PolynomialCoeffs(tuple(cs))
)


def monic(rec, n):
    """P_n of a recurrence from the module's ladder, the one verify_eigenfunction reads."""
    return PolynomialCoeffs(dunkl._values(*dunkl._MonicLadder(rec)[n]))


def degree(p):
    """Degree of a polynomial; -1 for the zero polynomial."""
    return -1 if p.is_zero() else len(p.coeffs) - 1


def value_at(p, x):
    """p(x) by Horner's rule."""
    acc = x * 0
    for ck in reversed(p.coeffs):
        acc = acc * x + ck
    return acc


def test_polynomial_coeffs_basics():
    p = PolynomialCoeffs((Fraction(1), Fraction(0), Fraction(2)))
    assert p.coeffs == (1, 0, 2)
    assert PolynomialCoeffs((0, 0)).is_zero()
    assert PolynomialCoeffs((0, 0)).coeffs == (0,)  # trimmed to the single 0
    assert PolynomialCoeffs((1, 2, 0, 0)).coeffs == (1, 2)
    assert p.max_abs() == 2.0


def test_from_three_term_builds_monic_coefficients():
    rec = big_m1_recurrence(1, 1, Fraction(1, 2))
    p2 = monic(rec, 2)
    assert degree(p2) == 2
    assert p2.coeffs[-1] == 1  # monic
    # agrees with the recurrence evaluated pointwise
    x = Fraction(1, 3)
    expected = (x - rec.b(1)) * (x - rec.b(0)) - rec.u(1)
    assert value_at(p2, x) == expected
    assert value_at(p2, x) == eval_monic(rec, 2, x)[2]


def test_apply_dunkl_hand_computed_even_case():
    # p = x^2 at (alpha, beta, c) = (1, 1, 1/2): the reflection part cancels
    # and the derivative part gives 2x(x-1)(x+1/2)*2x / x^2 = 4x^2 - 2x - 2
    image = apply_dunkl(1, 1, Fraction(1, 2), PolynomialCoeffs((0, 0, 1)))
    assert image.coeffs == (Fraction(-2), Fraction(-2), Fraction(4))


def test_apply_dunkl_hand_computed_odd_case():
    # p = x: the image is -8x + 2 = -8*(x - 1/4), and 1/4 is exactly b_0 of
    # the matching two-interval family, so x - 1/4 is the n = 1 eigenfunction
    image = apply_dunkl(1, 1, Fraction(1, 2), PolynomialCoeffs((0, 1)))
    assert image.coeffs == (Fraction(2), Fraction(-8))
    assert big_m1_recurrence(1, 1, Fraction(1, 2)).b(0) == Fraction(1, 4)
    assert dunkl_eigenvalue(1, 1, 1) == -8


def test_apply_dunkl_kills_constants():
    image = apply_dunkl(2, Fraction(1, 2), Fraction(1, 4), PolynomialCoeffs((5,)))
    assert image.is_zero()


@given(small_polys, small_polys)
def test_apply_dunkl_is_linear(p, q):
    alpha, beta, c = Fraction(1), Fraction(2), Fraction(1, 3)
    combined = PolynomialCoeffs(
        tuple(
            (p.coeffs[i] if i < len(p.coeffs) else 0)
            + (q.coeffs[i] if i < len(q.coeffs) else 0)
            for i in range(max(len(p.coeffs), len(q.coeffs)))
        )
    )
    lhs = apply_dunkl(alpha, beta, c, combined)
    pa = apply_dunkl(alpha, beta, c, p)
    qa = apply_dunkl(alpha, beta, c, q)
    assert lhs == PolynomialCoeffs(_oracle_add(pa.coeffs, qa.coeffs))


@given(small_polys)
def test_apply_dunkl_preserves_degree_bound(p):
    image = apply_dunkl(Fraction(1), Fraction(2), Fraction(1, 3), p)
    assert degree(image) <= max(degree(p), 0)


def test_eigenvalues():
    assert dunkl_eigenvalue(0, 1, 2) == 0
    assert dunkl_eigenvalue(4, 1, 2) == 8
    assert [dunkl_eigenvalue(n, 0, 0) for n in range(5)] == [0, -4, 4, -8, 8]
    alpha, beta = Fraction(3, 2), Fraction(1, 2)
    assert dunkl_eigenvalue(3, alpha, beta) == -2 * (alpha + beta + 4)


def test_eigenfunctions_exact():
    for n in range(8):
        report = verify_eigenfunction(1, 1, Fraction(1, 2), n)
        assert report.exact
        assert report.residual.is_zero()
        assert report.eigenvalue == dunkl_eigenvalue(n, 1, 1)


# floats enter as the Fraction of their exact binary value; -0.0 is 0
float_inputs = [0.1, 0.5, -0.0, np.float64(0.3)]


@pytest.mark.parametrize("x", float_inputs)
def test_float_inputs_take_the_exact_route(x):
    exact = Fraction(x)
    alpha, beta, c = 1 + x, x, x / 2
    report = verify_eigenfunction(alpha, beta, c, 6)
    fraction_report = verify_eigenfunction(Fraction(alpha), Fraction(beta), Fraction(c), 6)
    assert report == fraction_report
    assert report.exact and report.residual.is_zero() and report.max_abs_residual == 0.0
    assert (report.alpha, report.beta, report.c) == (Fraction(alpha), exact, Fraction(c))
    assert all(type(v) is Fraction for v in report.residual.coeffs)
    assert dunkl_eigenvalue(5, alpha, beta) == -2 * (Fraction(alpha) + exact + 6)
    assert type(dunkl_eigenvalue(5, alpha, beta)) is Fraction
    p = PolynomialCoeffs((x, 1.0, -x))
    image = apply_dunkl(alpha, beta, c, p)
    assert image == apply_dunkl(
        Fraction(alpha), Fraction(beta), Fraction(c), PolynomialCoeffs((exact, 1, -exact))
    )
    assert all(type(v) is Fraction for v in image.coeffs)
    rec = MonicThreeTerm.from_arrays([x] * 4, [0, x, 1.0, x])
    exact_rec = MonicThreeTerm.from_arrays([exact] * 4, [0, exact, 1, exact])
    p4 = monic(rec, 4)
    assert p4 == monic(exact_rec, 4)
    assert all(type(v) is Fraction for v in p4.coeffs)


bad_values = [math.nan, math.inf, -math.inf, np.float64("nan"), 1j, "1/2", None]


@pytest.mark.parametrize("bad", bad_values, ids=repr)
@pytest.mark.parametrize("slot", range(3))
def test_non_real_parameters_raise(bad, slot):
    params = [1, 1, Fraction(1, 2)]
    params[slot] = bad
    name = f"^{('alpha', 'beta', 'c')[slot]} must"
    info = dunkl._ladder.cache_info()
    with pytest.raises(InvalidParameterError, match=name):
        verify_eigenfunction(*params, 2)
    assert dunkl._ladder.cache_info() == info
    with pytest.raises(InvalidParameterError, match=name):
        apply_dunkl(*params, PolynomialCoeffs((0, 1)))
    if slot < 2:
        with pytest.raises(InvalidParameterError, match=name):
            dunkl_eigenvalue(1, *params[:2])


@pytest.mark.parametrize("bad", bad_values, ids=repr)
def test_non_real_coefficients_raise(bad):
    with pytest.raises(InvalidParameterError, match="coefficient"):
        apply_dunkl(1, 1, Fraction(1, 2), PolynomialCoeffs((1, bad, 2)))
    rec = MonicThreeTerm.from_arrays([0, bad, 0], [0, 1, bad])
    with pytest.raises(InvalidParameterError, match="b_1"):
        monic(rec, 2)
    rec = MonicThreeTerm.from_arrays([0, 0, 0], [0, bad, 1])
    with pytest.raises(InvalidParameterError, match="u_1"):
        monic(rec, 2)


def test_chebyshev_special_case_of_family():
    # (alpha, beta, c) = (0, 0, 0): the eigenfunctions are monic third-kind,
    # i.e. the classical ones divided by 2^n
    rec = big_m1_recurrence(0, 0, 0)
    for n in range(8):
        classical = third_kind_coeffs(n)
        assert tuple(c / Fraction(2) ** n for c in classical.coeffs) == monic(rec, n).coeffs


def test_chebyshev_reflection_relation():
    # V_n(-x) = (-1)^n W_n(x)
    for n in range(7):
        v = third_kind_coeffs(n)
        w = fourth_kind_coeffs(n)
        flipped = tuple((-1) ** (n + k) * c for k, c in enumerate(v.coeffs))
        assert flipped == w.coeffs


def test_chebyshev_identity_residuals_vanish():
    for n in range(13):
        assert third_kind_identity_residual(n).is_zero()
        assert fourth_kind_identity_residual(n).is_zero()


def test_first_kind_values():
    assert third_kind_coeffs(0).coeffs == (Fraction(1),)
    assert third_kind_coeffs(1).coeffs == (Fraction(-1), Fraction(2))
    assert third_kind_coeffs(2).coeffs == (Fraction(-1), Fraction(-2), Fraction(4))
    assert fourth_kind_coeffs(1).coeffs == (Fraction(1), Fraction(2))


# ---------------------------------------------------------------------------
# Oracle: coefficient-wise Fraction/int arithmetic, one operation at a time.
# The module computes the same results on integer numerators over one
# denominator; these tests hold it to the oracle's values and every result to
# Fraction coefficients.  Float inputs reach the oracle as Fraction(v).
# ---------------------------------------------------------------------------


def _oracle_add(p, q):
    n = max(len(p), len(q))
    return tuple(
        (p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)
    )


def _oracle_scale(p, s):
    return tuple(s * ck for ck in p)


def _oracle_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            out[i + j] = out[i + j] + pi * qj
    return tuple(out)


def _oracle_reflect(p):
    return tuple(ck if k % 2 == 0 else -ck for k, ck in enumerate(p))


def _oracle_derivative(p):
    if len(p) == 1:
        return (0 * p[0],)
    return tuple(k * p[k] for k in range(1, len(p)))


def oracle_from_three_term(rec, n):
    p_prev = (Fraction(1),)
    if n == 0:
        return PolynomialCoeffs(p_prev)
    p_cur = (-rec.b(0), 1)
    for k in range(1, n):
        shifted = (0, *p_cur)
        p_next = _oracle_add(
            _oracle_add(shifted, _oracle_scale(p_cur, -rec.b(k))),
            _oracle_scale(p_prev, -rec.u(k)),
        )
        p_prev, p_cur = p_cur, p_next
    return PolynomialCoeffs(p_cur)


def oracle_apply_dunkl(alpha, beta, c, p):
    coeffs = p.coeffs
    g_num = (c, c * alpha - beta, alpha + beta + 1)
    reflected = _oracle_reflect(coeffs)
    diff = _oracle_add(reflected, _oracle_scale(coeffs, -1))
    cubic = (0, -2 * c, 2 * (c - 1), 2)
    numerator = _oracle_add(
        _oracle_mul(g_num, diff), _oracle_mul(cubic, _oracle_derivative(reflected))
    )
    assert all(r == 0 for r in numerator[:2])
    return PolynomialCoeffs(numerator[2:])


def oracle_verify_eigenfunction(alpha, beta, c, n):
    """P_n, its image, and the report fields of the eigenfunction check."""
    p = oracle_from_three_term(big_m1_recurrence(alpha, beta, c), n)
    image = oracle_apply_dunkl(alpha, beta, c, p)
    eig = dunkl_eigenvalue(n, alpha, beta)
    residual = PolynomialCoeffs(
        _oracle_add(image.coeffs, _oracle_scale(p.coeffs, -eig))
    )
    max_abs = 0.0 if residual.is_zero() else residual.max_abs()
    return p, image, eig, residual, max_abs


def oracle_chebyshev(n, const):
    p_prev = (Fraction(1),)
    if n == 0:
        return PolynomialCoeffs(p_prev)
    p_cur = (const, Fraction(2))
    for _ in range(1, n):
        doubled = (0, *_oracle_scale(p_cur, 2))
        p_prev, p_cur = p_cur, _oracle_add(doubled, _oracle_scale(p_prev, -1))
    return PolynomialCoeffs(p_cur)


def oracle_identity_residual(p, edge, n):
    reflected = _oracle_reflect(p.coeffs)
    lhs = _oracle_add(
        _oracle_mul((edge, Fraction(2)), _oracle_derivative(reflected)), reflected
    )
    factor = (2 * n + 1) * (1 if n % 2 == 0 else -1)
    return PolynomialCoeffs(_oracle_add(lhs, _oracle_scale(p.coeffs, -factor)))


def assert_same_coeffs(got, expected):
    """The oracle's values, as Fraction coefficients only."""
    assert got.coeffs == expected.coeffs
    assert all(type(v) is Fraction for v in got.coeffs)


def assert_same_report(report, alpha, beta, c, n, oracle):
    _, _, eig, residual, max_abs = oracle
    assert report.n == n
    assert (report.alpha, report.beta, report.c) == (alpha, beta, c)
    assert report.eigenvalue == eig
    assert_same_coeffs(report.residual, residual)
    assert report.max_abs_residual == max_abs
    assert report.exact is True


def _maybe_int(x):
    return int(x) if x.denominator == 1 else x


# the exact-parameter ranges of the weights-exact benchmark workload: alpha in
# [0, 2], beta in [0, 1], c in [0, 1/2], denominators up to 4 (8 for c);
# integer values are drawn both as int and as Fraction
denominators = st.integers(1, 4)
alphas = denominators.flatmap(
    lambda q: st.integers(0, 2 * q).map(lambda k: Fraction(k, q))
)
betas = denominators.flatmap(lambda q: st.integers(0, q).map(lambda k: Fraction(k, q)))
cs = denominators.flatmap(
    lambda q: st.integers(0, q).map(lambda k: Fraction(k, 2 * q))
)
maybe_ints = st.booleans()


@settings(max_examples=50, deadline=None)
@given(alphas, betas, cs, maybe_ints, st.integers(0, 40))
def test_exact_arithmetic_matches_oracle(alpha, beta, c, as_int, n):
    if as_int:
        alpha, beta, c = _maybe_int(alpha), _maybe_int(beta), _maybe_int(c)
    oracle = oracle_verify_eigenfunction(alpha, beta, c, n)
    p = monic(big_m1_recurrence(alpha, beta, c), n)
    assert_same_coeffs(p, oracle[0])
    assert_same_coeffs(apply_dunkl(alpha, beta, c, p), oracle[1])
    assert_same_report(verify_eigenfunction(alpha, beta, c, n), alpha, beta, c, n, oracle)
    for coeffs, residual, const in (
        (third_kind_coeffs, third_kind_identity_residual, Fraction(-1)),
        (fourth_kind_coeffs, fourth_kind_identity_residual, Fraction(1)),
    ):
        chebyshev = oracle_chebyshev(n, const)
        assert_same_coeffs(coeffs(n), chebyshev)
        assert_same_coeffs(residual(n), oracle_identity_residual(chebyshev, 2 * const, n))


rationals = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
# at most one float, placed at a drawn index; it enters as Fraction(v)
float_at = st.one_of(
    st.none(), st.tuples(st.integers(0, 19), st.sampled_from([0.0, -0.0, 0.5, -1.25]))
)


def _with_float(values, at):
    values = list(values)
    if at is not None and at[0] < len(values):
        values[at[0]] = at[1]
    return values


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=7),
    float_at,
    st.sampled_from([0, 1, 2, -1, Fraction(1, 2), 0.5, 1.0]),
    st.sampled_from([0, 1, Fraction(0), Fraction(1, 3), 0.25]),
    st.sampled_from([0, Fraction(0), Fraction(1, 4), -Fraction(1, 2), 0.0, 0.5]),
)
@example(coeffs=[Fraction(3, 4)], at=None, alpha=-1, beta=0, c=0)
def test_apply_dunkl_mixed_types_match_oracle(coeffs, at, alpha, beta, c):
    values = _with_float(coeffs, at)
    exact = PolynomialCoeffs(tuple(Fraction(v) for v in values))
    assert_same_coeffs(
        apply_dunkl(alpha, beta, c, PolynomialCoeffs(tuple(values))),
        oracle_apply_dunkl(Fraction(alpha), Fraction(beta), Fraction(c), exact),
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rationals, min_size=10, max_size=10),
    st.lists(rationals, min_size=10, max_size=10),
    float_at,
    st.integers(0, 9),
)
@example(b_values=[0.0] * 10, u_values=[0] * 10, at=None, n=2)
@example(b_values=[1] * 10, u_values=[Fraction(1, 2)] * 10, at=None, n=4)
@example(b_values=[Fraction(1, 2)] * 10, u_values=[1] * 10, at=None, n=4)
def test_from_three_term_mixed_types_match_oracle(b_values, u_values, at, n):
    # a float anywhere in the recurrence (-0.0 included) enters as Fraction(v)
    coeffs = _with_float([*b_values, *u_values], at)
    rec = MonicThreeTerm.from_arrays(coeffs[:10], [0, *coeffs[11:]])
    exact = [Fraction(v) for v in coeffs]
    exact_rec = MonicThreeTerm.from_arrays(exact[:10], [0, *exact[11:]])
    assert_same_coeffs(monic(rec, n), oracle_from_three_term(exact_rec, n))


# ---------------------------------------------------------------------------
# The per-(alpha, beta, c) ladder cache
# ---------------------------------------------------------------------------


def test_ladder_cache_is_bounded():
    assert dunkl._ladder.cache_info().maxsize is not None


def test_equal_parameters_share_one_ladder():
    dunkl._ladder.cache_clear()
    for one in (1, 1.0, Fraction(1), np.int64(1), np.float64(1.0)):
        assert verify_eigenfunction(one, one, 0.5, 4).residual.is_zero()
    info = dunkl._ladder.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 4, 1)


def test_ladder_entries_are_reduced():
    ladder = dunkl._ladder(Fraction(7, 4), Fraction(2, 3), Fraction(1, 6))
    verify_eigenfunction(Fraction(7, 4), Fraction(2, 3), Fraction(1, 6), 20)
    for k in range(21):
        nums, den = ladder[k]
        assert den > 0
        assert math.gcd(den, *nums) == 1
        assert nums[-1] == den  # monic


def test_rejected_degree_leaves_the_ladder_cache_alone():
    # fresh triples: checking the cache first would build and cache their
    # ladders, evicting valid ones
    info = dunkl._ladder.cache_info()
    for triple in ((Fraction(1, 7), 0, 0), (2, 1, Fraction(1, 9)), (0.25, 0.5, 0.125)):
        for n in (-1, 2.0, True):
            with pytest.raises(InvalidParameterError, match="degree"):
                verify_eigenfunction(*triple, n)
    assert dunkl._ladder.cache_info() == info


def test_ladder_concurrent_sweeps():
    # four threads on one key (more than the cores here), two sweeping up and
    # two down, with frequent thread switches: a lost or repeated append would
    # leave a wrong P_k in the ladder and a nonzero residual
    dunkl._ladder.cache_clear()
    key = (Fraction(3, 2), Fraction(1, 3), Fraction(3, 8))
    orders = [range(41), range(40, -1, -1)] * 2
    barrier = threading.Barrier(len(orders))
    results = [None] * len(orders)

    def sweep(i):
        barrier.wait()
        results[i] = [verify_eigenfunction(*key, n) for n in orders[i]]

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for reports in results:
        assert len(reports) == 41
        assert all(r.exact and r.residual.is_zero() for r in reports)
    ladder = dunkl._ladder(*key)
    fresh = dunkl._MonicLadder(big_m1_recurrence(*key))
    assert [ladder[k] for k in range(41)] == [fresh[k] for k in range(41)]


@pytest.mark.parametrize("n", [80, 200])
def test_exact_eigenfunction_high_degree(n):
    report = verify_eigenfunction(Fraction(5, 3), Fraction(3, 4), Fraction(3, 8), n)
    assert report.exact
    assert report.residual.is_zero()
