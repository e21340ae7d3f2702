"""The verification-suite layer shared by the CLI and the acceptance tests."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from cmvpencil import cmv, measures, verify
from cmvpencil.dunkl import PolynomialCoeffs
from cmvpencil.cmv import BandedSymmetricMatrix
from cmvpencil.errors import InvalidParameterError
from cmvpencil.maps import dg_eval_from_circle, sdg_eval_from_circle
from cmvpencil.recurrences import (
    CirclePoint,
    MonicThreeTerm,
    dg_symmetric_recurrence,
    eval_monic,
    jacobi_opuc_reflections,
    sdg_recurrence,
)
from cmvpencil.verify import (
    SUITES,
    CheckResult,
    _coeff_mismatch,
    _gram_offdiag_worst,
    _within,
    run_suite,
)


def run_all():
    """Every suite at its defaults: {suite name: [CheckResult, ...]}, as ``cmvpencil verify`` runs them."""
    return {name: run_suite(name) for name in SUITES}


def test_unknown_suite_rejected():
    with pytest.raises(InvalidParameterError):
        run_suite("no-such-suite")


def test_checkresult_serialization():
    r = CheckResult(label="x", passed=True, value=1.5, tol=2.0, details={"k": 1})
    d = r.to_dict()
    assert d == {"label": "x", "passed": True, "value": 1.5, "tol": 2.0, "details": {"k": 1}}


def test_suite_overrides():
    results = run_suite("matrix-identities", dim=16)
    assert all(r.passed for r in results)
    assert "dim=16" in results[0].label
    single = run_suite("big-m1", cases=[(0.0, 0.0, 2.0)])
    assert len(single) == 1 and single[0].passed


def test_run_all_covers_every_suite():
    outcome = run_all()
    assert set(outcome) == set(SUITES)
    assert all(r.passed for results in outcome.values() for r in results)


def test_a_warning_inside_a_suite_reaches_the_caller(monkeypatch):
    # run_suite ignored every warning its suites raised
    census = verify.band_census

    def warned(*args):
        warnings.warn("planted in the census", RuntimeWarning)
        return census(*args)

    monkeypatch.setattr(verify, "band_census", warned)
    with pytest.warns(RuntimeWarning, match="planted in the census"):
        results = run_suite("spectrum")
    assert len(results) == 3 and all(r.passed for r in results)


@pytest.mark.parametrize("suite", ["matrix-identities", "spectrum"])
@pytest.mark.parametrize("dim", [7, 2, 0])
def test_suites_reject_odd_or_small_dim(suite, dim):
    with pytest.raises(InvalidParameterError, match="need even dim >= 4"):
        run_suite(suite, dim=dim)


@pytest.mark.parametrize("suite", ["maps", "little-m1", "big-m1", "dunkl"])
def test_suites_reject_negative_degree(suite):
    # the degree is fixed in each suite, so n_max is refused as a keyword
    with pytest.raises(InvalidParameterError, match="takes no keyword 'n_max'"):
        run_suite(suite, n_max=-1)


def test_verbatim_bug_is_not_reported_as_a_pole(monkeypatch):
    # only InvalidParameterError means "no value at this t"; any other error
    # is a fault in the display and must surface
    def broken(lam, t):
        raise RuntimeError("broken display")

    monkeypatch.setattr(verify, "periodic_weight_verbatim", broken)
    with pytest.raises(RuntimeError, match="broken display"):
        run_suite("periodic-weight")


def test_spectrum_suite_at_scale():
    # the full eigensolve this replaced costs O(dim^2) at this size
    results = run_suite("spectrum", dim=100_000)
    assert len(results) == 3 and all(r.passed for r in results)
    assert results[2].details["near_zero_count"] == 1


def test_gram_helper_same_bits_cold_and_warm_cache():
    xi, eta = 1.0, 0.5
    measure = measures.named_weight("sdg", xi=xi, eta=eta)
    rec = sdg_recurrence(jacobi_opuc_reflections(xi, eta))
    measures._jacobi_rule.cache_clear()
    measures._chain.cache_clear()
    cold = _gram_offdiag_worst(measure, rec, 12)
    warm = _gram_offdiag_worst(measure, rec, 12)
    assert cold == warm
    assert cold <= 1e-7


def test_gram_helper_reads_the_cached_discretizations(monkeypatch):
    # the little-m1 Gram check reads x, w from the Stieltjes chain cache, so a
    # second battery run adds no chain miss and discretizes nothing
    run_all()
    info = measures._chain.cache_info()
    discretized = []
    discretize = measures.discretize
    monkeypatch.setattr(measures, "discretize", lambda *args: discretized.append(args) or discretize(*args))
    run_all()
    assert measures._chain.cache_info().misses == info.misses
    assert discretized == []


def _reference_suite_maps():
    # the maps suite as it was with one sweep per family and a scalar
    # reduction: two evaluator calls and a Python max per (sequence, point)
    degree, tol = 20, 1e-10
    pairs = [(0.0, 0.0), (0.3, 0.7), (1.0, 0.5), (-0.25, 0.75), (-0.5, -0.5)]
    points = [CirclePoint(float(phi)) for phi in np.linspace(0.2, 2 * math.pi - 0.2, 25)]
    xs = np.array([point.x for point in points])
    results = []
    for xi, eta in pairs:
        a = jacobi_opuc_reflections(xi, eta)
        direct_sym = np.array(eval_monic(dg_symmetric_recurrence(a), degree, xs)).T.tolist()
        direct_mono = np.array(eval_monic(sdg_recurrence(a), degree, xs)).T.tolist()
        worst_sym = 0.0
        worst_mono = 0.0
        for point, col_sym, col_mono in zip(points, direct_sym, direct_mono):
            for via_circle, d_sym in zip(dg_eval_from_circle(a, degree, point), col_sym):
                worst_sym = max(worst_sym, abs(via_circle - d_sym) / max(1.0, abs(d_sym)))
            for via_circle, d_mono in zip(sdg_eval_from_circle(a, degree, point), col_mono):
                worst_mono = max(worst_mono, abs(via_circle - d_mono) / max(1.0, abs(d_mono)))
        pair = f"(xi,eta)=({xi},{eta})"
        results.append(_within(f"symmetric family via circle pair, {pair}", worst_sym, tol))
        results.append(_within(f"shifted family via circle pair, {pair}", worst_mono, tol))
    return results


def test_maps_suite_is_bit_identical_to_the_scalar_reference():
    new, old = run_suite("maps"), _reference_suite_maps()
    assert len(new) == len(old) == 10
    for r, ref in zip(new, old):
        assert (r.label, r.passed, r.tol, r.details) == (ref.label, ref.passed, ref.tol, ref.details)
        assert type(r.value) is float and type(r.passed) is bool
        assert r.value.hex() == ref.value.hex()


def test_hypot_of_parts_is_complex_abs_on_the_maps_suite_values():
    # the suite reduces |via - direct| with np.hypot of the parts; a platform
    # where that differs from abs(complex) would move the reported values
    points = [CirclePoint(float(phi)) for phi in np.linspace(0.2, 2 * math.pi - 0.2, 25)]
    xs = np.array([point.x for point in points])
    for xi, eta in ((0.0, 0.0), (0.3, 0.7), (1.0, 0.5), (-0.25, 0.75), (-0.5, -0.5)):
        a = jacobi_opuc_reflections(xi, eta)
        for evaluate, rec in (
            (dg_eval_from_circle, dg_symmetric_recurrence(a)),
            (sdg_eval_from_circle, sdg_recurrence(a)),
        ):
            direct = np.array(eval_monic(rec, 20, xs)).T
            via = np.array([evaluate(a, 20, point) for point in points])
            for values in (via, via - direct):
                moduli = np.hypot(values.real, values.imag)
                assert [m.hex() for m in moduli.ravel().tolist()] == [
                    abs(z).hex() for z in values.ravel().tolist()
                ]


def test_coeff_mismatch_reports_a_nan_coefficient():
    good = sdg_recurrence(jacobi_opuc_reflections(0.3, 0.7))
    for bad in (
        MonicThreeTerm(b=lambda n: math.nan, u=good.u),
        MonicThreeTerm(b=lambda n: math.nan if n == 3 else good.b(n), u=good.u),
        MonicThreeTerm(b=good.b, u=lambda n: math.nan if n == 5 else good.u(n)),
    ):
        assert math.isnan(_coeff_mismatch(bad, good, 5))
        assert math.isnan(_coeff_mismatch(good, bad, 5))
    assert _coeff_mismatch(good, good, 5) == 0.0


def test_a_nan_band_fails_the_matrix_identities_check(monkeypatch):
    build = cmv.build_J

    def with_nan(a, trunc):
        J = build(a, trunc)
        off = J.bands[1].copy()
        off[3] = np.nan
        return BandedSymmetricMatrix((J.bands[0], off))

    monkeypatch.setattr(cmv, "build_J", with_nan)
    results = run_suite("matrix-identities", dim=16)
    assert len(results) == 6
    for result in results:
        assert not result.passed and math.isnan(result.value)
        # the first nan residual is the one reported
        assert result.details == {"worst_case": "J_equals_L_plus_M at lam=-2.0"}


# -- NaN fault injection: one route per patch, by module name ---------------

NAN = math.nan
NAN_REC = MonicThreeTerm(b=lambda n: NAN, u=lambda n: NAN)


def _nan_diagonal(build_K):
    def patched(a, lam, trunc):
        K = build_K(a, lam, trunc)
        return BandedSymmetricMatrix((K.bands[0] * NAN, K.bands[1]))

    return patched


def _nan_values(evaluate):
    return lambda *args: [value * NAN for value in evaluate(*args)]


def _nan_report(check):
    def patched(alpha, beta, c, n):
        report = check(alpha, beta, c, n)
        return dataclasses.replace(report, residual=PolynomialCoeffs((NAN,)), max_abs_residual=NAN)

    return patched


def _nan_reduction(reduce):
    return lambda a, lam, branch: (reduce(a, lam, branch)[0], NAN_REC)


# (suite, keywords, module, route, NaN-returning replacement of the route,
#  indices of the suite's checks that read it; every other check must pass)
NAN_ROUTES = [
    ("matrix-identities", {"dim": 16}, cmv, "build_K", _nan_diagonal, range(6)),
    ("maps", {}, verify, "szego_eval", lambda f: lambda a, n, z: [(complex(NAN, NAN),) * 2] * (n + 1), range(10)),
    ("little-m1", {}, verify, "eval_monic", _nan_values, range(3)),
    ("big-m1", {}, verify, "stieltjes_recurrence", lambda f: lambda *args, **kw: NAN_REC, range(4)),
    ("spectrum", {}, verify, "band_census", lambda f: lambda m, bands, inflate: (NAN, [], NAN), range(3)),
    ("periodic-weight", {}, verify, "stieltjes_recurrence", lambda f: lambda *args, **kw: NAN_REC, range(3)),
    ("weyl", {}, verify, "m_per", lambda f: lambda z, lam: complex(NAN, NAN), (0, 1, 3)),
    ("weyl", {}, measures, "m_full", lambda f: lambda z, lam: complex(NAN, NAN), (2,)),
    ("dunkl", {}, verify, "verify_eigenfunction", _nan_report, range(3)),
    ("dunkl", {}, verify, "third_kind_identity_residual", lambda f: lambda n: PolynomialCoeffs((NAN,)), (3,)),
    ("structural", {}, verify, "eval_monic", _nan_values, range(3)),
    ("structural", {}, verify, "lambda_reduction", _nan_reduction, (3,)),
]


@pytest.mark.parametrize(
    "suite, kwargs, module, route, replace, reading",
    NAN_ROUTES,
    ids=[f"{suite}-{route}" for suite, _, _, route, _, _ in NAN_ROUTES],
)
def test_a_nan_route_fails_every_check_that_reads_it(monkeypatch, suite, kwargs, module, route, replace, reading):
    monkeypatch.setattr(module, route, replace(getattr(module, route)))
    results = run_suite(suite, **kwargs)
    failed = [k for k, result in enumerate(results) if not result.passed]
    assert failed == list(reading), [(r.label, r.value) for r in results]
    for k in reading:
        # each reports the nan it read, but the exact split, whose value is a flag
        value, label = results[k].value, results[k].label
        assert math.isnan(value) or (label == "even/odd split composes back exactly" and value == 1.0)


def test_every_suite_has_a_nan_route():
    assert {suite for suite, *_ in NAN_ROUTES} == set(SUITES)


def _spectrum_suite_with_census(monkeypatch, n_outliers, near_zero):
    """suite_spectrum at dim 8 with every census answering (n_outliers, [...], near_zero)."""
    answer = (n_outliers, [5.0] * n_outliers, near_zero)
    monkeypatch.setattr(verify, "band_census", lambda *args: answer)
    return verify.suite_spectrum(8)


@pytest.mark.parametrize("n_outliers, passed", [(0, True), (2, True), (3, False)])
def test_spectrum_pass_rule_allows_two_outliers_and_no_more(monkeypatch, n_outliers, passed):
    # the rule is n_outliers <= 2; no battery case has exactly 2
    results = _spectrum_suite_with_census(monkeypatch, n_outliers, 1)
    assert [r.passed for r in results] == [passed] * 3
    assert all(r.value == float(n_outliers) and r.tol == 2.0 for r in results)


@pytest.mark.parametrize("near_zero, passed", [(0, False), (1, True), (2, False)])
def test_spectrum_pass_rule_wants_one_eigenvalue_near_zero_at_lam_2(monkeypatch, near_zero, passed):
    # only the lam = 2 check reads the near-zero count
    results = _spectrum_suite_with_census(monkeypatch, 2, near_zero)
    assert [r.label.split(",")[1] for r in results] == [" lam=0.5", " lam=1.0", " lam=2.0"]
    assert [r.passed for r in results] == [True, True, passed]
    assert results[2].details["near_zero_count"] == near_zero
