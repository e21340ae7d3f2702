"""The verification-suite layer shared by the CLI and the acceptance tests."""

import pytest

from cmvpencil import measures, verify
from cmvpencil.errors import InvalidParameterError
from cmvpencil.recurrences import jacobi_opuc_reflections, sdg_recurrence
from cmvpencil.verify import SUITES, CheckResult, _gram_offdiag_worst, run_all, run_suite


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
    cold = _gram_offdiag_worst(measure, rec, 12)
    warm = _gram_offdiag_worst(measure, rec, 12)
    assert cold == warm
    assert cold <= 1e-7
