"""Weights, quadrature, recurrence recovery, and Weyl functions."""

import cmath
import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from cmvpencil import measures
from cmvpencil.errors import (
    BandEdgeError,
    InvalidParameterError,
    NonConvergenceError,
)
from cmvpencil.measures import (
    Measure,
    discretize,
    essential_spectrum_periodic,
    gram,
    integrate,
    m_full,
    m_per,
    named_weight,
    periodic_weight_verbatim,
    stieltjes_perron_density,
    stieltjes_recurrence,
    validate_periodic_density,
)
from cmvpencil.maps import little_m1_recurrence, reflect_map
from cmvpencil.recurrences import (
    ReflectionSequence,
    companion_symmetric_recurrence,
    dg_symmetric_recurrence,
    jacobi_opuc_reflections,
    pencil_recurrence,
    sdg_recurrence,
)

# frozen values computed independently with 40-digit quadrature
GEN_GEG_M0 = 5.65051330225180013236983  # mass, xi = 0.5, eta = 0.25
GEN_GEG_M2 = 10.27366054954872751339969  # second moment
SDG_MASS = 256.0 / 15.0  # mass, xi = 1, eta = 0.5
BIG_M1_MASS = 0.1034708931315469  # mass, alpha = 2, beta = 3, c = 0.4
M_PER_ORACLE = -0.4565129821946941898652524 + 0.3747031412172208193425578j  # z = 1.3+0.4i, lam = 1.7


def test_integrate_moments_against_oracle():
    m = named_weight("gen_gegenbauer", xi=0.5, eta=0.25)
    assert integrate(m, lambda x: x * 0 + 1, 1e-12) == pytest.approx(
        GEN_GEG_M0, rel=1e-12
    )
    assert integrate(m, lambda x: x * x, 1e-12) == pytest.approx(
        GEN_GEG_M2, rel=1e-12
    )
    # odd moment vanishes by symmetry; tolerance is relative to |integrand|
    assert integrate(m, lambda x: x, 1e-12) == pytest.approx(0.0, abs=1e-10)


def test_sdg_mass_oracle():
    m = named_weight("sdg", xi=1.0, eta=0.5)
    assert integrate(m, lambda x: x * 0 + 1, 1e-12) == pytest.approx(
        SDG_MASS, rel=1e-12
    )


def test_periodic_mass_is_two_pi():
    for lam in (0.5, 1.0, 2.0, 3.7):
        m = named_weight("periodic", lam=lam)
        assert integrate(m, lambda t: t * 0 + 1, 1e-10) == pytest.approx(
            2 * math.pi, rel=1e-9
        )


def test_periodic_first_moment_is_lam():
    for lam in (0.5, 2.0):
        m = named_weight("periodic", lam=lam)
        mass = integrate(m, lambda t: t * 0 + 1, 1e-11)
        first = integrate(m, lambda t: t, 1e-11)
        assert first / mass == pytest.approx(lam, abs=1e-10)


def test_integrate_rejects_tiny_tol():
    m = named_weight("sdg", xi=0.0, eta=0.0)
    with pytest.raises(InvalidParameterError):
        integrate(m, lambda x: x, 1e-14)


def test_integrate_detects_undeclared_singularity():
    # density claims to be regular while actually blowing up at the edge
    m = Measure(
        support=((-1.0, 1.0),),
        density=lambda x: (1.0 - np.asarray(x)) ** -0.9,
        endpoint_exponents=(),
    )
    with pytest.raises(NonConvergenceError):
        integrate(m, lambda x: x * 0 + 1, 1e-10)


def test_measure_validation():
    with pytest.raises(InvalidParameterError):
        Measure(support=((1.0, -1.0),), density=lambda x: x, endpoint_exponents=())
    with pytest.raises(InvalidParameterError):
        Measure(
            support=((-1.0, 1.0),),
            density=lambda x: x,
            endpoint_exponents=((1.0, -1.5),),
        )


def test_named_weight_validation():
    with pytest.raises(InvalidParameterError):
        named_weight("no_such_family")
    with pytest.raises(InvalidParameterError):
        named_weight("sdg", xi=-2.0, eta=0.0)
    with pytest.raises(InvalidParameterError):
        named_weight("big_m1", alpha=1.0, beta=1.0, c=1.5)
    with pytest.raises(InvalidParameterError):
        named_weight("periodic", lam=-1.0)
    with pytest.raises(InvalidParameterError):
        named_weight("sdg", xi=0.0, eta=0.0, extra=1)


def test_stieltjes_recovers_symmetric_rationals():
    # u_1 = 20/11 and u_2 = 32/55 for the plain even weight, independently
    # derived from moment quadrature
    m = named_weight("gen_gegenbauer", xi=0.5, eta=0.25)
    rec = stieltjes_recurrence(m, 6, tol=1e-11)
    assert rec.b(0) == pytest.approx(0.0, abs=1e-12)
    assert rec.u(1) == pytest.approx(20.0 / 11.0, rel=1e-10)
    assert rec.u(2) == pytest.approx(32.0 / 55.0, rel=1e-10)


def test_stieltjes_matches_closed_form_family():
    # dual route: quadrature-only recovery against the reflection formulas,
    # for every named weight family with a closed-form recurrence
    cases = [(named_weight("little_m1", alpha=2.0, beta=1.0), little_m1_recurrence(2.0, 1.0))]
    for xi, eta in ((0.0, 0.0), (1.0, 0.5)):
        a = jacobi_opuc_reflections(xi, eta)
        cases += [
            (named_weight("sdg", xi=xi, eta=eta), sdg_recurrence(a)),
            (named_weight("adjacent", xi=xi, eta=eta), reflect_map(sdg_recurrence(a))),
            (named_weight("companion", xi=xi, eta=eta), companion_symmetric_recurrence(a)),
            (named_weight("dg_from_circle", xi=xi, eta=eta), dg_symmetric_recurrence(a)),
            (named_weight("gen_gegenbauer", xi=xi, eta=eta), dg_symmetric_recurrence(a)),
            *(
                (named_weight("pencil", xi=xi, eta=eta, lam=lam), pencil_recurrence(a, lam))
                for lam in (0.5, 2.0)
            ),
        ]
    for m, expected in cases:
        rec = stieltjes_recurrence(m, 13, tol=1e-10)
        for n in range(13):
            assert float(rec.b(n)) == pytest.approx(float(expected.b(n)), abs=1e-8)
            assert float(rec.u(n)) == pytest.approx(float(expected.u(n)), abs=1e-8)


def test_stieltjes_big_m1_oracle():
    m = named_weight("big_m1", alpha=2.0, beta=3.0, c=0.4)
    mass = integrate(m, lambda y: y * 0 + 1, 1e-12)
    assert mass == pytest.approx(BIG_M1_MASS, rel=1e-10)
    rec = stieltjes_recurrence(m, 4, tol=1e-11)
    assert rec.b(0) == pytest.approx(0.4, abs=1e-11)
    assert rec.u(1) == pytest.approx(0.48, abs=1e-11)


def test_jacobi_rule_is_roots_jacobi_bit_for_bit():
    for n, gr, gl in ((16, 0.0, 0.0), (64, 1.3, 0.0), (128, -0.5, 0.5), (512, 0.25, 2.0)):
        t, w = measures._jacobi_rule(n, gr, gl)
        t_ref, w_ref = roots_jacobi(n, gr, gl)
        assert np.array_equal(t, t_ref) and np.array_equal(w, w_ref)


def test_jacobi_rule_arrays_are_read_only():
    t, w = measures._jacobi_rule(32, 0.5, -0.5)
    for arr in (t, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0
    assert np.array_equal(measures._jacobi_rule(32, 0.5, -0.5)[0], roots_jacobi(32, 0.5, -0.5)[0])


def test_jacobi_rule_cache_is_bounded():
    maxsize = measures._jacobi_rule.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 1024


def test_jacobi_rule_generates_each_key_once(monkeypatch):
    keys = []

    def counting(n, gr, gl):
        keys.append((n, gr, gl))
        return roots_jacobi(n, gr, gl)

    measures._jacobi_rule.cache_clear()
    monkeypatch.setattr(measures, "roots_jacobi", counting)
    try:
        m = named_weight("big_m1", alpha=2.0, beta=3.0, c=0.4)
        first = discretize(m, 64)
        again = discretize(m, 64)
    finally:
        measures._jacobi_rule.cache_clear()
    # two panels with distinct exponent pairs, each rule generated once
    assert len(keys) == len(set(keys)) == 2
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_discretize_weights_sum_to_mass():
    m = named_weight("big_m1", alpha=2.0, beta=3.0, c=0.4)
    x, w = discretize(m, 64)
    assert x.shape == w.shape == (2 * 64,)
    assert float(w.sum()) == pytest.approx(BIG_M1_MASS, rel=1e-10)
    assert np.all((x > -1.0) & (x < 1.0) & (np.abs(x) > 0.4))


@pytest.mark.parametrize(
    "params",
    [
        {"family": "big_m1", "alpha": 2.0, "beta": 3.0, "c": 0.4},
        {"family": "periodic", "lam": 0.5},
        {"family": "sdg", "xi": 0.3, "eta": 0.5},
    ],
)
def test_stieltjes_same_bits_cold_and_warm_cache(params):
    m = named_weight(**params)
    measures._jacobi_rule.cache_clear()
    cold = stieltjes_recurrence(m, 20)
    assert measures._jacobi_rule.cache_info().currsize > 0
    warm = stieltjes_recurrence(m, 20)
    assert [cold.b(n) for n in range(21)] == [warm.b(n) for n in range(21)]
    assert [cold.u(n) for n in range(21)] == [warm.u(n) for n in range(21)]


def test_stieltjes_envelope_guard():
    m = named_weight("sdg", xi=0.0, eta=0.0)
    with pytest.raises(InvalidParameterError):
        stieltjes_recurrence(m, 31)
    # a negative degree used to end in a numpy reduction ValueError
    with pytest.raises(InvalidParameterError):
        stieltjes_recurrence(m, -1)


def test_gram_identity_and_orthogonality():
    xi, eta = 1.0, 0.5
    m = named_weight("sdg", xi=xi, eta=eta)
    rec = sdg_recurrence(jacobi_opuc_reflections(xi, eta))
    assert gram(m, rec, rec, 4, 4) == pytest.approx(1.0, abs=1e-12)
    for n, k in ((0, 1), (2, 5), (3, 4)):
        assert abs(gram(m, rec, rec, n, k)) < 1e-9


def test_essential_spectrum_bands():
    assert essential_spectrum_periodic(2.0) == ((-3.0, -1.0), (1.0, 3.0))
    assert essential_spectrum_periodic(1.0) == ((-2.0, 0.0), (0.0, 2.0))
    # the prediction is for lam > 0; lam = 0 used to give two point bands
    for lam in (0.0, -0.5):
        with pytest.raises(InvalidParameterError, match="need lam > 0"):
            essential_spectrum_periodic(lam)


def test_m_per_frozen_oracle():
    m = m_per(1.3 + 0.4j, 1.7)
    assert abs(m - M_PER_ORACLE) < 1e-14


def test_m_per_satisfies_quadratic_and_conjugation():
    for z, lam in ((0.4 + 1.1j, 0.6), (-2.0 + 0.3j, 2.0), (1.0 - 0.5j, 1.0)):
        m = m_per(z, lam)
        residual = lam * lam * z * m * m + (z * z - 1 + lam * lam) * m + z
        assert abs(residual) < 1e-13
        assert m_per(z.conjugate(), lam) == pytest.approx(m.conjugate(), abs=1e-13)


def test_m_per_herglotz_sign():
    for t in np.linspace(-3.5, 3.5, 29):
        z = complex(t, 0.3)
        assert m_per(z, 2.0).imag > 0
        assert m_full(z, 2.0).imag > 0


def test_m_per_asymptotics():
    z = 1e7j
    assert abs(z * m_per(z, 1.3) + 1) < 1e-6


def test_m_per_real_axis_handling():
    # outside the bands: real limit agrees with the lifted value
    val = m_per(5.0, 2.0)
    assert val.imag == 0
    assert val == pytest.approx(m_per(5.0 + 1e-9j, 2.0).real, abs=1e-6)
    with pytest.raises(InvalidParameterError):
        m_per(2.0, 2.0)  # strictly inside a band
    with pytest.raises(InvalidParameterError):
        m_per(0.0, 2.0)  # point-mass pole for lam > 1
    m_per(0.0, 0.5)  # but fine for lam < 1
    with pytest.raises(BandEdgeError):
        m_per(3.0, 2.0)  # band edge |z| = lam + 1


def test_m_full_pole_free_and_point():
    mp = m_per(1.0 + 1.0j, 2.0)
    assert m_full(1.0 + 1.0j, 2.0) == pytest.approx(mp / (1.0 + 2.0 * mp))
    # the composed function keeps Herglotz positivity where m_per has its atom
    assert m_full(0.02j, 2.0).imag > 0


def test_density_is_weyl_boundary_value():
    assert validate_periodic_density(0.5) < 1e-4
    assert validate_periodic_density(2.0) < 1e-4
    # spot check: density equals 2*Im m_full just above the band
    t, lam = 1.6, 2.0
    assert stieltjes_perron_density(lam, t) == pytest.approx(
        2 * m_full(complex(t, 1e-9), lam).imag, rel=1e-6
    )


def test_density_lam1_closed_form():
    for t in (-1.5, 0.3, 1.9):
        assert stieltjes_perron_density(1.0, t) == pytest.approx(
            math.sqrt((2 + t) / (2 - t)), rel=1e-12
        )
    with pytest.raises(InvalidParameterError):
        stieltjes_perron_density(2.0, 0.5)  # in the gap


def test_verbatim_display_disagrees():
    # the alternative closed form deviates at O(1) away from lam = 1;
    # it is kept only so the discrepancy can be reported
    lam, t = 2.0, 1.6
    reference = stieltjes_perron_density(lam, t)
    assert abs(periodic_weight_verbatim(lam, t) - reference) / reference > 0.1
    lam1_dev = abs(
        periodic_weight_verbatim(1.0, 0.7) - stieltjes_perron_density(1.0, 0.7)
    )
    assert lam1_dev < 1e-12  # the two displays agree at lam = 1


def test_periodic_weight_recovers_free_recurrence():
    lam = 2.0
    m = named_weight("periodic", lam=lam)
    rec = stieltjes_recurrence(m, 12, tol=1e-9)
    expected = pencil_recurrence(ReflectionSequence.constant(0.0), lam)
    for n in range(12):
        assert float(rec.b(n)) == pytest.approx(float(expected.b(n)), abs=1e-8)
        assert float(rec.u(n)) == pytest.approx(float(expected.u(n)), abs=1e-8)
