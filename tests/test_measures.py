"""Weights, quadrature, recurrence recovery, and Weyl functions."""

import cmath
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_jacobi

from cmvpencil import measures
from cmvpencil.errors import (
    BandEdgeError,
    InstabilityError,
    InternalConsistencyError,
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
from cmvpencil.verify import run_suite

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


def test_integrate_calls_f_once_per_level_on_the_node_array():
    # a constant f used to be called once more per node, with a scalar
    m = named_weight("sdg", xi=1.0, eta=0.5)
    args = []

    def constant(x):
        args.append(x)
        return 2.0

    assert integrate(m, constant, 1e-12) == pytest.approx(2 * SDG_MASS, rel=1e-12)
    assert args and all(isinstance(x, np.ndarray) and x.ndim == 1 for x in args)


def test_recovered_recurrence_refuses_indices_outside_its_table():
    # a negative index used to wrap around to the end of the table
    rec = stieltjes_recurrence(named_weight("sdg", xi=1.0, eta=0.5), 4, tol=1e-10)
    for read in (rec.b, rec.u):
        with pytest.raises(InvalidParameterError, match="outside 0.."):
            read(-1)


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
    measures._chain.cache_clear()  # named_weight may return a measure already chained
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


@pytest.mark.parametrize("z", [10**400, -(10**400), Fraction(10**400)], ids=["int", "-int", "Fraction"])
def test_m_per_point_too_large_for_a_float_is_a_typed_error(z):
    # complex(z) raised a bare OverflowError
    with pytest.raises(InvalidParameterError, match="no finite value"):
        m_per(z, 1.0)


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


# ---------------------------------------------------------------------------
# Weyl kernel against the sort-based branch choice it replaced
# ---------------------------------------------------------------------------


def _m_per_reference(z, lam):
    """m_per as it stood before its scalar fast path, kept as an oracle.

    Reads the root solver from the module at call time, so a test that
    patches ``measures._stable_quadratic`` drives both versions.
    """
    if not lam > 0:
        raise InvalidParameterError(f"need lam > 0, got {lam}")
    z = complex(z)
    for edge in (lam + 1.0, abs(lam - 1.0)):
        if abs(abs(z) - edge) < 1e-12:
            raise BandEdgeError(f"|z| = {abs(z)!r} is within 1e-12 of the band edge {edge!r}; refusing to choose a branch")

    def roots_at(zz):
        return measures._stable_quadratic(lam * lam * zz, zz * zz - 1.0 + lam * lam, zz)

    if z.imag != 0.0:
        roots = roots_at(z)
        if len(roots) == 1:
            return roots[0]
        want_positive = z.imag > 0
        by_imag = sorted(roots, key=lambda r: r.imag)
        pick = by_imag[1] if want_positive else by_imag[0]
        if (pick.imag > 0) != want_positive and pick.imag != 0:
            pick = min(roots, key=lambda r: abs(z * r + 1))
        return pick

    t = z.real
    if t == 0.0 and lam > 1.0:
        raise InvalidParameterError(
            "z = 0 is a pole of the function for lam > 1 (spectral point mass)"
        )
    disc = (t * t - (lam + 1.0) ** 2) * (t * t - (lam - 1.0) ** 2)
    if disc < 0:
        raise InvalidParameterError(
            f"real z = {t!r} lies strictly inside the essential spectrum; "
            "evaluate at z + i*eps instead"
        )
    lifted = _m_per_reference(t + 1e-9j, lam)
    real_roots = roots_at(complex(t))
    return min(real_roots, key=lambda r: abs(r - lifted))


def _bits(value):
    """Exact bit pattern of a complex value, signed zeros included."""
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def _same_outcome(z, lam):
    """Both versions return the same bits, or raise the same error."""
    try:
        expected = ("value", _bits(_m_per_reference(z, lam)))
    except (InvalidParameterError, BandEdgeError) as exc:
        expected = (type(exc), str(exc))
    try:
        got = ("value", _bits(m_per(z, lam)))
    except (InvalidParameterError, BandEdgeError) as exc:
        got = (type(exc), str(exc))
    return got == expected


WEYL_LAMS = (0.3, 0.99, 1.0, 1.7, 3.0)


@pytest.mark.parametrize("lam", WEYL_LAMS)
def test_m_per_matches_reference_on_seeded_points(lam):
    rng = np.random.default_rng(20240)
    z = rng.uniform(-5.0, 5.0, 20_000) + 1j * rng.uniform(-3.0, 3.0, 20_000)
    z[1::2] = z[0::2].conjugate()  # conjugate pairs
    z[::97] *= 1e-6  # a scatter of points near the origin
    points = z.tolist()
    got = [_bits(m_per(p, lam)) for p in points]
    assert got == [_bits(_m_per_reference(p, lam)) for p in points]
    composed = [_bits(m_full(p, lam)) for p in points[:2000]]
    expected = []
    for p in points[:2000]:
        mp = _m_per_reference(p, lam)
        expected.append(_bits(mp / (1.0 + lam * mp)))
    assert composed == expected


@pytest.mark.parametrize("lam", WEYL_LAMS)
def test_m_per_matches_reference_on_axes(lam):
    lo, hi = abs(lam - 1.0), lam + 1.0
    imaginary = [s * 10.0**k * 1j for s in (1, -1) for k in range(-8, 9)]
    beyond = [s * (hi + d) for s in (1, -1) for d in (1e-6, 0.1, 1.0, 7.5, 1e6)]
    gap = [s * lo * f for s in (1, -1) for f in (0.0, 0.25, 0.5, 0.999)]
    inside = [s * 0.5 * (lo + hi) for s in (1, -1)]
    signed_zero = [complex(hi + 0.5, -0.0), complex(-(hi + 0.5), -0.0)]
    for z in imaginary + beyond + gap + inside + signed_zero:
        assert _same_outcome(z, lam), z


def test_m_per_matches_reference_at_band_edges():
    for lam in WEYL_LAMS:
        for edge in (lam + 1.0, abs(lam - 1.0)):
            for angle in (0.0, 0.3, math.pi / 2, 2.0, math.pi, -1.1):
                for offset in (0.0, 4e-13, -4e-13):
                    z = (edge + offset) * cmath.exp(1j * angle)
                    with pytest.raises(BandEdgeError):
                        m_per(z, lam)
                    assert _same_outcome(z, lam), (z, lam)


@pytest.mark.parametrize(
    "roots",
    [
        (1.0 + 1e-3j, 2.0 + 2e-3j),  # both above the axis
        (-0.5 - 0.2j, 0.7 - 0.1j),  # both below
        (1.0 + 1.0j, 2.0 + 1.0j),  # equal imaginary parts: order kept
        (0.3 + 0.0j, -0.4 + 0.0j),  # zero imaginary parts
        (1.0 + 2.0j, 1.0 + 2.0j),  # a double root
        (0.2 - 1.0j, 0.5 + 1.0j),  # the usual opposite signs
        (-1.0 + 0.5j, 1.0 + 0.5j),  # the asymptotic criterion ties at z = +-i
    ],
)
def test_m_per_matches_reference_through_the_orientation_fallback(monkeypatch, roots):
    # finite inputs never give two roots on one side of the axis, so the
    # root solver is replaced to reach the orientation check; where the
    # reference fell back to the asymptotic criterion, m_per now raises
    monkeypatch.setattr(measures, "_stable_quadratic", lambda A, B, C: roots)
    side = 1 if all(r.imag > 0 for r in roots) else -1 if all(r.imag < 0 for r in roots) else 0
    for z in (0.4 + 1.1j, 0.4 - 1.1j, 1j, -1j, -2.0 + 0.3j):
        if side * z.imag < 0:
            with pytest.raises(InternalConsistencyError, match="one side of the axis"):
                m_per(z, 1.7)
        else:
            assert _same_outcome(z, 1.7), (z, roots)


@pytest.mark.parametrize("lam", [1.01, 2.0])
def test_m_per_real_axis_next_to_the_pole(lam):
    # inside |t| < 1e-9 the former lift t + 1e-9j snapped to the wrong root
    # (m_per(1e-10, 2.0) was -3.3e-11)
    for t in (1e-10, -1e-10, 1e-12, -1e-12):
        value = m_per(t, lam)
        assert value.imag == 0 and value.real == m_per(t + 1e-30j, lam).real, t
        assert abs(lam * value) > 1
    assert m_per(1e-10, 2.0).real == -7.5e9
    # the chosen root overflows for subnormal t: raise rather than pick the other
    with pytest.raises(InvalidParameterError, match="no finite value"):
        m_per(1e-320, 2.0)
    # 1.0000004e-12 inside the edge |lam - 1| = 0.01 the lift crossed into the
    # edge guard and raised BandEdgeError; the root agrees with a tiny lift
    t = 0.009999999999000008
    assert m_per(t, lam).real == m_per(t + 1e-30j, lam).real
    assert m_per(t, 0.99).real == m_per(t + 1e-30j, 0.99).real


WEIGHT_PARAMETERS = {
    "gen_gegenbauer": {"xi": 0.3, "eta": 0.2},
    "sdg": {"xi": 0.3, "eta": 0.2},
    "adjacent": {"xi": 0.3, "eta": 0.2},
    "companion": {"xi": 0.3, "eta": 0.2},
    "dg_from_circle": {"xi": 0.3, "eta": 0.2},
    "pencil": {"xi": 0.3, "eta": 0.2, "lam": 1.7},
    "big_m1": {"alpha": 1.5, "beta": 2.0, "c": 0.25},
    "little_m1": {"alpha": 1.5, "beta": 2.0},
    "periodic": {"lam": 1.7},
}


@pytest.mark.parametrize("family", sorted(WEIGHT_PARAMETERS))
def test_named_weight_checks_parameter_names(family):
    params = WEIGHT_PARAMETERS[family]
    assert named_weight(family, **params).name == family
    # a missing parameter used to escape as a bare KeyError
    for key in params:
        partial = {k: v for k, v in params.items() if k != key}
        with pytest.raises(InvalidParameterError, match=f"missing \\['{key}'\\]"):
            named_weight(family, **partial)
    with pytest.raises(InvalidParameterError, match="unexpected \\['extra'\\]"):
        named_weight(family, **params, extra=1.0)
    other = "c" if "c" not in params else "lam"
    with pytest.raises(InvalidParameterError, match=f"unexpected \\['{other}'\\]"):
        named_weight(family, **params, **{other: 0.5})


@pytest.mark.parametrize("family", sorted(WEIGHT_PARAMETERS))
@pytest.mark.parametrize("bad", [-1.0, -1.5, -3, math.nan, math.inf], ids=repr)
def test_named_weight_exponent_parameters_are_checked(family, bad):
    # xi = inf used to pass and fail later, in scipy's roots_jacobi
    params = WEIGHT_PARAMETERS[family]
    for key in {"xi", "eta", "alpha", "beta"} & set(params):
        with pytest.raises(InvalidParameterError):
            named_weight(family, **{**params, key: bad})


def test_a_huge_finite_exponent_is_a_typed_error():
    # scipy cannot build this rule; its ValueError escaped bare
    with pytest.raises(InvalidParameterError, match=r"Gauss-Jacobi rule for \(1-t\)\^1.0 \(1\+t\)\^1e\+300"):
        stieltjes_recurrence(named_weight("sdg", xi=1e300, eta=0.0), 3)
    with pytest.raises(InvalidParameterError, match="no finite 16-node"):
        measures._jacobi_rule(16, 1e15, 0.0)  # scipy returns infinite weights here
    # compared exactly, so an int too large for a float is refused at construction
    with pytest.raises(InvalidParameterError, match="declared exponent"):
        named_weight("sdg", xi=0.0, eta=10**400)


@pytest.mark.parametrize(
    "huge",
    [10**400, -(10**400), Fraction(10**400), Fraction(-(10**401), 3)],
    ids=["int", "negative-int", "Fraction", "negative-Fraction"],
)
@pytest.mark.parametrize("family", ["big_m1", "little_m1"])
def test_big_m1_exponents_too_large_for_a_float_are_typed_errors(family, huge):
    # these raised a bare OverflowError from 0.5 * (alpha - 1.0)
    params = {"alpha": 1.5, "beta": 2.0, **({"c": 0.25} if family == "big_m1" else {})}
    for key in ("alpha", "beta"):
        with pytest.raises(InvalidParameterError, match=f"need a finite {key}"):
            named_weight(family, **{**params, key: huge})
    # an exact value inside the float range is still accepted
    assert named_weight(family, **{**params, "alpha": Fraction(3, 2), "beta": 2}).name == family


@pytest.mark.parametrize("lam", [10**400, Fraction(10**400)], ids=["int", "Fraction"])
def test_lam_too_large_for_a_float_is_a_typed_error(lam):
    # these raised a bare OverflowError: the check compared with math.inf
    calls = [
        lambda: essential_spectrum_periodic(lam),
        lambda: named_weight("periodic", lam=lam),
        lambda: named_weight("pencil", xi=0.0, eta=0.0, lam=lam),
        lambda: m_per(1j, lam),
        lambda: m_full(1j, lam),
        lambda: stieltjes_perron_density(lam, 1.0),
        lambda: periodic_weight_verbatim(lam, 1.0),
        lambda: validate_periodic_density(lam),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="need lam > 0 and finite"):
            call()


def test_named_weight_rejects_unknown_families():
    for family in ("no_such_family", "", 3, None, ("sdg",)):
        with pytest.raises(InvalidParameterError, match="unknown weight family"):
            named_weight(family, xi=0.3, eta=0.2)


def test_weight_exponents_reach_the_rules_as_floats():
    # a Fraction exponent used to end in scipy's TypeError inside roots_jacobi
    exact = stieltjes_recurrence(named_weight("sdg", xi=Fraction(1, 3), eta=0.2), 4)
    approx = stieltjes_recurrence(named_weight("sdg", xi=1 / 3, eta=0.2), 4)
    for n in range(5):
        assert exact.b(n) == pytest.approx(approx.b(n), abs=1e-13)
        assert exact.u(n) == pytest.approx(approx.u(n), abs=1e-13)
    # int parameters keep the bits of their float equivalents
    for family, ints, floats in (
        ("sdg", {"xi": 1, "eta": 2}, {"xi": 1.0, "eta": 2.0}),
        ("big_m1", {"alpha": 3, "beta": 1, "c": 0}, {"alpha": 3.0, "beta": 1.0, "c": 0.0}),
        ("pencil", {"xi": 1, "eta": 0, "lam": 2}, {"xi": 1.0, "eta": 0.0, "lam": 2.0}),
    ):
        for n_nodes in (16, 64):
            x_int, w_int = discretize(named_weight(family, **ints), n_nodes)
            x_float, w_float = discretize(named_weight(family, **floats), n_nodes)
            assert x_int.tobytes() == x_float.tobytes() and w_int.tobytes() == w_float.tobytes()


def test_weyl_functions_reject_nonfinite_and_overflowing_input():
    for z in (complex(math.nan, 1.0), complex(1.0, math.inf), math.inf, -math.inf, math.nan):
        for fn in (m_per, m_full):
            with pytest.raises(InvalidParameterError, match="no finite value"):
                fn(z, 1.5)
    # B*B overflows: this returned nan+nanj
    for z in ((0.6 + 0.8j) * 1e78, 1e78, 1e78j, -3e100 + 1j):
        for fn in (m_per, m_full):
            with pytest.raises(InvalidParameterError, match="no finite value"):
                fn(z, 1.5)
    for lam in (math.inf, math.nan, -math.inf):
        for fn in (m_per, m_full):
            with pytest.raises(InvalidParameterError, match="need lam > 0 and finite"):
                fn(0.3 + 1j, lam)
    # the largest magnitudes that still have finite roots keep working
    assert cmath.isfinite(m_per((0.6 + 0.8j) * 1e76, 1.5))
    # near z = 0 the spurious root may overflow while the chosen one is exact
    for z, lam in ((1e-310j, 0.5), (-1e-320 + 1e-320j, 0.5), (1e-120j, 1e-100)):
        assert _bits(m_per(z, lam)) == _bits(_m_per_reference(z, lam))
    # but an overflowing chosen root, next to the pole at 0 for lam > 1, raises
    # (this returned -inf+7.5e307j)
    with pytest.raises(InvalidParameterError, match="no finite value"):
        m_per(3e-309 + 1e-309j, 2.0)


def test_lam_must_be_finite_and_grids_nonempty():
    for lam in (math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="need lam > 0"):
            essential_spectrum_periodic(lam)
        for params in ({"family": "periodic"}, {"family": "pencil", "xi": 0.0, "eta": 0.0}):
            with pytest.raises(InvalidParameterError, match="need lam > 0"):
                named_weight(**params, lam=lam)
        with pytest.raises(InvalidParameterError):
            stieltjes_perron_density(lam, 1.0)
        with pytest.raises(InvalidParameterError, match="need lam > 0"):
            validate_periodic_density(lam)


def test_quadrature_arguments_are_validated():
    m = named_weight("sdg", xi=0.0, eta=0.0)
    for tol in (math.nan, 0.0, -1e-9, math.inf, 1e-14):
        with pytest.raises(InvalidParameterError, match="tol"):
            stieltjes_recurrence(m, 4, tol=tol)
        with pytest.raises(InvalidParameterError, match="tol"):
            integrate(m, lambda x: x, tol)
    for n_max in (2.5, True, "3", None):
        with pytest.raises(InvalidParameterError, match="n_max"):
            stieltjes_recurrence(m, n_max)
    for n_nodes in (0, -3, 2.5, True):
        with pytest.raises(InvalidParameterError, match="n_nodes"):
            discretize(m, n_nodes)
    rec = stieltjes_recurrence(m, np.int64(4))
    assert [rec.b(n) for n in range(5)] == [stieltjes_recurrence(m, 4).b(n) for n in range(5)]


# ---------------------------------------------------------------------------
# The cached Stieltjes chain
# ---------------------------------------------------------------------------


def _table(rec, n_max):
    return [(rec.b(n), rec.u(n)) for n in range(n_max + 1)]


CHAIN_MEASURES = [
    {"family": "sdg", "xi": 0.3, "eta": 0.5},
    {"family": "big_m1", "alpha": 2.0, "beta": 3.0, "c": 0.4},
    {"family": "periodic", "lam": 0.6},
]


@pytest.mark.parametrize("params", CHAIN_MEASURES)
def test_stieltjes_tables_do_not_depend_on_request_order(params):
    m = named_weight(**params)
    degrees = [0, 1, 6, 12, 13, 18, 24, 30]
    fresh = {}
    for n_max in degrees:
        measures._chain.cache_clear()
        fresh[n_max] = _table(stieltjes_recurrence(m, n_max, tol=1e-9), n_max)
    shuffled = list(degrees)
    np.random.default_rng(7).shuffle(shuffled)
    for order in (degrees, degrees[::-1], shuffled):
        measures._chain.cache_clear()
        for n_max in order:
            assert _table(stieltjes_recurrence(m, n_max, tol=1e-9), n_max) == fresh[n_max]


def test_failed_calls_leave_later_results_unchanged():
    near_one = named_weight("periodic", lam=1.0 + 1e-4)
    sdg = named_weight("sdg", xi=0.3, eta=0.5)
    zero_mass = Measure(
        support=((-1.0, 1.0),), density=lambda x: 0.0 * np.asarray(x), endpoint_exponents=()
    )
    # 1 + 3x has positive mass and a negative h_1 on [-1, 1]
    signed = Measure(
        support=((-1.0, 1.0),), density=lambda x: 1.0 + 3.0 * np.asarray(x), endpoint_exponents=()
    )
    ones = lambda x: x * 0 + 1

    measures._chain.cache_clear()
    clean_sdg = _table(stieltjes_recurrence(sdg, 18), 18)
    clean_signed = _table(stieltjes_recurrence(signed, 0), 0)
    clean_mass = integrate(sdg, ones, 1e-12)

    measures._chain.cache_clear()
    for _ in range(2):
        with pytest.raises(NonConvergenceError):
            stieltjes_recurrence(near_one, 30, tol=1e-9)
        with pytest.raises(InstabilityError) as zero:
            stieltjes_recurrence(zero_mass, 5)
        assert zero.value.index == 0
        with pytest.raises(InstabilityError) as lost:
            stieltjes_recurrence(signed, 5)
        assert lost.value.index == 1
    # the failing degrees were not stored
    assert (measures._chain(zero_mass, 64).b, measures._chain(zero_mass, 64).u) == ([], [0.0])
    assert (len(measures._chain(signed, 64).b), measures._chain(signed, 64).u) == (1, [0.0])
    assert _table(stieltjes_recurrence(signed, 0), 0) == clean_signed
    assert _table(stieltjes_recurrence(sdg, 18), 18) == clean_sdg
    assert integrate(sdg, ones, 1e-12) == clean_mass


def test_chain_concurrent_ladders():
    # four threads on one measure (more than the cores here), two climbing
    # the degrees and two descending, with frequent thread switches: a lost
    # or repeated append would shift the table and change a coefficient
    m = named_weight("big_m1", alpha=2.0, beta=3.0, c=0.4)
    degrees = [0, 3, 6, 12, 18, 24, 30]
    fresh = {}
    for n_max in degrees:
        measures._chain.cache_clear()
        fresh[n_max] = _table(stieltjes_recurrence(m, n_max, tol=1e-9), n_max)
    orders = [degrees, degrees[::-1]] * 2
    barrier = threading.Barrier(len(orders))

    def ladder(i):
        barrier.wait()
        results[i] = {n: _table(stieltjes_recurrence(m, n, tol=1e-9), n) for n in orders[i]}

    for _ in range(4):  # each round races on a cold cache
        measures._chain.cache_clear()
        results = [None] * len(orders)
        threads = [threading.Thread(target=ladder, args=(i,)) for i in range(len(orders))]
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
        assert all(tables == fresh for tables in results)


class _UnhashableDensity:
    """A density callable that defines equality and so has no hash."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, x):
        return self.inner(x)

    def __eq__(self, other):
        return isinstance(other, _UnhashableDensity) and other.inner is self.inner

    __hash__ = None


def test_chain_cache_is_bounded_and_unhashable_measures_bypass_it():
    measures._chain.cache_clear()
    assert measures._chain.cache_info().maxsize == 32
    for k in range(20):
        stieltjes_recurrence(named_weight("sdg", xi=0.1 * k, eta=0.5), 6)
    info = measures._chain.cache_info()
    assert info.misses > 32 and info.currsize == 32

    m = named_weight("big_m1", alpha=2.0, beta=3.0, c=0.4)
    wrapped = Measure(
        support=m.support,
        density=_UnhashableDensity(m.density),
        endpoint_exponents=m.endpoint_exponents,
        name=m.name,
    )
    with pytest.raises(TypeError):
        hash(wrapped)
    measures._chain.cache_clear()
    got = _table(stieltjes_recurrence(wrapped, 12), 12)
    mass = integrate(wrapped, lambda y: y * 0 + 1, 1e-12)
    assert measures._chain.cache_info().currsize == 0
    assert got == _table(stieltjes_recurrence(m, 12), 12)
    assert mass == integrate(m, lambda y: y * 0 + 1, 1e-12)


def test_cached_nodes_cannot_be_written_by_an_integrand():
    m = named_weight("sdg", xi=0.0, eta=0.0)

    def in_place(x):
        x *= 2.0
        return x

    with pytest.raises(ValueError):
        integrate(m, in_place, 1e-10)
    assert integrate(m, lambda x: x * 0 + 1, 1e-12) == pytest.approx(8.0, rel=1e-12)


def test_named_weight_shares_one_measure_per_typed_key():
    sdg = named_weight("sdg", xi=0.3, eta=0.5)
    assert named_weight("sdg", eta=0.5, xi=0.3) is sdg  # keyword order does not matter
    assert named_weight("sdg", xi=0.3, eta=0.25) is not sdg
    assert named_weight("adjacent", xi=0.3, eta=0.5) is not sdg
    # equal values of different types stay apart: the densities take them as given
    two = [named_weight("periodic", lam=lam) for lam in (2, 2.0, Fraction(2), np.float64(2.0))]
    assert len({id(m) for m in two}) == 4
    again = [named_weight("periodic", lam=lam) for lam in (2, 2.0, Fraction(2), np.float64(2.0))]
    assert all(m is n for m, n in zip(again, two))
    assert named_weight("big_m1", alpha=2.0, beta=3.0, c=-0.0) is not named_weight(
        "big_m1", alpha=2.0, beta=3.0, c=0.0
    )


def test_named_weight_unhashable_parameter_is_served_uncached():
    measures._shared_weight.cache_clear()
    m = named_weight("sdg", xi=np.array(0.3), eta=0.5)
    assert named_weight("sdg", xi=np.array(0.3), eta=0.5) is not m
    assert measures._shared_weight.cache_info().currsize == 0
    plain = named_weight("sdg", xi=0.3, eta=0.5)
    x = np.linspace(-1.9, 1.9, 41)
    assert m.density(x).tobytes() == plain.density(x).tobytes()
    assert _table(stieltjes_recurrence(m, 12), 12) == _table(stieltjes_recurrence(plain, 12), 12)


def test_named_weight_memo_is_bounded():
    maxsize = measures._shared_weight.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 32
    first = named_weight("sdg", xi=0.05, eta=0.5)
    for k in range(2 * maxsize):
        named_weight("sdg", xi=0.1 * k, eta=0.5)
    assert measures._shared_weight.cache_info().currsize == maxsize
    assert named_weight("sdg", xi=0.05, eta=0.5) is not first  # evicted, built afresh


@pytest.mark.parametrize("params", CHAIN_MEASURES)
def test_shared_measures_give_the_tables_of_a_fresh_build(params):
    warm = [_table(stieltjes_recurrence(named_weight(**params), 24, tol=1e-9), 24) for _ in range(2)]
    measures._shared_weight.cache_clear()
    measures._chain.cache_clear()
    fresh = _table(stieltjes_recurrence(named_weight(**params), 24, tol=1e-9), 24)
    assert warm == [fresh, fresh]


def test_repeated_big_m1_suite_adds_no_chain_miss():
    first = run_suite("big-m1")
    misses = measures._chain.cache_info().misses
    again = run_suite("big-m1")
    assert measures._chain.cache_info().misses == misses
    assert [r.to_dict() for r in again] == [r.to_dict() for r in first]


ENDPOINT_CASES = {
    **{
        family: (family, {"xi": 0.3, "eta": -0.4})
        for family in ("gen_gegenbauer", "sdg", "adjacent", "companion", "dg_from_circle")
    },
    "pencil-0.5": ("pencil", {"xi": 0.3, "eta": -0.4, "lam": 0.5}),
    "pencil-2": ("pencil", {"xi": 0.3, "eta": -0.4, "lam": 2.0}),
    "big_m1": ("big_m1", {"alpha": 1.6, "beta": 0.2, "c": 0.4}),
    "little_m1": ("little_m1", {"alpha": 1.6, "beta": 0.2}),
    "periodic-0.5": ("periodic", {"lam": 0.5}),
    "periodic-1": ("periodic", {"lam": 1.0}),
    "periodic-2": ("periodic", {"lam": 2.0}),
}


@pytest.mark.parametrize("case", list(ENDPOINT_CASES))
def test_declared_endpoint_exponents_equal_the_density_slope(case):
    # density ~ const * |x - s|^gamma near each declared point s, so the
    # log-log slope between 1e-5 and 1e-6 inside the support is gamma; xi and
    # eta differ, and neither is 0, so a swapped or sign-flipped exponent
    # shows (the largest gap is about 5e-6)
    family, params = ENDPOINT_CASES[case]
    m = named_weight(family, **params)
    assert m.endpoint_exponents
    for s, gamma in m.endpoint_exponents:
        # from the left at a right end, from the right at a left end or inside
        side = next((-1.0 if s == q else 1.0) for p, q in m.support if p <= s <= q)
        w = m.density(np.array([s + side * 1e-5, s + side * 1e-6]))
        slope = math.log(w[0] / w[1]) / math.log(10.0)
        assert abs(slope - gamma) < 1e-3, (s, gamma, slope)
