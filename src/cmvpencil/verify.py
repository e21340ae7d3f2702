"""Verification suites shared by the CLI and the acceptance tests.

Each suite returns a list of CheckResult records; a suite passes when every
record passes.  Suites are deterministic: random inputs come from fixed-seed
generators and quadrature schedules are fixed, so repeated runs agree bitwise.

The battery is fixed: tolerances, degrees and the spectrum suite's band
inflation are constants of each suite.  The only settable keywords are
``dim`` (matrix-identities, spectrum) and ``cases`` (big-m1, dunkl);
``run_suite`` rejects any other with InvalidParameterError.  A numeric check
passes when its value is at most its tolerance; the spectrum, dunkl and
exact-split checks state their own pass rules.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cmv import TruncationSpec, band_census, build_K, verify_identities
from .dunkl import (
    fourth_kind_identity_residual,
    third_kind_identity_residual,
    verify_eigenfunction,
)
from .errors import InvalidParameterError
from .maps import (
    big_m1_parameters,
    chihara_split,
    christoffel,
    dg_eval_from_circle,
    lambda_reduction,
    reflect_map,
    scale_map,
    sdg_eval_from_circle,
)
from .measures import (
    discretize,
    essential_spectrum_periodic,
    m_per,
    named_weight,
    periodic_weight_verbatim,
    stieltjes_perron_density,
    stieltjes_recurrence,
    validate_periodic_density,
)
from .recurrences import (
    CirclePoint,
    MonicThreeTerm,
    ReflectionSequence,
    dg_symmetric_recurrence,
    eval_monic,
    jacobi_opuc_reflections,
    pencil_recurrence,
    sdg_recurrence,
)

__all__ = ["CheckResult", "SUITES", "run_suite", "run_all"]

_SEED = 20260816


@dataclass(frozen=True)
class CheckResult:
    """One verified statement: a label, a pass flag, and numeric evidence."""

    label: str
    passed: bool
    value: float
    tol: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "passed": bool(self.passed),
            "value": self.value,
            "tol": self.tol,
            "details": self.details,
        }


def _within(label: str, value: float, tol: float, **details) -> CheckResult:
    """A check that passes when its value is at most its tolerance."""
    return CheckResult(label=label, passed=value <= tol, value=value, tol=tol, details=details)


def _random_reflections(rng, size: int) -> ReflectionSequence:
    values = rng.uniform(-0.95, 0.95, size=size)
    return ReflectionSequence.from_list(list(values))


# ---------------------------------------------------------------------------
# Suite 1: matrix identities
# ---------------------------------------------------------------------------


def suite_matrix_identities(dim: int = 64) -> list:
    trunc = TruncationSpec.from_dim(dim)
    rng = np.random.default_rng(_SEED)
    sequences = [("jacobi(0.3,0.7)", jacobi_opuc_reflections(0.3, 0.7))]
    for k in range(5):
        sequences.append((f"random[{k}]", _random_reflections(rng, dim + 2)))
    results = []
    for name, a in sequences:
        worst = 0.0
        worst_case = ""
        for lam in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0):
            residuals = verify_identities(a, lam, trunc)
            for key, res in residuals.items():
                if res > worst:
                    worst, worst_case = res, f"{key} at lam={lam}"
        results.append(
            _within(f"matrix identities, {name}, dim={dim}", worst, 1e-13, worst_case=worst_case)
        )
    return results


# ---------------------------------------------------------------------------
# Suite 2: circle-to-interval map consistency
# ---------------------------------------------------------------------------


def suite_maps() -> list:
    degree, tol = 20, 1e-10
    pairs = [(0.0, 0.0), (0.3, 0.7), (1.0, 0.5), (-0.25, 0.75), (-0.5, -0.5)]
    points = [CirclePoint(float(phi)) for phi in np.linspace(0.2, 2 * math.pi - 0.2, 25)]
    xs = np.array([point.x for point in points])
    results = []
    for xi, eta in pairs:
        a = jacobi_opuc_reflections(xi, eta)
        # the direct route: one ladder per family on all points; elementwise
        # float64 arithmetic gives the per-point values bit for bit
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


# ---------------------------------------------------------------------------
# Suite 3: lam = 1 orthogonality under the closed-form weight
# ---------------------------------------------------------------------------


def _gram_offdiag_worst(measure, rec, degree: int) -> float:
    """Worst normalized off-diagonal Gram entry, fixed-rule quadrature."""
    prev = None
    for n_nodes in (128, 256, 512):
        x, w = discretize(measure, n_nodes)
        V = np.array(eval_monic(rec, degree, x))
        G = (V * w) @ V.T
        norms = np.sqrt(np.abs(np.diag(G)))
        G = G / np.outer(norms, norms)
        off = G - np.diag(np.diag(G))
        worst = float(np.max(np.abs(off)))
        if prev is not None and abs(worst - prev) <= 1e-10:
            return worst
        prev = worst
    return worst


def suite_little_m1() -> list:
    results = []
    for xi, eta in ((0.0, 0.0), (1.0, 0.5), (-0.25, 0.75)):
        a = jacobi_opuc_reflections(xi, eta)
        rec = sdg_recurrence(a)
        measure = named_weight("sdg", xi=xi, eta=eta)
        worst = _gram_offdiag_worst(measure, rec, 12)
        results.append(
            _within(f"lam=1 family orthogonal under its weight, (xi,eta)=({xi},{eta})", worst, 1e-7)
        )
    return results


# ---------------------------------------------------------------------------
# Suite 4: the two-interval identification (the central claim)
# ---------------------------------------------------------------------------


def _coeff_mismatch(lhs: MonicThreeTerm, rhs: MonicThreeTerm, degree: int) -> float:
    worst = 0.0
    for n in range(degree + 1):
        worst = max(worst, abs(float(lhs.b(n)) - float(rhs.b(n))))
        worst = max(worst, abs(float(lhs.u(n)) - float(rhs.u(n))))
    return worst


def suite_big_m1(cases=None) -> list:
    degree = 15
    if cases is None:
        cases = [
            (xi, eta, lam) for xi, eta in ((0.0, 0.0), (0.5, 1.0)) for lam in (2.0, 3.0)
        ]
    results = []
    for xi, eta, lam in cases:
        params = big_m1_parameters(xi, eta, lam)
        measure = named_weight(
            "big_m1", alpha=params.alpha, beta=params.beta, c=params.c
        )
        from_weight = stieltjes_recurrence(measure, degree + 1, tol=1e-9)
        resolved = _coeff_mismatch(from_weight, params.resolved, degree)
        literal = _coeff_mismatch(from_weight, params.star, degree)
        results.append(
            _within(
                f"two-interval weight reproduces the reduced pencil family, "
                f"(xi,eta,lam)=({xi},{eta},{lam})",
                resolved,
                1e-7,
                literal_rescaling_residual=literal,
                note=(
                    "the literal g-rescaling disagrees at O(1); the match "
                    "holds for the reciprocal-parameter reflection (see "
                    "maps.big_m1_recurrence)"
                ),
            )
        )
    return results


# ---------------------------------------------------------------------------
# Suite 5: truncated pencil spectra against the band prediction
# ---------------------------------------------------------------------------


def suite_spectrum(dim: int = 200) -> list:
    """Truncated free-pencil spectra against the band prediction inflated by 0.05.

    Passes with at most two eigenvalues outside the inflated bands and, at
    lam = 2, exactly one near zero.  Complexity: O(dim) per lam, through
    ``band_census``; no full eigensolve and no O(dim^2) object.
    """
    trunc = TruncationSpec.from_dim(dim)
    max_outliers = 2
    a = ReflectionSequence.constant(0.0)
    results = []
    for lam in (0.5, 1.0, 2.0):
        n_outliers, outliers, near_zero = band_census(
            build_K(a, lam, trunc), essential_spectrum_periodic(lam), 0.05
        )
        ok = n_outliers <= max_outliers
        if lam == 2.0:
            ok = ok and near_zero == 1
        results.append(
            CheckResult(
                label=f"truncated pencil spectrum inside bands, lam={lam}, dim={dim}",
                passed=ok,
                value=float(n_outliers),
                tol=float(max_outliers),
                details={"near_zero_count": near_zero, "outliers": outliers},
            )
        )
    return results


# ---------------------------------------------------------------------------
# Suite 6: the band density generates the free pencil coefficients
# ---------------------------------------------------------------------------


def suite_periodic_weight() -> list:
    a = ReflectionSequence.constant(0.0)
    results = []
    for lam in (0.5, 2.0):
        measure = named_weight("periodic", lam=lam)
        from_weight = stieltjes_recurrence(measure, 21, tol=1e-9)
        expected = pencil_recurrence(a, lam)
        worst = _coeff_mismatch(from_weight, expected, 20)
        verbatim = _verbatim_comparison(lam)
        label = f"band density reproduces free pencil coefficients, lam={lam}"
        results.append(_within(label, worst, 1e-8, **verbatim))
    measure = named_weight("periodic", lam=1.0)
    from_weight = stieltjes_recurrence(measure, 21, tol=1e-10)
    third_kind = MonicThreeTerm(b=lambda n: 1.0 if n == 0 else 0.0, u=lambda n: 0.0 if n == 0 else 1.0)
    worst = _coeff_mismatch(from_weight, third_kind, 20)
    results.append(_within("lam=1 density gives monic third-kind coefficients", worst, 1e-10))
    return results


def _verbatim_comparison(lam: float) -> dict:
    """Grid comparison of the alternative closed-form display against the
    Weyl-derived density, reported (never silently patched)."""
    lo, hi = abs(lam - 1.0), lam + 1.0
    pad = 0.05 * (hi - lo)
    worst = 0.0
    pole_in_band = False
    for band in ((-hi + pad, -lo - pad), (lo + pad, hi - pad)):
        for t in np.linspace(band[0], band[1], 15):
            reference = stieltjes_perron_density(lam, float(t))
            try:
                verbatim = periodic_weight_verbatim(lam, float(t))
            except InvalidParameterError:
                pole_in_band = True
                continue
            if verbatim <= 0:
                pole_in_band = True
            worst = max(worst, abs(verbatim - reference) / max(reference, 1e-300))
    return {
        "verbatim_max_relative_deviation": worst,
        "verbatim_sign_change_or_pole_in_band": pole_in_band,
        "verbatim_agrees": worst <= 1e-8 and not pole_in_band,
        "note": (
            "the alternative closed-form display disagrees with the Weyl "
            "boundary values for lam != 1; the Weyl-derived density is the "
            "reference"
            if (worst > 1e-8 or pole_in_band)
            else "verbatim display agrees at this lam"
        ),
    }


# ---------------------------------------------------------------------------
# Suite 7: Weyl function closed form, oracle, and boundary density
# ---------------------------------------------------------------------------


def suite_weyl() -> list:
    rng = np.random.default_rng(_SEED + 1)
    lams = (0.5, 0.8, 1.0, 2.0, 3.0)
    worst_quad = 0.0
    for k in range(50):
        lam = lams[k % len(lams)]
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 2.0))
        if k % 2:
            z = z.conjugate()
        m = m_per(z, lam)
        residual = lam * lam * z * m * m + (z * z - 1 + lam * lam) * m + z
        scale = max(1.0, abs(z) ** 2 * abs(m))
        worst_quad = max(worst_quad, abs(residual) / scale)
    results = [
        _within("closed-form branch satisfies its quadratic at 50 points", worst_quad, 1e-12)
    ]

    worst_cf = 0.0
    for z, lam in ((1 + 2j, 0.8), (0.5 + 1j, 2.0), (-1 + 0.7j, 0.5)):
        m = -1.0 / z
        for _ in range(2000):
            m_new = -1.0 / (z - 1.0 / (z + lam * lam * m))
            if abs(m_new - m) < 1e-15:
                m = m_new
                break
            m = m_new
        worst_cf = max(worst_cf, abs(m - m_per(z, lam)))
    results.append(
        _within("continued-fraction oracle agrees with the closed form", worst_cf, 1e-10)
    )

    worst_density = max(
        validate_periodic_density(0.5), validate_periodic_density(2.0)
    )
    results.append(
        _within("boundary values of the Weyl function match the band density", worst_density, 1e-4)
    )

    asym = abs(1e6j * m_per(1e6j, 1.7) + 1.0)
    results.append(_within("z*m -> -1 at large |z|", asym, 1e-5))
    return results


# ---------------------------------------------------------------------------
# Suite 8: reflection-differential operator eigenfunctions, exact
# ---------------------------------------------------------------------------


def suite_dunkl(cases=None) -> list:
    degree = 10
    if cases is None:
        cases = [
            (0, 0, 0),
            (1, 1, Fraction(1, 2)),
            (2, Fraction(1, 2), Fraction(1, 4)),
        ]
    results = []
    for alpha, beta, c in cases:
        alpha_r, beta_r, c_r = Fraction(alpha), Fraction(beta), Fraction(c)
        worst = 0.0
        all_exact = True
        for n in range(degree + 1):
            report = verify_eigenfunction(alpha_r, beta_r, c_r, n)
            worst = max(worst, report.max_abs_residual)
            all_exact = all_exact and report.exact and report.residual.is_zero()
        results.append(
            CheckResult(
                label=f"operator eigenfunctions exact, (alpha,beta,c)=({alpha},{beta},{c})",
                passed=all_exact and worst == 0.0,
                value=worst,
                tol=0.0,
                details={"exact_arithmetic": all_exact},
            )
        )
    worst_identity = 0.0
    identities_hold = True
    for n in range(13):
        for residual in (
            third_kind_identity_residual(n),
            fourth_kind_identity_residual(n),
        ):
            identities_hold = identities_hold and residual.is_zero()
            worst_identity = max(worst_identity, residual.max_abs())
    results.append(
        CheckResult(
            label="third/fourth-kind eigenidentities exact for n <= 12",
            passed=identities_hold,
            value=worst_identity,
            tol=0.0,
        )
    )
    return results


# ---------------------------------------------------------------------------
# Suite 9: structural identities of the transform calculus
# ---------------------------------------------------------------------------


def suite_structural() -> list:
    rng = np.random.default_rng(_SEED + 2)
    results = []

    # reflected family identity
    a = jacobi_opuc_reflections(0.3, 0.7)
    q = sdg_recurrence(a)
    q_minus = reflect_map(q)
    xs = rng.uniform(-2, 2, size=11)
    reflected, plain = eval_monic(q_minus, 20, xs), eval_monic(q, 20, -xs)
    worst = 0.0
    for n in range(21):
        sign = 1.0 if n % 2 == 0 else -1.0
        lhs, rhs = reflected[n], sign * plain[n]
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))))
    results.append(_within("reflected family equals (-1)^n Q_n(-x)", worst, 1e-10))

    # transform followed by its inverse reconstruction
    src = pencil_recurrence(jacobi_opuc_reflections(0.2, 0.4), 1.3)
    data = christoffel(src, -3.0, 22)
    xs = rng.uniform(-2.2, 2.2, size=11)
    direct = eval_monic(src, 20, xs)
    transformed = eval_monic(data.transformed, 20, xs)
    worst = 0.0
    for n in range(1, 21):
        rebuilt = transformed[n] - data.C(n) * transformed[n - 1]
        worst = max(
            worst, float(np.max(np.abs(direct[n] - rebuilt) / np.maximum(1.0, np.abs(direct[n]))))
        )
    results.append(_within("transform then inverse reconstruction is the identity", worst, 1e-10))

    # even/odd split: exact compose and evaluation identities
    chi = Fraction(1, 3)
    alpha_shift = Fraction(-2, 7)
    v_values = {n: Fraction(-(n + 2), n + 5) for n in range(1, 20)}
    alt = MonicThreeTerm(
        b=lambda n: chi if n % 2 == 0 else -chi, u=lambda n: 0 if n == 0 else v_values[n]
    )
    split = chihara_split(alt, alpha_shift)
    exact = all(split.C(n) == -v_values[2 * n] for n in range(1, 9))
    exact = exact and all(split.A(n) == -v_values[2 * n + 1] for n in range(0, 9))
    for x in (Fraction(1, 3), Fraction(-2, 5), Fraction(2)):
        y = x * x + alpha_shift
        s = eval_monic(alt, 17, x)
        p, p_tilde = eval_monic(split.P, 8, y), eval_monic(split.P_tilde, 8, y)
        exact = exact and all(
            s[2 * n] == p[n] and s[2 * n + 1] == (x - chi) * p_tilde[n] for n in range(9)
        )
    results.append(
        CheckResult(
            label="even/odd split composes back exactly",
            passed=exact,
            value=0.0 if exact else 1.0,
            tol=0.0,
        )
    )

    # scaling covariance of the reduced recurrence
    a = jacobi_opuc_reflections(0.3, 0.7)
    worst = 0.0
    for branch, d0 in (("lambda-1", 1.0), ("lambda+1", -1.0)):
        star_u = {}
        for lam in (0.5, 2.0):
            _, transformed = lambda_reduction(a, lam, branch)
            scaled = scale_map(transformed, 1.0 / math.sqrt(lam))
            chi = math.sqrt(lam) + d0 / math.sqrt(lam)
            for n in range(16):
                worst = max(worst, abs(abs(float(scaled.b(n))) - abs(chi)))
            star_u[lam] = [float(scaled.u(n)) for n in range(16)]
        for u1, u2 in zip(star_u[0.5], star_u[2.0]):
            worst = max(worst, abs(u1 - u2))
    results.append(_within("reduced recurrence rescales to a lam-free shape", worst, 1e-12))
    return results


SUITES = {
    "matrix-identities": suite_matrix_identities,
    "maps": suite_maps,
    "little-m1": suite_little_m1,
    "big-m1": suite_big_m1,
    "spectrum": suite_spectrum,
    "periodic-weight": suite_periodic_weight,
    "weyl": suite_weyl,
    "dunkl": suite_dunkl,
    "structural": suite_structural,
}


def run_suite(name: str, **kwargs) -> list:
    """Run one named suite; returns its CheckResult list.

    Raises InvalidParameterError for an unknown suite or a keyword the suite
    does not take.
    """
    if name not in SUITES:
        raise InvalidParameterError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    takes = inspect.signature(SUITES[name]).parameters
    for key in kwargs:
        if key not in takes:
            raise InvalidParameterError(
                f"suite {name!r} takes no keyword {key!r}; it takes: {', '.join(takes) or 'none'}"
            )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SUITES[name](**kwargs)


def run_all() -> dict:
    """Run every suite; returns {suite name: [CheckResult, ...]}."""
    return {name: run_suite(name) for name in SUITES}
