"""Verification suites shared by the CLI and the acceptance tests.

Each suite returns a list of CheckResult records; a suite passes when every
record passes.  Suites are deterministic: random inputs come from fixed-seed
generators and quadrature schedules are fixed, so repeated runs agree bitwise.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .cmv import TruncationSpec, build_K, eigenvalue_counts, verify_identities
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


def _truncation(dim: int) -> TruncationSpec:
    if dim < 4 or dim % 2:
        raise InvalidParameterError(f"need even dim >= 4, got {dim}")
    return TruncationSpec(n_blocks=dim // 2)


def _random_reflections(rng, size: int) -> ReflectionSequence:
    values = rng.uniform(-0.95, 0.95, size=size)
    return ReflectionSequence.from_list(list(values))


# ---------------------------------------------------------------------------
# Suite 1: matrix identities
# ---------------------------------------------------------------------------


def suite_matrix_identities(dim: int = 64, tol: float = 1e-13) -> list:
    trunc = _truncation(dim)
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
            CheckResult(
                label=f"matrix identities, {name}, dim={dim}",
                passed=worst <= tol,
                value=worst,
                tol=tol,
                details={"worst_case": worst_case},
            )
        )
    return results


# ---------------------------------------------------------------------------
# Suite 2: circle-to-interval map consistency
# ---------------------------------------------------------------------------


def suite_maps(n_max: int = 20, tol: float = 1e-10) -> list:
    pairs = [(0.0, 0.0), (0.3, 0.7), (1.0, 0.5), (-0.25, 0.75), (-0.5, -0.5)]
    points = [CirclePoint(float(phi)) for phi in np.linspace(0.2, 2 * math.pi - 0.2, 25)]
    xs = np.array([point.x for point in points])
    results = []
    for xi, eta in pairs:
        a = jacobi_opuc_reflections(xi, eta)
        # the direct route: one ladder per family on all points; elementwise
        # float64 arithmetic gives the per-point values bit for bit
        direct_sym = np.array(eval_monic(dg_symmetric_recurrence(a), n_max, xs)).T.tolist()
        direct_mono = np.array(eval_monic(sdg_recurrence(a), n_max, xs)).T.tolist()
        worst_sym = 0.0
        worst_mono = 0.0
        for point, col_sym, col_mono in zip(points, direct_sym, direct_mono):
            for via_circle, d_sym in zip(dg_eval_from_circle(a, n_max, point), col_sym):
                worst_sym = max(worst_sym, abs(via_circle - d_sym) / max(1.0, abs(d_sym)))
            for via_circle, d_mono in zip(sdg_eval_from_circle(a, n_max, point), col_mono):
                worst_mono = max(worst_mono, abs(via_circle - d_mono) / max(1.0, abs(d_mono)))
        results.append(
            CheckResult(
                label=f"symmetric family via circle pair, (xi,eta)=({xi},{eta})",
                passed=worst_sym <= tol,
                value=worst_sym,
                tol=tol,
            )
        )
        results.append(
            CheckResult(
                label=f"shifted family via circle pair, (xi,eta)=({xi},{eta})",
                passed=worst_mono <= tol,
                value=worst_mono,
                tol=tol,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Suite 3: lam = 1 orthogonality under the closed-form weight
# ---------------------------------------------------------------------------


def _gram_offdiag_worst(measure, rec, n_max: int) -> float:
    """Worst normalized off-diagonal Gram entry, fixed-rule quadrature."""
    prev = None
    for n_nodes in (128, 256, 512):
        x, w = discretize(measure, n_nodes)
        V = np.array(eval_monic(rec, n_max, x))
        G = (V * w) @ V.T
        norms = np.sqrt(np.abs(np.diag(G)))
        G = G / np.outer(norms, norms)
        off = G - np.diag(np.diag(G))
        worst = float(np.max(np.abs(off)))
        if prev is not None and abs(worst - prev) <= 1e-10:
            return worst
        prev = worst
    return worst


def suite_little_m1(n_max: int = 12, tol: float = 1e-7) -> list:
    results = []
    for xi, eta in ((0.0, 0.0), (1.0, 0.5), (-0.25, 0.75)):
        a = jacobi_opuc_reflections(xi, eta)
        rec = sdg_recurrence(a)
        measure = named_weight("sdg", xi=xi, eta=eta)
        worst = _gram_offdiag_worst(measure, rec, n_max)
        results.append(
            CheckResult(
                label=f"lam=1 family orthogonal under its weight, (xi,eta)=({xi},{eta})",
                passed=worst <= tol,
                value=worst,
                tol=tol,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Suite 4: the two-interval identification (the central claim)
# ---------------------------------------------------------------------------


def _require_degree(n_max: int) -> None:
    if n_max < 0:
        raise InvalidParameterError(f"n_max must be >= 0, got {n_max}")


def _coeff_mismatch(lhs: MonicThreeTerm, rhs: MonicThreeTerm, n_max: int) -> float:
    worst = 0.0
    for n in range(n_max + 1):
        worst = max(worst, abs(float(lhs.b(n)) - float(rhs.b(n))))
        worst = max(worst, abs(float(lhs.u(n)) - float(rhs.u(n))))
    return worst


def suite_big_m1(cases=None, n_max: int = 15, tol: float = 1e-7) -> list:
    _require_degree(n_max)
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
        from_weight = stieltjes_recurrence(measure, n_max + 1, tol=1e-9)
        resolved = _coeff_mismatch(from_weight, params.resolved, n_max)
        literal = _coeff_mismatch(from_weight, params.star, n_max)
        results.append(
            CheckResult(
                label=(
                    f"two-interval weight reproduces the reduced pencil family, "
                    f"(xi,eta,lam)=({xi},{eta},{lam})"
                ),
                passed=resolved <= tol,
                value=resolved,
                tol=tol,
                details={
                    "literal_rescaling_residual": literal,
                    "note": (
                        "the literal g-rescaling disagrees at O(1); the match "
                        "holds for the reciprocal-parameter reflection (see "
                        "maps.big_m1_recurrence)"
                    ),
                },
            )
        )
    return results


# ---------------------------------------------------------------------------
# Suite 5: truncated pencil spectra against the band prediction
# ---------------------------------------------------------------------------


def suite_spectrum(dim: int = 200, inflate: float = 0.05, max_outliers: int = 2) -> list:
    """Truncated free-pencil spectra against the inflated band prediction.

    Complexity: O(dim) per lam.  The outlier and near-zero counts are
    ``eigenvalue_counts`` at the window edges; the outlier values come from
    bisection, run only in the windows outside the inflated bands that hold
    eigenvalues.  No full eigensolve and no O(dim^2) object is involved.
    """
    trunc = _truncation(dim)
    a = ReflectionSequence.constant(0.0)
    results = []
    for lam in (0.5, 1.0, 2.0):
        K = build_K(a, lam, trunc)
        diag, off = K.bands
        # Gershgorin: every eigenvalue lies strictly inside (-bound, bound)
        bound = 1.0 + float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
        bands = essential_spectrum_periodic(lam)
        starts = [-bound, *(q + inflate for _, q in bands)]
        ends = [*(p - inflate for p, _ in bands), bound]
        windows = [(lo, hi) for lo, hi in zip(starts, ends) if lo < hi]
        counts = eigenvalue_counts(K, [*(t for w in windows for t in w), -inflate, inflate])
        outliers = []
        n_outliers = 0
        for (lo, hi), below_lo, below_hi in zip(windows, counts[0:-2:2], counts[1:-2:2]):
            if below_hi > below_lo:
                n_outliers += int(below_hi - below_lo)
                outliers += eigh_tridiagonal(
                    diag, off, eigvals_only=True, select="v", select_range=(lo, hi)
                ).tolist()
        near_zero = int(counts[-1] - counts[-2])
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


def suite_periodic_weight(tol: float = 1e-8, tol_cheb: float = 1e-10) -> list:
    a = ReflectionSequence.constant(0.0)
    results = []
    for lam in (0.5, 2.0):
        measure = named_weight("periodic", lam=lam)
        from_weight = stieltjes_recurrence(measure, 21, tol=1e-9)
        expected = pencil_recurrence(a, lam)
        worst = _coeff_mismatch(from_weight, expected, 20)
        verbatim = _verbatim_comparison(lam)
        results.append(
            CheckResult(
                label=f"band density reproduces free pencil coefficients, lam={lam}",
                passed=worst <= tol,
                value=worst,
                tol=tol,
                details=verbatim,
            )
        )
    measure = named_weight("periodic", lam=1.0)
    from_weight = stieltjes_recurrence(measure, 21, tol=1e-10)
    third_kind = MonicThreeTerm(b=lambda n: 1.0 if n == 0 else 0.0, u=lambda n: 0.0 if n == 0 else 1.0)
    worst = _coeff_mismatch(from_weight, third_kind, 20)
    results.append(
        CheckResult(
            label="lam=1 density gives monic third-kind coefficients",
            passed=worst <= tol_cheb,
            value=worst,
            tol=tol_cheb,
        )
    )
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
            except Exception:
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
        CheckResult(
            label="closed-form branch satisfies its quadratic at 50 points",
            passed=worst_quad <= 1e-12,
            value=worst_quad,
            tol=1e-12,
        )
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
        CheckResult(
            label="continued-fraction oracle agrees with the closed form",
            passed=worst_cf <= 1e-10,
            value=worst_cf,
            tol=1e-10,
        )
    )

    worst_density = max(
        validate_periodic_density(0.5), validate_periodic_density(2.0)
    )
    results.append(
        CheckResult(
            label="boundary values of the Weyl function match the band density",
            passed=worst_density <= 1e-4,
            value=worst_density,
            tol=1e-4,
        )
    )

    asym = abs(1e6j * m_per(1e6j, 1.7) + 1.0)
    results.append(
        CheckResult(
            label="z*m -> -1 at large |z|",
            passed=asym <= 1e-5,
            value=asym,
            tol=1e-5,
        )
    )
    return results


# ---------------------------------------------------------------------------
# Suite 8: reflection-differential operator eigenfunctions, exact
# ---------------------------------------------------------------------------


def suite_dunkl(cases=None, n_max: int = 10) -> list:
    _require_degree(n_max)
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
        for n in range(n_max + 1):
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
    results.append(
        CheckResult(
            label="reflected family equals (-1)^n Q_n(-x)",
            passed=worst <= 1e-10,
            value=worst,
            tol=1e-10,
        )
    )

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
    results.append(
        CheckResult(
            label="transform then inverse reconstruction is the identity",
            passed=worst <= 1e-10,
            value=worst,
            tol=1e-10,
        )
    )

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
    results.append(
        CheckResult(
            label="reduced recurrence rescales to a lam-free shape",
            passed=worst <= 1e-12,
            value=worst,
            tol=1e-12,
        )
    )
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
    """Run one named suite; returns its CheckResult list."""
    if name not in SUITES:
        raise InvalidParameterError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SUITES[name](**kwargs)


def run_all() -> dict:
    """Run every suite; returns {suite name: [CheckResult, ...]}."""
    return {name: run_suite(name) for name in SUITES}
