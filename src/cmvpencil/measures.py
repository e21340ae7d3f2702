"""Closed-form weights, singularity-aware quadrature, and Weyl functions.

Each named weight carries machine-readable endpoint-exponent declarations
(density ~ const * |x - s|^gamma near a declared point s, gamma > -1).  The
quadrature engine splits the support at declared points and integrates each
panel with a Gauss-Jacobi rule matched to the declared exponents, so
integrands that are (density * polynomial) converge at spectral rate.
``discretize`` is the one place that turns a measure into nodes and weights;
it draws its Gauss-Jacobi rules from a bounded cache keyed by the node count
and the two exponents, so refinement ladders and repeated weights do not
regenerate them.  On top of it sit ``integrate``, a Stieltjes-procedure
oracle (recurrence coefficients recovered from a measure alone) and the
closed-form Weyl functions of the constant-coefficient pencil, whose boundary
values give the two-band spectral density.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi

from .errors import (
    BandEdgeError,
    InstabilityError,
    InvalidParameterError,
    NonConvergenceError,
)
from .recurrences import MonicThreeTerm, eval_monic

__all__ = [
    "Measure",
    "named_weight",
    "discretize",
    "integrate",
    "gram",
    "stieltjes_recurrence",
    "essential_spectrum_periodic",
    "m_per",
    "m_full",
    "stieltjes_perron_density",
    "periodic_weight_verbatim",
    "validate_periodic_density",
]

_EDGE_MATCH = 1e-12


@dataclass(frozen=True)
class Measure:
    """Absolutely continuous measure with declared algebraic singularities.

    Parameters
    ----------
    support : tuple of (p, q) pairs
        One interval or two disjoint intervals, ascending.
    density : callable
        Vectorized map x -> w(x), finite and positive a.e. on the support
        away from the declared points.
    endpoint_exponents : tuple of (point, gamma) pairs
        Declares density ~ const * |x - s|^gamma near s, with gamma > -1.
        Points may be interval endpoints or interior points.
    name : str
        Family tag for reporting.
    """

    support: tuple
    density: Callable
    endpoint_exponents: tuple
    name: str = ""

    def __post_init__(self):
        for p, q in self.support:
            if not q >= p:
                raise InvalidParameterError(f"empty support interval ({p}, {q})")
        for s, gamma in self.endpoint_exponents:
            if not gamma > -1:
                raise InvalidParameterError(
                    f"declared exponent {gamma} at {s} is not integrable (need > -1)"
                )

    def exponent_at(self, s: float) -> float:
        for point, gamma in self.endpoint_exponents:
            if abs(point - s) <= _EDGE_MATCH:
                return gamma
        return 0.0


def _panels(m: Measure):
    """Split the support at declared interior points; tag endpoint exponents."""
    panels = []
    for p, q in m.support:
        if q - p <= _EDGE_MATCH:
            continue
        inner = sorted(
            s
            for s, _ in m.endpoint_exponents
            if p + _EDGE_MATCH < s < q - _EDGE_MATCH
        )
        cuts = [p, *inner, q]
        for x0, x1 in zip(cuts[:-1], cuts[1:]):
            panels.append((x0, x1, m.exponent_at(x0), m.exponent_at(x1)))
    return panels


@functools.lru_cache(maxsize=256)
def _jacobi_rule(n_nodes: int, gr: float, gl: float):
    """Gauss-Jacobi nodes and weights on [-1, 1] for (1-t)^gr (1+t)^gl.

    Cached, so the arrays are shared between callers and made read-only.
    """
    t, w = roots_jacobi(n_nodes, gr, gl)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def discretize(m: Measure, n_nodes: int):
    """Nodes and effective weights of the measure, n_nodes per panel.

    The support is split at the declared points.  On each panel the
    Gauss-Jacobi rule with weight (1-t)^gr (1+t)^gl absorbs the declared
    endpoint behavior; the effective weight is the rule weight times the
    interval-length prefactor times the regularized density
    (x - p)^{-gl} (q - x)^{-gr} w(x), which is analytic whenever the
    declarations are sharp.  Then sum(w * f(x)) approximates the integral
    of f against the measure.

    Returns
    -------
    x, w : ndarray
        The panels' nodes and weights, concatenated in support order.
    """
    xs, ws = [], []
    for p, q, gl, gr in _panels(m):
        t, w = _jacobi_rule(n_nodes, gr, gl)
        half = 0.5 * (q - p)
        x = 0.5 * (q + p) + half * t
        regularized = np.asarray(m.density(x), dtype=float)
        if gl != 0.0:
            regularized = regularized * (x - p) ** (-gl)
        if gr != 0.0:
            regularized = regularized * (q - x) ** (-gr)
        xs.append(x)
        ws.append(w * half ** (1.0 + gl + gr) * regularized)
    if not xs:
        return np.empty(0), np.empty(0)
    return np.concatenate(xs), np.concatenate(ws)


def _apply(f: Callable, x: np.ndarray) -> np.ndarray:
    out = f(x)
    arr = np.asarray(out, dtype=float)
    if arr.shape == x.shape:
        return arr
    return np.asarray([float(f(xi)) for xi in x])


_LEVELS = (16, 32, 64, 128, 256, 512)


def integrate(m: Measure, f: Callable, tol: float) -> float:
    """Integral of f against the measure, to estimated tolerance tol.

    Parameters
    ----------
    m : Measure
    f : callable
        Continuous on the support; vectorized or scalar.
    tol : real, >= 1e-13
        Target error relative to max(|integral|, integral of |integrand|).

    Raises
    ------
    NonConvergenceError
        If successive refinements fail to settle within the node budget, or
        if the refinements diverge (undeclared singularity heuristic).
    """
    if tol < 1e-13:
        raise InvalidParameterError(f"tol must be >= 1e-13, got {tol!r}")
    prev = None
    history = []
    for n_nodes in _LEVELS:
        x, w = discretize(m, n_nodes)
        contrib = w * _apply(f, x)
        total = float(contrib.sum())
        total_abs = float(np.abs(contrib).sum())
        history.append(total_abs)
        if (
            len(history) >= 3
            and history[-1] > 1.5 * history[-2]
            and history[-2] > 1.5 * history[-3]
        ):
            raise NonConvergenceError(
                "integrand magnitude keeps growing under refinement; "
                "density appears singular beyond the declared exponents "
                f"(last estimate {total!r})"
            )
        if prev is not None:
            scale = max(abs(total), total_abs, 1e-300)
            if abs(total - prev) <= tol * scale:
                return total
        prev = total
    raise NonConvergenceError(
        f"quadrature did not reach tol = {tol} within {_LEVELS[-1]} nodes per "
        f"panel (last estimate {prev!r})"
    )


def gram(m: Measure, rec_p, rec_q, n: int, k: int, tol: float = 1e-10) -> float:
    """Normalized inner product of the degree-n and degree-k polynomials.

    Returns <p_n, q_k> / sqrt(<p_n, p_n> <q_k, q_k>) under the measure, so an
    orthogonal pair gives ~0 and n = k with the same family gives 1.
    """
    cross = integrate(m, lambda x: eval_monic(rec_p, n, x)[n] * eval_monic(rec_q, k, x)[k], tol)
    nn = integrate(m, lambda x: eval_monic(rec_p, n, x)[n] ** 2, tol)
    kk = integrate(m, lambda x: eval_monic(rec_q, k, x)[k] ** 2, tol)
    if nn <= 0 or kk <= 0:
        raise InstabilityError(min(n, k), "nonpositive squared norm")
    return cross / math.sqrt(nn * kk)


_STIELTJES_LEVELS = (64, 128, 256, 512)
_STIELTJES_N_MAX = 30


def stieltjes_recurrence(m: Measure, n_max: int, tol: float = 1e-10) -> MonicThreeTerm:
    """Recurrence coefficients of the orthogonal family of a measure.

    The classical moment-free procedure: build p_n by the discovered
    recurrence, read b_n = <x p_n, p_n>/<p_n, p_n> and u_n = h_n/h_{n-1}
    from quadrature, refine the rule until the whole coefficient table
    settles to tol.

    Parameters
    ----------
    m : Measure
    n_max : int, 0 <= n_max <= 30
        Largest coefficient index.  30 is a fixed cap, not a measured
        limit: with the cap raised, the closed-form families still recover
        to about 5e-13 through degree 120 and beyond.
    tol : real
        Agreement tolerance between successive quadrature refinements.

    Raises
    ------
    InstabilityError
        If a squared norm h_n loses positivity (naming the failing n).
    NonConvergenceError
        If refinements do not settle.
    """
    if n_max < 0:
        raise InvalidParameterError("n_max must be >= 0")
    if n_max > _STIELTJES_N_MAX:
        raise InvalidParameterError(
            f"n_max = {n_max} exceeds the fixed degree cap {_STIELTJES_N_MAX}"
        )

    def chain(n_nodes: int):
        x, w = discretize(m, n_nodes)
        wx = w * x
        b_list, u_list = [], [0.0]
        p_prev = np.zeros_like(x)
        p_cur = np.ones_like(x)
        h_prev = None
        h_cur = float(w.sum())
        if not (h_cur > 0 and math.isfinite(h_cur)):
            raise InstabilityError(0, f"h_0 = {h_cur!r}")
        for n in range(n_max + 1):
            b_n = float((wx * p_cur * p_cur).sum()) / h_cur
            b_list.append(b_n)
            if n == n_max:
                break
            u_n = 0.0 if h_prev is None else h_cur / h_prev
            p_next = (x - b_n) * p_cur - (u_n if n else 0.0) * p_prev
            p_prev, p_cur = p_cur, p_next
            h_prev, h_cur = h_cur, float((w * p_cur * p_cur).sum())
            if not (h_cur > 0 and math.isfinite(h_cur)):
                raise InstabilityError(n + 1, f"h_{n + 1} = {h_cur!r}")
            u_list.append(h_cur / h_prev)
        return np.asarray(b_list), np.asarray(u_list)

    prev = None
    for n_nodes in _STIELTJES_LEVELS:
        b_arr, u_arr = chain(n_nodes)
        if prev is not None:
            pb, pu = prev
            scale = max(1.0, float(np.max(np.abs(b_arr))), float(np.max(np.abs(u_arr))))
            diff = max(float(np.max(np.abs(b_arr - pb))), float(np.max(np.abs(u_arr - pu))))
            if diff <= tol * scale:
                return MonicThreeTerm.from_arrays(list(b_arr), list(u_arr))
        prev = (b_arr, u_arr)
    raise NonConvergenceError(
        f"coefficient table did not settle to {tol} within "
        f"{_STIELTJES_LEVELS[-1]} nodes per panel"
    )


# ---------------------------------------------------------------------------
# Named weights
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameterError(msg)


def _gen_gegenbauer_density(xi: float, eta: float):
    def density(x):
        x = np.asarray(x, dtype=float)
        return (4.0 - x * x) ** xi * np.abs(x) ** (2.0 * eta + 1.0)

    return density


def _circle_density(xi: float, eta: float):
    # weight on the circle in the angle variable, (1-cos)^(xi+1/2)(1+cos)^(eta+1/2)
    def rho(theta):
        theta = np.asarray(theta, dtype=float)
        return (1.0 - np.cos(theta)) ** (xi + 0.5) * (1.0 + np.cos(theta)) ** (
            eta + 0.5
        )

    return rho


def _pencil_density(xi: float, eta: float, lam: float):
    def density(v):
        v = np.asarray(v, dtype=float)
        outer = (lam + 1.0) ** 2 - v * v
        inner = np.abs(v * v - (lam - 1.0) ** 2)
        return (
            np.sign(v)
            * (v + lam + 1.0)
            * (v + lam - 1.0)
            * outer**xi
            * inner**eta
        )

    return density


def _big_m1_density(alpha: float, beta: float, c: float):
    xi = 0.5 * (alpha - 1.0)
    eta = 0.5 * (beta - 1.0)

    def density(y):
        y = np.asarray(y, dtype=float)
        return (
            np.sign(y)
            * (y + 1.0)
            * (y - c)
            * (1.0 - y * y) ** xi
            * np.abs(y * y - c * c) ** eta
        )

    return density


def _periodic_density(lam: float):
    def density(t):
        t = np.asarray(t, dtype=float)
        s2 = ((lam + 1.0) ** 2 - t * t) * (t * t - (lam - 1.0) ** 2)
        return np.sqrt(np.maximum(s2, 0.0)) / (
            lam * np.abs((t - lam) ** 2 - 1.0)
        )

    return density


def named_weight(family: str, **params) -> Measure:
    """Closed-form weight of a named family.

    Parameters
    ----------
    family : str
        One of "gen_gegenbauer", "sdg", "adjacent", "companion",
        "dg_from_circle" (parameters xi, eta); "pencil" (xi, eta, lam);
        "big_m1" (alpha, beta, c), "little_m1" (alpha, beta);
        "periodic" (lam).

    Returns
    -------
    Measure
        With support and sharp endpoint exponents declared.

    Notes
    -----
    The periodic density is the Weyl-function boundary value
    2*Im m_full(t + i0): square-root zeros at two band edges and
    inverse-square-root blowups at the other two (the denominator zeros
    t = lam - 1 and t = lam + 1).  See ``periodic_weight_verbatim`` for the
    alternative closed form kept for comparison reporting.
    """
    if family in ("gen_gegenbauer", "sdg", "adjacent", "companion", "dg_from_circle"):
        xi = params.pop("xi")
        eta = params.pop("eta")
        _require(not params, f"unexpected parameters {sorted(params)}")
        _require(xi > -1 and eta > -1, f"need xi, eta > -1, got ({xi}, {eta})")
        base = _gen_gegenbauer_density(xi, eta)
        if family == "gen_gegenbauer":
            return Measure(
                support=((-2.0, 2.0),),
                density=base,
                endpoint_exponents=((-2.0, xi), (2.0, xi), (0.0, 2 * eta + 1)),
                name=family,
            )
        if family == "dg_from_circle":
            rho = _circle_density(xi, eta)

            def density(x):
                x = np.asarray(x, dtype=float)
                theta = 2.0 * np.arccos(np.clip(x / 2.0, -1.0, 1.0))
                return rho(theta) / np.sin(theta / 2.0)

            # theta scales like sqrt(2 -/+ x) near x = +/-2, so the circle
            # exponents xi + 1/2 land at xi on the interval
            return Measure(
                support=((-2.0, 2.0),),
                density=density,
                endpoint_exponents=((-2.0, xi), (2.0, xi), (0.0, 2 * eta + 1)),
                name=family,
            )
        if family == "sdg":

            def density(x):
                x = np.asarray(x, dtype=float)
                return (x + 2.0) * base(x)

            exps = ((-2.0, 1 + xi), (2.0, xi), (0.0, 2 * eta + 1))
        elif family == "adjacent":

            def density(x):
                x = np.asarray(x, dtype=float)
                return (2.0 - x) * base(x)

            exps = ((-2.0, xi), (2.0, 1 + xi), (0.0, 2 * eta + 1))
        else:  # companion

            def density(x):
                x = np.asarray(x, dtype=float)
                return (4.0 - x * x) * base(x)

            exps = ((-2.0, 1 + xi), (2.0, 1 + xi), (0.0, 2 * eta + 1))
        return Measure(
            support=((-2.0, 2.0),),
            density=density,
            endpoint_exponents=exps,
            name=family,
        )

    if family == "pencil":
        xi = params.pop("xi")
        eta = params.pop("eta")
        lam = params.pop("lam")
        _require(not params, f"unexpected parameters {sorted(params)}")
        _require(xi > -1 and eta > -1, f"need xi, eta > -1, got ({xi}, {eta})")
        _require(lam > 0, f"need lam > 0, got {lam}")
        if lam == 1.0:
            return named_weight("sdg", xi=xi, eta=eta)
        lo, hi = abs(lam - 1.0), lam + 1.0
        return Measure(
            support=((-hi, -lo), (lo, hi)),
            density=_pencil_density(xi, eta, lam),
            # the linear factors shift the pure power exponents at the
            # points -(lam+1) and -(lam-1) (signed), wherever those fall
            endpoint_exponents=(
                (hi, xi),
                (-hi, 1 + xi),
                (lam - 1.0, eta),
                (-(lam - 1.0), 1 + eta),
            ),
            name=family,
        )

    if family in ("big_m1", "little_m1"):
        alpha = params.pop("alpha")
        beta = params.pop("beta")
        c = 0.0 if family == "little_m1" else params.pop("c")
        _require(not params, f"unexpected parameters {sorted(params)}")
        _require(alpha > -1 and beta > -1, f"need alpha, beta > -1, got ({alpha}, {beta})")
        _require(0 <= c < 1, f"need 0 <= c < 1, got {c}")
        xi = 0.5 * (alpha - 1.0)
        eta = 0.5 * (beta - 1.0)
        density = _big_m1_density(alpha, beta, c)
        if c == 0.0:
            support = ((-1.0, 1.0),)
            exps = ((-1.0, 1 + xi), (1.0, xi), (0.0, 1 + 2 * eta))
        else:
            support = ((-1.0, -c), (c, 1.0))
            exps = ((-1.0, 1 + xi), (1.0, xi), (c, 1 + eta), (-c, eta))
        return Measure(
            support=support, density=density, endpoint_exponents=exps, name=family
        )

    if family == "periodic":
        lam = params.pop("lam")
        _require(not params, f"unexpected parameters {sorted(params)}")
        _require(lam > 0, f"need lam > 0, got {lam}")
        density = _periodic_density(lam)
        if lam == 1.0:
            return Measure(
                support=((-2.0, 2.0),),
                density=density,
                endpoint_exponents=((-2.0, 0.5), (2.0, -0.5)),
                name=family,
            )
        lo, hi = abs(lam - 1.0), lam + 1.0
        return Measure(
            support=((-hi, -lo), (lo, hi)),
            density=density,
            # square-root zeros where the denominator is regular, inverse
            # square roots at its zeros t = lam - 1 and t = lam + 1
            endpoint_exponents=(
                (hi, -0.5),
                (lam - 1.0, -0.5),
                (-hi, 0.5),
                (-(lam - 1.0), 0.5),
            ),
            name=family,
        )

    raise InvalidParameterError(f"unknown weight family {family!r}")


# ---------------------------------------------------------------------------
# Weyl functions of the constant-coefficient pencil
# ---------------------------------------------------------------------------


def essential_spectrum_periodic(lam: float):
    """The two bands [-lam-1, -|lam-1|] and [|lam-1|, lam+1] (touching at lam=1).

    The prediction is for lam > 0; lam <= 0 raises InvalidParameterError.
    """
    if not lam > 0:
        raise InvalidParameterError(f"need lam > 0, got {lam}")
    lo, hi = abs(lam - 1.0), lam + 1.0
    return ((-hi, -lo), (lo, hi))


def _stable_quadratic(A: complex, B: complex, C: complex):
    """Roots of A m^2 + B m + C = 0, cancellation-safe; tuple of 1 or 2 roots."""
    if A == 0:
        if B == 0:
            raise InvalidParameterError("degenerate quadratic")
        return (-C / B,)
    sq = cmath.sqrt(B * B - 4 * A * C)
    if (B.conjugate() * sq).real >= 0:
        qq = -(B + sq) / 2
    else:
        qq = -(B - sq) / 2
    if qq == 0:
        return (0.0 + 0.0j, 0.0 + 0.0j)
    return (qq / A, C / qq)


def _band_edge_guard(z: complex, lam: float) -> None:
    for edge in (lam + 1.0, abs(lam - 1.0)):
        if abs(abs(z) - edge) < 1e-12:
            raise BandEdgeError(
                f"|z| = {abs(z)!r} is within 1e-12 of the band edge {edge!r}; "
                "refusing to choose a branch"
            )


def m_per(z: complex, lam: float) -> complex:
    """Closed-form solution of lam^2 z m^2 + (z^2 - 1 + lam^2) m + z = 0
    with the branch fixed by m ~ -1/z at infinity.

    Parameters
    ----------
    z : complex
        Spectral point with Im z != 0, or real and strictly outside the
        essential spectrum.
    lam : real, > 0

    Notes
    -----
    For Im z > 0 the asymptotic branch is the root with positive imaginary
    part (the two roots have real product 1/lam^2, so their imaginary parts
    have opposite signs); this equals continuation from large |z| along a
    vertical ray.  Real z are resolved by an imaginary lift and then snapped
    to the nearest exact real root.
    """
    if not lam > 0:
        raise InvalidParameterError(f"need lam > 0, got {lam}")
    z = complex(z)
    _band_edge_guard(z, lam)

    def roots_at(zz: complex):
        return _stable_quadratic(lam * lam * zz, zz * zz - 1.0 + lam * lam, zz)

    if z.imag != 0.0:
        roots = roots_at(z)
        if len(roots) == 1:
            return roots[0]
        want_positive = z.imag > 0
        by_imag = sorted(roots, key=lambda r: r.imag)
        pick = by_imag[1] if want_positive else by_imag[0]
        if (pick.imag > 0) != want_positive and pick.imag != 0:
            # degenerate orientation: fall back to the asymptotic criterion
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
    lifted = m_per(t + 1e-9j, lam)
    real_roots = roots_at(complex(t))
    return min(real_roots, key=lambda r: abs(r - lifted))


def m_full(z: complex, lam: float) -> complex:
    """The full-line function m_per/(1 + lam*m_per); Herglotz in the upper
    half plane, with boundary density 2*Im m_full(t + i0) on the bands."""
    mp = m_per(z, lam)
    den = 1.0 + lam * mp
    if den == 0:
        raise InvalidParameterError(f"pole of the composed function at z = {z!r}")
    return mp / den


def _inside_band(lam: float, t: float) -> bool:
    lo, hi = abs(lam - 1.0), lam + 1.0
    return lo < abs(t) < hi


def stieltjes_perron_density(lam: float, t: float) -> float:
    """Spectral density of the constant-coefficient pencil at a band point.

    w(t) = sqrt(((lam+1)^2 - t^2)(t^2 - (lam-1)^2)) / (lam * |(t-lam)^2 - 1|),
    equal to 2*Im m_full(t + i0); total mass over both bands is 2*pi.

    Raises
    ------
    InvalidParameterError
        If t is not strictly inside a band.
    """
    if not lam > 0:
        raise InvalidParameterError(f"need lam > 0, got {lam}")
    if not _inside_band(lam, t):
        raise InvalidParameterError(
            f"t = {t!r} is not strictly inside the essential spectrum bands"
        )
    s2 = ((lam + 1.0) ** 2 - t * t) * (t * t - (lam - 1.0) ** 2)
    return math.sqrt(s2) / (lam * abs((t - lam) ** 2 - 1.0))


def periodic_weight_verbatim(lam: float, t: float) -> float:
    """The alternative closed-form display of the band density, kept verbatim
    for comparison: same square-root numerator over
    -/+ lam*(t^2 - 2*lam^2*t + lam^2 - 1) with the minus sign on the positive
    band.  Validation shows it disagrees with the Weyl boundary values for
    lam != 1 (its denominator even vanishes inside a band for lam < 1), so
    ``stieltjes_perron_density`` is the reference; this form is exposed only
    so the discrepancy can be reported, never used as a weight.
    """
    if not _inside_band(lam, t):
        raise InvalidParameterError(
            f"t = {t!r} is not strictly inside the essential spectrum bands"
        )
    num = math.sqrt(max(4 * lam * lam - (t * t - lam * lam - 1.0) ** 2, 0.0))
    den = lam * (t * t - 2.0 * lam * lam * t + lam * lam - 1.0)
    sign = -1.0 if t > 0 else 1.0
    if den == 0:
        raise InvalidParameterError(f"verbatim denominator vanishes at t = {t!r}")
    return num / (sign * den)


def validate_periodic_density(lam: float, n_grid: int = 20, eps: float = 1e-7) -> float:
    """Max relative deviation between the closed-form band density and the
    Weyl boundary value 2*Im m_full(t + i*eps) over an interior grid.

    The factor 2 converts the probability-normalized inversion value
    (1/pi)*Im m_full into the weight normalized to total mass 2*pi.
    """
    lo, hi = abs(lam - 1.0), lam + 1.0
    pad = 0.05 * (hi - lo) if hi > lo else 0.05
    worst = 0.0
    for band in ((-hi + pad, -lo - pad), (lo + pad, hi - pad)):
        grid = np.linspace(band[0], band[1], n_grid)
        for t in grid:
            w_closed = stieltjes_perron_density(lam, float(t))
            w_weyl = 2.0 * m_full(complex(t, eps), lam).imag
            worst = max(worst, abs(w_closed - w_weyl) / max(abs(w_weyl), 1e-300))
    return worst
