"""Closed-form weights, singularity-aware quadrature, and Weyl functions.

Each named weight carries machine-readable endpoint-exponent declarations
(density ~ const * |x - s|^gamma near a declared point s, gamma > -1).  The
quadrature engine splits the support at declared points and integrates each
panel with a Gauss-Jacobi rule matched to the declared exponents, so
integrands that are (density * polynomial) converge at spectral rate.
``discretize`` is the one place that turns a measure into nodes and weights;
it draws its Gauss-Jacobi rules from a bounded cache keyed by the node count
and the two exponents, so refinement ladders and repeated weights do not
regenerate them.  The rules come from ``scipy.special.roots_jacobi``, which
is imported when the first rule is built, so code that builds none never
loads scipy.  On top of it sit ``integrate``, which calls its vectorized
integrand once per quadrature level on the array of nodes, a
Stieltjes-procedure oracle (recurrence coefficients recovered from a measure
alone) and the closed-form Weyl functions of the constant-coefficient pencil,
whose boundary values give the two-band spectral density.

``integrate`` and ``stieltjes_recurrence`` share a second bounded cache,
keyed by (measure, node count): each entry holds one discretization and the
Stieltjes chain run on it so far, which a later call extends only to the
degree it asks for.  The key holds the density by identity, so only a
measure on the same density object hits an entry; that density must be a
pure function of x.  A measure that cannot be hashed is served uncached.
``named_weight`` returns one shared measure for the same family and
parameters, compared by value and by type, from a small bounded memo, so a
repeated named weight hits the chains of its first call.

Arguments are checked before any work, each real parameter (lam, xi, c,
alpha, beta, a declared exponent, tol, a band point t) by
``recurrences._require_real`` and each count (n_max, n_nodes) by
``recurrences._require_count``: a value outside its range, nan, a value that
is not a number, or an int or ``Fraction`` too large for a float raises
InvalidParameterError.  So does a Weyl point z that is not a finite number or
at which the quadratic's discriminant or the chosen root overflows.  Their
messages name a value too long to write out by its size (``errors._shown``).
"""

from __future__ import annotations

import cmath
import functools
import inspect
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BandEdgeError,
    InstabilityError,
    InternalConsistencyError,
    InvalidParameterError,
    NonConvergenceError,
    _shown,
)
from .recurrences import MonicThreeTerm, _require_count, _require_lam, _require_real, _worst, eval_monic

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
        Declares density ~ const * |x - s|^gamma near s, with gamma > -1 and
        finite (InvalidParameterError otherwise; the named weights rely on
        this check for their exponent parameters).  Points may be interval
        endpoints or interior points.
    name : str
        Family tag for reporting.
    """

    support: tuple
    density: Callable
    endpoint_exponents: tuple
    name: str = ""

    def __post_init__(self):
        for p, q in self.support:
            _require_real(q, "support intervals (p, q) with q >= p", p, math.inf)
        for _, gamma in self.endpoint_exponents:
            _require_real(gamma, "declared exponents > -1 (integrable) and finite", -1, open_lo=True)

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
            # as floats, the one type the Gauss-Jacobi rules take
            panels.append((x0, x1, float(m.exponent_at(x0)), float(m.exponent_at(x1))))
    return panels


def roots_jacobi(n: int, alpha: float, beta: float):
    """``scipy.special.roots_jacobi``, with scipy imported on the first call.

    ``_jacobi_rule`` calls it through this module's global, so code that
    never builds a rule never loads ``scipy.special``.
    """
    from scipy.special import roots_jacobi as rule

    return rule(n, alpha, beta)


@functools.lru_cache(maxsize=256)
def _jacobi_rule(n_nodes: int, gr: float, gl: float):
    """Gauss-Jacobi nodes and weights on [-1, 1] for (1-t)^gr (1+t)^gl.

    Cached, so the arrays are shared between callers and made read-only.
    Exponents too large for a finite rule raise InvalidParameterError.
    """
    try:
        # scipy's overflow warnings are redundant with the finiteness check
        with np.errstate(all="ignore"):
            t, w = roots_jacobi(n_nodes, gr, gl)
    except ValueError:  # scipy's eigensolver refuses the nan it built
        t = w = np.array([math.nan])
    if not np.isfinite([t, w]).all():
        raise InvalidParameterError(
            f"no finite {_shown(n_nodes, format)}-node Gauss-Jacobi rule for (1-t)^{gr} (1+t)^{gl}"
        )
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

    Raises
    ------
    InvalidParameterError
        If n_nodes is not an integer >= 1.
    """
    _require_count(n_nodes, "an integer n_nodes", 1)
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


_LEVELS = (16, 32, 64, 128, 256, 512)


def integrate(m: Measure, f: Callable, tol: float) -> float:
    """Integral of f against the measure, to estimated tolerance tol.

    Parameters
    ----------
    m : Measure
    f : callable
        Continuous on the support and vectorized: called once per
        quadrature level on the array of nodes, it returns one value per
        node, or one value for all of them (a constant).
    tol : real, finite, >= 1e-13
        Target error relative to max(|integral|, integral of |integrand|).

    Raises
    ------
    InvalidParameterError
        If tol is not finite or below 1e-13.
    NonConvergenceError
        If successive refinements fail to settle within the node budget, or
        if the refinements diverge (undeclared singularity heuristic).
    """
    _require_tol(tol)
    prev = None
    history = []
    for n_nodes in _LEVELS:
        chain = _chain_of(m, n_nodes)
        x, w = chain.x, chain.w
        contrib = w * np.asarray(f(x), dtype=float)
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
        f"quadrature did not reach tol = {_shown(tol, format)} within {_LEVELS[-1]} nodes per "
        f"panel (last estimate {prev!r})"
    )


def gram(m: Measure, rec_p, rec_q, n: int, k: int) -> float:
    """Normalized inner product of the degree-n and degree-k polynomials.

    Returns <p_n, q_k> / sqrt(<p_n, p_n> <q_k, q_k>) under the measure, so an
    orthogonal pair gives ~0 and n = k with the same family gives 1.  Each
    integral is converged to the fixed tolerance 1e-10.
    """
    tol = 1e-10
    cross = integrate(m, lambda x: eval_monic(rec_p, n, x)[n] * eval_monic(rec_q, k, x)[k], tol)
    nn = integrate(m, lambda x: eval_monic(rec_p, n, x)[n] ** 2, tol)
    kk = integrate(m, lambda x: eval_monic(rec_q, k, x)[k] ** 2, tol)
    if nn <= 0 or kk <= 0:
        raise InstabilityError(min(n, k), "nonpositive squared norm")
    return cross / math.sqrt(nn * kk)


_STIELTJES_LEVELS = (64, 128, 256, 512)
_STIELTJES_N_MAX = 30


def _require_tol(tol) -> None:
    _require_real(tol, "a finite tol >= 1e-13", 1e-13)


class _StieltjesChain:
    """One discretization of a measure and the Stieltjes chain run on it.

    After extend(n): b holds b_0..b_k and u holds u_0..u_k for some k >= n,
    p_prev and p_cur are p_{k-1} and p_k at the nodes, h_cur = <p_k, p_k>.
    Entry j depends only on the entries before it, so the table is the same
    however far and in however many steps the chain was run.
    """

    def __init__(self, m: Measure, n_nodes: int):
        x, w = discretize(m, n_nodes)
        # shared by every caller of this entry, integrands included
        x.flags.writeable = False
        w.flags.writeable = False
        self.x, self.w = x, w
        self.b, self.u = [], [0.0]
        self._lock = threading.Lock()

    def extend(self, n_max: int) -> None:
        """Run the chain through degree n_max.  A degree whose squared norm
        is not positive and finite raises InstabilityError and is not stored."""
        if len(self.b) > n_max:
            return
        with self._lock:
            x, w, b, u = self.x, self.w, self.b, self.u
            if not b:
                h_cur = float(w.sum())
                if not (h_cur > 0 and math.isfinite(h_cur)):
                    raise InstabilityError(0, f"h_0 = {h_cur!r}")
                self.wx = w * x
                self.p_prev, self.p_cur, self.h_cur = np.zeros_like(x), np.ones_like(x), h_cur
                b.append(float((self.wx * self.p_cur * self.p_cur).sum()) / h_cur)
            wx, p_prev, p_cur, h_cur = self.wx, self.p_prev, self.p_cur, self.h_cur
            for n in range(len(b) - 1, n_max):
                p_next = (x - b[n]) * p_cur - u[n] * p_prev
                h_next = float((w * p_next * p_next).sum())
                if not (h_next > 0 and math.isfinite(h_next)):
                    raise InstabilityError(n + 1, f"h_{n + 1} = {h_next!r}")
                b_next = float((wx * p_next * p_next).sum()) / h_next
                u.append(h_next / h_cur)
                b.append(b_next)
                p_prev, p_cur, h_cur = p_cur, p_next, h_next
                self.p_prev, self.p_cur, self.h_cur = p_prev, p_cur, h_cur


@functools.lru_cache(maxsize=32)
def _chain(m: Measure, n_nodes: int) -> _StieltjesChain:
    return _StieltjesChain(m, n_nodes)


def _chain_of(m: Measure, n_nodes: int) -> _StieltjesChain:
    """The cached chain of (m, n_nodes); a fresh one if m cannot be hashed."""
    try:
        hash(m)
    except TypeError:
        return _StieltjesChain(m, n_nodes)
    return _chain(m, n_nodes)


def stieltjes_recurrence(m: Measure, n_max: int, tol: float = 1e-10) -> MonicThreeTerm:
    """Recurrence coefficients of the orthogonal family of a measure.

    The classical moment-free procedure: build p_n by the discovered
    recurrence, read b_n = <x p_n, p_n>/<p_n, p_n> and u_n = h_n/h_{n-1}
    from quadrature, refine the rule until the whole coefficient table
    settles to tol.

    The chain at each quadrature level is cached per (measure, node count)
    and extended on demand, so a ladder of degrees on one measure runs each
    level's chain once.  The cache compares the density by identity, and the
    density must be a pure function of x; ``named_weight`` returns the same
    measure for equal typed parameters, so its repeated weights hit.

    Parameters
    ----------
    m : Measure
    n_max : int, 0 <= n_max <= 30
        Largest coefficient index.  30 is a fixed cap, not a measured
        limit: with the cap raised, the closed-form families still recover
        to about 5e-13 through degree 120 and beyond.
    tol : real, finite, >= 1e-13
        Agreement tolerance between successive quadrature refinements.

    Raises
    ------
    InvalidParameterError
        If n_max is not an integer in 0..30, or tol is not finite or below
        1e-13.
    InstabilityError
        If a squared norm h_n loses positivity (naming the failing n).
    NonConvergenceError
        If refinements do not settle.
    """
    _require_count(n_max, "an integer n_max within the fixed degree cap", 0, _STIELTJES_N_MAX)
    _require_tol(tol)

    prev = None
    for n_nodes in _STIELTJES_LEVELS:
        chain = _chain_of(m, n_nodes)
        chain.extend(n_max)
        b_arr = np.asarray(chain.b[: n_max + 1])
        u_arr = np.asarray(chain.u[: n_max + 1])
        if prev is not None:
            pb, pu = prev
            scale = max(1.0, float(np.max(np.abs(b_arr))), float(np.max(np.abs(u_arr))))
            diff = max(float(np.max(np.abs(b_arr - pb))), float(np.max(np.abs(u_arr - pu))))
            if diff <= tol * scale:
                return MonicThreeTerm.from_arrays(list(b_arr), list(u_arr))
        prev = (b_arr, u_arr)
    raise NonConvergenceError(
        f"coefficient table did not settle to {_shown(tol, format)} within "
        f"{_STIELTJES_LEVELS[-1]} nodes per panel"
    )


# ---------------------------------------------------------------------------
# Named weights
# ---------------------------------------------------------------------------


# family -> (linear factor or None, whether the factor raises the exponent
# at x = -2 by 1, and at x = +2)
_INTERVAL_SHAPES = {
    "gen_gegenbauer": (None, False, False),
    "sdg": (lambda x: x + 2.0, True, False),
    "adjacent": (lambda x: 2.0 - x, False, True),
    "companion": (lambda x: 4.0 - x * x, True, True),
    "dg_from_circle": (None, False, False),
}


def _interval_weight(family: str, *, xi, eta) -> Measure:
    """A family on [-2, 2]: (4 - x^2)^xi |x|^(2 eta + 1) times its linear
    factor, or, for dg_from_circle, the circle weight carried over."""
    # companion declares 1 + xi at both ends, which xi in (-2, -1] passes
    _require_real(xi, "xi > -1", -1, open_lo=True)
    factor, shift_lo, shift_hi = _INTERVAL_SHAPES[family]

    def density(x):
        x = np.asarray(x, dtype=float)
        if family == "dg_from_circle":
            # (1-cos)^(xi+1/2)(1+cos)^(eta+1/2) in the angle; theta scales like
            # sqrt(2 -/+ x) near x = +/-2, so the exponents xi + 1/2 land at xi
            theta = 2.0 * np.arccos(np.clip(x / 2.0, -1.0, 1.0))
            rho = (1.0 - np.cos(theta)) ** (xi + 0.5) * (1.0 + np.cos(theta)) ** (eta + 0.5)
            return rho / np.sin(theta / 2.0)
        base = (4.0 - x * x) ** xi * np.abs(x) ** (2.0 * eta + 1.0)
        return base if factor is None else factor(x) * base

    gamma_lo, gamma_hi = (1 + xi if shift_lo else xi), (1 + xi if shift_hi else xi)
    exps = ((-2.0, gamma_lo), (2.0, gamma_hi), (0.0, 2 * eta + 1))
    return Measure(support=((-2.0, 2.0),), density=density, endpoint_exponents=exps, name=family)


def _pencil_weight(family: str, *, xi, eta, lam) -> Measure:
    _require_lam(lam)
    if lam == 1.0:
        return _interval_weight("sdg", xi=xi, eta=eta)

    def density(v):
        v = np.asarray(v, dtype=float)
        outer = (lam + 1.0) ** 2 - v * v
        inner = np.abs(v * v - (lam - 1.0) ** 2)
        return np.sign(v) * (v + lam + 1.0) * (v + lam - 1.0) * outer**xi * inner**eta

    # the linear factors shift the pure power exponents at the points
    # -(lam+1) and -(lam-1) (signed), wherever those fall
    hi = lam + 1.0
    exps = ((hi, xi), (-hi, 1 + xi), (lam - 1.0, eta), (-(lam - 1.0), 1 + eta))
    support = essential_spectrum_periodic(lam)
    return Measure(support=support, density=density, endpoint_exponents=exps, name=family)


def _big_m1_weight(family: str, *, alpha, beta, c) -> Measure:
    _require_real(c, "0 <= c < 1", 0, 1, open_hi=True)
    _require_real(alpha, "a finite alpha")
    _require_real(beta, "a finite beta")
    xi = 0.5 * (alpha - 1.0)
    eta = 0.5 * (beta - 1.0)

    def density(y):
        y = np.asarray(y, dtype=float)
        return (
            np.sign(y) * (y + 1.0) * (y - c) * (1.0 - y * y) ** xi * np.abs(y * y - c * c) ** eta
        )

    if c == 0.0:
        support = ((-1.0, 1.0),)
        exps = ((-1.0, 1 + xi), (1.0, xi), (0.0, 1 + 2 * eta))
    else:
        support = ((-1.0, -c), (c, 1.0))
        exps = ((-1.0, 1 + xi), (1.0, xi), (c, 1 + eta), (-c, eta))
    return Measure(support=support, density=density, endpoint_exponents=exps, name=family)


def _little_m1_weight(family: str, *, alpha, beta) -> Measure:
    return _big_m1_weight(family, alpha=alpha, beta=beta, c=0.0)


def _periodic_weight(family: str, *, lam) -> Measure:
    _require_lam(lam)

    def density(t):
        t = np.asarray(t, dtype=float)
        s2 = ((lam + 1.0) ** 2 - t * t) * (t * t - (lam - 1.0) ** 2)
        return np.sqrt(np.maximum(s2, 0.0)) / (lam * np.abs((t - lam) ** 2 - 1.0))

    if lam == 1.0:
        support, exps = ((-2.0, 2.0),), ((-2.0, 0.5), (2.0, -0.5))
    else:
        # square-root zeros where the denominator is regular, inverse square
        # roots at its zeros t = lam - 1 and t = lam + 1
        support, hi = essential_spectrum_periodic(lam), lam + 1.0
        exps = ((hi, -0.5), (lam - 1.0, -0.5), (-hi, 0.5), (-(lam - 1.0), 0.5))
    return Measure(support=support, density=density, endpoint_exponents=exps, name=family)


_WEIGHT_BUILDERS = {
    **dict.fromkeys(_INTERVAL_SHAPES, _interval_weight),
    "pencil": _pencil_weight,
    "big_m1": _big_m1_weight,
    "little_m1": _little_m1_weight,
    "periodic": _periodic_weight,
}
# each family's parameters: its builder's arguments after the family name
_WEIGHT_PARAMETERS = {
    family: tuple(inspect.signature(builder).parameters)[1:]
    for family, builder in _WEIGHT_BUILDERS.items()
}


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
        With support and sharp endpoint exponents declared.  Calls with the
        same family and parameters, compared by value and by type (so lam=2,
        2.0 and Fraction(2) differ), return one shared measure from a memo
        of 16 entries; a parameter that cannot be hashed gets a fresh one.

    Raises
    ------
    InvalidParameterError
        For an unknown family, or a missing, unexpected or out-of-range parameter.

    Notes
    -----
    The periodic density is the Weyl-function boundary value
    2*Im m_full(t + i0): square-root zeros at two band edges and
    inverse-square-root blowups at the other two (the denominator zeros
    t = lam - 1 and t = lam + 1).  See ``periodic_weight_verbatim`` for the
    alternative closed form kept for comparison reporting.
    """
    takes = _WEIGHT_PARAMETERS.get(family) if isinstance(family, str) else None
    if takes is None:
        raise InvalidParameterError(f"unknown weight family {_shown(family)}")
    missing = [key for key in takes if key not in params]
    unexpected = sorted(key for key in params if key not in takes)
    if missing or unexpected:
        raise InvalidParameterError(
            f"weight family {family!r} takes {', '.join(takes)}; "
            f"missing {missing}, unexpected {unexpected}"
        )
    key = tuple((name, *_typed(params[name])) for name in takes)
    try:
        hash(key)
    except TypeError:
        # a parameter that cannot be hashed (a 0-d array, say) gets its own measure
        return _WEIGHT_BUILDERS[family](family, **params)
    return _shared_weight(family, key)


def _typed(value) -> tuple:
    """A parameter as compared by the weight memo: by value and by type, so
    2, 2.0 and Fraction(2) differ, and a float by its sign too (-0.0, 0.0)."""
    sign = math.copysign(1.0, value) if isinstance(value, (float, np.floating)) else 0.0
    return type(value), value, sign


@functools.lru_cache(maxsize=16)
def _shared_weight(family: str, key: tuple) -> Measure:
    """The measure of ``named_weight``'s typed key, one object per key."""
    return _WEIGHT_BUILDERS[family](family, **{name: v for name, _, v, _ in key})


# ---------------------------------------------------------------------------
# Weyl functions of the constant-coefficient pencil
# ---------------------------------------------------------------------------


def essential_spectrum_periodic(lam: float):
    """The two bands [-lam-1, -|lam-1|] and [|lam-1|, lam+1] (touching at lam=1).

    The prediction is for finite lam > 0; any other lam raises
    InvalidParameterError.
    """
    _require_lam(lam)
    lo, hi = abs(lam - 1.0), lam + 1.0
    return ((-hi, -lo), (lo, hi))


def _stable_quadratic(A: complex, B: complex, C: complex):
    """Roots of A m^2 + B m + C = 0, cancellation-safe; tuple of 1 or 2 roots.

    Raises OverflowError if the discriminant is not finite.  A finite
    discriminant gives roots without nan, though one may overflow to inf.
    """
    if A == 0:
        if B == 0:
            raise InvalidParameterError("degenerate quadratic")
        return (-C / B,)
    disc = B * B - 4 * A * C
    if not cmath.isfinite(disc):
        raise OverflowError(f"discriminant {disc!r} is not finite")
    sq = cmath.sqrt(disc)
    if (B.conjugate() * sq).real >= 0:
        qq = -(B + sq) / 2
    else:
        qq = -(B - sq) / 2
    if qq == 0:
        return (0.0 + 0.0j, 0.0 + 0.0j)
    return (qq / A, C / qq)


_EDGE_GUARD = 1e-12


def _no_finite_value(z: complex, lam: float) -> InvalidParameterError:
    return InvalidParameterError(
        f"m_per has no finite value at z = {_shown(z)}, lam = {_shown(lam)}: z must be finite, "
        "and the arithmetic overflows for |z| or lam beyond about 1e76 and next "
        "to the pole at z = 0"
    )


def m_per(z: complex, lam: float) -> complex:
    """Closed-form solution of lam^2 z m^2 + (z^2 - 1 + lam^2) m + z = 0
    with the branch fixed by m ~ -1/z at infinity.

    Parameters
    ----------
    z : complex
        Spectral point with Im z != 0, or real and strictly outside the
        essential spectrum.
    lam : real, finite, > 0

    Raises
    ------
    BandEdgeError
        If |z| is within 1e-12 of a band edge.
    InvalidParameterError
        If lam is not finite and positive; if z is not a finite number; if
        the quadratic's discriminant or the chosen root overflows (|z| or
        lam beyond about 1e76, or z within about 1e-308 of the pole at 0);
        if real z lies inside the essential spectrum or, for lam > 1, is the
        pole z = 0.

    Notes
    -----
    For Im z > 0 the asymptotic branch is the root with positive imaginary
    part (the two roots have real product 1/lam^2, so their imaginary parts
    have opposite signs); this equals continuation from large |z| along a
    vertical ray.  Real z give two real roots with product 1/lam^2, so one
    has |lam*m| < 1: that one is the branch, except in the gap |z| < lam - 1
    around the pole at 0 (lam > 1), where the branch is the other one.
    """
    _require_lam(lam)
    try:
        z = complex(z)
    except (OverflowError, TypeError, ValueError):  # beyond the float range, or not a number
        raise _no_finite_value(z, lam) from None
    az, hi = abs(z), lam + 1.0
    edge = hi if abs(az - hi) < _EDGE_GUARD else abs(lam - 1.0)
    if abs(az - edge) < _EDGE_GUARD:
        raise BandEdgeError(f"|z| = {az!r} is within 1e-12 of the band edge {edge!r}; refusing to choose a branch")
    real = z.imag == 0.0
    if real:
        z = complex(z.real)  # drops a signed zero imaginary part
    try:
        roots = _stable_quadratic(lam * lam * z, z * z - 1.0 + lam * lam, z)
    except OverflowError:
        raise _no_finite_value(z, lam) from None

    if not real:
        # (r0, r1) in ascending order of imaginary part, as sorted() orders them;
        # a single root is both
        r0, r1 = roots[0], roots[-1]
        if r1.imag < r0.imag:
            r0, r1 = r1, r0
        want_positive = z.imag > 0
        pick = r1 if want_positive else r0
        if (pick.imag > 0) != want_positive and pick.imag != 0:
            raise InternalConsistencyError(
                f"m_per roots {roots!r} at z = {z!r}, lam = {_shown(lam)} lie on one side of the axis"
            )
    else:
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
        pick = (max if abs(t) < lam - 1.0 else min)(roots, key=abs)
    if not cmath.isfinite(pick):
        raise _no_finite_value(z, lam)
    return pick


def m_full(z: complex, lam: float) -> complex:
    """The full-line function m_per/(1 + lam*m_per); Herglotz in the upper
    half plane, with boundary density 2*Im m_full(t + i0) on the bands."""
    mp = m_per(z, lam)
    den = 1.0 + lam * mp
    if den == 0:
        raise InvalidParameterError(f"pole of the composed function at z = {_shown(z)}")
    return mp / den


def _require_inside_band(lam: float, t: float) -> None:
    """InvalidParameterError unless lam > 0 is finite and t lies strictly inside a band."""
    _require_lam(lam)
    what, lo, hi = "t strictly inside an essential spectrum band", abs(lam - 1.0), lam + 1.0
    # a t between the outer edges is a real number, whose sign picks its band
    _require_real(t, what, -hi, hi, open_lo=True, open_hi=True)
    band = (lo, hi) if t > 0 else (-hi, -lo)
    _require_real(t, what, *band, open_lo=True, open_hi=True)


def stieltjes_perron_density(lam: float, t: float) -> float:
    """Spectral density of the constant-coefficient pencil at a band point.

    w(t) = sqrt(((lam+1)^2 - t^2)(t^2 - (lam-1)^2)) / (lam * |(t-lam)^2 - 1|),
    equal to 2*Im m_full(t + i0); total mass over both bands is 2*pi.

    Raises
    ------
    InvalidParameterError
        If lam is not finite and positive, or t is not strictly inside a band.
    """
    _require_inside_band(lam, t)
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
    _require_inside_band(lam, t)
    num = math.sqrt(max(4 * lam * lam - (t * t - lam * lam - 1.0) ** 2, 0.0))
    den = lam * (t * t - 2.0 * lam * lam * t + lam * lam - 1.0)
    sign = -1.0 if t > 0 else 1.0
    if den == 0:
        raise InvalidParameterError(f"verbatim denominator vanishes at t = {_shown(t)}")
    return num / (sign * den)


def validate_periodic_density(lam: float) -> float:
    """Max relative deviation between the closed-form band density and the
    Weyl boundary value 2*Im m_full(t + i*eps), eps = 1e-7, over 20 interior
    points of each band.

    The factor 2 converts the probability-normalized inversion value
    (1/pi)*Im m_full into the weight normalized to total mass 2*pi.

    Raises
    ------
    InvalidParameterError
        If lam is not finite and positive.
    """
    _require_lam(lam)
    eps = 1e-7
    worst = 0.0
    for t in _band_grid(lam, 20):
        w_closed = stieltjes_perron_density(lam, t)
        w_weyl = 2.0 * m_full(complex(t, eps), lam).imag
        worst = _worst(worst, abs(w_closed - w_weyl) / max(abs(w_weyl), 1e-300))
    return worst


def _band_grid(lam: float, n: int) -> list:
    """n points across each band, negative band first, as Python floats; each
    band is padded in by 5% of its width at both ends."""
    lo, hi = abs(lam - 1.0), lam + 1.0
    pad = 0.05 * (hi - lo) if hi > lo else 0.05
    bands = ((-hi + pad, -lo - pad), (lo + pad, hi - pad))
    return [t for p, q in bands for t in np.linspace(p, q, n).tolist()]
