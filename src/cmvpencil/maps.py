"""Transforms between the orthogonal-polynomial families of the pencil.

The workhorse is the rank-one transform of a monic three-term recurrence at a
shift point theta (``christoffel``), together with its closed-form
specialization at the pencil points theta = lam -/+ 1 (``lambda_reduction``),
the even/odd split of a recurrence with alternating diagonal
(``chihara_split``), plain rescaling (``scale_map``), reflection
(``reflect_map``), and the parameter bookkeeping that identifies the reduced
pencil family with a classical family on two symmetric intervals
(``big_m1_parameters`` / ``big_m1_recurrence``).  The circle evaluators
return every degree 0..n of an interval family from one Szego sweep per point.
Their per-degree formulas (symmetric, shifted and companion) live in one
helper, ``_circle_family``, which takes a sweep, the point's ladder of
z^{-k/2} and the private coefficient table of ``recurrences`` that fed the
sweep; the maps suite makes one table per sequence and feeds one sweep per
(sequence, point) to both the symmetric and the shifted family through it.
The formulas stay scalar Python because numpy's complex multiply and complex
``abs`` round differently from CPython's on a large share of inputs.

Every transform takes and returns ``MonicThreeTerm``; symmetric families are
the zero-diagonal case and go through the same calls.  The companion of the
symmetric family is ``companion_symmetric_recurrence`` and the reflected
lam = 1 family is ``reflect_map(sdg_recurrence(a))``.

All coefficient formulas are dtype-generic: Fraction inputs stay exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    PolePointError,
    _shown,
)
from .recurrences import (
    _SQUARE_MAX,
    CirclePoint,
    MonicThreeTerm,
    ReflectionSequence,
    _bounded_table,
    _require_count,
    _require_lam,
    _require_real,
    _table,
    _worst_mismatch,
    jacobi_opuc_reflections,
    pencil_recurrence,
    szego_eval,
)

__all__ = [
    "ChristoffelData",
    "ChiharaSplit",
    "BigM1Parameters",
    "christoffel",
    "scale_map",
    "reflect_map",
    "lambda_reduction",
    "chihara_split",
    "big_m1_parameters",
    "big_m1_recurrence",
    "little_m1_recurrence",
    "dg_eval_from_circle",
    "sdg_eval_from_circle",
    "companion_eval_from_circle",
]


@dataclass(frozen=True)
class ChristoffelData:
    """Ratio data of a rank-one transform at the point theta.

    A(n) is the ratio P_{n+1}(theta)/P_n(theta) of the source polynomials,
    C(n) = u_n / A(n-1) with C(0) = 0, and ``transformed`` is the recurrence
    of the new family, orthogonal with respect to the old weight times
    (x - theta).
    """

    theta: float
    A: Callable[[int], float]
    C: Callable[[int], float]
    transformed: MonicThreeTerm


@dataclass(frozen=True)
class ChiharaSplit:
    """Even/odd split of a recurrence with alternating diagonal chi*(-1)^n.

    P and P_tilde are the two monic families in the squared variable:
    S_{2n}(x) = P_n(x^2 + alpha_shift) and
    S_{2n+1}(x) = (x - chi) * P_tilde_n(x^2 + alpha_shift), and the pair
    (A, C) satisfies the rank-one relations at theta = chi^2 + alpha_shift.
    """

    chi: float
    P: MonicThreeTerm
    P_tilde: MonicThreeTerm
    alpha_shift: float
    A: Callable[[int], float]
    C: Callable[[int], float]


@dataclass(frozen=True)
class BigM1Parameters:
    """Parameter bookkeeping for the two-interval endpoint family.

    Fields
    ------
    alpha, beta : real
        Weight exponents, alpha = 2*xi + 1 and beta = 2*eta + 1.
    c : real
        Inner support endpoint, c = (lam - 1)/(lam + 1); support is
        [-1, -|c|] union [|c|, 1].
    star : MonicThreeTerm
        The literal pencil recurrence rescaled by g = -2/(1 - c) = -(lam + 1)
        (b_n/g, u_n/g^2).  Kept so the acceptance checks can report how it
        compares against the two-interval weight; the match that actually
        holds is ``resolved``.
    resolved : MonicThreeTerm
        The recurrence that reproduces the two-interval weight exactly:
        the pencil family at the reciprocal parameter 1/lam, scaled by
        s = lam/(lam + 1).  Equivalently b_n -> -b_n*(1/lam),
        u_n -> u_n*(1/lam): a reflection of the literal rescaling taken at
        the reciprocal parameter.  See ``big_m1_recurrence``.
    """

    alpha: float
    beta: float
    c: float
    star: MonicThreeTerm
    resolved: MonicThreeTerm


def christoffel(src: MonicThreeTerm, theta, n_max: int) -> ChristoffelData:
    """Rank-one transform of a monic recurrence at the point theta.

    Parameters
    ----------
    src : MonicThreeTerm
    theta : real, finite
        Shift point; must avoid the zeros of every source polynomial up to
        degree n_max + 1.
    n_max : int
        Largest index for which A(n) and C(n) are available; the transformed
        diagonal is then available for n <= n_max - 1.

    Returns
    -------
    ChristoffelData

    Raises
    ------
    PolePointError
        If some A(n-1) vanishes, i.e. theta is a zero of the degree-n source
        polynomial.

    Notes
    -----
    A(n) is computed by the stable ratio recursion
    A(0) = theta - b_0, A(n) = theta - b_n - u_n/A(n-1), never by evaluating
    the polynomials themselves (which overflows near degree 40).
    """
    _require_real(theta, "a finite theta")
    _require_count(n_max, "an integer n_max", 0)
    A_list = [theta - src.b(0)]
    C_list = [theta * 0]  # zero in the dtype of theta
    for n in range(1, n_max + 1):
        if A_list[n - 1] == 0:
            raise PolePointError(n, theta)
        C_n = src.u(n) / A_list[n - 1]
        A_list.append(theta - src.b(n) - C_n)
        C_list.append(C_n)

    A = _bounded_table("A", A_list)
    C = _bounded_table("C", C_list)

    def b(n: int):
        return theta - A(n) - C(n + 1)

    def u(n: int):
        if n == 0:
            return 0
        return C(n) * A(n)

    return ChristoffelData(
        theta=theta, A=A, C=C, transformed=MonicThreeTerm(b=b, u=u)
    )


def reflect_map(src: MonicThreeTerm) -> MonicThreeTerm:
    """Recurrence of x -> -x: polynomials (-1)^n p_n(-x), coefficients (-b, u)."""
    return MonicThreeTerm(b=lambda n: -src.b(n), u=src.u)


def scale_map(src: MonicThreeTerm, g) -> MonicThreeTerm:
    """Rescale the spectral variable by g: new p_n(x) = g^n * old(x/g).

    Parameters
    ----------
    src : MonicThreeTerm
    g : real, nonzero, with |g| <= sqrt(largest float), so that g^2 is finite

    Returns
    -------
    MonicThreeTerm
        b_n -> g*b_n, u_n -> g^2*u_n; a symmetric family stays symmetric.
    """
    _require_real(g, "a scale factor g whose square is a finite float", -_SQUARE_MAX, _SQUARE_MAX)
    if g == 0:
        raise InvalidParameterError("scale factor g must be nonzero")
    return MonicThreeTerm(b=lambda n: g * src.b(n), u=lambda n: g * g * src.u(n))


_BRANCH_LOW = "lambda-1"
_BRANCH_HIGH = "lambda+1"


def lambda_reduction(
    a: ReflectionSequence, lam, branch: str
) -> tuple[ChristoffelData, MonicThreeTerm]:
    """Closed-form rank-one reduction of the pencil family at theta = lam -/+ 1.

    Parameters
    ----------
    a : ReflectionSequence
    lam : real, > 0, finite as a float
    branch : {"lambda-1", "lambda+1"}
        Which shift point to use: theta = lam - 1 or theta = lam + 1.

    Returns
    -------
    (ChristoffelData, MonicThreeTerm)
        The closed-form ratio data and the transformed recurrence, whose
        diagonal is (-1)^n times a constant and whose off-diagonal is lam
        times a lam-free factor.

    Raises
    ------
    InvalidParameterError
        If lam is not > 0 and finite as a float, or branch is unknown.
    InternalConsistencyError
        If the closed forms disagree with the generic transform through
        degree 20 (the construction-time self check) beyond 1e-10, or by nan.

    Notes
    -----
    Closed forms (even n / odd n), fixed by the defining relations
    A_0 = theta - b_0, theta - A_n - C_n = b_n, u_n = C_n * A_{n-1}:

    theta = lam - 1:
        A_n = -(1 + a_n)            /  lam*(1 - a_n)
        C_n = lam*(1 + a_{n-1})     /  a_{n-1} - 1
        transformed: b_n = (-1)^n*(lam + 1),
                     u_n = -lam*(1 + (-1)^n a_n)(1 + (-1)^n a_{n-1})
    theta = lam + 1:
        A_n = 1 - a_n               /  lam*(1 - a_n)
        C_n = lam*(1 + a_{n-1})     /  1 + a_{n-1}
        transformed: b_n = (-1)^n*(lam - 1),
                     u_n = lam*(1 + a_{n-1})(1 - a_n)

    With s = -1 (theta = lam - 1) or s = 1 (theta = lam + 1) both branches
    are theta = lam + s, A_n = s - a_n and C_n = s + a_{n-1} at the first
    listed parity, and b_n = (-1)^n*(lam - s); only u_n differs in shape.
    """
    _require_lam(lam)
    if branch not in (_BRANCH_LOW, _BRANCH_HIGH):
        raise InvalidParameterError(
            f"branch must be {_BRANCH_LOW!r} or {_BRANCH_HIGH!r}, got {branch!r}"
        )
    # each s-form rounds exactly as the closed form it stands for
    s = -1 if branch == _BRANCH_LOW else 1
    theta = lam + s
    b_even = lam - s

    def A(n: int):
        if n % 2 == 0:
            return s - a(n)
        return lam * (1 - a(n))

    def C(n: int):
        if n % 2 == 0:
            return lam * (1 + a(n - 1))
        return s + a(n - 1)

    def b(n: int):
        return b_even if n % 2 == 0 else -b_even

    def u(n: int):
        if n == 0:
            return 0
        if s > 0:
            return lam * (1 + a(n - 1)) * (1 - a(n))
        sign = 1 if n % 2 == 0 else -1
        return -lam * (1 + sign * a(n)) * (1 + sign * a(n - 1))

    data = ChristoffelData(
        theta=theta, A=A, C=C, transformed=MonicThreeTerm(b=b, u=u)
    )

    n_check = 20
    generic = christoffel(pencil_recurrence(a, lam), theta, n_check + 1)
    pairs = ((A, generic.A), (C, generic.C), (b, generic.transformed.b), (u, generic.transformed.u))
    worst = _worst_mismatch(pairs, n_check)  # the first nan residual is the one reported
    if not worst <= 1e-10:
        raise InternalConsistencyError(
            f"closed-form reduction disagrees with the generic transform by "
            f"{worst:.3e} at lam = {_shown(lam)}, branch {branch!r}"
        )
    return data, data.transformed


def chihara_split(rec: MonicThreeTerm, alpha_shift=0) -> ChiharaSplit:
    """Split a recurrence with alternating diagonal into two even/odd families.

    Parameters
    ----------
    rec : MonicThreeTerm
        The recurrence S_{n+1} = (x - chi*(-1)^n) S_n - u_n S_{n-1}.  Only
        b_0 = chi and the u_n are read; a symmetric family (b_n = 0) splits
        with chi = 0.
    alpha_shift : real
        Shift of the squared variable: the split families live at
        y = x^2 + alpha_shift, and theta = chi^2 + alpha_shift.

    Returns
    -------
    ChiharaSplit
        With C(n) = -u_{2n} (C(0) = 0) and A(n) = -u_{2n+1}; emits a warning
        (not an error) when a computed A or C is <= 0, since the rank-one
        positivity convention expects them positive while the two-interval
        usage makes them positive precisely because its u's are negative.
    """
    chi = rec.b(0)
    warned = []

    def _advise(name: str, n: int, value) -> None:
        if not warned:
            warned.append(True)
            warnings.warn(
                f"{name}({n}) = {value!r} is not positive; the split families "
                "need not be positive definite",
                stacklevel=3,
            )

    def C(n: int):
        if n == 0:
            return chi * 0
        value = -rec.u(2 * n)
        if not value > 0:
            _advise("C", n, value)
        return value

    def A(n: int):
        value = -rec.u(2 * n + 1)
        if not value > 0:
            _advise("A", n, value)
        return value

    theta = chi * chi + alpha_shift

    def b(n: int):
        return theta - A(n) - C(n)

    def u(n: int):
        if n == 0:
            return 0
        return A(n - 1) * C(n)

    def b_tilde(n: int):
        return theta - A(n) - C(n + 1)

    def u_tilde(n: int):
        if n == 0:
            return 0
        return A(n) * C(n)

    return ChiharaSplit(
        chi=chi,
        P=MonicThreeTerm(b=b, u=u),
        P_tilde=MonicThreeTerm(b=b_tilde, u=u_tilde),
        alpha_shift=alpha_shift,
        A=A,
        C=C,
    )


def big_m1_recurrence(alpha, beta, c) -> MonicThreeTerm:
    """Monic recurrence of the two-interval family with weight exponents
    (alpha, beta) and inner endpoint c.

    The weight is sign(y)*(y + 1)*(y - c)*(1 - y^2)^xi*|y^2 - c^2|^eta on
    [-1, -|c|] union [|c|, 1], with xi = (alpha - 1)/2, eta = (beta - 1)/2.

    The construction runs the pencil recurrence at the reciprocal parameter
    lam' = (1 - c)/(1 + c) and scales by s = (1 + c)/2:
    b_n = s * b_n(lam'), u_n = s^2 * u_n(lam').  This is the identification
    that reproduces the weight's orthogonal polynomials exactly; the direct
    g-rescaling at lam = (1 + c)/(1 - c) does not (see ``BigM1Parameters``).
    alpha and beta must be finite and -1 < c < 1.

    Exact for Fraction inputs, which the operator-eigenfunction checks use.
    """
    _require_real(alpha, "a finite alpha")
    _require_real(beta, "a finite beta")
    _require_real(c, "-1 < c < 1", -1, 1, open_lo=True, open_hi=True)
    # ints promote to Fraction so integer parameters stay on the exact path
    alpha = Fraction(alpha) if isinstance(alpha, int) else alpha
    beta = Fraction(beta) if isinstance(beta, int) else beta
    c = Fraction(c) if isinstance(c, int) else c
    xi = (alpha - 1) / 2
    eta = (beta - 1) / 2
    a = jacobi_opuc_reflections(xi, eta)
    one = c * 0 + 1
    lam_reciprocal = (one - c) / (one + c)
    s = (one + c) / 2
    src = pencil_recurrence(a, lam_reciprocal)
    return scale_map(src, s)


def little_m1_recurrence(alpha, beta) -> MonicThreeTerm:
    """The c = 0 specialization: the one-interval endpoint family on [-1, 1]."""
    return big_m1_recurrence(alpha, beta, alpha * 0)


def big_m1_parameters(xi, eta, lam) -> BigM1Parameters:
    """Parameters identifying the reduced pencil family with the two-interval
    family.

    Parameters
    ----------
    xi, eta : real, > -1
        Exponent parameters of the circle weight.
    lam : real, > 0, finite as a float
        Pencil parameter; lam = 1 gives c = 0 (one-interval case).

    Returns
    -------
    BigM1Parameters
        alpha = 2*xi + 1, beta = 2*eta + 1, c = (lam - 1)/(lam + 1), the
        literal rescaled recurrence ``star`` (b_n/g, u_n/g^2 with
        g = -2/(1 - c)), and the ``resolved`` recurrence that actually
        matches the weight (reciprocal parameter plus reflection).

    Raises
    ------
    InvalidParameterError
        If lam is not finite and positive, or if c rounds to 1.  A float lam
        first gives c == 1.0 at 2**53 + 4 = 9007199254740996.0, then at every
        other float up to 2**54 and at every float from 2**54 on; an int lam
        from 2**55 - 1 on.  A ``Fraction`` lam keeps c exact and below 1.
    """
    _require_lam(lam)
    one = lam * 0 + 1
    c = (lam - 1) / (lam + 1)
    if c == 1:
        raise InvalidParameterError(f"c = (lam - 1)/(lam + 1) rounds to 1 at lam = {_shown(lam)}")
    g = -2 / (one - c)  # equals -(lam + 1)
    alpha = 2 * xi + 1
    beta = 2 * eta + 1
    src = pencil_recurrence(jacobi_opuc_reflections(xi, eta), lam)
    return BigM1Parameters(
        alpha=alpha,
        beta=beta,
        c=c,
        star=scale_map(src, one / g),
        resolved=big_m1_recurrence(alpha, beta, c),
    )


def _half_powers(point: CirclePoint, n: int) -> list:
    """z^{-k/2} for k = 0 .. n at a circle point.

    Each entry is ``half ** (-k)``: a running product would round differently.
    The ladder depends only on the point, so one serves every sequence.
    """
    half = point.half
    return [half ** (-k) for k in range(n + 1)]


def _circle_family(family: str, table, point: CirclePoint, sweep: list, powers: list) -> list:
    """Degrees 0 .. n of one interval family from a Szego sweep and its z^{-k/2}.

    ``table`` is the coefficient table (``recurrences._table(a, n)``) that fed
    the sweep ``szego_eval(table, n, point)``, and ``powers`` is
    ``_half_powers(point, n)``; ``family`` is "symmetric", "shifted" or
    "companion".  One sweep can feed all three families.  The per-degree
    formulas stay scalar Python on purpose: numpy's complex multiply and
    complex ``abs`` round differently from CPython's on a large share of
    inputs, so an array version would move the last bits of every value.
    """
    half = point.half
    pairs = zip(powers, sweep)
    if family == "symmetric":
        # a_{k-1} for k = 0 .. n, with a_{-1} = -1
        prev = [-1, *table.scalars]
        return [p * (phi + phis) / (1 - ak) for ak, (p, (phi, phis)) in zip(prev, pairs)]
    if family == "shifted":
        den = 1 + half
        return [p * (phis + half * phi) / den for p, (phi, phis) in pairs]
    z = half * half
    return [p * (z * phi - phis) / (z - 1) for p, (phi, phis) in pairs]


def _circle_eval(family: str, a: ReflectionSequence, n: int, point: CirclePoint) -> list:
    """``_circle_family`` of one fresh sweep: the three evaluators below."""
    table = _table(a, _require_count(n, "an integer degree", 0))
    return _circle_family(family, table, point, szego_eval(table, n, point), _half_powers(point, n))


def dg_eval_from_circle(a: ReflectionSequence, n: int, point: CirclePoint) -> list:
    """Symmetric interval polynomials S_0 .. S_n through their circle representation.

    S_k(x) = z^{-k/2} (Phi_k(z) + Phi_k^*(z)) / (1 - a_{k-1}) at
    x = 2*cos(phi/2), from one Szego sweep.  Real up to roundoff.  The
    per-degree formula is ``_circle_family``'s, shared with the shifted and
    companion evaluators, and stays scalar Python because numpy's complex
    arithmetic rounds differently.
    """
    return _circle_eval("symmetric", a, n, point)


def sdg_eval_from_circle(a: ReflectionSequence, n: int, point: CirclePoint) -> list:
    """lam = 1 pencil polynomials Q_0 .. Q_n through their circle representation.

    Q_k(x) = z^{-k/2} (Phi_k^*(z) + z^{1/2} Phi_k(z)) / (1 + z^{1/2}), from one
    Szego sweep, by the scalar per-degree formula of ``_circle_family``
    (shared with the symmetric and companion evaluators).  The x = -2 pole
    (phi = 2*pi) is outside the branch: for phi in [0, 2*pi) the
    floating-point z^{1/2} is never exactly -1 (at the largest phi below
    2*pi, 1 + z^{1/2} is 5.7e-16j).  Near it the division by 1 + z^{1/2}
    costs accuracy like eps / (2*pi - phi): 5e-9 to 1e-8 relative to
    ``eval_monic`` at phi = 2*pi - 1e-8.
    """
    return _circle_eval("shifted", a, n, point)


def companion_eval_from_circle(
    a: ReflectionSequence, n: int, point: CirclePoint
) -> list:
    """Companion interval polynomials T_0 .. T_n through their circle representation.

    T_k(x) = z^{-k/2} (z*Phi_k(z) - Phi_k^*(z)) / (z - 1), from one Szego
    sweep, by the scalar per-degree formula of ``_circle_family`` (shared
    with the symmetric and shifted evaluators).  Requires phi != 0 (x = 2 is
    a pole of the representation).
    """
    half = point.half
    if half * half == 1:
        raise InvalidParameterError("evaluation point hits the x = 2 pole")
    return _circle_eval("companion", a, n, point)
