"""Transforms between the orthogonal-polynomial families of the pencil.

The workhorse is the rank-one transform of a monic three-term recurrence at a
shift point theta (``christoffel``), together with its closed-form
specialization at the pencil points theta = lam -/+ 1 (``lambda_reduction``),
the even/odd split of a recurrence with alternating diagonal
(``chihara_split``), plain rescaling (``scale_map``), reflection
(``reflect_map``), and the parameter bookkeeping that identifies the reduced
pencil family with a classical family on two symmetric intervals
(``big_m1_parameters`` / ``big_m1_recurrence``).

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
)
from .recurrences import (
    CirclePoint,
    MonicThreeTerm,
    ReflectionSequence,
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

    @property
    def theta(self):
        return self.chi * self.chi + self.alpha_shift


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
    g : real
        Scale of the affine variable change, g = -2/(1 - c) = -(lam + 1).
    affine : callable
        The map x -> g*x.
    A_scaled, C_scaled : callable
        The reduced-transform ratios divided by g.
    star : MonicThreeTerm
        The literal g-rescaled pencil recurrence (b_n/g, u_n/g^2).  Kept so
        the acceptance checks can report how it compares against the
        two-interval weight; the match that actually holds is ``resolved``.
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
    g: float
    affine: Callable[[float], float]
    A_scaled: Callable[[int], float]
    C_scaled: Callable[[int], float]
    star: MonicThreeTerm
    resolved: MonicThreeTerm


def christoffel(src: MonicThreeTerm, theta, n_max: int) -> ChristoffelData:
    """Rank-one transform of a monic recurrence at the point theta.

    Parameters
    ----------
    src : MonicThreeTerm
    theta : real
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
    if n_max < 0:
        raise InvalidParameterError("n_max must be >= 0")
    A_list = [theta - src.b(0)]
    C_list = [theta * 0]  # zero in the dtype of theta
    for n in range(1, n_max + 1):
        if A_list[n - 1] == 0:
            raise PolePointError(n, theta)
        C_n = src.u(n) / A_list[n - 1]
        A_list.append(theta - src.b(n) - C_n)
        C_list.append(C_n)

    def A(n: int):
        if not 0 <= n <= n_max:
            raise InvalidParameterError(f"A({n}) outside computed range 0..{n_max}")
        return A_list[n]

    def C(n: int):
        if not 0 <= n <= n_max:
            raise InvalidParameterError(f"C({n}) outside computed range 0..{n_max}")
        return C_list[n]

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
    g : real, nonzero

    Returns
    -------
    MonicThreeTerm
        b_n -> g*b_n, u_n -> g^2*u_n; a symmetric family stays symmetric.
    """
    if g == 0:
        raise InvalidParameterError("scale factor g must be nonzero")
    return MonicThreeTerm(b=lambda n: g * src.b(n), u=lambda n: g * g * src.u(n))


_BRANCH_LOW = "lambda-1"
_BRANCH_HIGH = "lambda+1"


def lambda_reduction(
    a: ReflectionSequence, lam, branch: str, n_check: int = 20
) -> tuple[ChristoffelData, MonicThreeTerm]:
    """Closed-form rank-one reduction of the pencil family at theta = lam -/+ 1.

    Parameters
    ----------
    a : ReflectionSequence
    lam : real, > 0
    branch : {"lambda-1", "lambda+1"}
        Which shift point to use: theta = lam - 1 or theta = lam + 1.
    n_check : int
        Depth of the construction-time self check against the generic
        ratio recursion.

    Returns
    -------
    (ChristoffelData, MonicThreeTerm)
        The closed-form ratio data and the transformed recurrence, whose
        diagonal is (-1)^n times a constant and whose off-diagonal is lam
        times a lam-free factor.

    Raises
    ------
    InternalConsistencyError
        If the closed forms disagree with the generic transform beyond 1e-10.

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
    """
    if not lam > 0:
        raise InvalidParameterError(f"lam must be > 0, got {lam!r}")
    if branch == _BRANCH_LOW:
        theta = lam - 1

        def A(n: int):
            if n % 2 == 0:
                return -(1 + a(n))
            return lam * (1 - a(n))

        def C(n: int):
            if n % 2 == 0:
                return lam * (1 + a(n - 1))
            return a(n - 1) - 1

        def b(n: int):
            return (lam + 1) if n % 2 == 0 else -(lam + 1)

        def u(n: int):
            if n == 0:
                return 0
            s = 1 if n % 2 == 0 else -1
            return -lam * (1 + s * a(n)) * (1 + s * a(n - 1))

    elif branch == _BRANCH_HIGH:
        theta = lam + 1

        def A(n: int):
            if n % 2 == 0:
                return 1 - a(n)
            return lam * (1 - a(n))

        def C(n: int):
            if n % 2 == 0:
                return lam * (1 + a(n - 1))
            return 1 + a(n - 1)

        def b(n: int):
            return (lam - 1) if n % 2 == 0 else -(lam - 1)

        def u(n: int):
            if n == 0:
                return 0
            return lam * (1 + a(n - 1)) * (1 - a(n))

    else:
        raise InvalidParameterError(
            f"branch must be {_BRANCH_LOW!r} or {_BRANCH_HIGH!r}, got {branch!r}"
        )

    data = ChristoffelData(
        theta=theta, A=A, C=C, transformed=MonicThreeTerm(b=b, u=u)
    )

    generic = christoffel(pencil_recurrence(a, lam), theta, n_check + 1)
    worst = 0.0
    for n in range(n_check + 1):
        worst = max(worst, abs(float(A(n)) - float(generic.A(n))))
        worst = max(worst, abs(float(C(n)) - float(generic.C(n))))
        worst = max(worst, abs(float(b(n)) - float(generic.transformed.b(n))))
        worst = max(worst, abs(float(u(n)) - float(generic.transformed.u(n))))
    if worst > 1e-10:
        raise InternalConsistencyError(
            f"closed-form reduction disagrees with the generic transform by "
            f"{worst:.3e} at lam = {lam!r}, branch {branch!r}"
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

    Exact for Fraction inputs, which the operator-eigenfunction checks use.
    """
    if not (-1 < c < 1):
        raise InvalidParameterError(f"need -1 < c < 1, got {c!r}")
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


def big_m1_parameters(xi, eta, lam, branch: str = _BRANCH_LOW) -> BigM1Parameters:
    """Parameters identifying the reduced pencil family with the two-interval
    family.

    Parameters
    ----------
    xi, eta : real, > -1
        Exponent parameters of the circle weight.
    lam : real, > 0
        Pencil parameter; lam = 1 gives c = 0 (one-interval case).
    branch : str
        Shift branch of the reduction; the identification uses theta = lam - 1.

    Returns
    -------
    BigM1Parameters
        alpha = 2*xi + 1, beta = 2*eta + 1, c = (lam - 1)/(lam + 1),
        g = -2/(1 - c), the affine map x -> g*x, the scaled ratios
        A(n)/g and C(n)/g, the literal rescaled recurrence ``star``
        (b_n/g, u_n/g^2), and the ``resolved`` recurrence that actually
        matches the weight (reciprocal parameter plus reflection).
    """
    if not lam > 0:
        raise InvalidParameterError(f"lam must be > 0, got {lam!r}")
    one = lam * 0 + 1
    c = (lam - 1) / (lam + 1)
    g = -2 / (one - c)  # equals -(lam + 1)
    alpha = 2 * xi + 1
    beta = 2 * eta + 1
    a = jacobi_opuc_reflections(xi, eta)
    data, _ = lambda_reduction(a, lam, branch)
    src = pencil_recurrence(a, lam)
    star = scale_map(src, one / g)

    return BigM1Parameters(
        alpha=alpha,
        beta=beta,
        c=c,
        g=g,
        affine=lambda x: g * x,
        A_scaled=lambda n: data.A(n) / g,
        C_scaled=lambda n: data.C(n) / g,
        star=star,
        resolved=big_m1_recurrence(alpha, beta, c),
    )


def _circle_pair(a: ReflectionSequence, n: int, point: CirclePoint):
    phi_n, phis_n = szego_eval(a, n, point)
    half = point.half
    return phi_n, phis_n, half, half ** (-n)


def dg_eval_from_circle(a: ReflectionSequence, n: int, point: CirclePoint) -> complex:
    """Symmetric interval polynomial through its circle representation.

    S_n(x) = z^{-n/2} (Phi_n(z) + Phi_n^*(z)) / (1 - a_{n-1}) at
    x = 2*cos(phi/2).  The value is real up to roundoff.
    """
    phi_n, phis_n, _, zmh = _circle_pair(a, n, point)
    return zmh * (phi_n + phis_n) / (1 - a(n - 1))


def sdg_eval_from_circle(a: ReflectionSequence, n: int, point: CirclePoint) -> complex:
    """lam = 1 pencil polynomial through its circle representation.

    Q_n(x) = z^{-n/2} (Phi_n^*(z) + z^{1/2} Phi_n(z)) / (1 + z^{1/2}).
    Requires phi != 2*pi-side pole (x = -2 is excluded by the branch).
    """
    phi_n, phis_n, half, zmh = _circle_pair(a, n, point)
    den = 1 + half
    if den == 0:
        raise InvalidParameterError("evaluation point hits the x = -2 pole")
    return zmh * (phis_n + half * phi_n) / den


def companion_eval_from_circle(
    a: ReflectionSequence, n: int, point: CirclePoint
) -> complex:
    """Companion interval polynomial through its circle representation.

    T_n(x) = z^{-n/2} (z*Phi_n(z) - Phi_n^*(z)) / (z - 1).  Requires phi != 0
    (x = 2 is a pole of the representation).
    """
    phi_n, phis_n, half, zmh = _circle_pair(a, n, point)
    z = half * half
    if z == 1:
        raise InvalidParameterError("evaluation point hits the x = 2 pole")
    return zmh * (z * phi_n - phis_n) / (z - 1)
