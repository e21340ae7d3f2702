"""First-order reflection-differential operator and its eigenfunction checks.

The operator acts on polynomials as

    L p = g0(x) * (p(-x) - p(x)) + g1(x) * d/dx[p(-x)],

with g0 = ((alpha+beta+1) x^2 + (c*alpha - beta) x + c) / x^2 and
g1 = 2 (x-1)(x+c) / x.  The derivative factor is the derivative of the
reflected polynomial (chain rule included); with that reading the image of
every polynomial is again a polynomial, which the implementation enforces by
exact division by x^2.  Its eigenfunctions are the two-interval endpoint
family produced by ``cmvpencil.maps.big_m1_recurrence``, used here without
any further affine change of variable.

Exact inputs.  All arithmetic is rational.  Every parameter, coefficient and
recurrence entry becomes a ``Fraction`` where it enters: ints and Fractions
as they are, floats and numpy scalars by their exact binary value (0.1 is
3602879701896397/2**55).  Anything else (nan, an infinity, a complex number,
a string) raises ``InvalidParameterError``.  Every result coefficient is a
``Fraction``, and every eigenfunction residual is literally zero.

Representation.  Inside, a polynomial is a pair (integer numerators, one
shared positive denominator), reduced by a single ``math.gcd(den, *nums)``
per polynomial instead of one gcd per coefficient operation (fraction-free
arithmetic, as in Bareiss, Math. Comp. 22, 1968).

Cache.  ``verify_eigenfunction`` keeps, for each converted ``(alpha, beta,
c)``, the ``big_m1_recurrence`` and the monic polynomials P_0 .. P_n built so
far in a private ``functools.lru_cache(maxsize=8)``; equal values share one
entry, so ``1``, ``1.0`` and ``Fraction(1)`` build one ladder.  The ladder is
extended on demand under a lock, so a degree sweep 0..N builds each P_k once,
O(N^2) coefficient operations in all instead of O(N^3), and concurrent
callers are safe.  At degree 200 a ladder of a small-denominator triple holds
about 2.4 MB.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError, OperatorImageError
from .maps import big_m1_recurrence
from .recurrences import MonicThreeTerm, _require_count

__all__ = [
    "PolynomialCoeffs",
    "DunklReport",
    "apply_dunkl",
    "dunkl_eigenvalue",
    "verify_eigenfunction",
    "third_kind_identity_residual",
    "fourth_kind_identity_residual",
]


def _rational(x, name: str):
    """x as an exact rational: ints and Fractions as they are, any other
    finite real (floats, numpy scalars) as the Fraction of its exact value."""
    if isinstance(x, (int, Fraction)):
        return x
    try:
        if isinstance(x, numbers.Rational):  # numpy integers: Python int parts
            return Fraction(int(x.numerator), int(x.denominator))
        if isinstance(x, numbers.Real):
            return Fraction(*x.as_integer_ratio())
    except (ValueError, OverflowError, AttributeError):
        pass  # nan, an infinity, or a real type without an exact ratio
    raise InvalidParameterError(f"{name} must be a finite real number, got {x!r}")


def _parameters(alpha, beta, c) -> tuple:
    return _rational(alpha, "alpha"), _rational(beta, "beta"), _rational(c, "c")


def _trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


# -- integer numerator vectors ------------------------------------------------


def _values(nums, den):
    """Fraction coefficients of integer numerators over ``den``."""
    return tuple(Fraction(x, den) for x in nums)


def _sum(p, q):
    """Coefficient-wise p + q; the shorter vector is padded with zeros."""
    n = max(len(p), len(q))
    return [(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)]


def _convolve(factor, values):
    """Coefficients of factor(x) * values(x); zero factor entries are skipped."""
    out = [0] * (len(factor) + len(values) - 1)
    for i, f in enumerate(factor):
        if f != 0:
            for j, v in enumerate(values):
                out[i + j] = out[i + j] + f * v
    return out


def _over_common_denominator(values):
    """Rational values -> (integer numerators, least common denominator)."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _reflect_and_derive(nums):
    """Numerators of p(-x) and of d/dx[p(-x)] (same denominator as p)."""
    reflected = [x if k % 2 == 0 else -x for k, x in enumerate(nums)]
    derivative = [k * reflected[k] for k in range(1, len(reflected))]
    return reflected, derivative or [0]


def _three_term(cur, prev, shift, b, u):
    """Numerators of shift * x * cur + b * cur + u * prev, where
    len(cur) = len(prev) + 1 and the leading coefficient of cur is its last."""
    out = [shift * s + b * ci + u * pi for s, ci, pi in zip((0, *cur), cur, prev)]
    out.append(shift * cur[-2] + b * cur[-1])
    out.append(shift * cur[-1])
    return out


# -- monic ladder -------------------------------------------------------------


class _MonicLadder:
    """Monic polynomials P_0, P_1, ... of one recurrence, built on demand.

    Entry k is (nums, den): reduced integer numerators of P_k over den > 0.
    """

    def __init__(self, rec: MonicThreeTerm):
        self._rec = rec
        self._entries = [((1,), 1)]  # P_0 = 1
        self._lock = threading.Lock()

    def __getitem__(self, n: int):
        entries = self._entries
        if n >= len(entries):
            with self._lock:
                while len(entries) <= n:
                    entries.append(self._next(len(entries)))
        return entries[n]

    def _next(self, k: int):
        """P_k = (x - b_{k-1}) P_{k-1} - u_{k-1} P_{k-2}."""
        b = _rational(self._rec.b(k - 1), f"b_{k - 1}")
        if k == 1:
            return (-b.numerator, b.denominator), b.denominator
        u = _rational(self._rec.u(k - 1), f"u_{k - 1}")
        (c_nums, c_den), (p_nums, p_den) = self._entries[k - 1], self._entries[k - 2]
        bd, ud = b.denominator, u.denominator
        den = math.lcm(c_den * bd, p_den * ud)
        b_num = -b.numerator * (den // (c_den * bd))
        u_num = -u.numerator * (den // (p_den * ud))
        nums = _three_term(c_nums, p_nums, den // c_den, b_num, u_num)
        g = math.gcd(den, *nums)
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        return tuple(nums), den


@functools.lru_cache(maxsize=8)
def _ladder(alpha, beta, c) -> _MonicLadder:
    return _MonicLadder(big_m1_recurrence(alpha, beta, c))


# -- the operator -------------------------------------------------------------


def _operator_image(alpha, beta, c, nums, den):
    """Numerators of L p for p = nums / den.

    Returns (quotient, scale): the trimmed image is quotient / (den * scale).
    """
    g = (c, c * alpha - beta, alpha + beta + 1)
    # 2 x (x - 1)(x + c) = 2x^3 + 2(c-1)x^2 - 2c x
    cubic = (0, -2 * c, 2 * (c - 1), 2)
    reflected, derivative = _reflect_and_derive(nums)
    diff = [r - x for r, x in zip(reflected, nums)]
    factor_nums, scale = _over_common_denominator(g + cubic)
    numerator = _sum(_convolve(factor_nums[:3], diff), _convolve(factor_nums[3:], derivative))
    remainder = numerator[:2]
    if any(r != 0 for r in remainder):
        raise OperatorImageError(_values(remainder, den * scale))
    return _trim(numerator[2:]), scale


@dataclass(frozen=True)
class PolynomialCoeffs:
    """Dense polynomial in coefficient form, index k -> coefficient of x^k.

    Every result of this module has ``Fraction`` coefficients.  An input may
    hold any finite real coefficients; they are converted exactly where they
    enter.  The zero polynomial is the single coefficient 0.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    def max_abs(self) -> float:
        return max(abs(float(ck)) for ck in self.coeffs)

    def is_zero(self) -> bool:
        return all(ck == 0 for ck in self.coeffs)


def apply_dunkl(alpha, beta, c, p: PolynomialCoeffs) -> PolynomialCoeffs:
    """Image of a polynomial under the reflection-differential operator.

    Forms the numerator
    N(x) = [(alpha+beta+1) x^2 + (c*alpha - beta) x + c] * (p(-x) - p(x))
           + 2 x (x-1)(x+c) * d/dx[p(-x)]
    and divides by x^2; the division must be exact.

    Raises
    ------
    InvalidParameterError
        If a parameter or coefficient is not a finite real number.
    OperatorImageError
        If the division leaves a remainder (the image would not be a
        polynomial), which signals a bug.
    """
    alpha, beta, c = _parameters(alpha, beta, c)
    nums, den = _over_common_denominator([_rational(x, "coefficient") for x in p.coeffs])
    quotient, scale = _operator_image(alpha, beta, c, nums, den)
    return PolynomialCoeffs(_values(quotient, den * scale))


def dunkl_eigenvalue(n: int, alpha, beta):
    """Eigenvalue on the degree-n eigenfunction: 2n for even n,
    -2*(alpha + beta + n + 1) for odd n."""
    n = _require_count(n, "an integer degree", 0)
    alpha, beta = _rational(alpha, "alpha"), _rational(beta, "beta")
    if n % 2 == 0:
        return 2 * n
    return -2 * (alpha + beta + n + 1)


@dataclass(frozen=True)
class DunklReport:
    """Residual report of one eigenfunction verification.

    ``alpha``, ``beta`` and ``c`` are the converted exact parameters.
    ``exact`` is always True: every check runs in rational arithmetic.
    """

    n: int
    alpha: object
    beta: object
    c: object
    eigenvalue: object
    residual: PolynomialCoeffs
    max_abs_residual: float
    exact: bool


def verify_eigenfunction(alpha, beta, c, n: int) -> DunklReport:
    """Coefficientwise residual of L P_n - eigenvalue * P_n.

    P_n is the monic degree-n polynomial of ``big_m1_recurrence(alpha, beta,
    c)``, used directly in the operator variable (the identification needs no
    further affine change; the scale bookkeeping lives inside the recurrence
    construction).  The residual is exactly zero, never merely small.  P_n
    comes from the cached ladder of ``(alpha, beta, c)``.
    """
    # the inputs are checked before the cache is touched, so a rejected call
    # cannot evict a valid ladder
    n = _require_count(n, "an integer degree", 0)
    alpha, beta, c = _parameters(alpha, beta, c)
    nums, den = _ladder(alpha, beta, c)[n]
    eig = dunkl_eigenvalue(n, alpha, beta)
    eig_num, eig_den = eig.numerator, eig.denominator
    image, scale = _operator_image(alpha, beta, c, nums, den)
    # image - eig * P_n, over den * scale * eig_den
    res = _trim(_sum([q * eig_den for q in image], [-eig_num * scale * x for x in nums]))
    residual = PolynomialCoeffs(_values(res, den * scale * eig_den))
    return DunklReport(
        n=n,
        alpha=alpha,
        beta=beta,
        c=c,
        eigenvalue=eig,
        residual=residual,
        max_abs_residual=0.0 if residual.is_zero() else residual.max_abs(),
        exact=True,
    )


def _chebyshev_nums(n: int, const) -> tuple:
    """Integer coefficients of V_n with V_0 = 1, V_1 = 2x + const and
    V_{k+1} = 2x V_k - V_{k-1}."""
    _require_count(n, "an integer degree", 0)
    if n == 0:
        return (1,)
    prev, cur = (1,), (const, 2)
    for _ in range(1, n):
        prev, cur = cur, _three_term(cur, prev, 2, 0, -1)
    return tuple(cur)


def _first_order_identity_residual(nums, edge, n: int) -> PolynomialCoeffs:
    # residual of 2(x - edge_sign) * d/dx[p(-x)] + p(-x) - (-1)^n (2n+1) p(x)
    # on the integer coefficients of p; edge = -2 * edge_sign
    reflected, derivative = _reflect_and_derive(nums)
    lhs = _sum(_convolve((edge, 2), derivative), reflected)  # (2x + edge) * ...
    factor = (2 * n + 1) * (1 if n % 2 == 0 else -1)
    residual = _trim(_sum(lhs, [-factor * x for x in nums]))
    return PolynomialCoeffs(_values(residual, 1))


def third_kind_identity_residual(n: int) -> PolynomialCoeffs:
    """Residual of the third-kind eigenidentity
    2(x-1) d/dx[V_n(-x)] + V_n(-x) = (-1)^n (2n+1) V_n(x); zero expected."""
    return _first_order_identity_residual(_chebyshev_nums(n, -1), -2, n)


def fourth_kind_identity_residual(n: int) -> PolynomialCoeffs:
    """Residual of the fourth-kind eigenidentity
    2(x+1) d/dx[W_n(-x)] + W_n(-x) = (-1)^n (2n+1) W_n(x); zero expected."""
    return _first_order_identity_residual(_chebyshev_nums(n, 1), 2, n)
