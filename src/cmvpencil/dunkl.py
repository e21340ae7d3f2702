"""First-order reflection-differential operator and its eigenfunction checks.

The operator acts on polynomials as

    L p = g0(x) * (p(-x) - p(x)) + g1(x) * d/dx[p(-x)],

with g0 = ((alpha+beta+1) x^2 + (c*alpha - beta) x + c) / x^2 and
g1 = 2 (x-1)(x+c) / x.  The derivative factor is the derivative of the
reflected polynomial (chain rule included); with that reading the image of
every polynomial is again a polynomial, which the implementation enforces by
exact division by x^2.  All arithmetic is carried out on coefficient vectors
and stays exact for rational inputs; its eigenfunctions are the two-interval
endpoint family produced by ``cmvpencil.maps.big_m1_recurrence``, used here
without any further affine change of variable.

Representation.  An exact polynomial is a pair (integer numerators, one
shared positive denominator), reduced by a single ``math.gcd(den, *nums)``
per polynomial instead of one gcd per coefficient operation (fraction-free
arithmetic, as in Bareiss, Math. Comp. 22, 1968).  ``Fraction`` values exist
only at the public boundary: inputs are brought to one denominator, and every
exact output coefficient is a ``Fraction`` (the leading 1 of a monic
polynomial included).  Inputs that are not all ``int``/``Fraction`` (floats,
say) run through the same helpers on the coefficient values themselves, with
denominator ``None`` and no gcd step; the operations and their order are
those of coefficient-wise arithmetic, so float results do not depend on the
representation, bit for bit.

Cache.  ``verify_eigenfunction`` keeps, for each ``(alpha, beta, c)``, the
``big_m1_recurrence`` and the monic polynomials P_0 .. P_n built so far in a
private ``functools.lru_cache(maxsize=8, typed=True)`` (so an exact triple
and the equal float triple are separate entries).  The ladder is extended on
demand under a lock, so a degree sweep 0..N builds each P_k once, O(N^2)
coefficient operations in all instead of O(N^3), and concurrent callers are
safe.  At degree 200 a ladder of a small-denominator triple holds about
2.4 MB.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError, OperatorImageError
from .maps import big_m1_recurrence
from .recurrences import MonicThreeTerm

__all__ = [
    "PolynomialCoeffs",
    "DunklReport",
    "apply_dunkl",
    "dunkl_eigenvalue",
    "verify_eigenfunction",
    "third_kind_coeffs",
    "fourth_kind_coeffs",
    "third_kind_identity_residual",
    "fourth_kind_identity_residual",
]

_RATIONAL = (int, Fraction)


def _trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _check_degree(n: int) -> None:
    if n < 0:
        raise InvalidParameterError("degree must be >= 0")


# -- numerator vectors ------------------------------------------------------
# The helpers below act on numerator vectors: ints of an exact polynomial, or
# the coefficient values themselves (denominator None) for any other input.


def _values(nums, den):
    """Fraction coefficients of integer numerators over ``den``."""
    return tuple(Fraction(x, den) for x in nums)


def _sum(p, q):
    """Coefficient-wise p + q; the shorter vector is padded with int zeros."""
    n = max(len(p), len(q))
    return [(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)]


def _convolve(factor, values):
    """Coefficients of factor(x) * values(x), summed in increasing factor
    index; zero factor entries are skipped."""
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
    return reflected, derivative or [0 * reflected[0]]


# -- monic ladder -----------------------------------------------------------
# A ladder entry is (nums, den).  Exact entries hold reduced integer numerators
# over den > 0; other entries hold the coefficient values, with den None.


def _entry_values(entry):
    nums, den = entry
    return nums if den is None else _values(nums, den)


def _three_term(cur, prev, shift, b, u):
    """Numerators of shift * x * cur + b * cur + u * prev, where
    len(cur) = len(prev) + 1 and the leading coefficient of cur is its last."""
    out = [shift * s + b * ci + u * pi for s, ci, pi in zip((0, *cur), cur, prev)]
    # prev has no x^k term: adding its zero keeps a float -0.0 where
    # coefficient-wise addition would give 0.0
    out.append(shift * cur[-2] + b * cur[-1] + 0)
    out.append(shift * cur[-1])
    return out


def _exact_step(cur, prev, b, u):
    """P_{k+1} = (x - b) P_k - u P_{k-1} on reduced integer numerators."""
    (c_nums, c_den), (p_nums, p_den) = cur, prev
    bd, ud = b.denominator, u.denominator
    den = math.lcm(c_den * bd, p_den * ud)
    nums = _three_term(
        c_nums,
        p_nums,
        den // c_den,
        -b.numerator * (den // (c_den * bd)),
        -u.numerator * (den // (p_den * ud)),
    )
    g = math.gcd(den, *nums)
    if g > 1:
        nums = [x // g for x in nums]
        den //= g
    return tuple(nums), den


class _MonicLadder:
    """Monic polynomials P_0, P_1, ... of one recurrence, built on demand."""

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
        rec, entries = self._rec, self._entries
        if k == 1:
            b = rec.b(0)
            if isinstance(b, _RATIONAL):
                return (-b.numerator, b.denominator), b.denominator
            return (-b, 1), None
        cur, prev = entries[k - 1], entries[k - 2]
        b, u = rec.b(k - 1), rec.u(k - 1)
        if cur[1] is not None and isinstance(b, _RATIONAL) and isinstance(u, _RATIONAL):
            return _exact_step(cur, prev, b, u)
        nums = _three_term(_entry_values(cur), _entry_values(prev), 1, -b, -u)
        return tuple(nums), None


@functools.lru_cache(maxsize=8, typed=True)
def _ladder(alpha, beta, c) -> _MonicLadder:
    return _MonicLadder(big_m1_recurrence(alpha, beta, c))


# -- the operator -----------------------------------------------------------


def _operator_image(alpha, beta, c, nums, den):
    """Numerators of L p for p = nums / den (den None: nums are the values).

    Returns (quotient, scale): the trimmed image is quotient / (den * scale),
    and scale is 1 when den is None.
    """
    g = (c, c * alpha - beta, alpha + beta + 1)
    # 2 x (x - 1)(x + c) = 2x^3 + 2(c-1)x^2 - 2c x
    cubic = (0, -2 * c, 2 * (c - 1), 2)
    reflected, derivative = _reflect_and_derive(nums)
    diff = [r - x for r, x in zip(reflected, nums)]
    if den is None:
        scale, g_nums, cubic_nums = 1, g, cubic
    else:
        factor_nums, scale = _over_common_denominator(g + cubic)
        g_nums, cubic_nums = factor_nums[:3], factor_nums[3:]
    numerator = _sum(_convolve(g_nums, diff), _convolve(cubic_nums, derivative))
    remainder = tuple(numerator[:2])
    if any(r != 0 for r in remainder):
        if den is not None:
            raise OperatorImageError(_values(remainder, den * scale))
        exact = all(not isinstance(r, float) for r in remainder)
        if exact or max(abs(float(r)) for r in remainder) > 1e-9 * max(
            1.0, max(abs(float(x)) for x in nums)
        ):
            raise OperatorImageError(remainder)
    return _trim(numerator[2:]), scale


def _numerators(alpha, beta, c, coeffs):
    """(nums, den) of p: exact when p and the parameters are all int/Fraction,
    else the values themselves with den None."""
    if all(isinstance(v, _RATIONAL) for v in (alpha, beta, c, *coeffs)):
        return _over_common_denominator(coeffs)
    return coeffs, None


@dataclass(frozen=True)
class PolynomialCoeffs:
    """Dense polynomial in coefficient form, index k -> coefficient of x^k.

    Coefficients may be Fractions/ints (exact mode) or floats.  Every exact
    result of this module has ``Fraction`` coefficients; a float or mixed
    input gives the values of coefficient-wise arithmetic on it.  The zero
    polynomial is the single coefficient 0.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = x * 0
        for ck in reversed(self.coeffs):
            acc = acc * x + ck
        return acc

    def max_abs(self) -> float:
        return max(abs(float(ck)) for ck in self.coeffs)

    def is_zero(self) -> bool:
        return all(ck == 0 for ck in self.coeffs)

    @staticmethod
    def from_three_term(rec: MonicThreeTerm, n: int) -> "PolynomialCoeffs":
        """Monic degree-n polynomial of a recurrence, as exact coefficients."""
        _check_degree(n)
        return PolynomialCoeffs(_entry_values(_MonicLadder(rec)[n]))


def apply_dunkl(alpha, beta, c, p: PolynomialCoeffs) -> PolynomialCoeffs:
    """Image of a polynomial under the reflection-differential operator.

    Forms the numerator
    N(x) = [(alpha+beta+1) x^2 + (c*alpha - beta) x + c] * (p(-x) - p(x))
           + 2 x (x-1)(x+c) * d/dx[p(-x)]
    and divides by x^2; the division must be exact.

    Raises
    ------
    OperatorImageError
        If the division leaves a remainder (the image would not be a
        polynomial), which signals invalid input or a bug.
    """
    nums, den = _numerators(alpha, beta, c, p.coeffs)
    quotient, scale = _operator_image(alpha, beta, c, nums, den)
    return PolynomialCoeffs(quotient if den is None else _values(quotient, den * scale))


def dunkl_eigenvalue(n: int, alpha, beta):
    """Eigenvalue on the degree-n eigenfunction: 2n for even n,
    -2*(alpha + beta + n + 1) for odd n."""
    _check_degree(n)
    if n % 2 == 0:
        return 2 * n
    return -2 * (alpha + beta + n + 1)


@dataclass(frozen=True)
class DunklReport:
    """Residual report of one eigenfunction verification."""

    n: int
    alpha: object
    beta: object
    c: object
    eigenvalue: object
    residual: PolynomialCoeffs
    max_abs_residual: float
    exact: bool

    @property
    def passed(self) -> bool:
        return self.residual.is_zero() if self.exact else self.max_abs_residual <= 1e-9


def verify_eigenfunction(alpha, beta, c, n: int) -> DunklReport:
    """Coefficientwise residual of L P_n - eigenvalue * P_n.

    P_n is the monic degree-n polynomial of ``big_m1_recurrence(alpha, beta,
    c)``, used directly in the operator variable (the identification needs no
    further affine change; the scale bookkeeping lives inside the recurrence
    construction).  With rational inputs the residual is exactly zero, never
    merely small.  P_n comes from the cached ladder of ``(alpha, beta, c)``.
    """
    # the degree is checked before the cache is touched, so a rejected call
    # cannot evict a valid ladder
    _check_degree(n)
    entry = _ladder(alpha, beta, c)[n]
    eig = dunkl_eigenvalue(n, alpha, beta)
    nums, den = entry
    if den is not None and all(isinstance(v, _RATIONAL) for v in (alpha, beta, c)):
        eig_num, eig_den = eig.numerator, eig.denominator
    else:
        nums, den = _entry_values(entry), None
        eig_num, eig_den = eig, 1
    image, scale = _operator_image(alpha, beta, c, nums, den)
    # image - eig * P_n, over den * scale * eig_den
    res = _trim(_sum([q * eig_den for q in image], [-eig_num * scale * x for x in nums]))
    if den is None:
        residual = PolynomialCoeffs(res)
        exact = all(not isinstance(v, float) for v in (alpha, beta, c, *nums, *image))
    else:
        residual = PolynomialCoeffs(_values(res, den * scale * eig_den))
        exact = True
    return DunklReport(
        n=n,
        alpha=alpha,
        beta=beta,
        c=c,
        eigenvalue=eig,
        residual=residual,
        max_abs_residual=0.0 if residual.is_zero() else residual.max_abs(),
        exact=exact,
    )


def third_kind_coeffs(n: int) -> PolynomialCoeffs:
    """Third-kind Chebyshev polynomial on [-1, 1], exact coefficients.

    V_0 = 1, V_1 = 2x - 1, V_{n+1} = 2x V_n - V_{n-1}.
    """
    return _chebyshev(n, -1)


def fourth_kind_coeffs(n: int) -> PolynomialCoeffs:
    """Fourth-kind Chebyshev polynomial on [-1, 1]: W_1 = 2x + 1."""
    return _chebyshev(n, 1)


def _chebyshev_nums(n: int, const) -> tuple:
    """Integer coefficients of V_n with V_0 = 1, V_1 = 2x + const and
    V_{k+1} = 2x V_k - V_{k-1}."""
    _check_degree(n)
    if n == 0:
        return (1,)
    prev, cur = (1,), (const, 2)
    for _ in range(1, n):
        prev, cur = cur, _three_term(cur, prev, 2, 0, -1)
    return tuple(cur)


def _chebyshev(n: int, const) -> PolynomialCoeffs:
    return PolynomialCoeffs(_values(_chebyshev_nums(n, const), 1))


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
