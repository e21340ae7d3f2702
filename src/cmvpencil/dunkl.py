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

Representation.  An exact polynomial is a tuple of integer numerators over
one shared positive denominator, reduced by a single ``math.gcd(den, *nums)``
per polynomial instead of one gcd per coefficient operation (fraction-free
arithmetic, as in Bareiss, Math. Comp. 22, 1968).  ``Fraction`` values exist
only at the public boundary: inputs are brought to one denominator, and each
output coefficient gets the type that coefficient-wise ``int``/``Fraction``
arithmetic gives it (the leading 1 of a monic polynomial stays an ``int``).
Inputs that are not all ``int``/``Fraction`` (floats, say) run through the
same code with denominator 1 and no gcd step; the operations and their order
are those of coefficient-wise arithmetic, so float results do not depend on
the representation, bit for bit.

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
# the coefficient values themselves (denominator 1) for any other input.


def _values(nums, den, fractions):
    """Coefficient values of numerators over ``den``; ``fractions[k]`` says
    whether coefficient k is a Fraction or an int."""
    return tuple(Fraction(x, den) if f else x // den for x, f in zip(nums, fractions))


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


def _convolve_fractions(factor, fractions):
    """Which coefficients ``_convolve(factor, values)`` makes Fractions, given
    the factor values and the Fraction flags of ``values``."""
    n = len(fractions)
    out = [False] * (len(factor) + n - 1)
    for i, f in enumerate(factor):
        if f != 0:
            if isinstance(f, Fraction):
                out[i : i + n] = [True] * n
            else:
                out[i : i + n] = [a or b for a, b in zip(out[i : i + n], fractions)]
    return out


def _or(p, q):
    n = max(len(p), len(q))
    return [(k < len(p) and p[k]) or (k < len(q) and q[k]) for k in range(n)]


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
# A ladder entry is (nums, den, fractions).  Exact entries hold reduced integer
# numerators, and coefficients 0 .. fractions-1 are Fractions, the rest ints;
# coefficient-wise arithmetic always gives such a prefix.  Other entries hold
# the coefficient values, with den 1 and fractions None.


def _entry_values(entry):
    nums, den, fractions = entry
    if fractions is None:
        return nums
    return _values(nums, den, [k < fractions for k in range(len(nums))])


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
    (c_nums, c_den, c_frac), (p_nums, p_den, p_frac) = cur, prev
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
    # x * cur moves cur's Fraction prefix up one slot, a Fraction b makes all
    # of b * cur Fractions; u * prev adds nothing beyond prev's own prefix,
    # since cur's prefix already covers every slot of prev from P_2 on
    fractions = max(
        c_frac + 1 if c_frac else 0,
        len(c_nums) if isinstance(b, Fraction) else 0,
        p_frac,
    )
    return tuple(nums), den, fractions


class _MonicLadder:
    """Monic polynomials P_0, P_1, ... of one recurrence, built on demand."""

    def __init__(self, rec: MonicThreeTerm):
        self._rec = rec
        self._entries = [((1,), 1, 1)]  # P_0 = Fraction(1)
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
                return (-b.numerator, b.denominator), b.denominator, int(isinstance(b, Fraction))
            return (-b, 1), 1, None
        cur, prev = entries[k - 1], entries[k - 2]
        b, u = rec.b(k - 1), rec.u(k - 1)
        if cur[2] is not None and isinstance(b, _RATIONAL) and isinstance(u, _RATIONAL):
            return _exact_step(cur, prev, b, u)
        nums = _three_term(_entry_values(cur), _entry_values(prev), 1, -b, -u)
        return tuple(nums), 1, None


@functools.lru_cache(maxsize=8, typed=True)
def _ladder(alpha, beta, c) -> _MonicLadder:
    return _MonicLadder(big_m1_recurrence(alpha, beta, c))


# -- the operator -----------------------------------------------------------


def _operator_image(alpha, beta, c, nums, den, fractions):
    """Numerators of L p for p = nums / den.

    Returns (quotient, scale, quotient_fractions): the trimmed image is
    quotient / (den * scale).  ``fractions`` (Fraction flags of p) is None
    for a non-exact p, and then so is quotient_fractions.
    """
    g = (c, c * alpha - beta, alpha + beta + 1)
    # 2 x (x - 1)(x + c) = 2x^3 + 2(c-1)x^2 - 2c x
    cubic = (0, -2 * c, 2 * (c - 1), 2)
    reflected, derivative = _reflect_and_derive(nums)
    diff = [r - x for r, x in zip(reflected, nums)]
    if fractions is None:
        scale, g_nums, cubic_nums = 1, g, cubic
    else:
        factor_nums, scale = _over_common_denominator(g + cubic)
        g_nums, cubic_nums = factor_nums[:3], factor_nums[3:]
        numerator_fractions = _or(
            _convolve_fractions(g, fractions),
            _convolve_fractions(cubic, fractions[1:] or fractions[:1]),
        )
    numerator = _sum(_convolve(g_nums, diff), _convolve(cubic_nums, derivative))
    remainder = tuple(numerator[:2])
    if any(r != 0 for r in remainder):
        if fractions is not None:
            raise OperatorImageError(_values(remainder, den * scale, numerator_fractions))
        exact = all(not isinstance(r, float) for r in remainder)
        if exact or max(abs(float(r)) for r in remainder) > 1e-9 * max(
            1.0, max(abs(float(x)) for x in nums)
        ):
            raise OperatorImageError(remainder)
    quotient = _trim(numerator[2:])
    if fractions is None:
        return quotient, scale, None
    return quotient, scale, numerator_fractions[2 : 2 + len(quotient)]


def _numerators(alpha, beta, c, coeffs):
    """(nums, den, fractions) of p: exact when p and the parameters are all
    int/Fraction, else the values over denominator 1 with fractions None."""
    if all(isinstance(v, _RATIONAL) for v in (alpha, beta, c, *coeffs)):
        nums, den = _over_common_denominator(coeffs)
        return nums, den, [isinstance(v, Fraction) for v in coeffs]
    return coeffs, 1, None


@dataclass(frozen=True)
class PolynomialCoeffs:
    """Dense polynomial in coefficient form, index k -> coefficient of x^k.

    Coefficients may be Fractions/ints (exact mode) or floats; arithmetic
    preserves the type.  The zero polynomial is the single coefficient 0.
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
    nums, den, fractions = _numerators(alpha, beta, c, p.coeffs)
    quotient, scale, quotient_fractions = _operator_image(alpha, beta, c, nums, den, fractions)
    if quotient_fractions is None:
        return PolynomialCoeffs(quotient)
    return PolynomialCoeffs(_values(quotient, den * scale, quotient_fractions))


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
    ladder = _ladder(alpha, beta, c)
    _check_degree(n)
    entry = ladder[n]
    eig = dunkl_eigenvalue(n, alpha, beta)
    nums, den, prefix = entry
    if prefix is not None and all(isinstance(v, _RATIONAL) for v in (alpha, beta, c)):
        fractions = [k < prefix for k in range(len(nums))]
        eig_num, eig_den = eig.numerator, eig.denominator
    else:
        nums, den, fractions = _entry_values(entry), 1, None
        eig_num, eig_den = eig, 1
    image, scale, image_fractions = _operator_image(alpha, beta, c, nums, den, fractions)
    # image - eig * P_n, over den * scale * eig_den
    res = _trim(_sum([q * eig_den for q in image], [-eig_num * scale * x for x in nums]))
    if fractions is None:
        residual = PolynomialCoeffs(res)
        exact = all(not isinstance(v, float) for v in (alpha, beta, c, *nums, *image))
    else:
        eig_fraction = isinstance(eig, Fraction)
        res_fractions = _or(image_fractions, [eig_fraction or f for f in fractions])
        residual = PolynomialCoeffs(_values(res, den * scale * eig_den, res_fractions))
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
    prev, cur = [1], [const, 2]
    if n == 0:
        return (1,)
    for _ in range(1, n):
        nxt = [0, *(2 * v for v in cur)]
        for k, v in enumerate(prev):
            nxt[k] -= v
        prev, cur = cur, nxt
    return tuple(cur)


def _chebyshev(n: int, const) -> PolynomialCoeffs:
    return PolynomialCoeffs(tuple(map(Fraction, _chebyshev_nums(n, const))))


def _first_order_identity_residual(nums, edge, n: int) -> PolynomialCoeffs:
    # residual of 2(x - edge_sign) * d/dx[p(-x)] + p(-x) - (-1)^n (2n+1) p(x)
    # on the integer coefficients of p; edge = -2 * edge_sign
    reflected, derivative = _reflect_and_derive(nums)
    lhs = _sum(_convolve((edge, 2), derivative), reflected)  # (2x + edge) * ...
    factor = (2 * n + 1) * (1 if n % 2 == 0 else -1)
    residual = _trim(_sum(lhs, [-factor * x for x in nums]))
    return PolynomialCoeffs(tuple(map(Fraction, residual)))


def third_kind_identity_residual(n: int) -> PolynomialCoeffs:
    """Residual of the third-kind eigenidentity
    2(x-1) d/dx[V_n(-x)] + V_n(-x) = (-1)^n (2n+1) V_n(x); zero expected."""
    return _first_order_identity_residual(_chebyshev_nums(n, -1), -2, n)


def fourth_kind_identity_residual(n: int) -> PolynomialCoeffs:
    """Residual of the fourth-kind eigenidentity
    2(x+1) d/dx[W_n(-x)] + W_n(-x) = (-1)^n (2n+1) W_n(x); zero expected."""
    return _first_order_identity_residual(_chebyshev_nums(n, 1), 2, n)
