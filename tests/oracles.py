"""Closed forms and scalar loops that the tests compare library routes against.

Not collected by pytest (no ``test_`` prefix); the test modules import it.
``chebyshev_closed_form`` is trigonometric and independent of the library.
``szego_sweep`` and ``circle_family_values`` are the circle recursion and
the per-degree circle formulas written with Python complex numbers, one
coefficient read per index: the arithmetic that ``recurrences.szego_eval``
and ``maps._circle_family`` replay on float64 lanes, bit for bit.
``third_kind_coeffs`` and ``fourth_kind_coeffs`` read their integer
coefficients from ``dunkl._chebyshev_nums``, the builder behind the library's
third- and fourth-kind identity residuals, so the checks made through them
hold that builder to its values.
"""

import math
from fractions import Fraction

from cmvpencil.dunkl import PolynomialCoeffs, _chebyshev_nums
from cmvpencil.errors import InvalidParameterError
from cmvpencil.recurrences import _require_count


def chebyshev_closed_form(kind: str, n: int, tau: float) -> float:
    """Trigonometric closed forms.

    Parameters
    ----------
    kind : {"first", "third", "fourth"}
        "first" is the symmetric family on [-2, 2] evaluated at x = 2*cos(tau):
        value 2*cos(n*tau) for n >= 1 and 1 for n = 0.  "third" and "fourth"
        are the classical families on [-1, 1] at x = cos(tau):
        cos((n + 1/2)*tau)/cos(tau/2) and sin((n + 1/2)*tau)/sin(tau/2).
    n : int
        Degree.
    tau : real
        Angle; for third/fourth kind tau must avoid the denominator zeros.
    """
    _require_count(n, "an integer degree", 0)
    if kind == "first":
        return 1.0 if n == 0 else 2.0 * math.cos(n * tau)
    if kind == "third":
        den = math.cos(0.5 * tau)
        if abs(den) < 1e-14:
            raise InvalidParameterError(f"cos(tau/2) vanishes at tau = {tau!r}")
        return math.cos((n + 0.5) * tau) / den
    if kind == "fourth":
        den = math.sin(0.5 * tau)
        if abs(den) < 1e-14:
            raise InvalidParameterError(f"sin(tau/2) vanishes at tau = {tau!r}")
        return math.sin((n + 0.5) * tau) / den
    raise InvalidParameterError(f"unknown kind {kind!r}")


def third_kind_coeffs(n: int) -> PolynomialCoeffs:
    """Third-kind Chebyshev polynomial on [-1, 1], exact coefficients.

    V_0 = 1, V_1 = 2x - 1, V_{n+1} = 2x V_n - V_{n-1}.
    """
    return PolynomialCoeffs(tuple(Fraction(x) for x in _chebyshev_nums(n, -1)))


def fourth_kind_coeffs(n: int) -> PolynomialCoeffs:
    """Fourth-kind Chebyshev polynomial on [-1, 1]: W_1 = 2x + 1."""
    return PolynomialCoeffs(tuple(Fraction(x) for x in _chebyshev_nums(n, 1)))


def szego_sweep(a, n: int, z: complex) -> list:
    """[(Phi_0(z), Phi_0^*(z)), ..., (Phi_n(z), Phi_n^*(z))] by the scalar sweep
    in CPython's complex arithmetic, reading a(k) index by index."""
    ladder = [(1.0 + 0.0j, 1.0 + 0.0j)]
    for k in range(n):
        phi, phis = ladder[-1]
        ak = a(k)
        ladder.append((z * phi - ak * phis, phis - ak * z * phi))
    return ladder


def circle_family_values(a, n: int, point) -> tuple:
    """The symmetric, shifted and companion values at degree n and a circle
    point, by the single-degree formulas in CPython's complex arithmetic;
    1 - a_{n-1} is formed in the coefficient's own arithmetic."""
    phi, phis = szego_sweep(a, n, point.z)[n]
    half = point.half
    zmh = half ** (-n)
    z = half * half
    return (
        zmh * (phi + phis) / (1 - a(n - 1)),
        zmh * (phis + half * phi) / (1 + half),
        zmh * (z * phi - phis) / (z - 1),
    )
