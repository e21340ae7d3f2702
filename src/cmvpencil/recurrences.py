"""Reflection sequences, three-term recurrences, and circle-polynomial evaluation.

The central object is a sequence of real reflection coefficients a_n with
|a_n| < 1 and the built-in convention a_{-1} = -1.  From it the module builds
the coefficient families of the monic pencil polynomials, their lambda = 1
specialization, the symmetric family of the circle-to-interval map, and its
companion.  Every family is a ``MonicThreeTerm``: a symmetric recurrence
S_{n+1} = x S_n - v_n S_{n-1} is the monic one with b_n = 0 and u_n = v_n.
Evaluation helpers run the forward three-term recurrence and the joint
circle recursion.

Arithmetic is generic: sequences built from ``fractions.Fraction`` parameters
stay exact through every coefficient formula and through ``eval_monic``, which
the operator-eigenfunction checks rely on.  ``ReflectionSequence.take`` reads
a whole prefix as an array for the banded matrix builders; float lists,
float constants and the float-parameter Jacobi family fill it vectorized,
every other sequence reads index by index.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, ReflectionBoundError

__all__ = [
    "ReflectionSequence",
    "MonicThreeTerm",
    "CirclePoint",
    "jacobi_opuc_reflections",
    "pencil_recurrence",
    "sdg_recurrence",
    "dg_symmetric_recurrence",
    "companion_symmetric_recurrence",
    "eval_monic",
    "szego_eval",
    "reflections_from_u",
    "chebyshev_closed_form",
]


def _zero(n: int) -> int:
    # the int 0 leaves x - b_n bit-identical to x and keeps exact inputs exact
    return 0


def _memoized(fn: Callable[[int], object]) -> Callable[[int], object]:
    # Idempotent cache fill: concurrent duplicate computation is harmless
    # because fn is pure, so last-writer-wins never changes the value.
    cache: dict[int, object] = {}

    def wrapped(n: int):
        try:
            return cache[n]
        except KeyError:
            value = fn(n)
            cache[n] = value
            return value

    return wrapped


@dataclass(frozen=True)
class ReflectionSequence:
    """Lazy sequence of real reflection coefficients a_n, n >= 0.

    The convention a_{-1} = -1 is built in: indexing at -1 is legal and
    returns -1 without consulting the underlying function.  Coefficients are
    validated on first access; a value with |a_n| >= 1 raises
    :class:`~cmvpencil.errors.ReflectionBoundError` naming the index.

    Parameters
    ----------
    values : callable
        Maps an index n >= 0 to the real coefficient a_n.
    batch : callable, optional
        Maps a count n to a float64 array holding the same values as
        ``values`` for indices 0 .. n-1 (shorter if the sequence ends
        sooner), or to None when it has no array route.  Only
        :meth:`take` uses it.
    """

    values: Callable[[int], float]
    batch: Callable[[int], np.ndarray | None] | None = field(
        default=None, repr=False, compare=False
    )
    _a: Callable[[int], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def checked(n: int):
            v = self.values(n)
            if not (-1 < v < 1):
                raise ReflectionBoundError(n, v)
            return v

        object.__setattr__(self, "_a", _memoized(checked))

    def __call__(self, n: int):
        if n == -1:
            return -1
        if n < -1:
            raise InvalidParameterError(f"reflection index {n} < -1")
        return self._a(n)

    def r(self, n: int) -> float:
        """Complementary parameter r_n = sqrt(1 - a_n^2), in (0, 1]."""
        return math.sqrt(1.0 - float(self(n)) ** 2)

    def take(self, n: int) -> np.ndarray:
        """The coefficients a_0 .. a_{n-1} as an array.

        Equal, element for element and bit for bit, to ``[a(k) for k in
        range(n)]``, and raises what those reads raise.  Sequences with a
        ``batch`` route fill a float64 array in O(n) array operations;
        the others read index by index, so ``Fraction`` coefficients stay
        exact in an object array.
        """
        if n < 0:
            raise InvalidParameterError(f"cannot take {n} reflection coefficients")
        arr = self.batch(n) if self.batch is not None else None
        if arr is not None and arr.size == n and np.all((arr > -1) & (arr < 1)):
            return arr
        # no array route, or a bad value or a short list: the reads below
        # raise the per-index error at the first offending index
        return np.array([self(k) for k in range(n)])

    @staticmethod
    def constant(value: float) -> "ReflectionSequence":
        """Sequence with a_n = value for every n >= 0."""
        batch = (lambda n: np.full(n, value)) if isinstance(value, float) else None
        return ReflectionSequence(lambda n: value, batch)

    @staticmethod
    def from_list(values) -> "ReflectionSequence":
        """Sequence backed by a finite list (indexing past the end is an error)."""
        vals = list(values)
        converted = []  # the read-only float64 copy of vals, or None; made on first take

        def at(n: int):
            if n >= len(vals):
                raise InvalidParameterError(
                    f"reflection index {n} beyond provided list of length {len(vals)}"
                )
            return vals[n]

        def batch(n: int):
            if not converted:
                arr = np.array(vals)
                arr.flags.writeable = False
                converted.append(arr if arr.dtype == np.float64 else None)
            arr = converted[0]
            return None if arr is None else arr[:n]

        return ReflectionSequence(at, batch)


@dataclass(frozen=True)
class MonicThreeTerm:
    """Coefficients (b_n, u_n) of a monic three-term recurrence.

    The polynomials are P_0 = 1, P_1 = x - b_0 and
    P_{n+1} = (x - b_n) P_n - u_n P_{n-1}, with u_0 = 0 by convention.
    A symmetric family has b_n = 0 for every n.
    """

    b: Callable[[int], float]
    u: Callable[[int], float]

    def require_positive(self, n_max: int) -> None:
        """Check u_n > 0 for 1 <= n <= n_max (positive-definite validator)."""
        for n in range(1, n_max + 1):
            if not self.u(n) > 0:
                raise InvalidParameterError(
                    f"u_{n} = {self.u(n)!r} is not positive; family is not "
                    "positive definite"
                )

    @staticmethod
    def from_arrays(b_values, u_values) -> "MonicThreeTerm":
        b_arr = list(b_values)
        u_arr = list(u_values)

        def b(n: int):
            if n >= len(b_arr):
                raise InvalidParameterError(
                    f"diagonal coefficient index {n} beyond table of length {len(b_arr)}"
                )
            return b_arr[n]

        def u(n: int):
            if n == 0:
                return 0
            if n >= len(u_arr):
                raise InvalidParameterError(
                    f"off-diagonal coefficient index {n} beyond table of length {len(u_arr)}"
                )
            return u_arr[n]

        return MonicThreeTerm(b=b, u=u)


@dataclass(frozen=True)
class CirclePoint:
    """Point z = e^{i*phi} on the unit circle with a fixed half-angle branch.

    The angle phi is stored in [0, 2*pi) and the square root is always
    z^{1/2} = e^{i*phi/2}, so the interval coordinate
    x = z^{1/2} + z^{-1/2} = 2*cos(phi/2) sweeps [-2, 2] monotonically as phi
    runs through [0, 2*pi).
    """

    phi: float

    def __post_init__(self):
        if not (0 <= self.phi < 2 * math.pi):
            object.__setattr__(self, "phi", self.phi % (2 * math.pi))

    @property
    def z(self) -> complex:
        return cmath.exp(1j * self.phi)

    @property
    def half(self) -> complex:
        """The fixed branch z^{1/2} = e^{i*phi/2}."""
        return cmath.exp(0.5j * self.phi)

    @property
    def x(self) -> float:
        """Interval coordinate 2*cos(phi/2)."""
        return 2.0 * math.cos(0.5 * self.phi)


def jacobi_opuc_reflections(xi, eta) -> ReflectionSequence:
    """Reflection coefficients of the circle analogue of the Jacobi family.

    Parameters
    ----------
    xi, eta : real
        Exponent parameters, each > -1.  Exact-rational inputs produce exact
        coefficients.

    Returns
    -------
    ReflectionSequence
        a_n = (eta - xi)/(n + xi + eta + 2) for even n,
        a_n = -(1 + xi + eta)/(n + xi + eta + 2) for odd n.
    """
    if not (xi > -1 and eta > -1):
        raise InvalidParameterError(f"need xi > -1 and eta > -1, got ({xi}, {eta})")

    def a(n: int):
        if n % 2 == 0:
            return (eta - xi) / (n + xi + eta + 2)
        return -(1 + xi + eta) / (n + xi + eta + 2)

    def batch(n: int):
        # the scalar formula's operations in the same order, so bit-identical
        k = np.arange(n, dtype=float)
        den = k + xi + eta + 2
        return np.where(k % 2 == 0, (eta - xi) / den, -(1 + xi + eta) / den)

    floats = isinstance(xi, float) and isinstance(eta, float)
    return ReflectionSequence(a, batch if floats else None)


def pencil_recurrence(a: ReflectionSequence, lam) -> MonicThreeTerm:
    """Monic recurrence of the pencil polynomial family at parameter lam.

    Parameters
    ----------
    a : ReflectionSequence
    lam : real
        Pencil parameter; lam = 1 reduces to :func:`sdg_recurrence`.

    Returns
    -------
    MonicThreeTerm
        b_n = a_n - lam*a_{n-1} (even n), lam*a_n - a_{n-1} (odd n);
        u_n = lam^2*(1 - a_{n-1}^2) (even n), 1 - a_{n-1}^2 (odd n);
        with a_{-1} = -1 giving b_0 = a_0 + lam, and u_0 = 0.
    """

    def b(n: int):
        if n % 2 == 0:
            return a(n) - lam * a(n - 1)
        return lam * a(n) - a(n - 1)

    def u(n: int):
        if n == 0:
            return 0
        if n % 2 == 0:
            return lam * lam * (1 - a(n - 1) ** 2)
        return 1 - a(n - 1) ** 2

    return MonicThreeTerm(b=_memoized(b), u=_memoized(u))


def sdg_recurrence(a: ReflectionSequence) -> MonicThreeTerm:
    """Monic recurrence b_n = a_n - a_{n-1}, u_n = 1 - a_{n-1}^2."""

    def b(n: int):
        return a(n) - a(n - 1)

    def u(n: int):
        if n == 0:
            return 0
        return 1 - a(n - 1) ** 2

    return MonicThreeTerm(b=_memoized(b), u=_memoized(u))


def dg_symmetric_recurrence(a: ReflectionSequence) -> MonicThreeTerm:
    """Symmetric recurrence b_n = 0, u_n = (1 + a_{n-1})(1 - a_{n-2}).

    The polynomials are S_{n+1} = x S_n - u_n S_{n-1}.  With a_{-1} = -1
    the first coefficient is u_1 = 2*(1 + a_0).
    """

    def u(n: int):
        if n == 0:
            return 0
        return (1 + a(n - 1)) * (1 - a(n - 2))

    return MonicThreeTerm(b=_zero, u=_memoized(u))


def companion_symmetric_recurrence(a: ReflectionSequence) -> MonicThreeTerm:
    """Symmetric recurrence b_n = 0, u_n = (1 + a_{n-1})(1 - a_n) of the companion family."""

    def u(n: int):
        if n == 0:
            return 0
        return (1 + a(n - 1)) * (1 - a(n))

    return MonicThreeTerm(b=_zero, u=_memoized(u))


def eval_monic(rec: MonicThreeTerm, n: int, x):
    """Value of the monic degree-n polynomial of ``rec`` at x.

    Works elementwise when x is a numpy array and exactly when x and the
    coefficients are rational.
    """
    if n < 0:
        raise InvalidParameterError("degree must be >= 0")
    one = x * 0 + 1  # matches the dtype of x
    if n == 0:
        return one
    p_prev, p_cur = one, x - rec.b(0) * one
    for k in range(1, n):
        p_prev, p_cur = p_cur, (x - rec.b(k)) * p_cur - rec.u(k) * p_prev
    return p_cur


def szego_eval(a: ReflectionSequence, n: int, z: CirclePoint) -> tuple[complex, complex]:
    """Joint evaluation of the circle polynomial pair at a circle point.

    Returns
    -------
    (complex, complex)
        (Phi_n(z), Phi_n^*(z)) from Phi_{n+1} = z*Phi_n - a_n*Phi_n^* and
        Phi_{n+1}^* = Phi_n^* - a_n*z*Phi_n, starting from (1, 1).
    """
    if n < 0:
        raise InvalidParameterError("degree must be >= 0")
    zz = z.z if isinstance(z, CirclePoint) else complex(z)
    phi, phis = 1.0 + 0.0j, 1.0 + 0.0j
    for k in range(n):
        ak = a(k)
        phi, phis = zz * phi - ak * phis, phis - ak * zz * phi
    return phi, phis


def reflections_from_u(u: Callable[[int], float], signs: Callable[[int], int]) -> ReflectionSequence:
    """Recover reflection coefficients from off-diagonal coefficients.

    Parameters
    ----------
    u : callable
        n -> u_n with 0 < u_{n+1} <= 1 for every queried n.
    signs : callable
        n -> +1 or -1, choosing the sign of each a_n.

    Returns
    -------
    ReflectionSequence
        a_n = signs(n) * sqrt(1 - u_{n+1}).
    """

    def a(n: int):
        un = u(n + 1)
        if not (0 < un <= 1):
            raise InvalidParameterError(
                f"u_{n + 1} = {un!r} outside (0, 1]; cannot recover a_{n}"
            )
        s = signs(n)
        if s not in (1, -1):
            raise InvalidParameterError(f"sign at index {n} must be +1 or -1, got {s!r}")
        return s * math.sqrt(1.0 - float(un))

    return ReflectionSequence(a)


def chebyshev_closed_form(kind: str, n: int, tau: float) -> float:
    """Trigonometric closed forms used as test oracles.

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
    if n < 0:
        raise InvalidParameterError("degree must be >= 0")
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
