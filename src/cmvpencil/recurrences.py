"""Reflection sequences, three-term recurrences, and circle-polynomial evaluation.

The central object is a sequence of real reflection coefficients a_n with
|a_n| < 1 and the built-in convention a_{-1} = -1.  From it the module builds
the coefficient families of the monic pencil polynomials, their lambda = 1
specialization, the symmetric family of the circle-to-interval map, and its
companion.  Every family is a ``MonicThreeTerm``: a symmetric recurrence
S_{n+1} = x S_n - v_n S_{n-1} is the monic one with b_n = 0 and u_n = v_n.
The lambda = 1 family is the pencil family at the int 1, the symmetric family
and its companion share one builder; ``pencil_recurrence`` takes any lam
whose square is a finite float.  A recurrence read from tables
(``MonicThreeTerm.from_arrays``, and so every recovered one, and
``maps.christoffel``'s A and C) reads them through one bounded accessor that
refuses an index outside the table, negative ones included.  Evaluation helpers run the forward three-term
recurrence and the joint circle recursion once each, returning every degree
up to n.

Arithmetic is generic: sequences built from ``fractions.Fraction`` parameters
stay exact through every coefficient formula and through ``eval_monic``, which
the operator-eigenfunction checks rely on.  ``ReflectionSequence.take`` reads
a whole prefix as an array; float lists, float constants and the
float-parameter Jacobi family fill it vectorized, every other sequence reads
index by index.  The banded matrix builders, ``szego_eval`` and the circle
evaluators read their coefficients from a private table made from one
``take``: a caller that reuses one prefix (the identity residuals, the maps
suite) makes the table once and hands it to each of them in place of the
sequence.  The table holds the a column, the r column and, for scalar loops,
the a column as Python scalars, so a sequence with ``numpy.float64``
parameters runs the circle recursion in the same arithmetic as one with
Python floats.

Two private gates check the parameters and counts a caller hands the
library, here and in ``cmv``, ``maps`` and ``measures`` (the exact path of
``dunkl`` checks its parameters with its own ``_rational``).  ``_require_real`` is the one check of
a real parameter (lam, xi, eta, c, an exponent, a tolerance, a shift point
or band edge): it compares the value exactly against its range, by default
the float range, so an int or ``Fraction`` too large for a float, nan, and a
value that is not a number at all (a string, None) each raise
InvalidParameterError before any arithmetic.  ``_require_count`` is the one
check of a count (a degree, n_max, n_nodes, a number of blocks): an integer,
numpy integers included and bool refused, within its bounds.  Both format
their message only on the way to the raise, through ``errors._shown``.
``_require_lam`` is the real gate at 0 < lam <= the largest float.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, ReflectionBoundError, _shown

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
]


def _require_real(value, what: str, lo=-sys.float_info.max, hi=sys.float_info.max, *, open_lo=False, open_hi=False):
    """InvalidParameterError("need <what>, got <value>") unless lo <= value <= hi,
    with < in place of <= at an open end.

    The one check of a real parameter.  The ends default to the float range
    and are compared exactly, so an int or ``Fraction`` too large for a float
    fails here and not later in ``float()`` or float arithmetic.  nan fails
    every comparison, and a value that cannot be compared (a string, None, a
    complex number) is out of range too.  numpy scalars, bools and 0-d arrays
    compare as their values.  The message is formatted only on the way to
    the raise.
    """
    try:
        if (lo < value if open_lo else lo <= value) and (value < hi if open_hi else value <= hi):
            return
    except (TypeError, ValueError):  # no order with the ends, or no single truth value
        pass
    raise InvalidParameterError(f"need {what}, got {_shown(value)}")


def _require_count(value, what: str, lo: int, hi: int | None = None, error=InvalidParameterError) -> int:
    """value as a Python int if it is an integer from lo up (to hi, where
    given); error("need <what> >= <lo>, got <value>") otherwise, or "in
    <lo>..<hi>" with hi.

    The one check of a count or degree: numpy integers pass, bool, floats,
    ``Fraction`` and everything else are refused.
    """
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integer or value < lo or hi is not None and value > hi:
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise error(f"need {what} {bounds}, got {_shown(value)}")
    return int(value)


def _require_lam(lam) -> None:
    """A pencil parameter with 0 < lam <= the largest float."""
    _require_real(lam, "lam > 0 and finite", 0, open_lo=True)


# the largest float whose square is finite, 1.3407807929942596e154: the edge
# of the pencil's lam and (over 4) of the identity residuals' lam; the
# eigen layer needs no such edge, as its one gate scales the matrix
# (cmv._tridiagonal)
_SQUARE_MAX = math.sqrt(sys.float_info.max)
_SQUARE_RULE = f"|lam| <= {_SQUARE_MAX!r}"


def _bounded_table(name: str, values) -> Callable[[int], object]:
    """n -> values[n] for 0 <= n < len(values); any other n raises
    InvalidParameterError, so a negative index never wraps around."""
    values = list(values)

    def at(n: int):
        if not 0 <= n < len(values):
            raise InvalidParameterError(f"{name} index {_shown(n, format)} outside 0..{len(values) - 1}")
        return values[n]

    return at


def _zero(n: int) -> int:
    # the int 0 leaves x - b_n bit-identical to x and keeps exact inputs exact
    return 0


def _worst(worst, value):
    """``max(worst, value)``, except that the first nan is the result.

    Python's ``max`` keeps its first argument when the comparison is false,
    so ``max(0.0, nan)`` is 0.0 and a nan residual would pass its check.
    """
    return value if value > worst or (value != value and worst == worst) else worst


def _worst_mismatch(pairs, n_max: int):
    """Worst |float(f(n)) - float(g(n))| over each (f, g) in ``pairs`` and n in
    0..n_max, by ``_worst``, so the first nan is the result."""
    diffs = (abs(float(f(n)) - float(g(n))) for n in range(n_max + 1) for f, g in pairs)
    return functools.reduce(_worst, diffs, 0.0)


_MISSING = object()


def _memoized(fn: Callable[[int], object]) -> Callable[[int], object]:
    # Idempotent cache fill: concurrent duplicate computation is harmless
    # because fn is pure, so last-writer-wins never changes the value.
    cache: dict[int, object] = {}

    def wrapped(n: int):
        value = cache.get(n, _MISSING)
        if value is _MISSING:
            value = cache[n] = fn(n)  # a read that raises stores nothing
        return value

    return wrapped


@dataclass(frozen=True)
class ReflectionSequence:
    """Lazy sequence of real reflection coefficients a_n, n >= 0.

    The convention a_{-1} = -1 is built in: indexing at -1 is legal and
    returns -1 without consulting the underlying function.  Coefficients are
    validated on first access; a value outside -1 < a_n < 1 (nan, or one
    that is not a number, included) raises
    :class:`~cmvpencil.errors.ReflectionBoundError` naming the index.

    Each checked read is memoized.  A sequence holds no reference to
    itself, so its memo lives exactly as long as the sequence: both are
    freed with the last reference to the sequence, without waiting for
    the cyclic garbage collector.

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
        # the memo closes over values, not self: a sequence that referred to
        # itself would wait for the cyclic collector instead of dying with
        # its last reference
        values = self.values

        def checked(n: int):
            v = values(n)
            try:
                if -1 < v < 1:
                    return v
            except (TypeError, ValueError):  # not a number: out of bounds too
                pass
            raise ReflectionBoundError(n, v)

        object.__setattr__(self, "_a", _memoized(checked))

    def __call__(self, n: int):
        if n == -1:
            return -1
        if n < -1:
            raise InvalidParameterError(f"reflection index {_shown(n, format)} < -1")
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
        n = _require_count(n, "an integer count of reflection coefficients", 0)
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
                    f"reflection index {_shown(n, format)} beyond provided list of length {len(vals)}"
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


def _complement(values) -> np.ndarray:
    """r_n = sqrt(1 - a_n^2) elementwise, rounded exactly as ReflectionSequence.r.

    The squares go through libm ``pow``, as Python's float power in ``r``
    does; ``np.float_power`` makes the same call per element.  numpy's
    ``x * x`` can differ from it in the last bit, and the bands must stay
    bit-identical to the per-index construction.  The squares, 1 - a^2 and
    r share one buffer.
    """
    r = np.float_power(np.asarray(values, dtype=float), 2.0)
    np.subtract(1.0, r, out=r)
    return np.sqrt(r, out=r)


class _CoefficientTable:
    """a_0 .. a_{n-1} of one sequence, read once by ``take`` and then shared.

    ``a`` is the take (float64, or object for ``Fraction`` coefficients),
    ``r`` its r_n from ``_complement`` and ``scalars`` its entries as Python
    scalars; the last two are made on first use.  The table is read-only and
    refers to neither the sequence nor itself, so it is freed as soon as the
    call that made it returns.
    """

    def __init__(self, a: ReflectionSequence, n: int):
        self.a = a.take(n)
        self.a.flags.writeable = False

    @functools.cached_property
    def r(self) -> np.ndarray:
        r = _complement(self.a)
        r.flags.writeable = False
        return r

    @functools.cached_property
    def scalars(self) -> list:
        return self.a.tolist()


def _table(a, n: int) -> _CoefficientTable:
    """``a`` if it is already a table (of at least n entries), else a new table of a_0 .. a_{n-1}."""
    if not isinstance(a, _CoefficientTable):
        return _CoefficientTable(a, n)
    if len(a.a) < n:
        raise InvalidParameterError(f"a table of {len(a.a)} coefficients cannot serve {n}")
    return a


@dataclass(frozen=True)
class MonicThreeTerm:
    """Coefficients (b_n, u_n) of a monic three-term recurrence.

    The polynomials are P_0 = 1, P_1 = x - b_0 and
    P_{n+1} = (x - b_n) P_n - u_n P_{n-1}, with u_0 = 0 by convention.
    A symmetric family has b_n = 0 for every n.
    """

    b: Callable[[int], float]
    u: Callable[[int], float]

    @staticmethod
    def from_arrays(b_values, u_values) -> "MonicThreeTerm":
        """b_n and u_n read from two tables; u_0 = 0 whatever ``u_values[0]``
        holds, and an index outside a table raises InvalidParameterError."""
        u_values = list(u_values)
        return MonicThreeTerm(
            b=_bounded_table("diagonal coefficient", b_values),
            u=_bounded_table("off-diagonal coefficient", [0, *u_values[1:]]),
        )


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
        _require_real(self.phi, "a finite circle angle")
        if not (0 <= self.phi < 2 * math.pi):
            # a tiny negative angle reduces to exactly 2*pi after rounding; the
            # largest float below 2*pi keeps it on the x = -2 side of the branch
            phi = self.phi % (2 * math.pi)
            object.__setattr__(self, "phi", min(phi, math.nextafter(2 * math.pi, 0)))

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
        Exponent parameters, each > -1 and finite.  Exact-rational inputs
        produce exact coefficients.

    Returns
    -------
    ReflectionSequence
        a_n = (eta - xi)/(n + xi + eta + 2) for even n,
        a_n = -(1 + xi + eta)/(n + xi + eta + 2) for odd n.
    """
    _require_real(xi, "xi > -1 and finite", -1, open_lo=True)
    _require_real(eta, "eta > -1 and finite", -1, open_lo=True)

    def a(n: int):
        if n % 2 == 0:
            return (eta - xi) / (n + xi + eta + 2)
        return -(1 + xi + eta) / (n + xi + eta + 2)

    def batch(n: int):
        # the scalar formula's operations in the same order, so bit-identical
        den = np.arange(n, dtype=float) + xi + eta + 2
        out = np.empty(n)
        out[0::2] = (eta - xi) / den[0::2]
        out[1::2] = -(1 + xi + eta) / den[1::2]
        return out

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

    Raises
    ------
    InvalidParameterError
        If lam is nan or |lam| > sqrt(largest float) = 1.3407807929942596e154,
        beyond which lam^2 and so u_n overflow to inf.  lam <= 0 is allowed.
    """
    _require_real(lam, _SQUARE_RULE, -_SQUARE_MAX, _SQUARE_MAX)

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
    """``pencil_recurrence(a, 1)``: b_n = a_n - a_{n-1}, u_n = 1 - a_{n-1}^2; the
    int 1 keeps every coefficient's bits and type, ``Fraction`` included."""
    return pencil_recurrence(a, 1)


def _symmetric_recurrence(a: ReflectionSequence, lag: int) -> MonicThreeTerm:
    """Symmetric recurrence b_n = 0, u_n = (1 + a_{n-1})(1 - a_{n-lag})."""

    def u(n: int):
        if n == 0:
            return 0
        return (1 + a(n - 1)) * (1 - a(n - lag))

    return MonicThreeTerm(b=_zero, u=_memoized(u))


def dg_symmetric_recurrence(a: ReflectionSequence) -> MonicThreeTerm:
    """Symmetric recurrence b_n = 0, u_n = (1 + a_{n-1})(1 - a_{n-2}).

    The polynomials are S_{n+1} = x S_n - u_n S_{n-1}.  With a_{-1} = -1
    the first coefficient is u_1 = 2*(1 + a_0).
    """
    return _symmetric_recurrence(a, 2)


def companion_symmetric_recurrence(a: ReflectionSequence) -> MonicThreeTerm:
    """Symmetric recurrence b_n = 0, u_n = (1 + a_{n-1})(1 - a_n) of the companion family."""
    return _symmetric_recurrence(a, 0)


def eval_monic(rec: MonicThreeTerm, n: int, x) -> list:
    """Values [P_0(x), ..., P_n(x)] of the monic family of ``rec``, from one sweep.

    Works elementwise when x is a numpy array (each entry is then an array)
    and exactly when x and the coefficients are rational.
    """
    _require_count(n, "an integer degree", 0)
    one = x * 0 + 1  # matches the dtype of x
    ladder = [one, x - rec.b(0) * one] if n > 0 else [one]
    for k in range(1, n):
        ladder.append((x - rec.b(k)) * ladder[k] - rec.u(k) * ladder[k - 1])
    return ladder


def szego_eval(a: ReflectionSequence, n: int, z: CirclePoint) -> list:
    """Joint evaluation of the circle polynomial pairs at a circle point.

    ``a`` is a ReflectionSequence (or the private coefficient table of one);
    a_0 .. a_{n-1} are read once, by ``take``.  ``z`` may also be a raw
    number; one that is not finite, or whose sweep to degree n overflows
    (z = 1e300, say), raises InvalidParameterError.

    Returns
    -------
    list of (complex, complex)
        [(Phi_0(z), Phi_0^*(z)), ..., (Phi_n(z), Phi_n^*(z))] from (1, 1) by one
        sweep of Phi_{k+1} = z*Phi_k - a_k*Phi_k^*, Phi_{k+1}^* = Phi_k^* - a_k*z*Phi_k.
    """
    n = _require_count(n, "an integer degree", 0)
    # a CirclePoint is finite with |z| = 1; only a raw point needs the checks
    raw = not isinstance(z, CirclePoint)
    try:
        zz = complex(z) if raw else z.z
    except (OverflowError, TypeError, ValueError):  # beyond the float range, or not a number
        raise InvalidParameterError(f"need a point with a float value, got {_shown(z)}") from None
    if raw and not cmath.isfinite(zz):
        raise InvalidParameterError(f"need a finite point, got {_shown(z)}")
    phi = phis = 1.0 + 0.0j
    ladder = [(phi, phis)]
    # Python scalars keep every step in CPython's complex arithmetic
    for ak in _table(a, n).scalars[:n]:
        phi, phis = zz * phi - ak * phis, phis - ak * zz * phi
        ladder.append((phi, phis))
    if raw and not (cmath.isfinite(phi) and cmath.isfinite(phis)):
        raise InvalidParameterError(f"the sweep to degree {n} overflows at z = {_shown(z)}")
    return ladder
