"""Banded truncations of the reflection operator pair and the linear pencil.

The two involutions L and M are direct sums of 2x2 reflection blocks built
from the coefficients a_n.  Their sum J = L + M is tridiagonal, the product
U = L M is five-diagonal (and not symmetric), the anticommutator
H = L M + M L is five-diagonal symmetric, and the pencil K(lam) = L + lam*M
is tridiagonal for every lam.  Finite truncations keep 2*n_blocks rows; the
block chopped in half at the boundary pollutes only the last two rows, so the
algebraic identities are verified on rows 0 .. dim-3.

Every real parameter (lam, ``inflate``, a band edge) is checked by
``recurrences._require_real`` and every count by ``recurrences._require_count``,
which both constructors of ``TruncationSpec`` call; ``TruncationSpec.from_dim``
adds the one check that a requested dimension is even.  A value that is not
a number, nan, or an int or ``Fraction`` beyond its range raises
InvalidParameterError (TruncationError for a truncation) before any
arithmetic.  ``build_J`` is ``build_K`` at the int lam = 1.  A
``BandedSymmetricMatrix`` stores only its bands; its ``dim`` and
``bandwidth`` are read from them.

Everything here is O(dim).  The builders read the coefficients as arrays
from a private coefficient table (``recurrences._table``: one
``ReflectionSequence.take`` and its r column), and each also takes a table in
place of the sequence, so H and the identity residuals make one table per
sequence for all their builders.  H and the identity residuals take each
product of two tridiagonals in closed form, one formula per upper band
(``_product_band``): for symmetric A and B, (A B)^T = B A, so the lower
band (A B)_-k is the upper band (B A)_k and none is formed.  H = L M + M L
is formed one band at a time, (LM)_k + (ML)_k, so ``build_H`` peaks at
about three times the bands it returns; the squares L^2, M^2, J^2 and K^2
take bands 0..2 only.  The band formulas and the residual max act on the
last axis, so one bands-level routine, ``_identity_residuals``, forms H,
the squares and the six residuals for bands of any leading shape.
``verify_identities`` feeds it one matrix each, with lam as a number; the
matrix-identities suite's one call, ``_identity_residual_batch``, stacks L,
M and J of every sequence, and K of every sequence and lam, into
(sequence, lam, row) arrays, with lam along the lam axis.  The same
elementwise operations give the same bits.

``_tridiagonal`` is the one gate of the eigen layer, and each of
``tridiagonal_eigenvalues``, ``eigenvalue_counts`` and ``band_census`` reads
its matrix through it once.  It checks for bandwidth 1 and finite entries
(InvalidParameterError otherwise) and applies one scaling rule, LAPACK
``?stevx``'s: where the largest entry lies outside [2^-484, 2^255), about
2.0e-146 to 5.8e76, inside ?stevx's safe range, the bands (and with them
every shift and window edge) are multiplied by the power of two that brings
it in, which is exact; inside the range nothing is scaled.  So the squared
off-diagonal entries and the pivots overflow nowhere, and underflow only
below rounding of the largest entry, at any scale from the smallest
subnormal to the largest float.  The one refusal beyond bad input is
``_unscaled``'s, where the solver returns an eigenvalue too large for a
float; counts return no eigenvalue and refuse none.

``eigenvalue_counts`` answers "how many eigenvalues lie below t" by Sturm
(LDL^T inertia) counts in a Python loop.  ``band_census`` counts and locates
the eigenvalues outside predicted bands with LAPACK ``?stebz`` alone: one
``_stebz`` call per window, whose count is the number of values it returns,
and one count-only call, ``_stebz_count``, on the window around zero.
``_stebz`` is ``?stebz`` called with exactly the arguments
``eigh_tridiagonal`` passes, bit for bit the same and without scipy's
argument checks.  Only ``tridiagonal_eigenvalues`` (all eigenvalues, about
O(dim^2) in LAPACK) and the ``to_dense`` test oracles cost more.
``scipy.linalg`` is imported by the calls that solve, on first use:
``tridiagonal_eigenvalues``, ``BandedSymmetricMatrix.eigenvalues`` and
``_stebz``.  What remains is rounding: on random tridiagonals at scales
1e-300 to 1e300, no count was wrong with the shift 1e-14 times the largest
entry or more from an eigenvalue, and 16 of 600 were at 1e-15.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, TruncationError, _shown
from .recurrences import _SQUARE_MAX, ReflectionSequence, _require_count, _require_real, _table

# the most 2x2 blocks whose float64 bands numpy can size: 8 * dim bytes within np.intp
_MAX_BLOCKS = np.iinfo(np.intp).max // 16

__all__ = [
    "TruncationSpec",
    "BandedSymmetricMatrix",
    "BandedMatrix",
    "build_L",
    "build_M",
    "build_J",
    "build_K",
    "build_H",
    "banded_product",
    "verify_identities",
    "tridiagonal_eigenvalues",
    "eigenvalue_counts",
    "band_census",
]


@dataclass(frozen=True)
class TruncationSpec:
    """Size of a finite truncation, counted in 2x2 blocks: an integer n_blocks
    from 2 up to the most whose float64 bands numpy can size (8 * dim bytes
    within ``np.intp``); anything else raises TruncationError."""

    n_blocks: int

    def __post_init__(self):
        _require_count(self.n_blocks, "an integer n_blocks", 2, _MAX_BLOCKS, TruncationError)

    @property
    def dim(self) -> int:
        return 2 * self.n_blocks

    @classmethod
    def from_dim(cls, dim: int) -> "TruncationSpec":
        """The truncation with ``dim`` rows; TruncationError unless dim is an even integer >= 4."""
        n_blocks, odd = divmod(_require_count(dim, "even dim", 4, error=TruncationError), 2)
        if odd:
            raise TruncationError(f"need even dim >= 4, got {_shown(dim)}")
        return cls(n_blocks)


@dataclass(frozen=True)
class BandedSymmetricMatrix:
    """Real symmetric banded matrix stored by diagonals.

    Parameters
    ----------
    bands : tuple of numpy.ndarray
        bands[k] holds the k-th superdiagonal (length dim - k), k = 0 being
        the main diagonal.  Subdiagonals are implied by symmetry.  ``dim``
        and ``bandwidth`` are read from the bands.
    """

    bands: tuple

    def __post_init__(self):
        if not self.bands:
            raise InvalidParameterError("bands must hold at least the main diagonal")
        for k, band in enumerate(self.bands):
            if len(band) != self.dim - k:
                raise InvalidParameterError(
                    f"diagonal {k} has length {len(band)}, expected {self.dim - k}"
                )

    @property
    def dim(self) -> int:
        return len(self.bands[0])

    @property
    def bandwidth(self) -> int:
        """Number of stored superdiagonals."""
        return len(self.bands) - 1

    def to_dense(self) -> np.ndarray:
        """Dense copy, intended for small test oracles."""
        out = np.zeros((self.dim, self.dim))
        for k in range(self.bandwidth + 1):
            idx = np.arange(self.dim - k)
            out[idx, idx + k] = self.bands[k]
            out[idx + k, idx] = self.bands[k]
        return out

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending, via the banded symmetric solver.

        A band with an entry that is not finite raises InvalidParameterError.
        """
        from scipy.linalg import eig_banded

        a_band = np.zeros((self.bandwidth + 1, self.dim))
        for k, band in enumerate(_finite_bands(self.bands)):
            # upper storage: row (bandwidth - k) carries superdiagonal k,
            # right-aligned as scipy expects
            a_band[self.bandwidth - k, k:] = band
        return eig_banded(a_band, lower=False, eigvals_only=True, check_finite=False)


class BandedMatrix:
    """General (possibly nonsymmetric) banded matrix stored by offsets.

    data[offset] holds the diagonal j - i = offset, length dim - |offset|.
    The general route for products such as U = L M, which is five-diagonal
    but not symmetric.
    """

    def __init__(self, dim: int, data: dict):
        self.dim = dim
        self.data = {k: np.asarray(v, dtype=float) for k, v in data.items() if len(v)}
        for k, v in self.data.items():
            if len(v) != dim - abs(k):
                raise InvalidParameterError(
                    f"offset {k} has length {len(v)}, expected {dim - abs(k)}"
                )

    def offset(self, k: int) -> np.ndarray:
        return self.data.get(k, np.zeros(self.dim - abs(k)))

    def transpose(self) -> "BandedMatrix":
        return BandedMatrix(self.dim, {-k: v.copy() for k, v in self.data.items()})

    def add(self, other: "BandedMatrix") -> "BandedMatrix":
        if other.dim != self.dim:
            raise InvalidParameterError("dimension mismatch")
        keys = set(self.data) | set(other.data)
        return BandedMatrix(
            self.dim, {k: self.offset(k) + other.offset(k) for k in keys}
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for k, v in self.data.items():
            if k >= 0:
                idx = np.arange(self.dim - k)
                out[idx, idx + k] = v
            else:
                idx = np.arange(self.dim + k)
                out[idx - k, idx] = v
        return out


def banded_product(a: BandedMatrix, b: BandedMatrix) -> BandedMatrix:
    """Product of two banded matrices, staying in banded storage."""
    if a.dim != b.dim:
        raise InvalidParameterError("dimension mismatch")
    dim = a.dim
    out: dict[int, np.ndarray] = {}
    for ka, va in a.data.items():
        for kb, vb in b.data.items():
            k = ka + kb
            if abs(k) >= dim:
                continue
            acc = out.setdefault(k, np.zeros(dim - abs(k)))
            # entry (i, i + k) accumulates A[i, i+ka] * B[i+ka, i+k]
            i0 = max(0, -ka, -k)
            i1 = min(dim, dim - ka, dim - k)
            if i0 >= i1:
                continue
            # offset storage keeps entry (i, j) at index min(i, j), so each
            # operand is a contiguous run starting at the row i0
            n = i1 - i0
            av = va[i0 + min(ka, 0) :][:n]
            bv = vb[i0 + ka + min(kb, 0) :][:n]
            acc[i0 + min(k, 0) :][:n] += av * bv
    return BandedMatrix(dim, {k: v for k, v in out.items() if np.any(v != 0.0)})


def build_L(a: ReflectionSequence, trunc: TruncationSpec) -> BandedSymmetricMatrix:
    """Truncation of the even involution: blocks with a_0, a_2, a_4, ...

    Each block is [[a, r], [r, -a]]; the blocks start at row 0.
    """
    dim = trunc.dim
    table = _table(a, dim - 1)
    even = table.a[0 : dim - 1 : 2]
    diag = np.empty(dim)
    diag[0::2] = even
    diag[1::2] = -even
    off = np.zeros(dim - 1)
    off[0::2] = table.r[0 : dim - 1 : 2]
    return BandedSymmetricMatrix((diag, off))


def build_M(a: ReflectionSequence, trunc: TruncationSpec) -> BandedSymmetricMatrix:
    """Truncation of the odd involution: leading 1, then blocks with a_1, a_3, ...

    The last block is cut in half by the truncation, leaving the corner entry
    a_{dim-1}; this is what confines identity violations to the last two rows.
    """
    dim = trunc.dim
    table = _table(a, dim)
    odd = table.a[1:dim:2]
    diag = np.empty(dim)
    diag[0] = 1.0
    diag[1::2] = odd
    diag[2::2] = -odd[:-1]
    off = np.zeros(dim - 1)
    off[1::2] = table.r[1 : dim - 1 : 2]
    return BandedSymmetricMatrix((diag, off))


def build_J(a: ReflectionSequence, trunc: TruncationSpec) -> BandedSymmetricMatrix:
    """Tridiagonal truncation of L + M: ``build_K(a, 1, trunc)``.

    Diagonal a_n - a_{n-1} (so the top entry is a_0 + 1), off-diagonal r_n.
    The int 1 keeps these bit for bit, ``Fraction`` sequences included.
    """
    return build_K(a, 1, trunc)


def build_K(a: ReflectionSequence, lam: float, trunc: TruncationSpec) -> BandedSymmetricMatrix:
    """Tridiagonal truncation of the pencil L + lam*M.

    Diagonal alternates a_n - lam*a_{n-1} (even n, with a_{-1} = -1) and
    -a_{n-1} + lam*a_n (odd n); off-diagonal alternates r_{2k} and lam*r_{2k+1}.
    lam is any finite real; lam <= 0 is allowed.
    """
    _require_real(lam, "a finite lam")
    dim = trunc.dim
    table = _table(a, dim)
    values = table.a[:dim]
    prev = np.concatenate(([-1], values[:-1]))  # a_{n-1}, with a_{-1} = -1
    diag = np.empty(dim)
    diag[0::2] = values[0::2] - lam * prev[0::2]
    diag[1::2] = lam * values[1::2] - prev[1::2]
    off = table.r[: dim - 1].copy()
    off[1::2] = lam * off[1::2]
    return BandedSymmetricMatrix((diag, off))


def _product_band(A: tuple, B: tuple, k: int) -> np.ndarray:
    """Upper offset k = 0, 1 or 2 of A B for symmetric tridiagonals A and B given as (diag, off).

    The bands may carry leading batch axes; rows run along the last.  The
    lower offsets are upper ones of the reversed product, (A B)_-k =
    (B A)_k, as (A B)^T = B A.  Terms are added in ``banded_product``'s
    order, so every entry equals its bit for bit; only a zero may differ in
    sign (it sums onto +0.0).
    """
    (d1, e1), (d2, e2) = A, B
    if k == 2:
        return e1[..., :-1] * e2[..., 1:]
    if k == 1:
        band = d1[..., :-1] * e2
        band += e1 * d2[..., 1:]
        return band
    band = d1 * d2
    ee = e1 * e2
    band[..., :-1] += ee
    band[..., 1:] += ee
    return band


def _anticommutator(L: tuple, M: tuple) -> tuple:
    """Bands 0..2 of L M + M L, (LM)_k + (ML)_k, for L and M given as (diag, off).

    One band at a time, with (ML)_k added in place, so beside the result at
    most two scratch bands are alive.
    """
    bands = []
    for k in range(3):
        band = _product_band(L, M, k)
        band += _product_band(M, L, k)
        bands.append(band)
    return tuple(bands)


def build_H(a: ReflectionSequence, trunc: TruncationSpec) -> BandedSymmetricMatrix:
    """Five-diagonal symmetric truncation of the anticommutator L M + M L."""
    # the off-diagonals of L and M are >= +0.0, so no entry here is -0.0
    table = _table(a, trunc.dim)
    bands = _anticommutator(build_L(table, trunc).bands, build_M(table, trunc).bands)
    return BandedSymmetricMatrix(bands)


def _residual(lhs, rhs, n: int):
    """Max |lhs[k] - rhs[k]| over upper offsets k < len(rhs) on rows 0 .. n-1.

    Both sides are symmetric, so this covers the lower offsets too.  Rows run
    along the last axis, and one numpy max over every offset takes it, so a
    nan in any of them is the result; leading batch axes are kept.
    """
    return np.abs(np.concatenate([(lhs[k] - y)[..., :n] for k, y in enumerate(rhs)], axis=-1)).max(axis=-1)


# K^2 entries are sums of three products of entries up to 1 + |lam|, and
# 1 + lam^2 is formed too, so |lam| up to sqrt(max float) / 4 keeps every
# residual finite
_IDENTITY_LAM_MAX = _SQUARE_MAX / 4
_IDENTITY_LAM_RULE = f"a finite lam with |lam| <= {_IDENTITY_LAM_MAX:.3g}, so that lam^2 and K^2 stay finite"


def _require_identity_lam(lam) -> None:
    """InvalidParameterError unless lam is finite with |lam| <= ``_IDENTITY_LAM_MAX``."""
    _require_real(lam, _IDENTITY_LAM_RULE, -_IDENTITY_LAM_MAX, _IDENTITY_LAM_MAX)


def _identity_residuals(L, M, J, K, scale, shift, n: int) -> dict:
    """Identity name -> max abs residual over rows 0 .. n-1, for L, M, J and K
    given as (diag, off), scale = float(lam) and shift = 1 + lam^2.  A
    truncation owns its last two rows, so its callers pass n = dim - 2.

    The bands may carry leading axes, and scale and shift broadcast against
    them; rows run along the last axis, which each residual reduces.  H and
    the squares take their bands from ``_anticommutator`` and
    ``_product_band``, so every residual equals that of ``banded_product``
    and ``add`` bit for bit.  The keys come in the order the
    matrix-identities suite reads them.
    """
    H = _anticommutator(L, M)
    L2, M2, J2, K2 = ([_product_band(X, X, k) for k in range(3)] for X in (L, M, J, K))
    eye = [1.0, 0.0, 0.0]
    return {
        "L_squared_is_identity": _residual(L2, eye, n),
        "M_squared_is_identity": _residual(M2, eye, n),
        "J_equals_L_plus_M": _residual(J, [L[0] + M[0], L[1] + M[1]], n),
        "K_equals_L_plus_lam_M": _residual(K, [L[0] + scale * M[0], L[1] + scale * M[1]], n),
        "H_equals_J_squared_minus_2": _residual(H, [J2[0] - 2.0, J2[1], J2[2]], n),
        "K_squared_identity": _residual(K2, [shift + scale * H[0], *(scale * h for h in H[1:])], n),
    }


def _identity_residual_batch(sequences, lams, trunc: TruncationSpec) -> dict:
    """``verify_identities`` for each of a list of sequences at every lam:
    identity name -> (sequence, lam) array of residuals, whose lam axis has
    length 1 for the four identities without lam.

    Every lam is checked before any arithmetic.  Each sequence makes one
    coefficient table for all its builders; L, M and J are built once per
    sequence and K once per (sequence, lam).  Their bands are stacked into
    (sequence, lam, row) arrays, L, M and J with a lam axis of length 1, and
    ``_identity_residuals`` forms H, every square and the six residuals once
    for all of them, with the same elementwise operations as for one
    sequence and one lam, and so the same bits.
    """
    for lam in lams:
        _require_identity_lam(lam)
    dim = trunc.dim
    tables = [_table(a, dim) for a in sequences]
    built = [[build(t, trunc) for t in tables] for build in (build_L, build_M, build_J)]
    built.append([build_K(t, lam, trunc) for t in tables for lam in lams])
    # one concatenate and a reshape per band; np.stack is slower here
    L, M, J, K = (tuple(np.concatenate([X.bands[k] for X in Xs]).reshape(len(tables), -1, dim - k) for k in (0, 1)) for Xs in built)
    # lam * array takes float(lam); 1 + lam^2 squares lam as given (a Fraction exactly)
    scale = np.array([float(lam) for lam in lams])[:, None]
    shift = np.array([1.0 + lam * lam for lam in lams])[:, None]
    return _identity_residuals(L, M, J, K, scale, shift, dim - 2)


def verify_identities(a: ReflectionSequence, lam: float, trunc: TruncationSpec) -> dict:
    """Residuals of the defining algebraic identities on interior rows.

    Checks, each over rows 0 .. dim-3 of the truncation:
    L^2 = I, M^2 = I, J = L + M, K = L + lam*M, H = J^2 - 2I, and
    K^2 = (1 + lam^2) I + lam * H.

    Complexity: O(dim) time and memory; nothing dense is formed.  The
    residuals equal those of ``banded_product`` and ``add`` bit for bit (a
    dense J @ J may round differently, by a few 1e-16), and those the
    matrix-identities suite finds for the same sequence and lam: both feed
    the same bands-level routine, this call with one matrix each.
    A lam that is not finite, or with |lam| above about 3.35e153 (where
    lam^2 or K^2 would overflow), raises InvalidParameterError.

    Returns
    -------
    dict
        Identity name -> max abs residual.
    """
    _require_identity_lam(lam)
    table = _table(a, trunc.dim)  # one coefficient table for all four builders
    L, M, J = (build(table, trunc).bands for build in (build_L, build_M, build_J))
    K = build_K(table, lam, trunc).bands
    residuals = _identity_residuals(L, M, J, K, float(lam), 1.0 + lam * lam, trunc.dim - 2)
    return {key: float(value) for key, value in residuals.items()}


def _finite_bands(bands) -> list:
    """The bands as float arrays if every entry is finite; InvalidParameterError otherwise.

    The one finiteness check of the eigen layer: a nan pivot counts nowhere,
    so a nan matrix would hold no eigenvalue, and LAPACK gets finite bands.
    """
    bands = [np.asarray(band, dtype=float) for band in bands]
    if not all(np.isfinite(band).all() for band in bands):
        raise InvalidParameterError("need a matrix with finite entries")
    return bands


def _tridiagonal(m: BandedSymmetricMatrix) -> tuple:
    """(diag, off, s): the bands of a bandwidth-1 matrix with finite entries,
    as float arrays times s, and the power of two s that brings its largest
    entry x into [2^-484, 2^255); InvalidParameterError otherwise.

    The one gate of the eigen layer: ``tridiagonal_eigenvalues``,
    ``eigenvalue_counts`` and ``band_census`` each read their matrix through
    it once.  The range is LAPACK ``?stevx``'s scaling rule: it lies inside
    its safe range sqrt(tiny / eps) = 1.4e-146 to tiny^(-1/4) = 8.2e76, where
    the squared off-diagonal entries and the Sturm pivots do not overflow,
    and underflow only below rounding of x.  For x in the range, or x = 0, s
    is 1 and the bands are returned as given.  A power of two scales exactly,
    so the eigenvalues scale by s and a shift t becomes t * s; after scaling
    every eigenvalue is at most 3 * 2^255, so the solvers see finite values.
    """
    if m.bandwidth != 1:
        raise InvalidParameterError(
            f"expected a tridiagonal matrix (bandwidth 1), got bandwidth {m.bandwidth}; "
            "BandedSymmetricMatrix.eigenvalues() takes any bandwidth"
        )
    diag, off = _finite_bands(m.bands)
    # 2^(e-1) <= x < 2^e, and e = 0 at x = 0
    e = math.frexp(max(float(np.abs(diag).max()), float(np.abs(off).max(initial=0.0))))[1]
    s = 2.0 ** (min(max(e, -483), 255) - e)
    return (diag, off, s) if s == 1.0 else (diag * s, off * s, s)


def _unscaled(w, s: float) -> np.ndarray:
    """Eigenvalues w of a matrix scaled by ``_tridiagonal``'s s, divided by s;
    InvalidParameterError where one is too large for a float.

    The one refusal of the eigen layer beyond bad input.  max float * s is
    exact for s <= 1 (and inf for s > 1, where nothing can overflow), and
    comparing before dividing raises no numpy overflow warning.
    """
    top = float(np.abs(w).max(initial=0.0))
    if top > sys.float_info.max * s:
        raise InvalidParameterError(
            f"an eigenvalue is too large for a float: about 10^{math.log10(top) - math.log10(s):.2f}"
        )
    return w / s


def tridiagonal_eigenvalues(m: BandedSymmetricMatrix) -> np.ndarray:
    """All eigenvalues of a tridiagonal symmetric truncation, ascending.

    Uses the dedicated symmetric tridiagonal solver on the bands at
    ``_tridiagonal``'s power of two, so it holds at every scale; accuracy is
    at the 1e-12 * norm level required of spectral reports.

    Raises
    ------
    InvalidParameterError
        If m is not tridiagonal or has an entry that is not finite, or if an
        eigenvalue is too large for a float.
    """
    from scipy.linalg import eigh_tridiagonal

    diag, off, s = _tridiagonal(m)
    return _unscaled(eigh_tridiagonal(diag, off, eigvals_only=True, check_finite=False), s)


def _dstebz(diag, off, s: float, select: str, lo, hi, tol: float) -> tuple:
    """(m, w): LAPACK ``?stebz`` on the symmetric tridiagonal (diag, off),
    for the window (lo, hi] scaled by s (``select="v"``) or the 0-based
    indices lo .. hi (``"i"``), at absolute tolerance tol; w[:m] are the
    eigenvalues found, at scale s, ascending.

    The arguments are those ``eigh_tridiagonal`` passes (range 1 with
    (vl, vu), or range 2 with 1-based il and iu; order ``'E'``), with the
    same check of ``info``, and without scipy's argument checks.  A window
    with vl >= vu at scale s (both ends overflowed to the same +-inf, say)
    is empty and makes no call, as ?stebz refuses it.  Precondition:
    (diag, off, s) as ``_tridiagonal`` returns it.
    """
    from scipy.linalg.lapack import dstebz

    if select == "v":
        # Python floats overflow to +-inf without a numpy warning
        vl, vu = float(lo) * s, float(hi) * s
        if not vl < vu:
            return 0, np.empty(0)
        args = (1, vl, vu, 1, 1)
    else:
        args = (2, 0.0, 1.0, lo + 1, hi + 1)
    if len(diag) == 1:
        off = np.zeros(1)  # the wrapper wants one entry; LAPACK reads none at n = 1
    m, w, _, _, info = dstebz(diag, off, *args, tol, "E")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal stebz (eigh_tridiagonal)")
    if info > 0:
        raise np.linalg.LinAlgError(f"stebz (eigh_tridiagonal) did not converge (LAPACK info={info})")
    return m, w


def _stebz(diag, off, s: float, select: str, lo, hi) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal (diag, off) / s, ascending:
    those in (lo, hi] for ``select="v"`` (either end may be infinite, and
    the window may be empty), those of 0-based indices lo .. hi for ``"i"``.

    ``_dstebz`` at tol 0.0, as ``eigh_tridiagonal`` calls ?stebz, so at
    s = 1 the values are the same bit for bit, at about a fifth less of a
    call at dim 200 (20 of 110 us).  (lo, hi] is scaled by s, as ``?stevx``
    does before it calls ``?stebz``, and the values are scaled back by
    ``_unscaled``.  Precondition: (diag, off, s) as ``_tridiagonal`` returns
    it.
    """
    m, w = _dstebz(diag, off, s, select, lo, hi, 0.0)
    return _unscaled(w[:m], s)


def _stebz_count(diag, off, s: float, lo, hi) -> int:
    """How many eigenvalues of (diag, off) / s lie in (lo, hi]: ``_stebz``'s
    count, without locating them.

    At tol = max float every bisection interval counts as converged after
    its first step, so the call makes a Sturm count at each end and one
    bisection step, in Fortran; m is the difference of the two end counts.
    """
    return _dstebz(diag, off, s, "v", lo, hi, sys.float_info.max)[0]


def _sturm_counts(diag, off, s: float, shifts) -> np.ndarray:
    """``eigenvalue_counts`` on (diag, off, s) as ``_tridiagonal`` returns it."""
    try:
        shifts = np.asarray(shifts, dtype=float).ravel()
    except (OverflowError, TypeError, ValueError):  # beyond the float range, or not a number
        raise InvalidParameterError("eigenvalue counts need shifts that are floats or within the float range") from None
    if np.isnan(shifts).any():
        raise InvalidParameterError("eigenvalue counts need shifts that are not nan")
    off2 = off**2
    pivmin = np.finfo(float).tiny * max(1.0, float(off2.max(initial=0.0)))
    # a zero in front of the squared off-diagonal makes the first step d_0
    steps = list(zip(diag.tolist(), [0.0, *off2.tolist()]))
    counts = []
    # Python floats overflow to +-inf without a numpy warning, and a shift
    # beyond the float range at scale s counts 0 or dim as +-inf does
    for t in (t * s for t in shifts.tolist()):
        count, d = 0, 1.0
        for a_ii, b2 in steps:
            d = (a_ii - t) - b2 / d
            # every pivot below pivmin counts: a negative one, or one that is
            # replaced by -pivmin
            if d < pivmin:
                count += 1
                if d > -pivmin:
                    d = -pivmin
        counts.append(count)
    return np.array(counts, dtype=int)


def eigenvalue_counts(m: BandedSymmetricMatrix, shifts) -> np.ndarray:
    """Number of eigenvalues of a tridiagonal matrix below each shift.

    Sylvester's law of inertia: the count below t is the number of negative
    pivots d_i of the LDL^T factorization of m - t*I, with
    d_0 = m_00 - t and d_i = (m_ii - t) - m_{i-1,i}^2 / d_{i-1}
    (Barth, Martin and Wilkinson 1967; the count LAPACK's bisection uses).
    A pivot with |d_i| < pivmin is replaced by -pivmin, as LAPACK does, so
    an eigenvalue within rounding (about 1e-15 times the largest entry) of
    t may count on either side.  The matrix and the shifts are first scaled
    by ``_tridiagonal``'s power of two, so the counts hold at every scale,
    from subnormal entries to the largest float.  A shift of -inf counts 0
    and +inf counts dim.

    Complexity: O(dim) time per shift and O(dim) memory.

    Returns
    -------
    numpy.ndarray
        Integer counts, one per shift, in the order given.

    Raises
    ------
    InvalidParameterError
        If m is not tridiagonal or has an entry that is not finite (a nan
        diagonal counted 0 below zero, an inf one 1), or if a shift is nan,
        not a number, or an int or ``Fraction`` beyond the float range (a float shift
        of +-inf counts as above).  A count needs no eigenvalue, so none is
        refused for its size.
    """
    return _sturm_counts(*_tridiagonal(m), shifts)


def band_census(m: BandedSymmetricMatrix, bands, inflate: float) -> tuple:
    """Eigenvalues of a tridiagonal matrix outside the inflated bands, and near zero.

    The real line outside the bands, each widened by ``inflate`` on both
    sides, splits into half-open windows (lo, hi]: below the first band,
    between consecutive bands and above the last one, the outer two ending
    at -inf and inf.  One ``_stebz`` call (LAPACK ``?stebz``, Kahan's
    bisection on the Sturm count) per window counts and locates its
    eigenvalues, so the count outside is the number of values found; a
    window that is empty at the matrix's scale makes no call.  One
    count-only call, ``_stebz_count``, counts the eigenvalues in
    (-inflate, inflate].  All read the bands that one ``_tridiagonal`` call
    returns, at its power of two, so the census holds at every scale; an
    eigenvalue within rounding (about 1e-15 times the largest entry) of a
    window edge may count on either side.  This call is that gate plus
    ``_census``, which takes the gate's output, so a caller that needs more
    of a matrix than its census gates it once.  Band edges and ``inflate``
    are widened as Python floats, so an edge that leaves the float range
    becomes +-inf, numpy scalars included, without a warning.

    Complexity: O(dim) per window, plus O(dim) per eigenvalue found outside
    the bands.  No full eigensolve and no O(dim^2) object.

    Parameters
    ----------
    m : BandedSymmetricMatrix
        A tridiagonal matrix with finite entries (InvalidParameterError
        otherwise), read once through ``_tridiagonal``; InvalidParameterError
        too where an eigenvalue outside the bands is too large for a float.
    bands : sequence of (lo, hi)
        The predicted bands, finite, ascending and not overlapping
        (InvalidParameterError otherwise).
    inflate : float
        How far each band is widened on both sides, and the half width of
        the window around zero; InvalidParameterError unless >= 0 and
        finite, or the float inf.

    Returns
    -------
    (n_outside, outside_values, n_near_zero)
        The number of eigenvalues outside the inflated bands, their values
        (ascending), and the number in (-inflate, inflate].
    """
    return _census(*_tridiagonal(m), bands, inflate)


def _census(diag, off, s: float, bands, inflate: float) -> tuple:
    """``band_census`` on (diag, off, s) as ``_tridiagonal`` returns it."""
    # a negative width would count a window "around zero" as -1 eigenvalues;
    # a float may be inf, while an exact number beyond the float range would
    # overflow in float()
    hi = sys.float_info.max if isinstance(inflate, numbers.Rational) else math.inf
    _require_real(inflate, "inflate >= 0, finite as a float or inf", 0, hi)
    what = "finite, ascending, disjoint bands"
    try:
        edges = [edge for p, q in bands for edge in (p, q)]
    except (TypeError, ValueError):  # not a sequence of (lo, hi) pairs
        raise InvalidParameterError(f"need {what}, got {_shown(bands)}") from None
    for lo, edge in zip([-sys.float_info.max, *edges], edges):  # each edge at least the one before
        _require_real(edge, what, lo)
    # widened as Python floats, which overflow to +-inf without a numpy warning
    inflate = float(inflate)
    starts = [-math.inf, *(float(q) + inflate for q in edges[1::2])]
    ends = [*(float(p) - inflate for p in edges[0::2]), math.inf]
    # one ?stebz call per window counts and locates what it holds; a window
    # that is empty at scale s makes no call
    outside = [v for lo, hi in zip(starts, ends) for v in _stebz(diag, off, s, "v", lo, hi).tolist()]
    return len(outside), outside, _stebz_count(diag, off, s, -inflate, inflate)
