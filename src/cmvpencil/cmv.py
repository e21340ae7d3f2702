"""Banded truncations of the reflection operator pair and the linear pencil.

The two involutions L and M are direct sums of 2x2 reflection blocks built
from the coefficients a_n.  Their sum J = L + M is tridiagonal, the product
U = L M is five-diagonal (and not symmetric), the anticommutator
H = L M + M L is five-diagonal symmetric, and the pencil K(lam) = L + lam*M
is tridiagonal for every lam.  Finite truncations keep 2*n_blocks rows; the
block chopped in half at the boundary pollutes only the last two rows, so the
algebraic identities are verified on rows 0 .. dim-3.

``TruncationSpec.from_dim`` is the one check that a requested dimension is
even and at least 4, and ``build_J`` is ``build_K`` at the int lam = 1.  A
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
last axis, so the identity residuals stack L, M and J of every sequence,
and K of every sequence and lam, into (sequence, lam, row) arrays and form
H, the squares and the six residuals once for all sequences and lams (the
matrix-identities suite makes one such call).  ``verify_identities`` is its
one-sequence, one-lam case, with the same bits; a stack of one matrix is a
view of its bands, so that call copies no band.

``_tridiagonal`` is the one input check of the eigen layer: a matrix of
bandwidth 1 with finite entries, or InvalidParameterError.
``tridiagonal_eigenvalues``, ``eigenvalue_counts`` and ``band_census`` read
their matrix through it.  ``eigenvalue_counts`` answers "how many
eigenvalues lie below t" by Sturm (LDL^T inertia) counts, and
``band_census`` uses one such call to count (and bisection to locate) the
eigenvalues outside predicted bands.  The census closes its outer windows at
-inf and inf, below which 0 and dim eigenvalues lie, so it counts only the
finite edges between them.  Bisection is ``_stebz``, LAPACK ``?stebz``
called with exactly the arguments ``eigh_tridiagonal`` passes, bit for bit
the same and without scipy's argument checks.  Only
``tridiagonal_eigenvalues`` (all eigenvalues, about O(dim^2) in LAPACK) and
the ``to_dense`` test oracles cost more.  ``scipy.linalg`` is imported by
the calls that solve, on first use: ``tridiagonal_eigenvalues``,
``BandedSymmetricMatrix.eigenvalues`` and ``_stebz``.

Sturm counts and bisection share one scaling rule, LAPACK ``?stevx``'s
(``_scaled``): where the largest entry lies outside [2^-484, 2^255), about
2.0e-146 to 5.8e76, inside ?stevx's safe range, the bands (and with them
every shift and window edge) are multiplied by the power of two that brings
it in, which is exact; inside the range nothing is scaled.  So the squared
off-diagonal entries and the pivots overflow nowhere, and underflow only
below rounding of the largest entry, at any scale from the smallest
subnormal to the largest float.  What remains is rounding: on random
tridiagonals at scales 1e-300 to 1e300, no count was wrong with the shift
1e-14 times the largest entry or more from an eigenvalue, and 16 of 600
were at 1e-15.  The one refusal is InvalidParameterError where max|d| +
2 max|e|, the Gershgorin reach that bounds every eigenvalue, is not finite.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, TruncationError
from .recurrences import _SQUARE_MAX, ReflectionSequence, _table

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
    """Size of a finite truncation, counted in 2x2 blocks: an integer n_blocks >= 2
    (numpy integers too); anything else raises TruncationError."""

    n_blocks: int

    def __post_init__(self):
        # numpy integers are Integral; bool, floats, Fractions and strings are refused
        if isinstance(self.n_blocks, bool) or not isinstance(self.n_blocks, numbers.Integral):
            raise TruncationError(f"n_blocks must be an integer, got {self.n_blocks!r}")
        if self.n_blocks < 2:
            raise TruncationError(
                f"need at least 2 blocks for a meaningful truncation, got {self.n_blocks}"
            )

    @property
    def dim(self) -> int:
        return 2 * self.n_blocks

    @classmethod
    def from_dim(cls, dim: int) -> "TruncationSpec":
        """The truncation with ``dim`` rows; TruncationError unless dim is an even integer >= 4."""
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 4 or dim % 2:
            raise TruncationError(f"need even dim >= 4, got {dim!r}")
        return cls(n_blocks=dim // 2)


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
    A lam that is not a finite float (nan, +-inf, or an int or Fraction too
    large for a float) raises InvalidParameterError; lam <= 0 is allowed.
    """
    # compared exactly, so a huge int or Fraction fails here and not in float()
    if not abs(lam) <= sys.float_info.max:
        raise InvalidParameterError(f"need a finite lam, got {lam}")
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


def _tri_product(A: tuple, B: tuple) -> tuple:
    """Upper offsets 0..2 of A B for symmetric tridiagonals A and B given as (diag, off)."""
    return tuple(_product_band(A, B, k) for k in range(3))


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


def _identity_residual_batch(sequences, lams, trunc: TruncationSpec) -> list:
    """``verify_identities`` for each of a list of sequences at every lam, one
    list of per-lam dicts per sequence.

    Every lam is checked before any arithmetic.  Each sequence makes one
    coefficient table for all its builders; L, M and J are built once per
    sequence and K once per (sequence, lam).  Their bands are stacked into
    (sequence, lam, row) arrays, L, M and J with a lam axis of length 1, so
    H, every square and the six residuals are each formed once for all of
    them, with the same elementwise operations as for one sequence and one
    lam, and so the same bits.
    """
    for lam in lams:
        # compared exactly, so a huge int or Fraction fails here and not in float()
        if not abs(lam) <= _IDENTITY_LAM_MAX:
            raise InvalidParameterError(
                f"need a finite lam with |lam| <= {_IDENTITY_LAM_MAX:.3g}, "
                f"so that lam^2 and K^2 stay finite, got {lam}"
            )
    dim = trunc.dim
    tables = [_table(a, dim) for a in sequences]
    L, M, J = (_stacked([build(t, trunc).bands for t in tables], 1) for build in (build_L, build_M, build_J))
    K = _stacked([build_K(t, lam, trunc).bands for t in tables for lam in lams], len(lams))
    H = _anticommutator(L, M)
    L2, M2, J2, K2 = (_tri_product(X, X) for X in (L, M, J, K))
    n, eye = dim - 2, [1.0, 0.0, 0.0]  # the truncation owns the last two rows
    # lam * array takes float(lam); 1 + lam^2 squares lam as given (a Fraction exactly)
    scale, shift = [float(lam) for lam in lams], [1.0 + lam * lam for lam in lams]
    # one lam scales as a number, as cheap as the unbatched call; more
    # broadcast along the lam axis
    scale, shift = (scale[0], shift[0]) if len(lams) == 1 else (np.array(scale)[:, None], np.array(shift)[:, None])
    L_squared = _residual(L2, eye, n).tolist()
    M_squared = _residual(M2, eye, n).tolist()
    J_sum = _residual(J, [L[0] + M[0], L[1] + M[1]], n).tolist()
    H_from_J = _residual(H, [J2[0] - 2.0, J2[1], J2[2]], n).tolist()
    K_sum = _residual(K, [L[0] + scale * M[0], L[1] + scale * M[1]], n).tolist()
    K_squared = _residual(K2, [shift + scale * H[0], *(scale * h for h in H[1:])], n).tolist()
    return [
        [
            {
                "L_squared_is_identity": L_squared[s][0],
                "M_squared_is_identity": M_squared[s][0],
                "J_equals_L_plus_M": J_sum[s][0],
                "K_equals_L_plus_lam_M": K_sum[s][j],
                "H_equals_J_squared_minus_2": H_from_J[s][0],
                "K_squared_identity": K_squared[s][j],
            }
            for j in range(len(lams))
        ]
        for s in range(len(tables))
    ]


def _stacked(bands: list, per_sequence: int) -> tuple:
    """(diag, off) of tridiagonals listed sequence by sequence, ``per_sequence``
    each, stacked into arrays of shape (sequences, per_sequence, rows).  A
    single matrix is not copied: its bands are viewed with two leading axes
    of length 1."""
    if len(bands) == 1:
        diag, off = bands[0]
        return diag[None, None], off[None, None]
    return tuple(np.concatenate([X[k] for X in bands]).reshape(-1, per_sequence, len(bands[0][k])) for k in (0, 1))


def verify_identities(a: ReflectionSequence, lam: float, trunc: TruncationSpec) -> dict:
    """Residuals of the defining algebraic identities on interior rows.

    Checks, each over rows 0 .. dim-3 of the truncation:
    L^2 = I, M^2 = I, J = L + M, K = L + lam*M, H = J^2 - 2I, and
    K^2 = (1 + lam^2) I + lam * H.

    Complexity: O(dim) time and memory; nothing dense is formed.  The
    residuals equal those of ``banded_product`` and ``add`` bit for bit (a
    dense J @ J may round differently, by a few 1e-16).  This is the
    one-sequence, one-lam case of the routine the matrix-identities suite
    calls once for all its sequences and lams.
    A lam that is not finite, or with |lam| above about 3.35e153 (where
    lam^2 or K^2 would overflow), raises InvalidParameterError.

    Returns
    -------
    dict
        Identity name -> max abs residual.
    """
    return _identity_residual_batch((a,), (lam,), trunc)[0][0]


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
    """The diagonal and off-diagonal of a bandwidth-1 matrix with finite
    entries, as float arrays; InvalidParameterError otherwise.

    The one input check of ``tridiagonal_eigenvalues``, ``eigenvalue_counts``
    and ``band_census``.
    """
    if m.bandwidth != 1:
        raise InvalidParameterError(
            f"expected a tridiagonal matrix (bandwidth 1), got bandwidth {m.bandwidth}; "
            "BandedSymmetricMatrix.eigenvalues() takes any bandwidth"
        )
    return tuple(_finite_bands(m.bands))


def tridiagonal_eigenvalues(m: BandedSymmetricMatrix) -> np.ndarray:
    """All eigenvalues of a tridiagonal symmetric truncation, ascending.

    Uses the dedicated symmetric tridiagonal solver; accuracy is at the
    1e-12 * norm level required of spectral reports.

    Raises
    ------
    InvalidParameterError
        If m is not tridiagonal or has an entry that is not finite.
    """
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(*_tridiagonal(m), eigvals_only=True, check_finite=False)


def _scaled(diag, off) -> tuple:
    """(diag, off, s): the bands of a symmetric tridiagonal times s, the power
    of two that brings its largest entry x into [2^-484, 2^255), and s.

    The one scaling rule of the eigen layer, LAPACK ``?stevx``'s: that range
    lies inside its safe range sqrt(tiny / eps) = 1.4e-146 to tiny^(-1/4) =
    8.2e76, where the squared off-diagonal entries and the Sturm pivots do
    not overflow, and underflow only below rounding of x.  For x in the
    range, or x = 0, s is 1
    and the bands are returned as given.  A power of two scales exactly, so
    the eigenvalues scale by s and a shift t becomes t * s.  Raises
    InvalidParameterError where max|d| + 2 max|e|, the Gershgorin reach that
    bounds every eigenvalue, is not finite.  Precondition: finite float
    bands, as ``_tridiagonal`` returns them.
    """
    d_max, e_max = float(np.abs(diag).max()), float(np.abs(off).max(initial=0.0))
    # Python floats overflow to inf without a numpy warning
    if not d_max + 2.0 * e_max <= sys.float_info.max:
        raise InvalidParameterError(
            "need a tridiagonal whose Gershgorin reach max|diag| + 2 max|off| is finite, "
            f"got max|diag| = {d_max:.4g} and max|off| = {e_max:.4g}"
        )
    e = math.frexp(max(d_max, e_max))[1]  # 2^(e-1) <= x < 2^e, and e = 0 at x = 0
    s = 2.0 ** (min(max(e, -483), 255) - e)
    return (diag, off, s) if s == 1.0 else (diag * s, off * s, s)


def _stebz(diag, off, select: str, lo, hi) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal (diag, off), ascending: those in
    (lo, hi] for ``select="v"`` (either end may be infinite), those of
    0-based indices lo .. hi for ``"i"``.

    LAPACK ``?stebz`` with exactly the arguments ``eigh_tridiagonal`` passes
    it (range 1 with (vl, vu), or range 2 with 1-based il and iu; tol 0.0;
    order ``'E'``), and the same check of ``info``, so the values are the
    same bit for bit; without scipy's argument checks, about a fifth of a
    call at dim 200 (20 of 110 us).  The bands, and (lo, hi] with them, are
    read through ``_scaled``, as ``?stevx`` does before it calls ``?stebz``,
    and the values are scaled back.  Precondition: finite float64 bands of
    lengths n >= 1 and n - 1, as ``_tridiagonal`` returns them.
    """
    from scipy.linalg.lapack import dstebz

    diag, off, s = _scaled(diag, off)
    if len(diag) == 1:
        off = np.zeros(1)  # the wrapper wants one entry; LAPACK reads none at n = 1
    if select == "v":
        m, w, _, _, info = dstebz(diag, off, 1, lo * s, hi * s, 1, 1, 0.0, "E")
    else:
        m, w, _, _, info = dstebz(diag, off, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "E")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal stebz (eigh_tridiagonal)")
    if info > 0:
        raise np.linalg.LinAlgError(f"stebz (eigh_tridiagonal) did not converge (LAPACK info={info})")
    return w[:m] / s


def eigenvalue_counts(m: BandedSymmetricMatrix, shifts) -> np.ndarray:
    """Number of eigenvalues of a tridiagonal matrix below each shift.

    Sylvester's law of inertia: the count below t is the number of negative
    pivots d_i of the LDL^T factorization of m - t*I, with
    d_0 = m_00 - t and d_i = (m_ii - t) - m_{i-1,i}^2 / d_{i-1}
    (Barth, Martin and Wilkinson 1967; the count LAPACK's bisection uses).
    A pivot with |d_i| < pivmin is replaced by -pivmin, as LAPACK does, so
    an eigenvalue within rounding (about 1e-15 times the largest entry) of
    t may count on either side.  The matrix and the shifts are first scaled
    by ``_scaled``'s power of two, so the counts hold at every scale, from
    subnormal entries to the largest float.  A shift of -inf counts 0 and
    +inf counts dim.

    Complexity: O(dim) time per shift and O(dim) memory.

    Returns
    -------
    numpy.ndarray
        Integer counts, one per shift, in the order given.

    Raises
    ------
    InvalidParameterError
        If m is not tridiagonal or has an entry that is not finite (a nan
        diagonal counted 0 below zero, an inf one 1); if a shift is nan;
        or if max|d| + 2 max|e|, the Gershgorin reach that bounds every
        eigenvalue, is not finite.
    """
    diag, off = _tridiagonal(m)
    shifts = np.asarray(shifts, dtype=float).ravel()
    if np.isnan(shifts).any():
        raise InvalidParameterError("eigenvalue counts need shifts that are not nan")
    diag, off, s = _scaled(diag, off)
    off2 = off**2
    pivmin = np.finfo(float).tiny * max(1.0, float(off2.max(initial=0.0)))
    # a zero in front of the squared off-diagonal makes the first step d_0
    steps = list(zip(diag.tolist(), [0.0, *off2.tolist()]))
    counts = []
    for t in (shifts * s).tolist():
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


def band_census(m: BandedSymmetricMatrix, bands, inflate: float) -> tuple:
    """Eigenvalues of a tridiagonal matrix outside the inflated bands, and near zero.

    The real line outside the bands, each widened by ``inflate`` on both
    sides, splits into windows: below the first band, between consecutive
    bands and above the last one, the outer two ending at -inf and inf.  One
    ``eigenvalue_counts`` call counts the eigenvalues below every window
    edge between those two and at -inflate and inflate; below -inf lie 0
    and below inf dim, so no count is made there.  ``_stebz`` (LAPACK
    bisection) then locates the eigenvalues of the windows that hold any.
    Both read the matrix at ``_scaled``'s power of two, so the census holds
    at every scale; an eigenvalue within rounding (about 1e-15 times the
    largest entry) of a window edge may count on either side.

    Complexity: O(dim) per window edge, plus O(dim) per eigenvalue found
    outside the bands.  No full eigensolve and no O(dim^2) object.

    Parameters
    ----------
    m : BandedSymmetricMatrix
        A tridiagonal matrix with finite entries whose Gershgorin reach
        max|d| + 2 max|e| is finite (InvalidParameterError otherwise).
    bands : sequence of (lo, hi)
        The predicted bands, finite, ascending and not overlapping
        (InvalidParameterError otherwise).
    inflate : float
        How far each band is widened on both sides, and the half width of
        the window around zero; InvalidParameterError unless >= 0.

    Returns
    -------
    (n_outside, outside_values, n_near_zero)
        The number of eigenvalues outside the inflated bands, their values
        (ascending within each window), and the number in (-inflate, inflate).
    """
    diag, off = _tridiagonal(m)
    if not inflate >= 0:
        # a negative width would count a window "around zero" as -1 eigenvalues
        raise InvalidParameterError(f"need inflate >= 0, got {inflate}")
    edges = [edge for band in bands for edge in band]  # finite as floats, and sorted
    if not all(abs(e) <= sys.float_info.max for e in edges) or edges != sorted(edges):
        raise InvalidParameterError(f"need finite, ascending, disjoint bands, got {bands!r}")
    starts = [-math.inf, *(q + inflate for _, q in bands)]
    ends = [*(p - inflate for p, _ in bands), math.inf]
    # the two outer windows stay even when empty (a widened edge that
    # overflowed), so the edges run from -inf to inf
    windows = [(lo, hi) for lo, hi in zip(starts, ends) if lo < hi or lo == -math.inf or hi == math.inf]
    edges = [t for w in windows for t in w]
    *inner, below_minus, below_plus = eigenvalue_counts(m, [*edges[1:-1], -inflate, inflate]).tolist()
    below = [0, *inner, len(diag)]
    n_outside, outside = 0, []
    for (lo, hi), below_lo, below_hi in zip(windows, below[0::2], below[1::2]):
        if below_hi > below_lo:
            n_outside += below_hi - below_lo
            outside += _stebz(diag, off, "v", lo, hi).tolist()
    return n_outside, outside, below_plus - below_minus
