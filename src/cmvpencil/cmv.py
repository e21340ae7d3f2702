"""Banded truncations of the reflection operator pair and the linear pencil.

The two involutions L and M are direct sums of 2x2 reflection blocks built
from the coefficients a_n.  Their sum J = L + M is tridiagonal, the product
U = L M is five-diagonal (and not symmetric), the anticommutator
H = L M + M L is five-diagonal symmetric, and the pencil K(lam) = L + lam*M
is tridiagonal for every lam.  Finite truncations keep 2*n_blocks rows; the
block chopped in half at the boundary pollutes only the last two rows, so the
algebraic identities are verified on rows 0 .. dim-3.

Everything here is O(dim): the builders read the coefficients as arrays
(``ReflectionSequence.take``), the identity residuals are computed in
banded storage, and ``eigenvalue_counts`` answers "how many eigenvalues lie
below t" by Sturm (LDL^T inertia) counts.  Only ``tridiagonal_eigenvalues``
(all eigenvalues, about O(dim^2) in LAPACK) and the ``to_dense`` test
oracles cost more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded, eigh_tridiagonal

from .errors import InvalidParameterError, TruncationError
from .recurrences import ReflectionSequence

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
]


@dataclass(frozen=True)
class TruncationSpec:
    """Size of a finite truncation, counted in 2x2 blocks."""

    n_blocks: int

    def __post_init__(self):
        if self.n_blocks < 2:
            raise TruncationError(
                f"need at least 2 blocks for a meaningful truncation, got {self.n_blocks}"
            )

    @property
    def dim(self) -> int:
        return 2 * self.n_blocks


@dataclass(frozen=True)
class BandedSymmetricMatrix:
    """Real symmetric banded matrix stored by diagonals.

    Parameters
    ----------
    dim : int
        Matrix dimension.
    bandwidth : int
        Number of nonzero superdiagonals.
    bands : tuple of numpy.ndarray
        bands[k] holds the k-th superdiagonal (length dim - k), k = 0 being
        the main diagonal.  Subdiagonals are implied by symmetry.
    """

    dim: int
    bandwidth: int
    bands: tuple

    def __post_init__(self):
        if len(self.bands) != self.bandwidth + 1:
            raise InvalidParameterError("bands must have bandwidth + 1 diagonals")
        for k, band in enumerate(self.bands):
            if len(band) != self.dim - k:
                raise InvalidParameterError(
                    f"diagonal {k} has length {len(band)}, expected {self.dim - k}"
                )

    def band(self, k: int) -> np.ndarray:
        """The k-th superdiagonal (k >= 0)."""
        return self.bands[k]

    def entry(self, i: int, j: int) -> float:
        k = abs(i - j)
        if k > self.bandwidth:
            return 0.0
        return float(self.bands[k][min(i, j)])

    def to_dense(self) -> np.ndarray:
        """Dense copy, intended for small test oracles."""
        out = np.zeros((self.dim, self.dim))
        for k in range(self.bandwidth + 1):
            idx = np.arange(self.dim - k)
            out[idx, idx + k] = self.bands[k]
            out[idx + k, idx] = self.bands[k]
        return out

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending, via the banded symmetric solver."""
        a_band = np.zeros((self.bandwidth + 1, self.dim))
        for k in range(self.bandwidth + 1):
            # upper storage: row (bandwidth - k) carries superdiagonal k,
            # right-aligned as scipy expects
            a_band[self.bandwidth - k, k:] = self.bands[k]
        return eig_banded(a_band, lower=False, eigvals_only=True)


class BandedMatrix:
    """General (possibly nonsymmetric) banded matrix stored by offsets.

    data[offset] holds the diagonal j - i = offset, length dim - |offset|.
    Only used for products such as U = L M, which is five-diagonal but not
    symmetric.
    """

    def __init__(self, dim: int, data: dict):
        self.dim = dim
        self.data = {k: np.asarray(v, dtype=float) for k, v in data.items() if len(v)}
        for k, v in self.data.items():
            if len(v) != dim - abs(k):
                raise InvalidParameterError(
                    f"offset {k} has length {len(v)}, expected {dim - abs(k)}"
                )

    @staticmethod
    def from_symmetric(m: BandedSymmetricMatrix) -> "BandedMatrix":
        data = {}
        for k in range(m.bandwidth + 1):
            data[k] = np.array(m.bands[k], dtype=float)
            if k > 0:
                data[-k] = np.array(m.bands[k], dtype=float)
        return BandedMatrix(m.dim, data)

    def offset(self, k: int) -> np.ndarray:
        return self.data.get(k, np.zeros(self.dim - abs(k)))

    def entry(self, i: int, j: int) -> float:
        k = j - i
        if k not in self.data:
            return 0.0
        return float(self.data[k][min(i, j)])

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


def _complement(values) -> np.ndarray:
    """r_n = sqrt(1 - a_n^2) elementwise, rounded exactly as ReflectionSequence.r.

    The squares go through Python's float power, as in ``r``: libm ``pow``
    and numpy's ``x * x`` can differ in the last bit, and the bands must
    stay bit-identical to the per-index construction.
    """
    squares = [v**2 for v in np.asarray(values, dtype=float).tolist()]
    return np.sqrt(1.0 - np.array(squares, dtype=float))


def _shifted(values) -> np.ndarray:
    """a_{n-1} aligned with a_n: the values with a_{-1} = -1 in front, last dropped."""
    return np.concatenate(([-1], values[:-1]))


def build_L(a: ReflectionSequence, trunc: TruncationSpec) -> BandedSymmetricMatrix:
    """Truncation of the even involution: blocks with a_0, a_2, a_4, ...

    Each block is [[a, r], [r, -a]]; the blocks start at row 0.
    """
    dim = trunc.dim
    even = a.take(dim - 1)[0::2]
    diag = np.empty(dim)
    diag[0::2] = even
    diag[1::2] = -even
    off = np.zeros(dim - 1)
    off[0::2] = _complement(even)
    return BandedSymmetricMatrix(dim=dim, bandwidth=1, bands=(diag, off))


def build_M(a: ReflectionSequence, trunc: TruncationSpec) -> BandedSymmetricMatrix:
    """Truncation of the odd involution: leading 1, then blocks with a_1, a_3, ...

    The last block is cut in half by the truncation, leaving the corner entry
    a_{dim-1}; this is what confines identity violations to the last two rows.
    """
    dim = trunc.dim
    odd = a.take(dim)[1::2]
    diag = np.empty(dim)
    diag[0] = 1.0
    diag[1::2] = odd
    diag[2::2] = -odd[:-1]
    off = np.zeros(dim - 1)
    off[1::2] = _complement(odd[:-1])
    return BandedSymmetricMatrix(dim=dim, bandwidth=1, bands=(diag, off))


def build_J(a: ReflectionSequence, trunc: TruncationSpec) -> BandedSymmetricMatrix:
    """Tridiagonal truncation of L + M built directly from the coefficients.

    Diagonal a_n - a_{n-1} (so the top entry is a_0 + 1), off-diagonal r_n.
    """
    values = a.take(trunc.dim)
    diag = np.asarray(values - _shifted(values), dtype=float)
    off = _complement(values[:-1])
    return BandedSymmetricMatrix(dim=trunc.dim, bandwidth=1, bands=(diag, off))


def build_K(a: ReflectionSequence, lam: float, trunc: TruncationSpec) -> BandedSymmetricMatrix:
    """Tridiagonal truncation of the pencil L + lam*M.

    Diagonal alternates a_n - lam*a_{n-1} (even n, with a_{-1} = -1) and
    -a_{n-1} + lam*a_n (odd n); off-diagonal alternates r_{2k} and lam*r_{2k+1}.
    """
    dim = trunc.dim
    values = a.take(dim)
    prev = _shifted(values)
    diag = np.empty(dim)
    diag[0::2] = values[0::2] - lam * prev[0::2]
    diag[1::2] = lam * values[1::2] - prev[1::2]
    off = _complement(values[:-1])
    off[1::2] = lam * off[1::2]
    return BandedSymmetricMatrix(dim=dim, bandwidth=1, bands=(diag, off))


def build_H(a: ReflectionSequence, trunc: TruncationSpec) -> BandedSymmetricMatrix:
    """Five-diagonal symmetric truncation of the anticommutator L M + M L."""
    L = BandedMatrix.from_symmetric(build_L(a, trunc))
    M = BandedMatrix.from_symmetric(build_M(a, trunc))
    LM = banded_product(L, M)
    H = LM.add(LM.transpose())
    dim = trunc.dim
    bands = tuple(np.asarray(H.offset(k), dtype=float) for k in range(3))
    return BandedSymmetricMatrix(dim=dim, bandwidth=2, bands=bands)


def _times(m: BandedMatrix, c) -> BandedMatrix:
    return BandedMatrix(m.dim, {k: c * v for k, v in m.data.items()})


def _identity_times(dim: int, c) -> BandedMatrix:
    return BandedMatrix(dim, {0: np.full(dim, c, dtype=float)})


def _interior_max_diff(lhs: BandedMatrix, rhs: BandedMatrix) -> float:
    """Max abs entry of lhs - rhs over rows 0 .. dim-3 (truncation owns the last two).

    Offset k stores row i at index i for k >= 0 and at index i + k for
    k < 0, so rows 0 .. dim-3 are its first dim - 2 - max(-k, 0) entries.
    """
    dim = lhs.dim
    worst = [
        np.max(np.abs(lhs.offset(k) - rhs.offset(k))[: max(dim - 2 - max(-k, 0), 0)], initial=0.0)
        for k in set(lhs.data) | set(rhs.data)
    ]
    return float(np.max(worst, initial=0.0))


def verify_identities(a: ReflectionSequence, lam: float, trunc: TruncationSpec) -> dict:
    """Residuals of the defining algebraic identities on interior rows.

    Checks, each over rows 0 .. dim-3 of the truncation:
    L^2 = I, M^2 = I, J = L + M, K = L + lam*M, H = J^2 - 2I, and
    K^2 = (1 + lam^2) I + lam * H.

    Complexity: O(dim) time and memory.  Every matrix, product and
    residual stays in offset storage (``banded_product`` and ``add``);
    nothing dense is formed.  The residuals equal those of a dense
    evaluation of the same banded products bit for bit, except that a dense
    J @ J may round its sums differently (by a few 1e-16).

    Returns
    -------
    dict
        Identity name -> max abs residual.
    """
    dim = trunc.dim
    L = BandedMatrix.from_symmetric(build_L(a, trunc))
    M = BandedMatrix.from_symmetric(build_M(a, trunc))
    J = BandedMatrix.from_symmetric(build_J(a, trunc))
    K = BandedMatrix.from_symmetric(build_K(a, lam, trunc))
    H = BandedMatrix.from_symmetric(build_H(a, trunc))
    eye = _identity_times(dim, 1.0)

    return {
        "L_squared_is_identity": _interior_max_diff(banded_product(L, L), eye),
        "M_squared_is_identity": _interior_max_diff(banded_product(M, M), eye),
        "J_equals_L_plus_M": _interior_max_diff(J, L.add(M)),
        "K_equals_L_plus_lam_M": _interior_max_diff(K, L.add(_times(M, lam))),
        "H_equals_J_squared_minus_2": _interior_max_diff(
            H, banded_product(J, J).add(_identity_times(dim, -2.0))
        ),
        "K_squared_identity": _interior_max_diff(
            banded_product(K, K), _identity_times(dim, 1.0 + lam * lam).add(_times(H, lam))
        ),
    }


def tridiagonal_eigenvalues(m: BandedSymmetricMatrix) -> np.ndarray:
    """All eigenvalues of a tridiagonal symmetric truncation, ascending.

    Uses the dedicated symmetric tridiagonal solver; accuracy is at the
    1e-12 * norm level required of spectral reports.
    """
    if m.bandwidth != 1:
        raise InvalidParameterError(
            f"expected bandwidth 1, got {m.bandwidth}; use .eigenvalues() instead"
        )
    return eigh_tridiagonal(
        np.asarray(m.bands[0], dtype=float),
        np.asarray(m.bands[1], dtype=float),
        eigvals_only=True,
    )


def eigenvalue_counts(m: BandedSymmetricMatrix, shifts) -> np.ndarray:
    """Number of eigenvalues of a tridiagonal matrix below each shift.

    Sylvester's law of inertia: the count below t is the number of negative
    pivots d_i of the LDL^T factorization of m - t*I, with
    d_0 = m_00 - t and d_i = (m_ii - t) - m_{i-1,i}^2 / d_{i-1}
    (Barth, Martin and Wilkinson 1967; the count LAPACK's bisection uses).
    A pivot with |d_i| < pivmin is replaced by -pivmin, as LAPACK does, so
    an eigenvalue within rounding of t may count on either side.

    Complexity: O(dim) time per shift and O(dim) memory.

    Returns
    -------
    numpy.ndarray
        Integer counts, one per shift, in the order given.
    """
    if m.bandwidth != 1:
        raise InvalidParameterError(f"expected bandwidth 1, got {m.bandwidth}")
    diag = np.asarray(m.bands[0], dtype=float)
    off2 = np.asarray(m.bands[1], dtype=float) ** 2
    pivmin = np.finfo(float).tiny * max(1.0, float(off2.max(initial=0.0)))
    # a zero in front of the squared off-diagonal makes the first step d_0
    steps = list(zip(diag.tolist(), [0.0, *off2.tolist()]))
    counts = []
    for t in np.asarray(shifts, dtype=float).ravel().tolist():
        count, d = 0, 1.0
        for a_ii, b2 in steps:
            d = (a_ii - t) - b2 / d
            if -pivmin < d < pivmin:
                d = -pivmin
            if d < 0:
                count += 1
        counts.append(count)
    return np.array(counts, dtype=int)
