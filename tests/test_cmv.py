"""Banded pencil matrices: structure, products, and defining identities."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from cmvpencil.cmv import (
    BandedMatrix,
    BandedSymmetricMatrix,
    TruncationSpec,
    band_census,
    banded_product,
    build_H,
    build_J,
    build_K,
    build_L,
    build_M,
    eigenvalue_counts,
    tridiagonal_eigenvalues,
    verify_identities,
)
from cmvpencil.errors import InvalidParameterError, TruncationError
from cmvpencil.measures import essential_spectrum_periodic
from cmvpencil.recurrences import ReflectionSequence, jacobi_opuc_reflections

TRUNC8 = TruncationSpec(n_blocks=4)


def dense_reference(a, lam, dim):
    """Independent dense construction of L, M straight from the block layout."""
    L = np.zeros((dim, dim))
    M = np.zeros((dim, dim))
    for k in range(0, dim - 1, 2):  # L blocks start at row 0
        an, rn = float(a(k)), a.r(k)
        L[k : k + 2, k : k + 2] = [[an, rn], [rn, -an]]
    M[0, 0] = 1.0
    for k in range(1, dim - 1, 2):  # M blocks start at row 1
        an, rn = float(a(k)), a.r(k)
        M[k : k + 2, k : k + 2] = [[an, rn], [rn, -an]]
    M[dim - 1, dim - 1] = float(a(dim - 1))  # truncated block keeps its corner
    return L, M


def test_truncation_spec():
    assert TruncationSpec(n_blocks=5).dim == 10
    with pytest.raises(TruncationError):
        TruncationSpec(n_blocks=1)
    assert TruncationSpec.from_dim(4) == TruncationSpec(n_blocks=2)
    for dim in (7, 2, 0):
        # a TruncationError is an InvalidParameterError, so the CLI exits 2
        with pytest.raises(InvalidParameterError, match=f"need even dim >= 4, got {dim}") as info:
            TruncationSpec.from_dim(dim)
        assert isinstance(info.value, TruncationError)


def test_block_structure_free_case():
    a = ReflectionSequence.constant(0.0)
    L = build_L(a, TRUNC8)
    M = build_M(a, TRUNC8)
    Ld, Md = dense_reference(a, 1.0, 8)
    np.testing.assert_allclose(L.to_dense(), Ld, atol=0)
    np.testing.assert_allclose(M.to_dense(), Md, atol=0)
    # the free L is a perfect antidiagonal-block matrix
    assert L.entry(0, 1) == 1.0 and L.entry(0, 0) == 0.0
    assert M.entry(0, 0) == 1.0 and M.entry(7, 7) == 0.0


def test_dense_reference_agreement():
    a = jacobi_opuc_reflections(0.3, 0.7)
    Ld, Md = dense_reference(a, 1.0, 8)
    np.testing.assert_allclose(build_L(a, TRUNC8).to_dense(), Ld, atol=1e-15)
    np.testing.assert_allclose(build_M(a, TRUNC8).to_dense(), Md, atol=1e-15)


def per_index_J_K(a, lam, dim):
    """J and K bands read one coefficient at a time, as the docstrings state."""
    J = [float(a(n) - a(n - 1)) for n in range(dim)]
    K = [float(a(n) - lam * a(n - 1) if n % 2 == 0 else lam * a(n) - a(n - 1)) for n in range(dim)]
    J_off = [a.r(n) for n in range(dim - 1)]
    K_off = [a.r(n) if n % 2 == 0 else lam * a.r(n) for n in range(dim - 1)]
    return (J, J_off), (K, K_off)


@pytest.mark.parametrize(
    "make",
    [
        lambda: jacobi_opuc_reflections(0.3, 0.7),
        lambda: jacobi_opuc_reflections(Fraction(1, 3), Fraction(2, 5)),
        lambda: ReflectionSequence.from_list(np.random.default_rng(4).uniform(-0.99, 0.99, 600)),
        lambda: ReflectionSequence.constant(0.0),
    ],
)
def test_array_builders_equal_per_index_construction(make):
    trunc = TruncationSpec(n_blocks=256)
    for lam in (-2.0, 0.5, 3.0, Fraction(3, 2)):
        J_ref, K_ref = per_index_J_K(make(), lam, trunc.dim)
        for built, ref in ((build_J(make(), trunc), J_ref), (build_K(make(), lam, trunc), K_ref)):
            for band, expected in zip(built.bands, ref):
                assert band.tobytes() == np.array(expected, dtype=float).tobytes()


def test_J_and_K_match_sums():
    a = jacobi_opuc_reflections(0.3, 0.7)
    Ld, Md = dense_reference(a, 1.0, 8)
    np.testing.assert_allclose(build_J(a, TRUNC8).to_dense(), Ld + Md, atol=1e-14)
    for lam in (-2.0, 0.0, 0.5, 3.0):
        np.testing.assert_allclose(
            build_K(a, lam, TRUNC8).to_dense(), Ld + lam * Md, atol=1e-14
        )


def test_H_is_anticommutator():
    a = jacobi_opuc_reflections(0.3, 0.7)
    Ld, Md = dense_reference(a, 1.0, 8)
    np.testing.assert_allclose(
        build_H(a, TRUNC8).to_dense(), Ld @ Md + Md @ Ld, atol=1e-14
    )


def test_involution_and_pencil_identities():
    a = jacobi_opuc_reflections(0.3, 0.7)
    for lam in (-1.0, 0.5, 1.0, 3.0):
        residuals = verify_identities(a, lam, TruncationSpec(n_blocks=16))
        assert set(residuals) == {
            "L_squared_is_identity",
            "M_squared_is_identity",
            "J_equals_L_plus_M",
            "K_equals_L_plus_lam_M",
            "H_equals_J_squared_minus_2",
            "K_squared_identity",
        }
        assert max(residuals.values()) <= 1e-13


def test_product_is_not_symmetric():
    # L*M is five-diagonal but not symmetric, hence the general banded type
    a = jacobi_opuc_reflections(0.3, 0.7)
    L = BandedMatrix.from_symmetric(build_L(a, TRUNC8))
    M = BandedMatrix.from_symmetric(build_M(a, TRUNC8))
    U = banded_product(L, M).to_dense()
    assert np.max(np.abs(U - U.T)) > 0.1


def test_banded_product_matches_dense():
    rng = np.random.default_rng(7)
    dim = 9
    a = BandedMatrix(dim, {0: rng.normal(size=dim), 1: rng.normal(size=dim - 1), -2: rng.normal(size=dim - 2)})
    b = BandedMatrix(dim, {0: rng.normal(size=dim), -1: rng.normal(size=dim - 1), 2: rng.normal(size=dim - 2)})
    np.testing.assert_allclose(
        banded_product(a, b).to_dense(), a.to_dense() @ b.to_dense(), atol=1e-13
    )


def test_transpose_and_add():
    rng = np.random.default_rng(11)
    dim = 6
    a = BandedMatrix(dim, {0: rng.normal(size=dim), 2: rng.normal(size=dim - 2)})
    np.testing.assert_allclose(a.transpose().to_dense(), a.to_dense().T, atol=0)
    np.testing.assert_allclose(a.add(a).to_dense(), 2 * a.to_dense(), atol=0)


def test_eigenvalues_match_dense_solver():
    a = jacobi_opuc_reflections(0.3, 0.7)
    K = build_K(a, 2.0, TruncationSpec(n_blocks=10))
    computed = tridiagonal_eigenvalues(K)
    reference = np.linalg.eigvalsh(K.to_dense())
    np.testing.assert_allclose(computed, reference, atol=1e-12)


def test_tridiagonal_eigenvalues_rejects_wider_bands():
    a = jacobi_opuc_reflections(0.3, 0.7)
    with pytest.raises(InvalidParameterError):
        tridiagonal_eigenvalues(build_H(a, TRUNC8))


def test_identities_hold_for_random_sequences():
    rng = np.random.default_rng(3)
    for _ in range(3):
        a = ReflectionSequence.from_list(rng.uniform(-0.9, 0.9, size=18))
        residuals = verify_identities(a, 0.7, TruncationSpec(n_blocks=8))
        assert max(residuals.values()) <= 1e-13


def dense_identity_residuals(a, lam, trunc):
    """The six identity residuals evaluated on dense copies (test oracle)."""
    dim = trunc.dim
    L, M, J = build_L(a, trunc), build_M(a, trunc), build_J(a, trunc)
    K, H = build_K(a, lam, trunc), build_H(a, trunc)
    Lb, Mb, Kb = (BandedMatrix.from_symmetric(X) for X in (L, M, K))
    Ld, Md, Jd, Kd, Hd = (X.to_dense() for X in (L, M, J, K, H))
    eye = np.eye(dim)

    def interior(lhs, rhs):
        return float(np.max(np.abs(lhs[: dim - 2] - rhs[: dim - 2])))

    return {
        "L_squared_is_identity": interior(banded_product(Lb, Lb).to_dense(), eye),
        "M_squared_is_identity": interior(banded_product(Mb, Mb).to_dense(), eye),
        "J_equals_L_plus_M": interior(Jd, Ld + Md),
        "K_equals_L_plus_lam_M": interior(Kd, Ld + lam * Md),
        "H_equals_J_squared_minus_2": interior(Hd, Jd @ Jd - 2.0 * eye),
        "K_squared_identity": interior(
            banded_product(Kb, Kb).to_dense(), (1.0 + lam * lam) * eye + lam * Hd
        ),
    }


@pytest.mark.parametrize("dim", [8, 16, 64, 256])
def test_banded_residuals_match_dense_oracle(dim):
    rng = np.random.default_rng(dim)
    sequences = [
        jacobi_opuc_reflections(0.3, 0.7),
        jacobi_opuc_reflections(-0.5, 0.9),
        ReflectionSequence.from_list(rng.uniform(-0.95, 0.95, size=dim + 2)),
        ReflectionSequence.from_list(rng.uniform(-0.999, 0.999, size=dim)),
    ]
    trunc = TruncationSpec(n_blocks=dim // 2)
    for a in sequences:
        for lam in (-2.0, 0.0, 0.5, 1.0, 3.0):
            banded = verify_identities(a, lam, trunc)
            dense = dense_identity_residuals(a, lam, trunc)
            assert banded.keys() == dense.keys()
            for key, value in banded.items():
                if key == "H_equals_J_squared_minus_2":
                    # BLAS sums J @ J in another order
                    assert abs(value - dense[key]) <= 1e-15
                else:
                    assert value == dense[key], key


def test_identities_at_scale():
    # a dense copy at this size would take about 80 GB
    trunc = TruncationSpec(n_blocks=50_000)
    rng = np.random.default_rng(12)
    for a in (
        jacobi_opuc_reflections(0.3, 0.7),
        ReflectionSequence.from_list(rng.uniform(-0.95, 0.95, size=trunc.dim)),
    ):
        residuals = verify_identities(a, 1.7, trunc)
        assert len(residuals) == 6
        assert max(residuals.values()) <= 1e-13


@pytest.mark.parametrize("dim", [200, 4000])
def test_eigenvalue_counts_match_full_spectrum(dim):
    trunc = TruncationSpec(n_blocks=dim // 2)
    rng = np.random.default_rng(dim)
    # offsets from the band edges; the random pencil has an eigenvalue at
    # lam + 1 itself, which a count at that exact shift may put on either side
    at_and_near = (-0.05, -1e-3, 0.0, 1e-3, 0.05)
    for a, lam, offsets in (
        (jacobi_opuc_reflections(0.3, 0.7), 2.0, at_and_near),
        (jacobi_opuc_reflections(-0.5, 0.9), 0.5, at_and_near),
        (ReflectionSequence.from_list(rng.uniform(-0.95, 0.95, size=dim)), 1.3, (-0.05, -1e-3, 1e-3, 0.05)),
    ):
        K = build_K(a, lam, trunc)
        eigs = eigh_tridiagonal(K.bands[0], K.bands[1], eigvals_only=True)
        lo, hi = abs(lam - 1.0), lam + 1.0
        shifts = [edge + d for edge in (-hi, -lo, lo, hi) for d in offsets]
        shifts += [-10.0, 0.05, 10.0]
        expected = [int(np.count_nonzero(eigs < s)) for s in shifts]
        assert eigenvalue_counts(K, shifts).tolist() == expected


@pytest.mark.parametrize("dim", [200, 4000])
def test_band_census_matches_full_spectrum(dim):
    trunc = TruncationSpec(n_blocks=dim // 2)
    rng = np.random.default_rng(dim)
    inflate = 0.05
    cases = (
        (jacobi_opuc_reflections(0.3, 0.7), 2.0),
        (jacobi_opuc_reflections(-0.5, 0.9), 0.5),
        (ReflectionSequence.from_list(rng.uniform(-0.95, 0.95, size=dim)), 1.3),
        (ReflectionSequence.constant(0.0), 0.5),  # nothing outside the bands
    )
    for a, lam in cases:
        K = build_K(a, lam, trunc)
        eigs = eigh_tridiagonal(K.bands[0], K.bands[1], eigvals_only=True)
        bands = essential_spectrum_periodic(lam)
        inside = np.zeros(dim, dtype=bool)
        for p, q in bands:
            inside |= (p - inflate <= eigs) & (eigs < q + inflate)
        n_outside, values, n_near_zero = band_census(K, bands, inflate)
        assert n_outside == np.count_nonzero(~inside) == len(values)
        np.testing.assert_allclose(sorted(values), eigs[~inside], rtol=0, atol=1e-12)
        assert n_near_zero == np.count_nonzero((-inflate <= eigs) & (eigs < inflate))
    assert n_outside == 0 and values == [] and n_near_zero == 0
    with pytest.raises(InvalidParameterError, match="need inflate >= 0"):
        band_census(K, bands, -inflate)


def test_eigenvalue_counts_guards_zero_pivots():
    # K - I = [[0, 1], [1, 0]]: the first pivot is exactly zero
    m = BandedSymmetricMatrix(dim=2, bandwidth=1, bands=(np.array([1.0, 1.0]), np.array([1.0])))
    assert eigenvalue_counts(m, [1.0, -1.0, 0.5, 3.0]).tolist() == [1, 0, 1, 2]
    with pytest.raises(InvalidParameterError):
        eigenvalue_counts(build_H(jacobi_opuc_reflections(0.3, 0.7), TRUNC8), [0.0])


def test_eigenvalue_counts_rejects_nan_keeps_inf():
    # a nan shift used to count 0 eigenvalues below it
    K = build_K(jacobi_opuc_reflections(0.3, 0.7), 2.0, TRUNC8)
    assert eigenvalue_counts(K, [-np.inf, np.inf]).tolist() == [0, K.dim]
    with pytest.raises(InvalidParameterError):
        eigenvalue_counts(K, [0.0, np.nan])
