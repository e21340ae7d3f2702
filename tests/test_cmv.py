"""Banded pencil matrices: structure, products, and defining identities."""

import gc
import math
import sys
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from cmvpencil import cmv
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
from cmvpencil.errors import InvalidParameterError, ReflectionBoundError, TruncationError
from cmvpencil.measures import essential_spectrum_periodic
from cmvpencil.recurrences import ReflectionSequence, _table, jacobi_opuc_reflections, szego_eval
from cmvpencil.verify import run_suite

TRUNC8 = TruncationSpec(n_blocks=4)


def banded(X):
    """A BandedSymmetricMatrix in general offset storage, offsets keyed 0, 1, -1, 2, -2."""
    data = {0: X.bands[0]}
    for k in range(1, X.bandwidth + 1):
        data[k], data[-k] = X.bands[k], X.bands[k]
    return BandedMatrix(X.dim, data)


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
    assert TruncationSpec(n_blocks=np.int64(5)).dim == 10
    assert TruncationSpec.from_dim(np.int32(10)) == TruncationSpec(n_blocks=5)
    with pytest.raises(TruncationError):
        TruncationSpec(n_blocks=1)
    assert TruncationSpec.from_dim(4) == TruncationSpec(n_blocks=2)
    for dim in (7, 2, 0):
        # a TruncationError is an InvalidParameterError, so the CLI exits 2
        with pytest.raises(InvalidParameterError, match=f"need even dim >= 4, got {dim}") as info:
            TruncationSpec.from_dim(dim)
        assert isinstance(info.value, TruncationError)


# these used to fail later, with a bare numpy TypeError or ValueError
@pytest.mark.parametrize("n_blocks", [2.5, 3.0, Fraction(3), math.nan, "3", True, None])
def test_truncation_spec_needs_an_integer(n_blocks):
    with pytest.raises(TruncationError, match=r"need an integer n_blocks in 2\.\."):
        TruncationSpec(n_blocks=n_blocks)


@pytest.mark.parametrize("dim", [6.0, 6.5, Fraction(6), math.nan, "6", True])
def test_from_dim_needs_an_integer(dim):
    with pytest.raises(TruncationError, match="need even dim >= 4"):
        TruncationSpec.from_dim(dim)


@pytest.mark.parametrize("n_blocks", [10**400, 2**62], ids=["10**400", "2**62"])
def test_truncation_spec_refuses_bands_numpy_cannot_size(n_blocks):
    # build_K(a, 1.0, TruncationSpec(10**400)) raised numpy's bare ValueError;
    # only the constructors run here, nothing is allocated
    for make in (lambda: TruncationSpec(n_blocks), lambda: TruncationSpec.from_dim(2 * n_blocks)):
        with pytest.raises(TruncationError, match=r"need an integer n_blocks in 2\.\."):
            make()
    assert TruncationSpec(cmv._MAX_BLOCKS).dim * 8 <= np.iinfo(np.intp).max
    with pytest.raises(ValueError, match="too big"):  # numpy refuses before it allocates
        np.empty(TruncationSpec(cmv._MAX_BLOCKS).dim + 2)


def test_block_structure_free_case():
    a = ReflectionSequence.constant(0.0)
    L = build_L(a, TRUNC8)
    M = build_M(a, TRUNC8)
    Ld, Md = dense_reference(a, 1.0, 8)
    np.testing.assert_allclose(L.to_dense(), Ld, atol=0)
    np.testing.assert_allclose(M.to_dense(), Md, atol=0)
    # the free L is a perfect antidiagonal-block matrix
    assert L.bands[1][0] == 1.0 and L.bands[0][0] == 0.0
    assert M.bands[0][0] == 1.0 and M.bands[0][7] == 0.0


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


def test_J_is_K_at_the_int_one_not_the_float():
    # 1.0 * Fraction rounds to a float before the subtraction, so K at lam = 1.0
    # moves the last bit of some diagonal entries of an exact sequence
    a, trunc = jacobi_opuc_reflections(Fraction(3, 10), Fraction(7, 10)), TruncationSpec.from_dim(64)
    J = build_J(a, trunc)
    assert J.bands[0].tobytes() == build_K(a, 1, trunc).bands[0].tobytes()
    assert J.bands[0].tobytes() != build_K(a, 1.0, trunc).bands[0].tobytes()


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
    U = banded_product(banded(build_L(a, TRUNC8)), banded(build_M(a, TRUNC8))).to_dense()
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
    Lb, Mb, Kb = (banded(X) for X in (L, M, K))
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


def general_route_residuals(a, lam, trunc):
    """The six residuals as the general offset-storage route forms them.

    Every product is a ``banded_product``, every sum a ``BandedMatrix.add``
    over the union of offsets, and H = L M + (L M)^T; each residual is the
    max over all offsets, lower ones included, on rows 0 .. dim-3.
    """
    dim = trunc.dim
    L, M, J = (banded(build(a, trunc)) for build in (build_L, build_M, build_J))
    K = banded(build_K(a, lam, trunc))
    LM = banded_product(L, M)
    H = LM.add(LM.transpose())

    def times(m, c):
        return BandedMatrix(dim, {k: c * v for k, v in m.data.items()})

    def eye(c):
        return BandedMatrix(dim, {0: np.full(dim, c, dtype=float)})

    def interior(lhs, rhs):
        worst = [
            np.max(np.abs(lhs.offset(k) - rhs.offset(k))[: dim - 2 - max(-k, 0)], initial=0.0)
            for k in set(lhs.data) | set(rhs.data)
        ]
        return float(np.max(worst, initial=0.0))

    return {
        "L_squared_is_identity": interior(banded_product(L, L), eye(1.0)),
        "M_squared_is_identity": interior(banded_product(M, M), eye(1.0)),
        "J_equals_L_plus_M": interior(J, L.add(M)),
        "K_equals_L_plus_lam_M": interior(K, L.add(times(M, lam))),
        "H_equals_J_squared_minus_2": interior(H, banded_product(J, J).add(eye(-2.0))),
        "K_squared_identity": interior(banded_product(K, K), eye(1.0 + lam * lam).add(times(H, lam))),
    }


def identity_sequences(dim):
    rng = np.random.default_rng(dim)
    return {
        "jacobi": jacobi_opuc_reflections(0.3, 0.7),
        "jacobi-exact": jacobi_opuc_reflections(Fraction(1, 3), Fraction(2, 5)),
        "random": ReflectionSequence.from_list(rng.uniform(-0.999, 0.999, size=dim)),
        "constant": ReflectionSequence.constant(-0.5),
        "free": ReflectionSequence.constant(0.0),
        "signed-zeros": ReflectionSequence.from_list([0.0, -0.0] * (dim // 2)),
        "fractions": ReflectionSequence.from_list(
            [Fraction(int(k), 997) for k in rng.integers(-996, 997, size=dim)]
        ),
    }


# float, int, Fraction and numpy scalars, zero and negative ones too; a
# Fraction's 1 + lam^2 is exact before it rounds
IDENTITY_LAMS = (
    -2.0, -1, 0, 0.0, 0.5, 1, 3, 1.7, Fraction(1, 3), Fraction(-7, 3), np.float64(2.3), np.float64(-0.25),
)


@pytest.mark.parametrize("dim", [4, 6, 8, 16, 64, 256, 2048])
def test_residuals_bit_identical_to_general_route(dim):
    trunc = TruncationSpec.from_dim(dim)
    for name, a in identity_sequences(dim).items():
        for lam in IDENTITY_LAMS:
            fast = verify_identities(a, lam, trunc)
            general = general_route_residuals(a, lam, trunc)
            assert list(fast) == list(general)
            assert {k: v.hex() for k, v in fast.items()} == {k: v.hex() for k, v in general.items()}, (name, lam)


def square_bands(X):
    """Upper offsets 0..2 of X X for a symmetric tridiagonal X given as (diag, off)."""
    return [cmv._product_band(X, X, k) for k in range(3)]


def batch_dicts(sequences, lams, trunc):
    """The batch's (sequence, lam) arrays as one dict of residuals per
    sequence and lam, the keys in the batch's order."""
    batch = cmv._identity_residual_batch(sequences, lams, trunc)
    assert all(value.shape in ((len(sequences), 1), (len(sequences), len(lams))) for value in batch.values())
    batch = {key: np.broadcast_to(value, (len(sequences), len(lams))).tolist() for key, value in batch.items()}
    return [[{key: value[s][j] for key, value in batch.items()} for j in range(len(lams))] for s in range(len(sequences))]


def per_lam_residuals(a, lam, trunc):
    """``verify_identities`` as it was before the lam-free work was shared:
    every builder, product and residual formed afresh for one lam."""
    K = build_K(a, lam, trunc).bands
    L, M, J = build_L(a, trunc).bands, build_M(a, trunc).bands, build_J(a, trunc).bands
    H = cmv._anticommutator(L, M)
    L2, M2, J2, K2 = (square_bands(X) for X in (L, M, J, K))
    scale, shift = float(lam), 1.0 + lam * lam
    n, eye = trunc.dim - 2, [1.0, 0.0, 0.0]
    return {
        "L_squared_is_identity": cmv._residual(L2, eye, n),
        "M_squared_is_identity": cmv._residual(M2, eye, n),
        "J_equals_L_plus_M": cmv._residual(J, [L[0] + M[0], L[1] + M[1]], n),
        "K_equals_L_plus_lam_M": cmv._residual(K, [L[0] + scale * M[0], L[1] + scale * M[1]], n),
        "H_equals_J_squared_minus_2": cmv._residual(H, [J2[0] - 2.0, J2[1], J2[2]], n),
        "K_squared_identity": cmv._residual(K2, [shift + scale * H[0], *(scale * h for h in H[1:])], n),
    }


@pytest.mark.parametrize("dim", [4, 8, 64, 2048])
def test_shared_lam_free_work_bit_identical_to_per_lam(dim):
    trunc = TruncationSpec.from_dim(dim)
    for name, a in identity_sequences(dim).items():
        shared = batch_dicts((a,), IDENTITY_LAMS, trunc)[0]
        assert len(shared) == len(IDENTITY_LAMS)
        for lam, residuals in zip(IDENTITY_LAMS, shared):
            reference = per_lam_residuals(a, lam, trunc)
            assert list(residuals) == list(reference)  # the suite's worst case follows this order
            hexed = {k: v.hex() for k, v in residuals.items()}
            assert hexed == {k: v.hex() for k, v in reference.items()}, (name, lam)
            assert hexed == {k: v.hex() for k, v in verify_identities(a, lam, trunc).items()}


def count_builder_calls(monkeypatch):
    calls = dict.fromkeys(("build_L", "build_M", "build_J", "build_K"), 0)
    for name in calls:
        build = getattr(cmv, name)

        def counted(*args, _name=name, _build=build):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(cmv, name, counted)
    return calls


def test_lam_free_builders_run_once_per_sequence(monkeypatch):
    calls = count_builder_calls(monkeypatch)
    lams = (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0)
    cmv._identity_residual_batch((jacobi_opuc_reflections(0.3, 0.7),), lams, TRUNC8)
    # build_J is build_K at lam = 1, so J adds one build_K call per sequence
    assert calls == {"build_L": 1, "build_M": 1, "build_J": 1, "build_K": 7}
    calls.update(dict.fromkeys(calls, 0))
    results = run_suite("matrix-identities")
    assert len(results) == 6 and all(r.passed for r in results)
    assert calls == {"build_L": 6, "build_M": 6, "build_J": 6, "build_K": 42}


# float list, constant, float Jacobi and Fraction Jacobi sequences
def batch_sequences(dim):
    return [
        ReflectionSequence.from_list(np.random.default_rng(dim).uniform(-0.999, 0.999, size=dim).tolist()),
        ReflectionSequence.constant(-0.5),
        jacobi_opuc_reflections(0.3, 0.7),
        jacobi_opuc_reflections(Fraction(1, 3), Fraction(2, 5)),
    ]


BATCH_LAMS = (-2.0, 0.0, 1, Fraction(3, 2), 3.0)


@pytest.mark.parametrize("dim", [4, 8, 64, 2048])
def test_one_call_does_not_run_the_batch(monkeypatch, dim):
    # the one-sequence, one-lam call feeds the shared routine its own bands,
    # and finds what the batch finds for that sequence and lam
    trunc = TruncationSpec.from_dim(dim)
    sequences = batch_sequences(dim)
    want = batch_dicts(sequences, BATCH_LAMS, trunc)

    def refuse(*args):
        raise AssertionError("_identity_residual_batch was called")

    monkeypatch.setattr(cmv, "_identity_residual_batch", refuse)
    for a, per_lam in zip(sequences, want):
        for lam, residuals in zip(BATCH_LAMS, per_lam):
            alone = verify_identities(a, lam, trunc)
            assert list(alone) == list(residuals)
            assert {k: v.hex() for k, v in alone.items()} == {k: v.hex() for k, v in residuals.items()}, lam


@pytest.mark.parametrize("dim", [4, 8, 64, 2048])
def test_batch_bit_identical_to_one_sequence_calls(dim):
    trunc = TruncationSpec.from_dim(dim)
    sequences = batch_sequences(dim)
    batch = batch_dicts(sequences, BATCH_LAMS, trunc)
    assert len(batch) == len(sequences)
    for a, per_lam in zip(sequences, batch):
        assert len(per_lam) == len(BATCH_LAMS)
        for lam, residuals in zip(BATCH_LAMS, per_lam):
            alone = verify_identities(a, lam, trunc)
            assert list(residuals) == list(alone)
            assert all(type(v) is float for v in residuals.values())
            assert {k: v.hex() for k, v in residuals.items()} == {k: v.hex() for k, v in alone.items()}, lam


def test_a_nan_reaches_only_its_own_sequence_and_lam(monkeypatch):
    calls = {"build_J": 0, "build_K": 0}
    build_J, build_K = cmv.build_J, cmv.build_K

    def planted(name, build, at):
        def with_nan(*args):
            calls[name] += 1
            X = build(*args)
            if calls[name] != at:
                return X
            off = X.bands[1].copy()
            off[1] = np.nan
            return BandedSymmetricMatrix((X.bands[0], off))

        return with_nan

    # build_J is build_K at lam = 1: count the K's only outside build_J
    monkeypatch.setattr(cmv, "build_K", planted("build_K", build_K, 3 * len(BATCH_LAMS) + 2))
    monkeypatch.setattr(cmv, "build_J", planted("build_J", lambda *args: build_K(args[0], 1, args[1]), 2))
    batch = batch_dicts(batch_sequences(8), BATCH_LAMS, TRUNC8)
    nan_at = {
        (s, j, key) for s, per_lam in enumerate(batch) for j, residuals in enumerate(per_lam)
        for key, value in residuals.items() if math.isnan(value)
    }
    # the second sequence's J, and the fourth sequence's K at the second lam
    expected = {(1, j, key) for j in range(len(BATCH_LAMS)) for key in ("J_equals_L_plus_M", "H_equals_J_squared_minus_2")}
    expected |= {(3, 1, "K_equals_L_plus_lam_M"), (3, 1, "K_squared_identity")}
    assert nan_at == expected


# lam^2 overflows beyond about 1.3e154, and K^2 a little before that
@pytest.mark.parametrize("lam", [1e200, -1e200, 1e154, 10**200, Fraction(10**200), np.float64(4e153)])
def test_lam_whose_square_overflows_raises(monkeypatch, lam):
    a = jacobi_opuc_reflections(0.3, 0.7)
    calls = count_builder_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="need a finite lam"):
            verify_identities(a, lam, TRUNC8)
        # every lam is checked before the first builder runs
        with pytest.raises(InvalidParameterError, match="need a finite lam"):
            cmv._identity_residual_batch((a,), (0.5, 1.0, lam), TRUNC8)
    assert sum(calls.values()) == 0


@pytest.mark.parametrize("lam", [1e150, -1e150, cmv._IDENTITY_LAM_MAX, -cmv._IDENTITY_LAM_MAX])
def test_large_lam_below_the_bound_stays_finite(lam):
    rng = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (
            jacobi_opuc_reflections(0.3, 0.7),
            ReflectionSequence.from_list(rng.uniform(-0.999, 0.999, size=64)),
        ):
            residuals = verify_identities(a, lam, TruncationSpec.from_dim(64))
            assert all(math.isfinite(v) for v in residuals.values())


@pytest.mark.parametrize("dim", [64, 2048, 100_000])
def test_build_H_bit_identical_to_general_route(dim):
    trunc = TruncationSpec.from_dim(dim)
    for name, a in identity_sequences(dim).items():
        if dim > 2048 and name in ("jacobi-exact", "fractions"):
            continue  # Fraction coefficients are read one index at a time
        LM = banded_product(banded(build_L(a, trunc)), banded(build_M(a, trunc)))
        general = LM.add(LM.transpose())
        H = build_H(a, trunc)
        assert [band.tobytes() for band in H.bands] == [general.offset(k).tobytes() for k in range(3)]


def five_offset_product(A, B):
    """Offsets -2..2 of A B for symmetric tridiagonals A = (d1, e1) and
    B = (d2, e2), each written out with its terms in ``banded_product``'s order."""
    (d1, e1), (d2, e2) = A, B
    p0 = d1 * d2
    ee = e1 * e2
    p0[:-1] += ee
    p0[1:] += ee
    return {
        -2: e1[1:] * e2[:-1],
        -1: d1[1:] * e2 + e1 * d2[:-1],
        0: p0,
        1: d1[:-1] * e2 + e1 * d2[1:],
        2: e1[:-1] * e2[1:],
    }


def whole_product_anticommutator(L, M):
    """H as it was formed from the whole product: all five offsets of L M,
    then (LM)_k + (LM)_-k for k = 0, 1, 2."""
    lm = five_offset_product(L, M)
    return tuple(lm[k] + lm[-k] for k in range(3))


H_SEQUENCES = {
    "jacobi": lambda dim: jacobi_opuc_reflections(0.3, 0.7),
    "random": lambda dim: ReflectionSequence.from_list(np.random.default_rng(dim).uniform(-0.95, 0.95, dim).tolist()),
    "constant": lambda dim: ReflectionSequence.constant(-0.5),
    "signed-zero": lambda dim: ReflectionSequence.constant(-0.0),
}


@pytest.mark.parametrize("dim", [4, 6, 64, 2000, 100_000])
@pytest.mark.parametrize("name", list(H_SEQUENCES))
def test_band_by_band_H_bit_identical_to_whole_product(name, dim):
    a, trunc = H_SEQUENCES[name](dim), TruncationSpec.from_dim(dim)
    reference = whole_product_anticommutator(build_L(a, trunc).bands, build_M(a, trunc).bands)
    H = build_H(a, trunc)
    # float.hex tells -0.0 from 0.0
    assert [[x.hex() for x in band.tolist()] for band in H.bands] == [
        [x.hex() for x in band.tolist()] for band in reference
    ]


@pytest.mark.parametrize("dim", [4, 6, 64, 2000, 100_000])
def test_square_bands_bit_identical_to_five_offset_formulas(dim):
    trunc = TruncationSpec.from_dim(dim)
    sequences = [make(dim) for make in H_SEQUENCES.values()]
    sequences += [
        a for name, a in identity_sequences(dim).items()
        if dim <= 2048 or name not in ("jacobi-exact", "fractions")  # read one index at a time
    ]
    for a in sequences:
        table = _table(a, dim)
        pencils = [build(table, trunc).bands for build in (build_L, build_M, build_J)]
        pencils += [build_K(table, lam, trunc).bands for lam in (-2.0, 0.5, 3, Fraction(-7, 3))]
        for X in pencils:
            whole = five_offset_product(X, X)
            # raw bytes tell -0.0 from 0.0, as float.hex does
            assert [band.tobytes() for band in square_bands(X)] == [whole[k].tobytes() for k in range(3)]


def test_build_H_peaks_at_three_times_its_bands():
    dim = 100_000
    a = ReflectionSequence.from_list(np.random.default_rng(5).uniform(-0.95, 0.95, dim).tolist())
    a.take(dim)  # the list's float64 copy is made on the first take
    trunc = TruncationSpec.from_dim(dim)
    tracemalloc.start()
    try:
        H = build_H(a, trunc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the r column, L and M take 5 bands' worth and the result 3; the whole
    # five-offset product held 4.33 times the result at its peak
    assert peak <= 3.25 * sum(band.nbytes for band in H.bands)


def test_residual_nan_in_a_later_offset():
    n = 6
    clean = [np.zeros(n + 2), np.full(n + 1, 0.25), np.zeros(n)]
    assert cmv._residual(clean, [0.0, 0.0, 0.0], n) == 0.25
    late = [clean[0], clean[1], np.array([0.0, 0.0, np.nan, 0.0, 0.0, 0.0])]
    # a builtin max over per-offset maxima would return 0.25 here
    assert math.isnan(cmv._residual(late, [0.0, 0.0, 0.0], n))
    # rows n and beyond belong to the truncation
    edge = [np.array([0.0] * n + [np.nan, np.nan]), clean[1], clean[2]]
    assert cmv._residual(edge, [0.0, 0.0, 0.0], n) == 0.25


def test_nan_band_reaches_the_identity_residuals(monkeypatch):
    build = cmv.build_J

    def with_nan(a, trunc):
        J = build(a, trunc)
        off = J.bands[1].copy()
        off[3] = np.nan
        return BandedSymmetricMatrix((J.bands[0], off))

    monkeypatch.setattr(cmv, "build_J", with_nan)
    residuals = verify_identities(jacobi_opuc_reflections(0.3, 0.7), 1.3, TruncationSpec(n_blocks=8))
    nan_keys = {k for k, v in residuals.items() if math.isnan(v)}
    assert nan_keys == {"J_equals_L_plus_M", "H_equals_J_squared_minus_2"}
    assert max(v for k, v in residuals.items() if k not in nan_keys) <= 1e-13


# a Fraction or int too large for a float used to raise a bare OverflowError
@pytest.mark.parametrize(
    "lam", [math.nan, math.inf, -math.inf, np.float64("nan"), Fraction(10**400), 10**400, -(10**400)]
)
def test_non_finite_lam_raises(lam):
    a = jacobi_opuc_reflections(0.3, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any arithmetic could warn
        with pytest.raises(InvalidParameterError, match="need a finite lam"):
            build_K(a, lam, TRUNC8)
        with pytest.raises(InvalidParameterError, match="need a finite lam"):
            verify_identities(a, lam, TRUNC8)


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


def test_band_census_refuses_an_inflate_beyond_the_float_range():
    # an int or Fraction above max float raised a bare OverflowError from float(inflate)
    m = BandedSymmetricMatrix((np.array([0.0, 1.0, 2.0]), np.zeros(2)))
    for inflate in (10**400, Fraction(10**400), -math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="need inflate >= 0"):
            band_census(m, [(-1.0, 1.0)], inflate)
    # compared exactly: a Fraction within the range is read as its float, and inf stays accepted
    assert band_census(m, [(-1.0, 1.0)], Fraction(1, 20)) == band_census(m, [(-1.0, 1.0)], 0.05) == (1, [2.0], 1)
    assert band_census(m, [(-1.0, 1.0)], math.inf) == (0, [], 3)


def test_census_counts_equal_the_differences_of_eigenvalue_counts():
    # two routes to each count: the census's ?stebz calls, and the Python
    # Sturm loop of eigenvalue_counts at the same edges.  Entries from 1e-300
    # to 1e300; every edge lies at least 1e-10 times the largest entry from
    # each eigenvalue, so (lo, hi] and [lo, hi) hold the same eigenvalues
    rng = np.random.default_rng(20261022)
    checked = 0
    for trial in range(320):
        dim = int(rng.integers(1, 60))
        d_scale, e_scale = 10.0 ** rng.uniform(-300, 300, size=2)
        diag = rng.uniform(-1.0, 1.0, dim) * d_scale
        off = rng.uniform(-1.0, 1.0, dim - 1) * e_scale
        top = max(np.abs(diag).max(), np.abs(off).max(initial=0.0))
        s = 2.0 ** -math.frexp(top)[1]
        eigs = np.linalg.eigvalsh(BandedSymmetricMatrix((diag * s, off * s)).to_dense()) / s
        # two bands and a widening, in units of the largest entry
        p0, q0, p1, q1 = np.sort(rng.uniform(-1.5, 1.5, 4)) * top
        bands, inflate = [(p0, q0), (p1, q1)], float(rng.uniform(0.0, 0.3)) * top
        windows = [(lo, hi) for lo, hi in ((-math.inf, p0 - inflate), (q0 + inflate, p1 - inflate), (q1 + inflate, math.inf)) if lo < hi]
        edges = [p0 - inflate, q0 + inflate, p1 - inflate, q1 + inflate, -inflate, inflate]
        if np.abs(np.subtract.outer(edges, eigs)).min() < 1e-10 * top:
            continue
        m = BandedSymmetricMatrix((diag, off))
        n_outside, values, n_near_zero = band_census(m, bands, inflate)
        counts = [np.diff(eigenvalue_counts(m, window)).item() for window in windows]
        assert [sum(lo < v <= hi for v in values) for lo, hi in windows] == counts, trial
        assert n_outside == len(values) == sum(counts), trial
        assert n_near_zero == np.diff(eigenvalue_counts(m, [-inflate, inflate])).item(), trial
        checked += 1
    assert checked >= 300, checked


@pytest.mark.parametrize(
    "bands",
    [
        [(math.nan, 1.0)],  # counted 47 outliers
        [(1.0, -1.0)],  # counted 101 outliers in a dim-100 matrix
        [(-3.0, 1.0), (0.0, 3.0)],  # counted 0
        [(-3.0, -1.0), (1.0, math.inf)],
        [(1.0, 10**400)],
        # the four below raised a bare TypeError or ValueError
        [(-1.0, "x")],
        [1.0],
        None,
        [(-1.0, 0.0, 1.0)],
    ],
    ids=["nan", "reversed", "overlapping", "infinite", "huge-int", "string", "not-pairs", "None", "triple"],
)
def test_band_census_rejects_bad_bands(bands):
    K = build_K(jacobi_opuc_reflections(0.3, 0.7), 2.0, TruncationSpec(50))
    with pytest.raises(InvalidParameterError, match="need finite, ascending, disjoint bands"):
        band_census(K, bands, 0.05)
    # touching bands, as the prediction gives at lam = 1, stay accepted
    assert band_census(K, essential_spectrum_periodic(1.0), 0.05)[0] >= 0


NOT_FINITE = ["all-diagonal", "one-diagonal", "one-off-diagonal", "inf", "minus-inf-off-diagonal"]
EIGEN_ENTRY_POINTS = {
    "band_census": lambda m: band_census(m, essential_spectrum_periodic(2.0), 0.05),
    "eigenvalue_counts": lambda m: eigenvalue_counts(m, [0.0]),
    "tridiagonal_eigenvalues": tridiagonal_eigenvalues,
    "eigenvalues": lambda m: m.eigenvalues(),
}


@pytest.mark.parametrize(
    "entry, where",
    [(entry, where) for entry in EIGEN_ENTRY_POINTS for where in NOT_FINITE],
    # the census cases are named by the bad entry alone
    ids=[where if entry == "band_census" else f"{entry}-{where}" for entry in EIGEN_ENTRY_POINTS for where in NOT_FINITE],
)
def test_band_census_rejects_a_matrix_that_is_not_finite(entry, where):
    # an all-nan diagonal counted as no eigenvalue anywhere, in the census and
    # in eigenvalue_counts (on diag (1, x, 0) and off (0.5, 0.5), x = nan
    # counted 0 eigenvalues below 0 and x = inf 1); a single nan ended in
    # scipy's bare ValueError
    K = build_K(jacobi_opuc_reflections(0.3, 0.7), 2.0, TruncationSpec(50))
    diag, off = K.bands[0].copy(), K.bands[1].copy()
    if where == "all-diagonal":
        diag[:] = np.nan
    elif where == "one-diagonal":
        diag[17] = np.nan
    elif where == "one-off-diagonal":
        off[5] = np.nan
    elif where == "inf":
        diag[3] = np.inf
    else:
        off[9] = -np.inf
    bad = BandedSymmetricMatrix((diag, off))
    with pytest.raises(InvalidParameterError, match="finite entries"):
        EIGEN_ENTRY_POINTS[entry](bad)


def test_banded_eigenvalues_refuse_a_wider_band_that_is_not_finite():
    H = build_H(jacobi_opuc_reflections(0.3, 0.7), TRUNC8)
    assert np.allclose(H.eigenvalues(), np.linalg.eigvalsh(H.to_dense()))
    for value in (np.nan, np.inf):
        band = H.bands[2].copy()
        band[2] = value
        with pytest.raises(InvalidParameterError, match="finite entries"):
            BandedSymmetricMatrix((H.bands[0], H.bands[1], band)).eigenvalues()


def test_banded_matrix_reads_dim_and_bandwidth_from_its_bands():
    H = build_H(jacobi_opuc_reflections(0.3, 0.7), TRUNC8)
    assert (H.dim, H.bandwidth) == (8, 2)
    assert [len(band) for band in H.bands] == [8, 7, 6]
    with pytest.raises(InvalidParameterError, match="diagonal 1 has length 8, expected 7"):
        BandedSymmetricMatrix((np.zeros(8), np.zeros(8)))
    with pytest.raises(InvalidParameterError, match="main diagonal"):
        BandedSymmetricMatrix(())


def test_eigenvalue_counts_guards_zero_pivots():
    # K - I = [[0, 1], [1, 0]]: the first pivot is exactly zero
    m = BandedSymmetricMatrix((np.array([1.0, 1.0]), np.array([1.0])))
    assert eigenvalue_counts(m, [1.0, -1.0, 0.5, 3.0]).tolist() == [1, 0, 1, 2]
    with pytest.raises(InvalidParameterError):
        eigenvalue_counts(build_H(jacobi_opuc_reflections(0.3, 0.7), TRUNC8), [0.0])


def test_eigenvalue_counts_rejects_nan_keeps_inf():
    # a nan shift used to count 0 eigenvalues below it
    K = build_K(jacobi_opuc_reflections(0.3, 0.7), 2.0, TRUNC8)
    assert eigenvalue_counts(K, [-np.inf, np.inf]).tolist() == [0, K.dim]
    with pytest.raises(InvalidParameterError):
        eigenvalue_counts(K, [0.0, np.nan])


def sturm_reference(m, shifts):
    """``eigenvalue_counts`` as it was written first: per pivot, the pivmin
    clamp and then a separate sign test."""
    diag, off = m.bands[0].tolist(), m.bands[1]
    off2 = off**2
    pivmin = np.finfo(float).tiny * max(1.0, float(off2.max(initial=0.0)))
    steps = list(zip(diag, [0.0, *off2.tolist()]))
    counts = []
    for t in shifts:
        count, d = 0, 1.0
        for a_ii, b2 in steps:
            d = (a_ii - t) - b2 / d
            if -pivmin < d < pivmin:
                d = -pivmin
            if d < 0:
                count += 1
        counts.append(count)
    return counts


def test_sturm_counts_equal_the_reference_loop():
    rng = np.random.default_rng(20261019)
    for trial in range(60):
        dim = int(rng.integers(2, 301)) * 2
        values = rng.uniform(-0.99, 0.99, size=dim).tolist()
        # lam = 0 zeroes every other off-diagonal entry, so pivots hit zero exactly
        lam = (0.0, 1.0, float(rng.uniform(0.1, 3.0)))[trial % 3]
        K = build_K(ReflectionSequence.from_list(values), lam, TruncationSpec.from_dim(dim))
        eigs = eigh_tridiagonal(*K.bands, eigvals_only=True)
        # shifts at (ties with) eigenvalues and diagonal entries, zero and the infinities
        ties = [*rng.choice(eigs, size=6).tolist(), *K.bands[0][:4].tolist()]
        shifts = [*ties, 0.0, -0.0, -math.inf, math.inf]
        if trial % 10 == 9:  # a nan entry, whose pivot counted nowhere, is refused
            diag = K.bands[0].copy()
            diag[dim // 2] = np.nan
            with pytest.raises(InvalidParameterError, match="finite entries"):
                eigenvalue_counts(BandedSymmetricMatrix((diag, K.bands[1])), shifts)
        assert eigenvalue_counts(K, shifts).tolist() == sturm_reference(K, shifts), trial


TABLE_SEQUENCES = {
    "float list": lambda: ReflectionSequence.from_list(np.random.default_rng(3).uniform(-0.95, 0.95, 70).tolist()),
    "constant": lambda: ReflectionSequence.constant(-0.3),
    "jacobi floats": lambda: jacobi_opuc_reflections(0.3, 0.7),
    "fractions": lambda: jacobi_opuc_reflections(Fraction(1, 3), Fraction(2, 5)),
}


@pytest.mark.parametrize("dim", [4, 10, 64])
@pytest.mark.parametrize("name", list(TABLE_SEQUENCES))
def test_builders_from_a_shared_table_equal_the_standalone_builders(name, dim):
    make, trunc = TABLE_SEQUENCES[name], TruncationSpec.from_dim(dim)
    table = _table(make(), dim)
    pairs = [(build(table, trunc), build(make(), trunc)) for build in (build_L, build_M, build_J, build_H)]
    pairs += [(build_K(table, lam, trunc), build_K(make(), lam, trunc)) for lam in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0)]
    for shared, alone in pairs:
        assert [band.tobytes() for band in shared.bands] == [band.tobytes() for band in alone.bands]
        assert all(band.flags.writeable for band in shared.bands)


def test_build_L_reads_dim_minus_one_coefficients():
    values = [0.1 * k for k in range(TRUNC8.dim - 1)]
    L = build_L(ReflectionSequence.from_list(values), TRUNC8)
    assert L.bands[0].tolist() == [v for v in values[0::2] for v in (v, -v)]
    with pytest.raises(InvalidParameterError, match="beyond provided list"):
        build_M(ReflectionSequence.from_list(values), TRUNC8)


@pytest.mark.parametrize("first_bad", [0, 3, 6])
def test_a_bad_coefficient_raises_at_its_index(first_bad):
    values = [0.25] * 10
    values[first_bad], values[first_bad + 1] = 1.5, -2.0
    calls = {
        "build_L": lambda a: build_L(a, TRUNC8),
        "build_M": lambda a: build_M(a, TRUNC8),
        "build_J": lambda a: build_J(a, TRUNC8),
        "build_K": lambda a: build_K(a, 0.5, TRUNC8),
        "build_H": lambda a: build_H(a, TRUNC8),
        "identity residuals": lambda a: cmv._identity_residual_batch((a,), (0.5, 2.0), TRUNC8),
        "szego_eval": lambda a: szego_eval(a, 8, 0.5),
        "table": lambda a: _table(a, 8),
    }
    for name, call in calls.items():
        with pytest.raises(ReflectionBoundError) as info:
            call(ReflectionSequence.from_list(values))
        assert (info.value.index, info.value.value) == (first_bad, 1.5), name


def test_the_table_is_freed_by_reference_counting():
    a = jacobi_opuc_reflections(0.3, 0.7)
    before = dict(vars(a))
    gc.disable()
    try:
        table = _table(a, 64)
        build_H(table, TruncationSpec.from_dim(64))
        szego_eval(table, 64, 0.5)
        alive = weakref.ref(table)
        del table
        assert alive() is None
    finally:
        gc.enable()
    assert vars(a) == before  # nothing was cached on the sequence
    with pytest.raises(InvalidParameterError, match="cannot serve"):
        build_K(_table(a, 7), 1.0, TRUNC8)


SWEEP_LAMS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
STEBZ_CASES = {
    # spectrum_sweep.py at its defaults: free reflections, dim 200
    "sweep defaults": (lambda: ReflectionSequence.constant(0.0), 200, SWEEP_LAMS),
    # spectrum_sweep.py on --xi/--eta drawn as the battery draws them
    "sweep xi eta": (lambda: jacobi_opuc_reflections(0.2585, 0.2491), 200, SWEEP_LAMS),
    "sweep xi eta ends": (lambda: jacobi_opuc_reflections(-0.4969, 0.9873), 200, SWEEP_LAMS),
    # the spectrum suite at dim 4000
    "spectrum suite": (lambda: ReflectionSequence.constant(0.0), 4000, (0.5, 1.0, 2.0)),
}


def census_windows(lam, inflate=0.05):
    """The windows ``band_census`` searches, rebuilt from its documented rule."""
    bands = essential_spectrum_periodic(lam)
    starts = [-math.inf, *(q + inflate for _, q in bands)]
    ends = [*(p - inflate for p, _ in bands), math.inf]
    return [(lo, hi) for lo, hi in zip(starts, ends) if lo < hi]


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name", list(STEBZ_CASES))
def test_stebz_equals_eigh_tridiagonal_bit_for_bit(name):
    make, dim, lams = STEBZ_CASES[name]
    a, trunc = make(), TruncationSpec.from_dim(dim)
    for lam in lams:
        K = build_K(a, lam, trunc)
        diag, off = K.bands
        gate = cmv._tridiagonal(K)  # the bands as given, at s = 1
        for k in (0, dim - 1):
            want = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(k, k))
            assert hexes(cmv._stebz(*gate, "i", k, k)) == hexes(want), (lam, k)
        windows = census_windows(lam)
        for lo, hi in [*windows, (-0.05, 0.05)]:
            want = eigh_tridiagonal(diag, off, eigvals_only=True, select="v", select_range=(lo, hi))
            assert hexes(cmv._stebz(*gate, "v", lo, hi)) == hexes(want), (lam, lo, hi)


@pytest.mark.parametrize("diag, off", [([0.3], []), ([0.3, -0.2], [0.5])])
def test_stebz_at_one_and_two_rows(diag, off):
    # at n = 1 eigh_tridiagonal answers without LAPACK, and the wrapper
    # refuses an empty off-diagonal
    diag, off = np.array(diag), np.array(off)
    gate = cmv._tridiagonal(BandedSymmetricMatrix((diag, off)))
    for lo, hi in ((0.0, 1.0), (0.3, 1.0), (-1.0, 0.3), (-1.0, -0.5)):
        want = eigh_tridiagonal(diag, off, eigvals_only=True, select="v", select_range=(lo, hi))
        assert hexes(cmv._stebz(*gate, "v", lo, hi)) == hexes(want)
    for k in range(len(diag)):
        want = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(k, k))
        assert hexes(cmv._stebz(*gate, "i", k, k)) == hexes(want)


def test_band_census_does_not_call_eigh_tridiagonal(monkeypatch):
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("eigh_tridiagonal was called")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
    K = build_K(jacobi_opuc_reflections(0.3, 0.7), 2.0, TruncationSpec.from_dim(200))
    assert band_census(K, essential_spectrum_periodic(2.0), 0.05)[0] == 1


def test_each_public_eigen_call_passes_the_gate_once(monkeypatch):
    # the census checked its matrix twice, once more through the counts
    gate, calls = cmv._tridiagonal, []
    monkeypatch.setattr(cmv, "_tridiagonal", lambda m: calls.append(m) or gate(m))
    K = build_K(jacobi_opuc_reflections(0.3, 0.7), 2.0, TruncationSpec.from_dim(200))
    for call in (
        lambda: tridiagonal_eigenvalues(K),
        lambda: eigenvalue_counts(K, [-1.0, 0.0, 1.0]),
        lambda: band_census(K, essential_spectrum_periodic(2.0), 0.05),
    ):
        calls.clear()
        call()
        assert len(calls) == 1 and calls[0] is K


def test_sturm_counts_at_infinity_are_zero_and_dim():
    # band_census takes these counts as known; here they are counted, on
    # entries from 1e-300 to 1e300, the diagonal dominating or not
    rng = np.random.default_rng(20261020)
    for trial in range(400):
        dim = int(rng.integers(1, 80))
        d_scale, e_scale = 10.0 ** rng.uniform(-300, 300, size=2)
        diag = rng.uniform(-1.0, 1.0, dim) * d_scale
        off = rng.uniform(-1.0, 1.0, dim - 1) * e_scale
        if trial % 3 == 1:  # every diagonal entry at the radius
            diag = d_scale * rng.choice([-1.0, 1.0], dim)
        elif trial % 3 == 2:
            off[:] = e_scale
        m = BandedSymmetricMatrix((diag, off))
        assert eigenvalue_counts(m, [-math.inf, math.inf]).tolist() == [0, dim], trial


@pytest.mark.parametrize("shift", [10**5000, -(10**400), Fraction(10**5000, 3)], ids=["int", "int-400", "Fraction"])
def test_a_shift_beyond_the_float_range_is_refused(shift):
    # np.asarray(shifts, dtype=float) raised a bare OverflowError; a float
    # shift of +-inf still counts 0 or dim
    m = BandedSymmetricMatrix((np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0])))
    with pytest.raises(InvalidParameterError, match="shifts that are floats or within the float range"):
        eigenvalue_counts(m, [0.5, shift])
    assert eigenvalue_counts(m, [Fraction(1, 2), 10**300, -math.inf]).tolist() == eigenvalue_counts(m, [0.5, 1e300, -math.inf]).tolist()


def test_census_at_the_gershgorin_radius_and_the_float_edge():
    # the diagonal at 1e20 held eigenvalues at the old finite window end,
    # which the census missed
    diag = np.array([1e20, -1e20, 1e20])
    m = BandedSymmetricMatrix((diag, np.array([1e-3, 1e-3])))
    assert band_census(m, [(-1.0, 1.0)], 0.05)[:2] == (3, [-1e20, 1e20, 1e20])
    # up to the largest float; above max float / 4 these were refused
    for size in (1e300, 4e307, 4.5e307, 9e307, 1.79e308):
        m = BandedSymmetricMatrix((np.array([size, 0.0, -size]), np.array([1.0, 1.0])))
        assert band_census(m, [(-1.0, 1.0)], 0.05) == (2, [-size, size], 1), size


def test_counts_at_an_off_diagonal_whose_square_overflows():
    # above sqrt(max float) = 1.34e154 these were refused, and from about
    # 7e153 they were wrong; unscaled, at 1e155 the square overflowed:
    # counts [1, 1, 1, 1] for the true [0, 1, 2, 4]
    edge = math.sqrt(sys.float_info.max)  # the largest float whose square is finite
    shifts = [-1e300, -2.0, 0.5, 1e300]
    for size in (1e150, 7e153, edge, math.nextafter(edge, math.inf), 1e155, 1e200):
        # lam^2 = ((b^2 + 2) +- sqrt(b^4 + 4)) / 2: +-size and +-1 to float precision
        m = BandedSymmetricMatrix((np.zeros(4), np.array([size, 1.0, 1.0])))
        assert eigenvalue_counts(m, shifts).tolist() == [0, 1, 2, 4], size
        n_outside, values, _ = band_census(m, [(-1.5, 1.5)], 0.05)
        assert n_outside == 2, size
        # bisection lands within two units in the last place, as at size 1
        np.testing.assert_allclose(values, [-size, size], rtol=4 * np.finfo(float).eps, atol=0)
    for size in (1e150, edge):  # these two land exactly
        m = BandedSymmetricMatrix((np.zeros(4), np.array([size, 1.0, 1.0])))
        assert band_census(m, [(-1.5, 1.5)], 0.05)[:2] == (2, [-size, size])
    for size in (math.inf, math.nan):
        # an inf or nan entry is refused by the one input check
        m = BandedSymmetricMatrix((np.zeros(4), np.array([size, 1.0, 1.0])))
        with pytest.raises(InvalidParameterError, match="finite entries"):
            eigenvalue_counts(m, shifts)
        with pytest.raises(InvalidParameterError, match="finite entries"):
            band_census(m, [(-1.5, 1.5)], 0.05)


@pytest.mark.parametrize(
    "diag, off",
    [([1e308, 0.0], [1e308]), ([1.79e308, 1.0], [1e306]), ([0.0, 0.0, 0.0], [9e307, -9e307])],
    ids=["both", "diagonal", "off-diagonal"],
)
def test_a_gershgorin_reach_that_overflows_is_answered(diag, off):
    # max|d| + 2 max|e| overflows, every eigenvalue is finite, and these were
    # refused; each entry point now answers as eigh_tridiagonal does, without
    # a numpy overflow warning
    diag, off = np.array(diag), np.array(off)
    m = BandedSymmetricMatrix((diag, off))
    want = eigh_tridiagonal(diag, off, eigvals_only=True)
    atol = 4 * np.finfo(float).eps * want.max()  # bisection's rounding at this norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(tridiagonal_eigenvalues(m), want, rtol=0, atol=atol)
        np.testing.assert_allclose(cmv._stebz(*cmv._tridiagonal(m), "v", -math.inf, math.inf), want, rtol=0, atol=atol)
        for k in range(len(diag)):
            np.testing.assert_allclose(cmv._stebz(*cmv._tridiagonal(m), "i", k, k), want[k:k + 1], rtol=0, atol=atol)
        # one shift between each pair of eigenvalues, each far from both
        shifts = [-math.inf, *((want[:-1] + want[1:]) / 2), math.inf]
        assert eigenvalue_counts(m, shifts).tolist() == list(range(len(diag) + 1))
        n_outside, values, _ = band_census(m, [(-1.0, 1.0)], 0.0)
        assert n_outside == len(diag)
        np.testing.assert_allclose(values, want, rtol=0, atol=atol)
    if diag.tolist() == [1e308, 0.0]:
        # the true answers: eigenvalues (1 -+ sqrt(5)) / 2 * 1e308
        assert eigenvalue_counts(m, [-math.inf, 0.0, math.inf]).tolist() == [0, 1, 2]
        assert band_census(m, [(-1.0, 1.0)], 0.0) == (2, [-6.180339887498949e307, 1.6180339887498947e308], 0)


def test_only_an_eigenvalue_beyond_the_float_range_is_refused():
    # the eigenvalues are 0 and 3.4e308; eigh_tridiagonal returns [0, inf].
    # Each entry point raises exactly where it would return 3.4e308, and
    # counts, which return no eigenvalue, answer; no numpy warning is raised
    diag, off = np.array([1.7e308, 1.7e308]), np.array([1.7e308])
    m = BandedSymmetricMatrix((diag, off))
    gate = cmv._tridiagonal(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eigenvalue_counts(m, [-math.inf, -1e300, 1e300, math.inf]).tolist() == [0, 0, 1, 2]
        # an infinite widening leaves no eigenvalue to locate
        assert band_census(m, [(-1.0, 1.0)], math.inf) == (0, [], 2)
        assert abs(cmv._stebz(*gate, "i", 0, 0)[0]) < 1e300
        assert len(cmv._stebz(*gate, "v", -math.inf, 1e300)) == 1
        for call in (
            lambda: tridiagonal_eigenvalues(m),
            lambda: band_census(m, [(-1.0, 1.0)], 0.0),
            lambda: cmv._stebz(*gate, "v", 1e300, math.inf),
            lambda: cmv._stebz(*gate, "i", 1, 1),
        ):
            with pytest.raises(InvalidParameterError, match="eigenvalue is too large for a float"):
                call()


def test_shifts_and_window_edges_that_overflow_at_the_scale_raise_no_warning():
    # at 1e-170 the bands are scaled up by 2^81, so a shift or window
    # edge of 1e300 overflowed there with a numpy warning; it counts as +-inf
    m = BandedSymmetricMatrix((np.zeros(2), np.array([1e-170])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eigenvalue_counts(m, [-1e300, 1e300]).tolist() == [0, 2]
        bands = [(np.float64(-1e300), np.float64(-1e299)), (np.float64(1e299), np.float64(1e300))]
        n_outside, values, n_near_zero = band_census(m, bands, 0.0)
    assert (n_outside, n_near_zero) == (2, 0)
    np.testing.assert_allclose(values, [-1e-170, 1e-170], rtol=4 * np.finfo(float).eps, atol=0)


def test_census_at_a_scale_whose_squares_underflow():
    # at 1e-170 the off-diagonal's square underflowed to 0: counts [0, 2]
    # and a census of (0, [], 0)
    m = BandedSymmetricMatrix((np.zeros(2), np.array([1e-170])))
    assert eigenvalue_counts(m, [-5e-171, 5e-171]).tolist() == [1, 1]
    n_outside, values, n_near_zero = band_census(m, [(-5e-171, 5e-171)], 0.0)
    assert (n_outside, n_near_zero) == (2, 0)
    # bisection lands within two units in the last place, as at size 1
    np.testing.assert_allclose(values, [-1e-170, 1e-170], rtol=4 * np.finfo(float).eps, atol=0)


def test_counts_at_random_scales_equal_the_scaled_dense_spectrum():
    # entries from 1e-300 to 1e300, the diagonal and the off-diagonal scaled
    # apart; the reference is numpy eigvalsh of the matrix scaled by the power
    # of two that brings its largest entry near 1, and every shift lies more
    # than 1e-10 times that entry from each eigenvalue
    rng = np.random.default_rng(20261021)
    checked = 0
    for trial in range(300):
        dim = int(rng.integers(1, 60))
        d_scale, e_scale = 10.0 ** rng.uniform(-300, 300, size=2)
        diag = rng.uniform(-1.0, 1.0, dim) * d_scale
        off = rng.uniform(-1.0, 1.0, dim - 1) * e_scale
        top = max(np.abs(diag).max(), np.abs(off).max(initial=0.0))
        s = 2.0 ** -math.frexp(top)[1]
        eigs = np.linalg.eigvalsh(BandedSymmetricMatrix((diag * s, off * s)).to_dense())
        shifts = rng.uniform(-1.5, 1.5, 8)  # in units of the scaled matrix
        shifts = shifts[np.abs(shifts[:, None] - eigs[None, :]).min(axis=1) > 1e-10 * top * s]
        want = [int(np.count_nonzero(eigs < t)) for t in shifts]
        got = eigenvalue_counts(BandedSymmetricMatrix((diag, off)), shifts / s)
        assert got.tolist() == want, trial
        checked += len(shifts)
    assert checked > 2000


def test_band_census_keeps_the_outer_windows_when_a_widened_edge_overflows():
    big = sys.float_info.max
    m = BandedSymmetricMatrix((np.array([-0.7 * big, 0.0, 0.7 * big]), np.zeros(2)))
    # widened by 0.2 * big, the outer band edges overflow to -inf and inf;
    # only 0 lies outside, in the window (-0.6 * big, 0.6 * big)
    bands = [(-0.9 * big, -0.8 * big), (0.8 * big, 0.9 * big)]
    assert band_census(m, bands, 0.2 * big) == (1, [0.0], 1)
    # an infinite width leaves nothing outside and everything near zero
    assert band_census(m, bands, math.inf) == (0, [], 3)
    assert band_census(m, [], math.inf) == (3, [-0.7 * big, 0.0, 0.7 * big], 3)


def test_band_census_widens_numpy_band_edges_without_a_warning():
    # numpy scalars overflowed in q + inflate with a RuntimeWarning, an error
    # here; Python floats overflow quietly to +-inf and give the census
    m = BandedSymmetricMatrix((np.array([0.0, 1.0, 2.0]), np.zeros(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bands, inflate in (
            ([(-1.5e308, 1.5e308)], 1e308),
            (np.array([(-1.5e308, 1.5e308)]), 1e308),
            (np.array([(-1.5e308, 1.5e308)]), np.float64(1e308)),
            ([(-1.5e308, 1.5e308)], np.float64(1e308)),
        ):
            assert band_census(m, bands, inflate) == (0, [], 3)
