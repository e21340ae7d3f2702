"""Correctness gates: each result is checked by a route independent of the
call that produced it.

Every gate returns True when the result is correct (the Weyl gate returns
the number of incorrect points).  Gates never raise on a wrong result; the
benchmark counts a gate failure as a failed op.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

IDENTITY_TOL = 1e-13  # the matrix-identities suite tolerance
RECOVERY_TOL = 1e-7  # the big-m1 and little-m1 suite tolerance
SCRIPT_TOL = 1e-7
WEYL_TOL = 1e-12  # the weyl suite tolerance
ENTRY_TOL = 1e-13

_DEVIATION = re.compile(r"^# .*(?:deviation|deviates by):? ([^ ]+)")


# -- CLI and scripts ---------------------------------------------------------


def csv_rows(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0] if rows else []), rows[1:]


def verify_ok(result, reference: str | None) -> bool:
    """Exit code 0, every check row passed, output equal to ``reference``."""
    code, text = result
    header, rows = csv_rows(text)
    if code != 0 or header != ["suite", "check", "passed", "value", "tol"] or not rows:
        return False
    passed = header.index("passed")
    if any(row[passed] != "1" for row in rows):
        return False
    return reference is None or text == reference


def script_ok(result) -> bool:
    """Exit code 0 and every printed worst deviation at most SCRIPT_TOL.

    The alternative-display line of weight_tables.py reports a known
    disagreement, not a deviation of the computed result, so it is skipped.
    """
    code, text = result
    values = [
        float(m.group(1))
        for line in text.splitlines()
        if not line.startswith("# alternative")
        for m in [_DEVIATION.match(line)]
        if m
    ]
    return code == 0 and bool(values) and all(v <= SCRIPT_TOL for v in values)


# -- closed forms, written out here rather than taken from the package -------


def jacobi_reflections(xi: float, eta: float, count: int) -> np.ndarray:
    """a_n of the circle Jacobi family (the closed form in its docstring)."""
    n = np.arange(count, dtype=float)
    den = n + xi + eta + 2
    return np.where(n % 2 == 0, (eta - xi) / den, -(1 + xi + eta) / den)


def pencil_bands(a: np.ndarray, lam: float, dim: int):
    """Diagonal and off-diagonal of K = L + lam*M (build_K docstring)."""
    prev = np.concatenate(([-1.0], a[: dim - 1]))
    n = np.arange(dim)
    diag = np.where(n % 2 == 0, a[:dim] - lam * prev, lam * a[:dim] - prev)
    r = np.sqrt(1.0 - a[: dim - 1] ** 2)
    off = np.where(n[: dim - 1] % 2 == 0, r, lam * r)
    return diag, off


def sturm_count(diag, off, shift: float) -> int:
    """Eigenvalues below ``shift``: negative pivots of the LDL^T of K - shift*I."""
    pivmin = 1e-300
    count = 0
    d = diag[0] - shift
    for i in range(len(diag)):
        if i:
            d = (diag[i] - shift) - off[i - 1] * off[i - 1] / d
        if abs(d) < pivmin:
            d = -pivmin
        if d < 0:
            count += 1
    return count


def band_edges(lam: float):
    lo, hi = abs(lam - 1.0), lam + 1.0
    return (-hi, -lo, lo, hi)


# -- pencil matrices -----------------------------------------------------------


def spectrum_ok(result, dim: int, xi: float, eta: float, lam: float) -> bool:
    """Full spectrum from ``cmvpencil spectrum``: dim ascending values whose
    sum is trace(K) and whose count below each band edge matches a Sturm
    count of K built here from the closed-form reflections."""
    code, text = result
    header, rows = csv_rows(text)
    if code != 0 or header[:2] != ["k", "eigenvalue"] or len(rows) != dim:
        return False
    eigs = np.array([float(row[1]) for row in rows])
    if np.any(np.diff(eigs) < 0):
        return False
    diag, off = pencil_bands(jacobi_reflections(xi, eta, dim), lam, dim)
    if abs(eigs.sum() - diag.sum()) > 1e-9 * dim:
        return False
    diag_list, off_list = diag.tolist(), off.tolist()
    return all(
        int(np.count_nonzero(eigs < edge)) == sturm_count(diag_list, off_list, edge)
        for edge in band_edges(lam)
    )


def identities_ok(residuals: dict) -> bool:
    return len(residuals) == 6 and all(v <= IDENTITY_TOL for v in residuals.values())


def build_K_ok(K, xi: float, eta: float, lam: float, spots) -> bool:
    """Spot entries of build_K against its docstring's entry formulas."""
    dim = K.dim
    diag, off = pencil_bands(jacobi_reflections(xi, eta, dim), lam, dim)
    spots = np.asarray(spots)
    inner = spots[spots < dim - 1]
    return bool(
        K.bandwidth == 1
        and np.all(np.abs(K.bands[0][spots] - diag[spots]) <= ENTRY_TOL)
        and np.all(np.abs(K.bands[1][inner] - off[inner]) <= ENTRY_TOL)
    )


def build_H_ok(H, a: np.ndarray, spots) -> bool:
    """Spot entries of build_H on interior rows against H = J^2 - 2I, with
    J = tridiag(r_{n-1}, a_n - a_{n-1}, r_n) written out entrywise."""
    dim = H.dim
    i = np.asarray(spots)
    i = i[i <= dim - 3]
    ext = np.concatenate(([-1.0], a[: dim + 1]))  # ext[n + 1] = a_n, a_{-1} = -1
    r = np.sqrt(1.0 - ext**2)  # r[n + 1] = r_n, r_{-1} = 0
    a_i, a_prev, a_next = ext[i + 1], ext[i], ext[i + 2]
    h0 = (a_i - a_prev) ** 2 + r[i] ** 2 + r[i + 1] ** 2 - 2.0
    h1 = r[i + 1] * (a_next - a_prev)
    h2 = r[i + 1] * r[i + 2]
    tol = 1e-12
    return bool(
        H.bandwidth == 2
        and np.all(np.abs(H.bands[0][i] - h0) <= tol)
        and np.all(np.abs(H.bands[1][i] - h1) <= tol)
        and np.all(np.abs(H.bands[2][i] - h2) <= tol)
    )


# -- weights, recurrences, operator ---------------------------------------------


def recovery_ok(recovered, closed, n_max: int) -> bool:
    """Recovered b_n, u_n equal the closed-form ones through degree n_max."""
    for n in range(n_max + 1):
        if not (
            abs(float(recovered.b(n)) - float(closed.b(n))) <= RECOVERY_TOL
            and abs(float(recovered.u(n)) - float(closed.u(n))) <= RECOVERY_TOL
        ):
            return False
    return True


def gram_ok(value: float) -> bool:
    """Normalized off-diagonal Gram entry of an orthogonal family."""
    return math.isfinite(value) and abs(value) <= RECOVERY_TOL


def eigenfunction_ok(report, n: int, alpha, beta) -> bool:
    """Exact arithmetic, a literally zero residual, and the closed-form
    eigenvalue 2n (even n) or -2(alpha + beta + n + 1) (odd n)."""
    expected = 2 * n if n % 2 == 0 else -2 * (alpha + beta + n + 1)
    coeffs = report.residual.coeffs
    return bool(
        report.exact
        and all(c == 0 and not isinstance(c, float) for c in coeffs)
        and report.eigenvalue == expected
        and report.n == n
    )


def weyl_failures(z: np.ndarray, values, lam: float, composed: bool) -> int:
    """Points where m fails its defining quadratic (relative residual above
    WEYL_TOL) or where Im m lacks the sign of Im z.

    m_per solves lam^2 z m^2 + (z^2 - 1 + lam^2) m + z = 0.  With
    m_full = m_per/(1 + lam*m_per), substituting m_per = f/(1 - lam*f) gives
    the quadratic that m_full = f must satisfy.
    """
    m = np.asarray(values, dtype=complex)
    if m.shape != z.shape:
        return len(z)
    b0 = z * z - 1.0 + lam * lam
    if composed:
        qa = 2.0 * lam * lam * z - lam * b0
        qb = b0 - 2.0 * lam * z
    else:
        qa = lam * lam * z
        qb = b0
    terms = np.abs(qa * m * m) + np.abs(qb * m) + np.abs(z)
    residual = np.abs(qa * m * m + qb * m + z) / terms
    bad = ~(residual <= WEYL_TOL) | (np.sign(m.imag) != np.sign(z.imag))
    return int(np.count_nonzero(bad))
