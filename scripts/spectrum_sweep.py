"""Sweep the pencil parameter and track the truncated spectrum.

For each lam on the grid the script reports the predicted essential-spectrum
bands, the eigenvalue range of the truncated pencil, the outlier count
against the inflated bands, and the number of eigenvalues near zero (where
a single outlier appears once lam > 1).  A 2x2 hand truncation checked
against the quadratic formula guards the matrix conventions.  An odd --dim,
one below 4, a nan or infinite --lams or --inflate value, or a --lams value
at or below 0 prints ``error: ...`` to stderr and exits 2, as the CLI does.

Examples
--------
python3 scripts/spectrum_sweep.py
python3 scripts/spectrum_sweep.py --dim 400 --xi 0.3 --eta 0.7 --output sweep.csv
"""

import argparse
import math
import sys

import numpy as np
from scipy.linalg import eigh_tridiagonal

from cmvpencil.cmv import TruncationSpec, band_census, build_K
from cmvpencil.errors import CmvPencilError, InvalidParameterError
from cmvpencil.measures import essential_spectrum_periodic
from cmvpencil.recurrences import ReflectionSequence, jacobi_opuc_reflections

DEFAULT_LAMS = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0]


def two_by_two_check(a, lam):
    """Eigenvalues of the leading 2x2 truncation vs the quadratic formula."""
    d0 = float(a(0)) + lam  # a_0 - lam*a_{-1}
    d1 = lam * float(a(1)) - float(a(0))
    off = a.r(0)
    tr, det = d0 + d1, d0 * d1 - off * off
    disc = math.sqrt(tr * tr - 4 * det)
    by_formula = sorted(((tr - disc) / 2, (tr + disc) / 2))
    by_solver = np.linalg.eigvalsh(np.array([[d0, off], [off, d1]]))
    return max(abs(by_formula[0] - by_solver[0]), abs(by_formula[1] - by_solver[1]))


def sweep(a, lams, dim, inflate):
    trunc = TruncationSpec.from_dim(dim)
    rows = []
    for lam in lams:
        K = build_K(a, lam, trunc)
        diag, off = K.bands
        eig_min, eig_max = (
            float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(k, k))[0])
            for k in (0, dim - 1)
        )
        outliers, _, near_zero = band_census(K, essential_spectrum_periodic(lam), inflate)
        rows.append(
            {
                "lam": lam,
                "band_inner": abs(lam - 1.0),
                "band_outer": lam + 1.0,
                "eig_min": eig_min,
                "eig_max": eig_max,
                "outliers": outliers,
                "near_zero": near_zero,
            }
        )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dim", type=int, default=200)
    parser.add_argument("--xi", type=float, default=None, help="use the closed-form reflections")
    parser.add_argument("--eta", type=float, default=None)
    parser.add_argument("--inflate", type=float, default=0.05)
    parser.add_argument("--lams", type=float, nargs="*", default=DEFAULT_LAMS)
    parser.add_argument("--output", default=None, help="optional CSV path")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except CmvPencilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args):
    # the dimension and every lam are checked before any output
    TruncationSpec.from_dim(args.dim)
    if not all(math.isfinite(v) for v in (*args.lams, args.inflate)):
        raise InvalidParameterError(f"--lams and --inflate must be finite, got {args.lams}, {args.inflate}")
    for lam in args.lams:
        essential_spectrum_periodic(lam)  # raises for lam <= 0
    if args.xi is None:
        a = ReflectionSequence.constant(0.0)
        label = "free (a = 0)"
    else:
        a = jacobi_opuc_reflections(args.xi, args.eta if args.eta is not None else 0.0)
        label = f"closed-form reflections (xi={args.xi}, eta={args.eta})"

    check = two_by_two_check(a, 2.0)
    print(f"# 2x2 truncation vs quadratic formula: max deviation {check:.2e}")
    print(f"# reflections: {label}, dim = {args.dim}")

    rows = sweep(a, args.lams, args.dim, args.inflate)
    header = ["lam", "band_inner", "band_outer", "eig_min", "eig_max", "outliers", "near_zero"]
    print(",".join(header))
    lines = [",".join(header)]
    for row in rows:
        line = ",".join("%.17g" % row[k] if isinstance(row[k], float) else str(row[k]) for k in header)
        print(line)
        lines.append(line)
    if args.output:
        with open(args.output, "w", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"# wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
