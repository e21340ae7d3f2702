"""Sweep the pencil parameter and track the truncated spectrum.

For each lam on the grid the script reports the predicted essential-spectrum
bands, the eigenvalue range of the truncated pencil, the outlier count
against the inflated bands, and the number of eigenvalues near zero (where
a single outlier appears once lam > 1).  The leading 2x2 block of build_K,
checked against the quadratic formula on the convention's entries
a_0 + lam, lam*a_1 - a_0 and r_0, guards the matrix conventions.  The
bands are widened by INFLATE, the spectrum suite's ``verify._INFLATE``
(0.05).  Each pencil passes the library's one eigen gate once per lam, and
the census and eig_min/eig_max read the gate's output.  The census resolves
eigenvalues to about 1e-14 of the largest entry of K, which 1 + lam bounds,
so a lam with INFLATE < 1e-14 * (1 + lam), from about 5e12 up, is refused:
there the widening falls below the eigenvalues' rounding error and every
eigenvalue could count as an outlier.  An odd --dim, one below 4, a nan or infinite
--lams value, one at or below 0, one beyond that resolution, or an option the
script does not read (--eta without --xi) prints ``error: ...`` to stderr,
and nothing to stdout, and exits 2; exit codes follow the CLI's one rule.
Every lam is checked before any output.  --output writes the table through
the CLI's one file writer, which makes the parent directory and honours
CMVPENCIL_OUTDIR, before anything is printed: a path that cannot be
written prints ``error: ...`` naming it, nothing to stdout, and exits 2.
Without --eta, the closed-form reflections take eta = 0, and the header
says so.

Examples
--------
python3 scripts/spectrum_sweep.py
python3 scripts/spectrum_sweep.py --dim 400 --xi 0.3 --eta 0.7 --output sweep.csv
"""

import functools
import math
import sys

import numpy as np

from cmvpencil.cmv import TruncationSpec, _census, _stebz, _tridiagonal, build_K
from cmvpencil.cli import ArgumentParser, _csv_text, _write_text, exit_code
from cmvpencil.errors import InvalidParameterError
from cmvpencil.measures import essential_spectrum_periodic
from cmvpencil.recurrences import ReflectionSequence, _table, jacobi_opuc_reflections
from cmvpencil.verify import _INFLATE as INFLATE  # how far each band is widened

DEFAULT_LAMS = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0]
HEADER = ("lam", "band_inner", "band_outer", "eig_min", "eig_max", "outliers", "near_zero")


def two_by_two_check(a, lam):
    """Eigenvalues of build_K's leading 2x2 block vs the quadratic formula on
    the convention's entries a_0 + lam, lam*a_1 - a_0 and r_0."""
    d0 = float(a(0)) + lam  # a_0 - lam*a_{-1}
    d1 = lam * float(a(1)) - float(a(0))
    off = a.r(0)
    tr, det = d0 + d1, d0 * d1 - off * off
    disc = math.sqrt(tr * tr - 4 * det)
    by_formula = sorted(((tr - disc) / 2, (tr + disc) / 2))
    diag, offs = build_K(a, lam, TruncationSpec.from_dim(4)).bands
    by_solver = np.linalg.eigvalsh(np.array([[diag[0], offs[0]], [offs[0], diag[1]]]))
    return max(abs(by_formula[0] - by_solver[0]), abs(by_formula[1] - by_solver[1]))


def sweep(a, lams, dim):
    trunc = TruncationSpec.from_dim(dim)
    table = _table(a, dim)  # the coefficients are read once for every lam
    rows = []
    for lam in lams:
        bands = essential_spectrum_periodic(lam)
        tri = _tridiagonal(build_K(table, lam, trunc))  # one gate for the census and both ends
        outliers, _, near_zero = _census(*tri, bands, INFLATE)
        eig_min, eig_max = (float(_stebz(*tri, "i", k, k)[0]) for k in (0, dim - 1))
        rows.append((lam, *bands[1], eig_min, eig_max, outliers, near_zero))
    return rows


@functools.cache
def _build_parser():
    # built once per process, as the CLI's: parsing never changes the parser
    parser = ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dim", type=int, default=200)
    parser.add_argument("--xi", type=float, default=None, help="use the closed-form reflections")
    parser.add_argument("--eta", type=float, default=None)
    parser.add_argument("--lams", type=float, nargs="*", default=DEFAULT_LAMS)
    parser.add_argument("--output", default=None, help="optional CSV path")
    return parser


def main(argv=None):
    return exit_code(run, _build_parser().parse_args(argv))


def run(args):
    # the dimension, every lam and the options read are checked before any output
    if args.xi is None and args.eta is not None:
        raise InvalidParameterError("--eta is not read without --xi")
    TruncationSpec.from_dim(args.dim)
    if not all(math.isfinite(v) for v in args.lams):
        raise InvalidParameterError(f"--lams must be finite, got {args.lams}")
    for lam in args.lams:
        essential_spectrum_periodic(lam)  # raises for lam <= 0
        # 1 + lam bounds the entries of K, and the census resolves about
        # 1e-14 of the largest; a narrower widening cannot tell an outlier
        if INFLATE < 1e-14 * (1 + lam):
            raise InvalidParameterError(f"--lams {lam:g} is beyond the census's resolution: {INFLATE} < 1e-14 * (1 + lam)")
    if args.xi is None:
        a = ReflectionSequence.constant(0.0)
        label = "free (a = 0)"
    else:
        eta = args.eta if args.eta is not None else 0.0
        a = jacobi_opuc_reflections(args.xi, eta)
        label = f"closed-form reflections (xi={args.xi}, eta={eta})"

    # the table is made and written before any output, so an error in
    # either prints nothing
    check = two_by_two_check(a, 2.0)
    text = _csv_text(HEADER, sweep(a, args.lams, args.dim))
    if args.output:
        _write_text(args.output, text)
    print(f"# 2x2 truncation vs quadratic formula: max deviation {check:.2e}")
    print(f"# reflections: {label}, dim = {args.dim}")
    print(text, end="")
    if args.output:
        print(f"# wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
