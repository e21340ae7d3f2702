"""Tabulate closed-form weights against their recurrence families.

For each requested family the script recovers recurrence coefficients from
the weight by quadrature alone and prints them next to the closed-form
coefficients, with the worst deviation.  This is the weight <-> recurrence
round trip that the identification rests on; the band-density case also
reports the failing alternative closed form.  Each family reads only its
own parameters: sdg --xi and --eta, big_m1 all three, periodic --lam; a
parameter read but not given is 0 (--xi, --eta) or 2 (--lam).  Invalid
parameters (an --n outside 0..29, the recovery's degree cap less one, an
--xi such as inf or 1e308 that leaves no finite quadrature rule, or an
option the family does not read, say) print ``error: ...`` to
stderr and exit 2; a recovery that does not converge (--family periodic with
--lam within about 2e-4 of 1, where the bands almost touch) exits 3, as the
CLI does.  A nan deviation is printed as nan.  --output writes the table
through the CLI's one file writer, which makes the parent directory and
honours CMVPENCIL_OUTDIR, before anything is printed: a path that cannot be
written prints ``error: ...`` naming it, nothing to stdout, and exits 2.

Examples
--------
python3 scripts/weight_tables.py --family sdg --xi 1 --eta 0.5
python3 scripts/weight_tables.py --family big_m1 --xi 0.5 --eta 1 --lam 2
python3 scripts/weight_tables.py --family periodic --lam 0.5 --n 15
"""

import functools
import sys

import numpy as np

from cmvpencil import measures
from cmvpencil.cli import ArgumentParser, _csv_text, _write_text, exit_code
from cmvpencil.errors import InvalidParameterError
from cmvpencil.maps import big_m1_parameters
from cmvpencil.measures import (
    essential_spectrum_periodic,
    named_weight,
    periodic_weight_verbatim,
    stieltjes_perron_density,
    stieltjes_recurrence,
)
from cmvpencil.recurrences import (
    ReflectionSequence,
    jacobi_opuc_reflections,
    pencil_recurrence,
    sdg_recurrence,
)

HEADER = ("n", "b_from_weight", "b_closed_form", "u_from_weight", "u_closed_form")
# the parameter options, their values when not given, and the ones each family reads
DEFAULTS = {"xi": 0.0, "eta": 0.0, "lam": 2.0}
READS = {"sdg": ("xi", "eta"), "big_m1": ("xi", "eta", "lam"), "periodic": ("lam",)}


def closed_form_pair(args):
    """(measure, closed-form recurrence) for the requested family."""
    if args.family == "sdg":
        measure = named_weight("sdg", xi=args.xi, eta=args.eta)
        rec = sdg_recurrence(jacobi_opuc_reflections(args.xi, args.eta))
    elif args.family == "big_m1":
        params = big_m1_parameters(args.xi, args.eta, args.lam)
        measure = named_weight("big_m1", alpha=params.alpha, beta=params.beta, c=params.c)
        rec = params.resolved
    else:  # periodic; argparse's choices is the one check of --family
        measure = named_weight("periodic", lam=args.lam)
        rec = pencil_recurrence(ReflectionSequence.constant(0.0), args.lam)
    return measure, rec


@functools.cache
def _build_parser():
    # built once per process, as the CLI's: parsing never changes the parser
    parser = ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--family", choices=("sdg", "big_m1", "periodic"), default="sdg")
    parser.add_argument("--xi", type=float, default=None)
    parser.add_argument("--eta", type=float, default=None)
    parser.add_argument("--lam", type=float, default=None)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--output", default=None, help="optional CSV path")
    return parser


def main(argv=None):
    return exit_code(run, _build_parser().parse_args(argv))


def run(args):
    for name, default in DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in READS[args.family]:
            raise InvalidParameterError(f"--{name} is not read by --family {args.family}")
    # stieltjes_recurrence recovers indices 0 .. --n + 1 and stops at its degree cap
    n_max = measures._STIELTJES_N_MAX - 1
    if not 0 <= args.n <= n_max:
        raise InvalidParameterError(f"--n must be in 0..{n_max}, got {args.n}")
    measure, rec = closed_form_pair(args)
    recovered = stieltjes_recurrence(measure, args.n + 1, tol=1e-9)

    rows = []
    deviations = [0.0]
    for n in range(args.n + 1):
        bw, bc = float(recovered.b(n)), float(rec.b(n))
        uw, uc = float(recovered.u(n)), float(rec.u(n))
        deviations += (abs(bw - bc), abs(uw - uc))
        rows.append((n, bw, bc, uw, uc))
    text = _csv_text(HEADER, rows)
    # np.max keeps a nan, where max would drop it
    notes = [f"# worst coefficient deviation: {np.max(deviations):.3e}"]

    if args.family == "periodic" and args.lam != 1.0:
        # report the alternative display's failure on a band grid
        lo, hi = essential_spectrum_periodic(args.lam)[1]
        grid = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7)
        deviations = [0.0]
        for t in grid:
            try:
                alt = periodic_weight_verbatim(args.lam, float(t))
            except InvalidParameterError:
                deviations.append(np.inf)
                break
            deviations.append(abs(alt - stieltjes_perron_density(args.lam, float(t))))
        notes.append(f"# alternative closed-form display deviates by {np.max(deviations):.3e} on the band")

    # written before anything is printed, so a failed write prints nothing
    if args.output:
        _write_text(args.output, text)
        notes.append(f"# wrote {args.output}")
    print(f"# family {args.family}: recurrence recovered from the weight vs closed form")
    print(text, end="")
    print("\n".join(notes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
