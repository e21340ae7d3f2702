"""Tabulate closed-form weights against their recurrence families.

For each requested family the script recovers recurrence coefficients from
the weight by quadrature alone and prints them next to the closed-form
coefficients, with the worst deviation.  This is the weight <-> recurrence
round trip that the identification rests on; the band-density case also
reports the failing alternative closed form.  Invalid parameters (an --n
outside 0..29, the recovery's degree cap less one, say) print ``error: ...``
to stderr and exit 2.

Examples
--------
python3 scripts/weight_tables.py --family sdg --xi 1 --eta 0.5
python3 scripts/weight_tables.py --family big_m1 --xi 0.5 --eta 1 --lam 2
python3 scripts/weight_tables.py --family periodic --lam 0.5 --n 15
"""

import argparse
import sys

import numpy as np

from cmvpencil.errors import CmvPencilError, InvalidParameterError
from cmvpencil.maps import big_m1_parameters
from cmvpencil.measures import (
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


def closed_form_pair(args):
    """(measure, closed-form recurrence) for the requested family."""
    if args.family == "sdg":
        measure = named_weight("sdg", xi=args.xi, eta=args.eta)
        rec = sdg_recurrence(jacobi_opuc_reflections(args.xi, args.eta))
    elif args.family == "big_m1":
        params = big_m1_parameters(args.xi, args.eta, args.lam)
        measure = named_weight("big_m1", alpha=params.alpha, beta=params.beta, c=params.c)
        rec = params.resolved
    elif args.family == "periodic":
        measure = named_weight("periodic", lam=args.lam)
        rec = pencil_recurrence(ReflectionSequence.constant(0.0), args.lam)
    else:
        raise SystemExit(f"unknown family {args.family!r}")
    return measure, rec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--family", choices=("sdg", "big_m1", "periodic"), default="sdg")
    parser.add_argument("--xi", type=float, default=0.0)
    parser.add_argument("--eta", type=float, default=0.0)
    parser.add_argument("--lam", type=float, default=2.0)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--output", default=None, help="optional CSV path")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except CmvPencilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args):
    # stieltjes_recurrence recovers indices 0 .. --n + 1 and stops at index 30
    if not 0 <= args.n <= 29:
        raise InvalidParameterError(f"--n must be in 0..29, got {args.n}")
    measure, rec = closed_form_pair(args)
    recovered = stieltjes_recurrence(measure, args.n + 1, tol=1e-9)

    header = ["n", "b_from_weight", "b_closed_form", "u_from_weight", "u_closed_form"]
    lines = [",".join(header)]
    worst = 0.0
    print(f"# family {args.family}: recurrence recovered from the weight vs closed form")
    print(",".join(header))
    for n in range(args.n + 1):
        bw, bc = float(recovered.b(n)), float(rec.b(n))
        uw, uc = float(recovered.u(n)), float(rec.u(n))
        worst = max(worst, abs(bw - bc), abs(uw - uc))
        line = ",".join("%.17g" % v for v in (n, bw, bc, uw, uc))
        print(line)
        lines.append(line)
    print(f"# worst coefficient deviation: {worst:.3e}")

    if args.family == "periodic" and args.lam != 1.0:
        # report the alternative display's failure on a band grid
        lo, hi = abs(args.lam - 1.0), args.lam + 1.0
        grid = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7)
        dev = 0.0
        for t in grid:
            try:
                alt = periodic_weight_verbatim(args.lam, float(t))
            except InvalidParameterError:
                dev = float("inf")
                break
            dev = max(dev, abs(alt - stieltjes_perron_density(args.lam, float(t))))
        print(f"# alternative closed-form display deviates by {dev:.3e} on the band")

    if args.output:
        with open(args.output, "w", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"# wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
