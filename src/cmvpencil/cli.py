"""Command-line interface.

Three subcommands:

- ``recurrence``: tabulate reflection and pencil recurrence coefficients.
- ``spectrum``: eigenvalues of the truncated pencil with band membership.
- ``verify``: run named verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure or any
other library error, 2 bad usage or parameters (a non-finite numeric option,
a ``spectrum --lambda`` at or below 0, a ``verify`` option the chosen
suite does not read, or an ``--output`` path that cannot be written,
included), 3 quadrature or iteration non-convergence.
``exit_code`` is the one rule that maps a library error to its code, for
the CLI and both scripts.

Output is deterministic: fixed float formatting, no timestamps, sorted JSON
keys, and LF newlines, so repeated ``--reproducible`` runs are byte-identical.
If ``--output`` is a relative path and ``CMVPENCIL_OUTDIR`` is set, the file
goes under that directory; without ``--output`` the table goes to stdout.
``_write_text`` is the one file writer, for the CLI and both scripts.
The output options (``--format``, ``--output``, ``--reproducible``) are read
from the parsed arguments; argparse's ``choices`` is the one check of
``--format``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from .cmv import TruncationSpec, build_K, tridiagonal_eigenvalues
from .errors import CmvPencilError, InvalidParameterError, NonConvergenceError
from .measures import essential_spectrum_periodic
from .recurrences import jacobi_opuc_reflections, pencil_recurrence
from .verify import SUITES, run_suite

__all__ = ["main"]


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.17g" % value
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


# one formatter per exact cell type, each equal to ``_format_cell`` on that type
_COLUMN_FORMATS = {float: "%.17g".__mod__, bool: ("0", "1").__getitem__, int: repr}


def _csv_text(columns, rows) -> str:
    """The header line and one line per row, LF-terminated; each cell as ``_format_cell``
    writes it.

    Formatted by column: a column whose cells are all of one type of
    ``_COLUMN_FORMATS`` (float, bool or int, exactly) takes that formatter,
    any other column ``_format_cell`` per cell.
    """
    formatted = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        fmt = _COLUMN_FORMATS.get(kinds.pop()) if len(kinds) == 1 else None
        formatted.append(map(fmt or _format_cell, column))
    return "\n".join([",".join(columns), *map(",".join, zip(*formatted))]) + "\n"


def _emit(args, command: str, params: dict, columns, rows, extra=None) -> None:
    """Write the table in ``args.format`` to ``args.output`` (stdout if None)."""
    if args.format == "csv":
        text = _csv_text(columns, rows)
    else:
        payload = {
            "command": command,
            "params": params,
            "reproducible": args.reproducible,
            "columns": list(columns),
            "rows": [
                [(_format_cell(v) if isinstance(v, float) else v) for v in row]
                for row in rows
            ],
        }
        if extra:
            payload.update(extra)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        _write_text(args.output, text)


def _write_text(path: str, text: str) -> None:
    """Write text to path with LF newlines, under ``CMVPENCIL_OUTDIR`` if the
    path is relative and that is set, making the parent directory first.
    The one file writer of the CLI and both scripts; a path that cannot be
    written (a directory, say) raises InvalidParameterError naming it."""
    outdir = os.environ.get("CMVPENCIL_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    parent = os.path.dirname(path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write --output {path}: {exc.strerror or exc}") from exc


def cmd_recurrence(args) -> int:
    if args.n < 0:
        raise InvalidParameterError(f"need n >= 0, got {args.n}")
    a = jacobi_opuc_reflections(args.xi, args.eta)
    rec = pencil_recurrence(a, args.lam)
    rows = []
    for n in range(args.n + 1):
        rows.append((n, float(a(n)), float(rec.b(n)), float(rec.u(n))))
    _emit(
        args,
        "recurrence",
        {"xi": args.xi, "eta": args.eta, "lam": args.lam, "n": args.n},
        ("n", "a_n", "b_n", "u_n"),
        rows,
    )
    return 0


def cmd_spectrum(args) -> int:
    trunc = TruncationSpec.from_dim(args.dim)
    bands = essential_spectrum_periodic(args.lam)
    a = jacobi_opuc_reflections(args.xi, args.eta)
    eigs = tridiagonal_eigenvalues(build_K(a, args.lam, trunc))
    lo, hi = np.array(bands, dtype=float).T
    # distance from each eigenvalue (rows) to each band (columns); argmin
    # takes the first of equally near bands.  Eigenvalues and edges are
    # finite, so a gap that overflows is +-inf, never nan, and still compares
    with np.errstate(over="ignore"):
        gap = np.maximum(np.maximum(lo - eigs[:, None], eigs[:, None] - hi), 0.0)
    nearest = gap.argmin(axis=1)
    lo, hi = lo[nearest], hi[nearest]
    inside = (lo <= eigs) & (eigs <= hi)
    rows = list(zip(range(len(eigs)), eigs.tolist(), inside.tolist(), lo.tolist(), hi.tolist()))
    _emit(
        args,
        "spectrum",
        {"xi": args.xi, "eta": args.eta, "lam": args.lam, "dim": args.dim},
        ("k", "eigenvalue", "inside", "band_lo", "band_hi"),
        rows,
        extra={"bands": [[float(p), float(q)] for p, q in bands]},
    )
    return 0


def _suite_kwargs(args) -> dict:
    """Keyword arguments of the selected suite; an option it would not read is an error."""
    kwargs, read = {}, ()
    if args.suite in ("matrix-identities", "spectrum") and args.dim is not None:
        kwargs["dim"] = args.dim
        read = ("dim",)
    if args.suite == "big-m1" and args.lam is not None:
        kwargs["cases"] = [(args.xi or 0.0, args.eta or 0.0, args.lam)]
        read = ("lam", "xi", "eta")
    if args.suite == "dunkl" and args.alpha is not None:
        # CLI decimals are meant literally: 0.5 -> 1/2, 0.25 -> 1/4
        kwargs["cases"] = [
            tuple(Fraction(str(v)) for v in (args.alpha, args.beta or 0.0, args.c or 0.0))
        ]
        read = ("alpha", "beta", "c")
    for attr, flag in (*_FLOAT_OPTIONS, ("dim", "--dim")):
        if getattr(args, attr) is not None and attr not in read:
            where = f"suite {args.suite!r}" if args.suite else "verify without --suite"
            raise InvalidParameterError(
                f"{flag} is not read by {where} (--dim goes with matrix-identities or "
                "spectrum, --xi/--eta with big-m1 and --lambda, --beta/--c with dunkl "
                "and --alpha)"
            )
    return kwargs


def cmd_verify(args) -> int:
    # run_suite is the one check of the suite name
    names = list(SUITES) if args.suite is None else [args.suite]
    kwargs = _suite_kwargs(args)
    rows = []
    # the per-check details go only to JSON output
    details = [] if args.format == "json" else None
    all_passed = True
    for name in names:
        for result in run_suite(name, **kwargs):
            all_passed = all_passed and result.passed
            rows.append(
                (
                    name,
                    result.label,
                    result.passed,
                    float(result.value),
                    float(result.tol),
                )
            )
            if details is not None:
                details.append({"suite": name, **result.to_dict()})
    _emit(
        args,
        "verify",
        {"suite": args.suite or "all"},
        ("suite", "check", "passed", "value", "tol"),
        rows,
        extra={"checks": details, "all_passed": all_passed},
    )
    return 0 if all_passed else 1


class ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, reading every negative number ``float`` accepts as a value.

    argparse's own negative-number pattern has no exponent and no ``inf`` or
    ``nan``, so it takes ``-9.3e-05`` or ``-inf`` for an option, and
    ``--xi -9.3e-05`` fails with "expected one argument" where
    ``--xi=-9.3e-05`` works.  Its subparsers are of this class too; the
    scripts build their parsers from it.
    """

    _NEGATIVE_NUMBER = re.compile(
        r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER


@functools.cache
def _build_parser() -> ArgumentParser:
    # built once per process: each build leaves about 230 argparse objects in
    # reference cycles, and parsing never changes the parser
    parser = ArgumentParser(
        prog="cmvpencil",
        description="Pencil recurrences, truncated spectra, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_defaults=True):
        p.add_argument("--xi", type=float, default=0.0 if with_defaults else None)
        p.add_argument("--eta", type=float, default=0.0 if with_defaults else None)
        p.add_argument(
            "--lambda",
            dest="lam",
            type=float,
            default=1.0 if with_defaults else None,
            help="pencil parameter",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (stdout if omitted)")
        p.add_argument(
            "--reproducible",
            action="store_true",
            help="assert byte-identical reruns",
        )

    p_rec = sub.add_parser("recurrence", help="tabulate n, a_n, b_n, u_n")
    common(p_rec)
    p_rec.add_argument("--n", type=int, default=10, help="largest index")
    p_rec.set_defaults(func=cmd_recurrence)

    p_spec = sub.add_parser("spectrum", help="truncated pencil eigenvalues")
    common(p_spec)
    p_spec.add_argument("--dim", type=int, default=64, help="truncation dimension")
    p_spec.set_defaults(func=cmd_spectrum)

    p_ver = sub.add_parser("verify", help="run verification suites")
    common(p_ver, with_defaults=False)
    p_ver.add_argument(
        "--suite",
        default=None,
        help=f"one of: {', '.join(sorted(SUITES))} (all when omitted)",
    )
    p_ver.add_argument("--dim", type=int, default=None)
    p_ver.add_argument("--alpha", type=float, default=None)
    p_ver.add_argument("--beta", type=float, default=None)
    p_ver.add_argument("--c", type=float, default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


# float options of every subcommand: (attribute, flag)
_FLOAT_OPTIONS = (
    ("xi", "--xi"),
    ("eta", "--eta"),
    ("lam", "--lambda"),
    ("alpha", "--alpha"),
    ("beta", "--beta"),
    ("c", "--c"),
)


def _run_subcommand(args) -> int:
    """Reject nan and inf before any subcommand reads them, then run the subcommand."""
    for attr, flag in _FLOAT_OPTIONS:
        value = getattr(args, attr, None)
        if value is not None and not math.isfinite(value):
            raise InvalidParameterError(f"{flag} must be finite, got {value!r}")
    return args.func(args)


def exit_code(run, args) -> int:
    """``run(args)``, or for a library error ``error: ...`` on stderr and its exit
    code: 3 for non-convergence, 2 for a bad parameter, 1 otherwise.  The CLI
    and both scripts exit through it."""
    try:
        return run(args)
    except CmvPencilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NonConvergenceError):
            return 3
        return 2 if isinstance(exc, InvalidParameterError) else 1


def main(argv=None) -> int:
    return exit_code(_run_subcommand, _build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
