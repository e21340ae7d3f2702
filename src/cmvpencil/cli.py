"""Command-line interface.

Three subcommands:

- ``recurrence``: tabulate reflection and pencil recurrence coefficients.
- ``spectrum``: eigenvalues of the truncated pencil with band membership.
- ``verify``: run named verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 bad
usage or parameters (a non-finite numeric option included), 3 quadrature or
iteration non-convergence.

Output is deterministic: fixed float formatting, no timestamps, sorted JSON
keys, and LF newlines, so repeated ``--reproducible`` runs are byte-identical.
If ``--output`` is a relative path and ``CMVPENCIL_OUTDIR`` is set, the file
goes under that directory; without ``--output`` the table goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .cmv import TruncationSpec, build_K, tridiagonal_eigenvalues
from .errors import CmvPencilError, InvalidParameterError, NonConvergenceError
from .measures import essential_spectrum_periodic
from .recurrences import jacobi_opuc_reflections, pencil_recurrence
from .verify import SUITES, run_suite

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Validated run-wide options shared by all subcommands.

    Parameters
    ----------
    fmt : str
        "csv" or "json".
    output : str or None
        Output path; None writes to stdout.
    reproducible : bool
        Assert byte-identical reruns (the output is deterministic either
        way; the flag records the intent in the output metadata).
    """

    fmt: str = "csv"
    output: str | None = None
    reproducible: bool = False

    def __post_init__(self):
        if self.fmt not in ("csv", "json"):
            raise InvalidParameterError(f"format must be csv or json, got {self.fmt!r}")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.17g" % value
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _resolve_output(config: RunConfig):
    if config.output is None:
        return None
    path = config.output
    outdir = os.environ.get("CMVPENCIL_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    return path


def _emit(config: RunConfig, command: str, params: dict, columns, rows, extra=None) -> None:
    if config.fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_format_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "command": command,
            "params": params,
            "reproducible": config.reproducible,
            "columns": list(columns),
            "rows": [
                [(_format_cell(v) if isinstance(v, float) else v) for v in row]
                for row in rows
            ],
        }
        if extra:
            payload.update(extra)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    path = _resolve_output(config)
    if path is None:
        sys.stdout.write(text)
    else:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", newline="\n") as handle:
            handle.write(text)


def _config_from(args) -> RunConfig:
    return RunConfig(
        fmt=args.format,
        output=args.output,
        reproducible=args.reproducible,
    )


def cmd_recurrence(args) -> int:
    config = _config_from(args)
    if args.n < 0:
        raise InvalidParameterError(f"need n >= 0, got {args.n}")
    a = jacobi_opuc_reflections(args.xi, args.eta)
    rec = pencil_recurrence(a, args.lam)
    rows = []
    for n in range(args.n + 1):
        rows.append((n, float(a(n)), float(rec.b(n)), float(rec.u(n))))
    _emit(
        config,
        "recurrence",
        {"xi": args.xi, "eta": args.eta, "lam": args.lam, "n": args.n},
        ("n", "a_n", "b_n", "u_n"),
        rows,
    )
    return 0


def cmd_spectrum(args) -> int:
    config = _config_from(args)
    if args.dim < 4 or args.dim % 2:
        raise InvalidParameterError(f"need even dim >= 4, got {args.dim}")
    a = jacobi_opuc_reflections(args.xi, args.eta)
    K = build_K(a, args.lam, TruncationSpec(n_blocks=args.dim // 2))
    eigs = tridiagonal_eigenvalues(K)
    bands = essential_spectrum_periodic(abs(args.lam))
    rows = []
    for k, e in enumerate(eigs):
        e = float(e)
        nearest = min(bands, key=lambda b: max(b[0] - e, e - b[1], 0.0))
        inside = nearest[0] <= e <= nearest[1]
        rows.append((k, e, inside, float(nearest[0]), float(nearest[1])))
    _emit(
        config,
        "spectrum",
        {"xi": args.xi, "eta": args.eta, "lam": args.lam, "dim": args.dim},
        ("k", "eigenvalue", "inside", "band_lo", "band_hi"),
        rows,
        extra={"bands": [[float(p), float(q)] for p, q in bands]},
    )
    return 0


def _exact_rational(value: float) -> Fraction:
    # CLI decimals are meant literally: 0.5 -> 1/2, 0.25 -> 1/4
    return Fraction(str(value))


def _suite_kwargs(args) -> dict:
    kwargs = {}
    if args.suite == "matrix-identities" and args.dim is not None:
        kwargs["dim"] = args.dim
    if args.suite == "spectrum" and args.dim is not None:
        kwargs["dim"] = args.dim
    if args.suite == "big-m1" and args.lam is not None:
        kwargs["cases"] = [(args.xi or 0.0, args.eta or 0.0, args.lam)]
    if args.suite == "dunkl" and args.alpha is not None:
        kwargs["cases"] = [
            (
                _exact_rational(args.alpha),
                _exact_rational(args.beta if args.beta is not None else 0.0),
                _exact_rational(args.c if args.c is not None else 0.0),
            )
        ]
    return kwargs


def cmd_verify(args) -> int:
    config = _config_from(args)
    if args.suite is None:
        names = list(SUITES)
    else:
        if args.suite not in SUITES:
            raise InvalidParameterError(
                f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}"
            )
        names = [args.suite]
    rows = []
    details = []
    all_passed = True
    for name in names:
        for result in run_suite(name, **_suite_kwargs(args)):
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
            details.append({"suite": name, **result.to_dict()})
    _emit(
        config,
        "verify",
        {"suite": args.suite or "all"},
        ("suite", "check", "passed", "value", "tol"),
        rows,
        extra={"checks": details, "all_passed": all_passed},
    )
    return 0 if all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def _check_finite(args) -> None:
    """Reject nan and inf before any subcommand reads them."""
    for attr, flag in _FLOAT_OPTIONS:
        value = getattr(args, attr, None)
        if value is not None and not math.isfinite(value):
            raise InvalidParameterError(f"{flag} must be finite, got {value!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_finite(args)
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CmvPencilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
