"""Shipped outputs stay byte-identical to the recorded golden files.

Each case runs one command (the default ``verify`` as CSV and as JSON,
``verify --suite matrix-identities --reproducible``, ``verify --suite
spectrum --dim 4000`` as CSV and as JSON, ``spectrum`` at its defaults as CSV
and as JSON and at dim 400 with ``--xi``, ``--eta`` and ``--lambda``, and both
experiment scripts at their defaults and on arguments of the kind the
benchmark's battery draws) and compares its output with ``tests/golden/``:
labels and pass flags first, then every number by ``float.hex``, then the
whole text.  No difference is tolerated.

The files record the output of the numpy, scipy and LAPACK builds they were
made with.  After an intended change of output, regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

# golden file -> ("cli" or a script name, argv)
CASES = {
    "verify.csv": ("cli", ["verify"]),
    "verify.json": ("cli", ["verify", "--format", "json"]),
    "matrix_identities_reproducible.csv": (
        "cli", ["verify", "--suite", "matrix-identities", "--reproducible"]
    ),
    "spectrum.csv": ("cli", ["spectrum"]),
    "spectrum.json": ("cli", ["spectrum", "--format", "json"]),
    "spectrum_xi_eta_lam.csv": (
        "cli", ["spectrum", "--dim", "400", "--xi", "0.3", "--eta", "0.7", "--lambda", "2.3"]
    ),
    "verify_spectrum_dim4000.csv": ("cli", ["verify", "--suite", "spectrum", "--dim", "4000"]),
    "verify_spectrum_dim4000.json": (
        "cli", ["verify", "--suite", "spectrum", "--dim", "4000", "--format", "json"]
    ),
    "spectrum_sweep.txt": ("spectrum_sweep", []),
    "weight_tables.txt": ("weight_tables", []),
    "spectrum_sweep_xi_eta.txt": ("spectrum_sweep", ["--xi", "0.2585", "--eta", "0.2491"]),
    "weight_tables_big_m1.txt": (
        "weight_tables", ["--family", "big_m1", "--xi", "0.3202", "--eta", "0.6591", "--lam", "2.6848"]
    ),
}


def _main(program: str):
    if program == "cli":
        from cmvpencil import cli

        return cli.main
    path = os.path.join(ROOT, "scripts", program + ".py")
    spec = importlib.util.spec_from_file_location(f"golden_{program}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _run(name: str) -> str:
    program, argv = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _main(program)(list(argv))
    assert code == 0, (name, code)
    return out.getvalue()


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], (*path, key))
    elif isinstance(node, list):
        for k, item in enumerate(node):
            yield from _leaves(item, (*path, k))
    else:
        yield path, node


def _cells(name: str, text: str) -> list:
    """(where, cell) for every cell of a CSV line or JSON leaf of the output."""
    if name.endswith(".json"):
        return list(_leaves(json.loads(text)))
    return [
        ((row, col), cell)
        for row, line in enumerate(text.splitlines())
        for col, cell in enumerate(next(csv.reader([line]), []))
    ]


def _split(cells: list) -> tuple:
    """Labels, flags and counts (kept as given) apart from values (as float.hex)."""
    labels, values = [], []
    for where, cell in cells:
        if isinstance(cell, (bool, int)) or cell is None:
            labels.append((where, cell))
            continue
        try:
            int(cell)
        except ValueError:
            pass
        else:
            labels.append((where, cell))
            continue
        try:
            values.append((where, float(cell).hex()))
        except ValueError:
            labels.append((where, cell))
    return labels, values


def _first_difference(got: list, want: list):
    for g, w in zip(got, want):
        if g != w:
            return f"got {g!r}, golden {w!r}"
    return f"got {len(got)} entries, golden {len(want)}"


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as handle:
        want = handle.read()
    got = _run(name)
    got_labels, got_values = _split(_cells(name, got))
    want_labels, want_values = _split(_cells(name, want))
    assert got_labels == want_labels, _first_difference(got_labels, want_labels)
    assert got_values == want_values, _first_difference(got_values, want_values)
    assert got == want


def test_a_last_bit_change_is_a_value_difference():
    text = _run("verify.csv")
    value = next(csv.reader([text.splitlines()[1]]))[3]
    bumped = text.replace(value, "%.17g" % math.nextafter(float(value), math.inf), 1)
    labels, values = _split(_cells("verify.csv", text))
    assert _split(_cells("verify.csv", bumped))[0] == labels
    assert _split(_cells("verify.csv", bumped))[1] != values


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in CASES:
        with open(os.path.join(GOLDEN, case), "w", encoding="utf-8", newline="") as handle:
            handle.write(_run(case))
        print(f"wrote tests/golden/{case}", file=sys.stderr)
