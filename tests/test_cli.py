"""Command-line interface: formats, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

import cmvpencil.cli as cli
from cmvpencil.cli import main
from cmvpencil.errors import (
    CmvPencilError,
    InvalidParameterError,
    NonConvergenceError,
    PolePointError,
    TruncationError,
)
from cmvpencil.verify import CheckResult


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_runconfig_validation(capsys):
    # argparse's choices is the one check of --format
    for command in ("recurrence", "spectrum", "verify"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--format", "yaml"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'yaml'" in capsys.readouterr().err


def test_recurrence_csv_golden(capsys):
    code, out, _ = run(
        ["recurrence", "--xi", "0", "--eta", "0", "--lambda", "2", "--n", "2"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    # closed forms: a_0 = 0, a_1 = -1/3, a_2 = 0, so at lam = 2:
    # b_0 = 2, b_1 = -2/3, b_2 = 2/3; u_1 = 1, u_2 = 4*(1 - 1/9) = 32/9
    assert lines[0] == "n,a_n,b_n,u_n"
    assert lines[1] == "0,0,2,0"
    assert lines[2] == "1,-0.33333333333333331,-0.66666666666666663,1"
    assert lines[3] == "2,0,0.66666666666666663,3.5555555555555554"


def test_recurrence_json_mirror(capsys):
    code, out, _ = run(
        ["recurrence", "--lambda", "2", "--n", "1", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "recurrence"
    assert payload["columns"] == ["n", "a_n", "b_n", "u_n"]
    assert payload["params"]["lam"] == 2.0
    assert payload["rows"][0] == [0, "0", "2", "0"]


def test_spectrum_output(capsys):
    code, out, _ = run(
        ["spectrum", "--lambda", "2", "--dim", "8", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bands"] == [[-3.0, -1.0], [1.0, 3.0]]
    assert len(payload["rows"]) == 8
    eigs = [float(row[1]) for row in payload["rows"]]
    assert eigs == sorted(eigs)


def test_spectrum_dim_validation(capsys):
    code, _, err = run(["spectrum", "--dim", "7"], capsys)
    assert code == 2
    assert "dim" in err


@pytest.mark.parametrize("lam", ["0", "-1"])
def test_spectrum_rejects_non_positive_lambda(lam, capsys):
    # these used to print a table against the bands of |lam| and exit 0
    code, out, err = run(["spectrum", f"--lambda={lam}", "--dim", "8"], capsys)
    assert code == 2
    assert out == ""
    assert "need lam > 0" in err


@pytest.mark.parametrize("suite", ["spectrum", "matrix-identities"])
def test_verify_suite_dim_validation(suite, capsys):
    # an odd dim used to run on dim - 1 under a dim label
    code, out, err = run(["verify", "--suite", suite, "--dim", "7"], capsys)
    assert code == 2
    assert out == ""
    assert "need even dim >= 4, got 7" in err


def test_parameter_error_exit_code(capsys):
    code, _, err = run(["recurrence", "--xi", "5", "--eta", "-2"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_recurrence_rejects_non_finite(value, capsys):
    # nan used to print nan rows and exit 0
    code, out, err = run(["recurrence", f"--lambda={value}"], capsys)
    assert code == 2
    assert out == ""
    assert "--lambda must be finite" in err


@pytest.mark.parametrize("flag", ["--xi", "--eta", "--lambda"])
def test_spectrum_rejects_non_finite(flag, capsys):
    # --lambda nan used to end in a numpy traceback
    code, out, err = run(["spectrum", flag, "nan"], capsys)
    assert code == 2
    assert out == ""
    assert f"{flag} must be finite" in err


@pytest.mark.parametrize("flag", ["--alpha", "--beta", "--c"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_rejects_non_finite(flag, value, capsys):
    # these used to end in a ValueError traceback from Fraction(str(value))
    args = ["verify", "--suite", "dunkl", "--alpha", "1", "--beta", "1", "--c", "0.5"]
    args[args.index(flag) + 1] = value
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert f"{flag} must be finite" in err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--dim", "8"], "--dim"),
        (["--suite", "maps", "--dim", "8"], "--dim"),
        (["--suite", "dunkl", "--beta", "2"], "--beta"),
        (["--suite", "big-m1", "--xi", "0.5"], "--xi"),
    ],
    ids=["no-suite", "maps", "dunkl-without-alpha", "big-m1-without-lambda"],
)
def test_verify_rejects_unread_option(args, flag, capsys):
    # these options used to be dropped silently, with exit 0
    code, out, err = run(["verify", *args], capsys)
    assert code == 2
    assert out == ""
    assert f"{flag} is not read by" in err


def test_unknown_suite_exit_code(capsys):
    code, _, err = run(["verify", "--suite", "nonsense"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_verify_exponent_overflow_exits_2(capsys):
    # alpha = 2 * xi + 1 overflows to inf: this printed a traceback and exited 1
    code, out, err = run(["verify", "--suite", "big-m1", "--lambda", "2", "--xi", "1e308"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: need a finite alpha, got inf")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["recurrence", "--lambda", "1e300"], "need |lam| <= 1.3407807929942596e+154"),
        (["recurrence", "--lambda", "-2e154"], "need |lam| <= 1.3407807929942596e+154"),
        (["verify", "--suite", "big-m1", "--lambda", "1e16"], "c = (lam - 1)/(lam + 1) rounds to 1"),
    ],
    ids=["recurrence-1e300", "recurrence--2e154", "big-m1-1e16"],
)
def test_domain_edges_exit_2(argv, message, capsys):
    # recurrence printed inf and exited 0; big-m1 ended in a ZeroDivisionError traceback
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "error, code",
    [
        (NonConvergenceError("x"), 3),
        (InvalidParameterError("x"), 2),
        (TruncationError("x"), 2),
        (PolePointError(3, 0.5), 1),
        (CmvPencilError("x"), 1),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_of_each_library_error(error, code, capsys):
    def fail(args):
        raise error

    assert cli.exit_code(fail, None) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_verify_suite_passes(capsys):
    code, out, _ = run(
        ["verify", "--suite", "dunkl", "--alpha", "1", "--beta", "1", "--c", "0.5"],
        capsys,
    )
    assert code == 0
    assert out.startswith("suite,check,passed,value,tol")
    assert ",1," in out  # a passing row


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = CheckResult(label="forced", passed=False, value=1.0, tol=0.0)
    monkeypatch.setattr(cli, "run_suite", lambda name, **kw: [failing])
    code, out, _ = run(["verify", "--suite", "dunkl"], capsys)
    assert code == 1


def test_verify_tol_validation(capsys):
    # --tol was parsed and never used, so it is no longer an option
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "dunkl", "--tol", "1e-10"])
    assert excinfo.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_reproducible_runs_are_byte_identical(tmp_path, capsys):
    args = [
        "verify",
        "--suite",
        "structural",
        "--reproducible",
        "--format",
        "json",
    ]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(args + ["--output", str(p)], capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CMVPENCIL_OUTDIR", str(tmp_path))
    code, _, _ = run(["recurrence", "--n", "1", "--output", "table.csv"], capsys)
    assert code == 0
    assert (tmp_path / "table.csv").exists()
    # absolute paths ignore the env var
    target = tmp_path / "sub" / "abs.csv"
    code, _, _ = run(["recurrence", "--n", "1", "--output", str(target)], capsys)
    assert code == 0
    assert target.exists()


def test_an_output_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    # an existing directory as --output raised an untyped IsADirectoryError
    # and exited 1 with a traceback
    code, out, err = run(["recurrence", "--n", "1", "--output", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --output {tmp_path}: Is a directory\n"


def test_csv_quotes_embedded_commas(capsys):
    code, out, _ = run(
        ["verify", "--suite", "dunkl", "--alpha", "1", "--beta", "1", "--c", "0.5"],
        capsys,
    )
    assert code == 0
    # labels with commas arrive quoted so the column count stays fixed
    data_lines = out.strip().split("\n")[1:]
    assert any(line.count('"') >= 2 for line in data_lines)


# negative numbers argparse's own pattern takes for options; the non-finite
# ones used to end in "expected one argument" only in the separate form
NEGATIVE_SCIENTIFIC = ["-9.305349081206726e-05", "-1.5E-3", "-.5e-1", "-2e+0", "-inf", "-Infinity", "-NaN"]


@pytest.mark.parametrize("value", NEGATIVE_SCIENTIFIC)
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--dim", "8", "--eta", "0.1", "--lambda", "1.5", "--xi"],
        ["spectrum", "--dim", "8", "--xi", "0.2", "--lambda"],
        ["recurrence", "--n", "4", "--lambda", "0.5", "--xi"],
        ["verify", "--suite", "big-m1", "--lambda", "1.5", "--eta", "0.1", "--xi"],
    ],
    ids=["spectrum-xi", "spectrum-lambda", "recurrence-xi", "verify-big-m1-xi"],
)
def test_negative_scientific_value_as_a_separate_argument(argv, value, capsys):
    # argparse's own negative-number pattern has no exponent, so the
    # separate form ended in "expected one argument" and exit 2
    flag = argv[-1]
    separate = run([*argv, value], capsys)
    joined = run([*argv[:-1], f"{flag}={value}"], capsys)
    assert separate == joined
    assert "expected one argument" not in separate[2]
    if not math.isfinite(float(value)):
        assert separate[0] == 2 and separate[1] == ""
        assert separate[2].startswith(f"error: {flag} must be finite")


def per_cell_csv(columns, rows):
    """``_csv_text`` as it was written first: every cell through ``_format_cell``."""
    lines = [",".join(columns), *(",".join(cli._format_cell(v) for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 0.5, True, "a"), (2, -0.0, False, "b,c"), (3, math.nan, True, 'say "x"')],
        [(7, np.float64(0.1), "line\nbreak"), (True, 0.2, ""), (-3, np.float64(-1e300), ",")],
        [(False, math.inf, 7), (True, -math.inf, np.int64(7))],
        [(None, 1, 1.0), (2.5, 2, 2.0)],  # float beside None, int, float
        [],
    ],
    ids=["typed", "int-beside-bool", "bool-column", "mixed", "no-rows"],
)
def test_csv_by_column_equals_per_cell(rows):
    columns = tuple(f"c{k}" for k in range(len(rows[0]) if rows else 3))
    assert cli._csv_text(columns, rows) == per_cell_csv(columns, rows)


def spectrum_oracle(eigs, bands):
    """``cmd_spectrum``'s rows as they were written first: one eigenvalue at a time."""
    rows = []
    for k, e in enumerate(eigs):
        e = float(e)
        nearest = min(bands, key=lambda b: max(b[0] - e, e - b[1], 0.0))
        inside = nearest[0] <= e <= nearest[1]
        rows.append((k, e, inside, float(nearest[0]), float(nearest[1])))
    return rows


# eigenvalues on and between the band edges: at lam = 1 the bands touch at
# -0.0 and 0.0, and at lam = 2 an eigenvalue at 0 is equally near both
EDGE_EIGENVALUES = {
    1.0: [-3.0, -2.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 2.0, 2.5],
    2.0: [-4.0, -3.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0, math.nextafter(3.0, 4.0)],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "lam, dim, edges",
    [(1.0, 8, True), (2.0, 8, True), (0.5, 64, False), (1.0, 400, False), (2.3, 2000, False)],
)
def test_spectrum_table_equals_per_eigenvalue_rows(monkeypatch, capsys, fmt, lam, dim, edges):
    solve = cli.tridiagonal_eigenvalues
    if edges:
        monkeypatch.setattr(cli, "tridiagonal_eigenvalues", lambda K: np.array(EDGE_EIGENVALUES[lam]))
    argv = ["spectrum", "--dim", str(dim), "--xi", "0.3", "--eta", "0.7", "--lambda", str(lam)]
    code, out, _ = run([*argv, "--format", fmt], capsys)
    assert code == 0
    eigs = cli.tridiagonal_eigenvalues(None) if edges else solve(
        cli.build_K(cli.jacobi_opuc_reflections(0.3, 0.7), lam, cli.TruncationSpec.from_dim(dim))
    )
    bands = cli.essential_spectrum_periodic(lam)
    rows = spectrum_oracle(eigs, bands)
    columns = ("k", "eigenvalue", "inside", "band_lo", "band_hi")
    if fmt == "csv":
        assert out == per_cell_csv(columns, rows)
    else:
        want = [[cli._format_cell(v) if isinstance(v, float) else v for v in row] for row in rows]
        # dumped, so that true and 1 differ
        assert json.dumps(json.loads(out)["rows"]) == json.dumps(want)
    if edges:
        assert any(r[2] for r in rows) and not all(r[2] for r in rows)
