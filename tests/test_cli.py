"""Command-line interface: formats, exit codes, determinism."""

import json

import pytest

import cmvpencil.cli as cli
from cmvpencil.cli import RunConfig, main
from cmvpencil.errors import InvalidParameterError
from cmvpencil.verify import CheckResult


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_runconfig_validation():
    RunConfig(fmt="csv")
    RunConfig(fmt="json")
    with pytest.raises(InvalidParameterError):
        RunConfig(fmt="yaml")


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


def test_csv_quotes_embedded_commas(capsys):
    code, out, _ = run(
        ["verify", "--suite", "dunkl", "--alpha", "1", "--beta", "1", "--c", "0.5"],
        capsys,
    )
    assert code == 0
    # labels with commas arrive quoted so the column count stays fixed
    data_lines = out.strip().split("\n")[1:]
    assert any(line.count('"') >= 2 for line in data_lines)
