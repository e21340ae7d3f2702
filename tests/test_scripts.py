"""The experiment scripts: CSV output at the defaults, exit code 2 on bad input."""

import importlib.util
import math
import os
import re
import warnings

import pytest

from cmvpencil import cli, cmv, measures, verify
from cmvpencil.recurrences import MonicThreeTerm, ReflectionSequence, jacobi_opuc_reflections

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def csv_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_spectrum_sweep_defaults(capsys):
    assert load("spectrum_sweep").main([]) == 0
    lines = csv_lines(capsys.readouterr().out)
    assert lines[0] == "lam,band_inner,band_outer,eig_min,eig_max,outliers,near_zero"
    assert len(lines) == 1 + 9  # one row per default lam


def test_weight_tables_defaults(capsys):
    assert load("weight_tables").main([]) == 0
    lines = csv_lines(capsys.readouterr().out)
    assert lines[0] == "n,b_from_weight,b_closed_form,u_from_weight,u_closed_form"
    assert len(lines) == 1 + 13  # degrees 0 .. 12


@pytest.mark.parametrize(
    "name, argv",
    [
        ("spectrum_sweep", ["--dim", "201"]),
        ("spectrum_sweep", ["--dim", "2"]),
        ("spectrum_sweep", ["--lams", "1", "nan"]),
        ("spectrum_sweep", ["--lams", "-0.0"]),
        ("weight_tables", ["--n", "40"]),
        ("weight_tables", ["--n", "-3"]),
        ("spectrum_sweep", ["--lams", "0"]),
        ("spectrum_sweep", ["--lams", "1", "-1"]),
        ("weight_tables", ["--n", "30"]),
        ("spectrum_sweep", ["--lams", "inf"]),
        ("spectrum_sweep", ["--lams", "1", "-inf"]),
        ("spectrum_sweep", ["--dim", "8", "--lams", "1.7976931348623157e308"]),
        ("spectrum_sweep", ["--eta", "0.5", "--lams", "2"]),
        # the pencil's largest eigenvalue is beyond the float range
        ("spectrum_sweep", ["--lams", "1", "1.7976931348623157e308"]),
    ],
)
def test_bad_input_exits_2(capsys, name, argv):
    assert load(name).main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    if name == "weight_tables":
        # the message names the option the user gave, not an internal degree
        assert "--n must be in 0..29" in err


def test_spectrum_sweep_at_a_lam_whose_square_overflows(capsys):
    # 1e160 was swept, and printed 200 outliers of 200: the widening 0.05 is
    # far below the eigenvalues' rounding error there.  Every lam with
    # 0.05 < 1e-14 * (1 + lam) is refused before any output; 1e12 is swept
    module = load("spectrum_sweep")
    assert module.main(["--lams", "1e12"]) == 0
    assert csv_lines(capsys.readouterr().out)[1] == (
        "1000000000000,999999999999,1000000000001,-1000000000000.9995,1000000000000.9998,1,1"
    )
    for lams in (["1e15"], ["1e160"], ["1", "1e160"], ["5e12"]):
        assert module.main(["--lams", *lams]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --lams") and "resolution" in err, lams
    # the closed-form pencil counted 12 outliers at 1e15, against 1 at 1e14
    assert module.main(["--xi", "0.3", "--eta", "0.7", "--lams", "1e12"]) == 0
    assert csv_lines(capsys.readouterr().out)[1].endswith(",1,0")
    assert module.main(["--xi", "0.3", "--eta", "0.7", "--lams", "1e15"]) == 2


def test_spectrum_sweep_gates_each_pencil_once(monkeypatch):
    # the census gated each pencil, and the sweep gated it again for eig_min/eig_max
    module = load("spectrum_sweep")
    calls = []
    gate = cmv._tridiagonal
    for owner in (cmv, module):
        monkeypatch.setattr(owner, "_tridiagonal", lambda m: calls.append(m) or gate(m))
    lams = [0.5, 1.0, 2.0, 3.0]
    rows = module.sweep(ReflectionSequence.constant(0.0), lams, 20)
    assert [row[0] for row in rows] == lams
    assert len(calls) == len(lams)


@pytest.mark.parametrize(
    "name, argv",
    [("spectrum_sweep", ["--dim", "20", "--lams", "0.5", "2"]), ("weight_tables", ["--n", "3"])],
)
def test_script_output_goes_through_the_cli_writer(capsys, monkeypatch, tmp_path, name, argv):
    # the scripts opened --output as given: a missing directory raised
    # FileNotFoundError after the table was printed, and CMVPENCIL_OUTDIR was ignored
    monkeypatch.setenv("CMVPENCIL_OUTDIR", str(tmp_path / "out"))
    assert load(name).main([*argv, "--output", os.path.join("missing", "table.csv")]) == 0
    out = capsys.readouterr().out
    written = (tmp_path / "out" / "missing" / "table.csv").read_text()
    assert written.splitlines() == csv_lines(out)
    assert out.endswith(f"# wrote {os.path.join('missing', 'table.csv')}\n")
    absolute = tmp_path / "absent" / "dir" / "x.csv"
    assert load(name).main([*argv, "--output", str(absolute)]) == 0
    assert absolute.read_text() == written


@pytest.mark.parametrize(
    "name, argv",
    [("spectrum_sweep", ["--dim", "20", "--lams", "0.5", "2"]), ("weight_tables", ["--n", "2"])],
)
def test_script_output_that_cannot_be_written_prints_nothing_and_exits_2(capsys, tmp_path, name, argv):
    # an existing directory as --output raised an untyped IsADirectoryError
    # and exited 1, after the table had been printed
    assert load(name).main([*argv, "--output", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write --output {tmp_path}: Is a directory\n"


def test_the_census_and_its_callers_run_without_the_sturm_loop(monkeypatch):
    # the census counts with LAPACK; the Python Sturm loop serves
    # eigenvalue_counts alone
    def refuse(*args):
        raise AssertionError("_sturm_counts was called")

    K = cmv.build_K(jacobi_opuc_reflections(0.3, 0.7), 2.0, cmv.TruncationSpec.from_dim(200))
    sweep = load("spectrum_sweep").sweep
    calls = (
        lambda: cmv.band_census(K, measures.essential_spectrum_periodic(2.0), 0.05),
        lambda: [(check.passed, check.value, check.details) for check in verify.suite_spectrum(200)],
        lambda: sweep(ReflectionSequence.constant(0.0), [0.5, 1.0, 2.0], 200),
    )
    want = [call() for call in calls]
    monkeypatch.setattr(cmv, "_sturm_counts", refuse)
    assert [call() for call in calls] == want
    assert want[0][0] == 1 and [row[-1] for row in want[2]] == [0, 3, 1]


@pytest.mark.parametrize("lam", ["5e-324", "1e-300", "1e-10", "1", "1e154", "1e160", "1e300", "1e308", "1.7976931348623157e308"])
@pytest.mark.parametrize("program", ["spectrum", "spectrum_sweep"])
def test_an_edge_lam_prints_finite_numbers_or_exits_2(capsys, program, lam):
    # at 1e308 and the largest float, spectrum's gap matrix overflowed with a
    # numpy warning; without the warning, at the largest float it printed four
    # inf eigenvalues and exited 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if program == "spectrum":
            code = cli.main(["spectrum", "--dim", "8", "--lambda", lam])
        else:
            code = load("spectrum_sweep").main(["--dim", "8", "--lams", lam])
    out, err = capsys.readouterr()
    if code == 0:
        assert not re.search(r"\b(inf|infinity|nan)\b", out, re.IGNORECASE), out
    else:
        assert (code, out) == (2, "") and err.startswith("error: "), (code, err)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--family", "periodic", "--xi", "0.3"], "--xi"),
        (["--family", "periodic", "--eta", "0.3"], "--eta"),
        (["--family", "sdg", "--lam", "5"], "--lam"),
    ],
)
def test_weight_tables_refuses_an_option_its_family_does_not_read(capsys, argv, option):
    # each was ignored, and the table printed as if it were not given
    assert load("weight_tables").main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {option} is not read")


def test_weight_tables_n_moves_with_the_degree_cap(capsys, monkeypatch):
    monkeypatch.setattr(measures, "_STIELTJES_N_MAX", 20)
    assert load("weight_tables").main(["--n", "20"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--n must be in 0..19" in err


def test_two_by_two_check_reads_the_matrix_build_K_builds():
    # the check compared the quadratic formula with eigvalsh on the same
    # hand-built entries, so a wrong sign of lam in build_K passed it
    module = load("spectrum_sweep")
    a = jacobi_opuc_reflections(0.3, 0.7)
    assert module.two_by_two_check(a, 2.0) <= 1e-15
    build_K = module.build_K
    module.build_K = lambda a, lam, trunc: build_K(a, -lam, trunc)
    assert module.two_by_two_check(a, 2.0) > 1e-12


@pytest.mark.parametrize("xi", ["inf", "1e308"])
def test_weight_tables_rejects_an_exponent_without_a_finite_rule(capsys, xi):
    # both ended in a traceback from scipy's roots_jacobi and exit 1
    assert load("weight_tables").main(["--xi", xi]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_weight_tables_reports_a_nan_deviation(capsys, monkeypatch):
    # a nan coefficient used to print "worst coefficient deviation: 0.000e+00"
    module = load("weight_tables")
    nan_rec = MonicThreeTerm(b=lambda n: math.nan, u=lambda n: math.nan)
    monkeypatch.setattr(module, "stieltjes_recurrence", lambda *args, **kwargs: nan_rec)
    monkeypatch.setattr(module, "stieltjes_perron_density", lambda lam, t: math.nan)
    assert module.main(["--family", "periodic", "--lam", "2"]) == 0
    out = capsys.readouterr().out
    assert "# worst coefficient deviation: nan\n" in out
    assert "# alternative closed-form display deviates by nan on the band\n" in out


@pytest.mark.parametrize("value", ["-9.305349081206726e-05", "-2.5E-1", "-3e+0"])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("spectrum_sweep", ["--dim", "20", "--eta", "0.2", "--lams", "0.5", "2"]),
        ("weight_tables", ["--n", "4", "--eta", "0.5"]),
    ],
)
def test_negative_scientific_xi_as_a_separate_argument(capsys, name, argv, value):
    # the scripts parse with cmvpencil.cli's parser, so "--xi -1e-05" is read
    # as "--xi=-1e-05", not as an option
    outputs = []
    for xi in (["--xi", value], [f"--xi={value}"]):
        code = load(name).main([*argv, *xi])
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert "expected one argument" not in outputs[0][2]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--family", "periodic", "--lam", "1.0001"], 3, "coefficient table did not settle"),
        (["--family", "big_m1", "--lam", "1e16"], 2, "c = (lam - 1)/(lam + 1) rounds to 1"),
        (["--family", "sdg", "--xi", "-inf"], 2, "need xi > -1, got -inf"),
    ],
    ids=["non-convergence", "c-rounds-to-1", "negative-inf"],
)
def test_weight_tables_exits_as_the_cli_does(capsys, argv, code, message):
    # every library error used to exit 2; -inf was read as an option
    assert load("weight_tables").main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_spectrum_sweep_header_names_the_eta_it_uses(capsys):
    # without --eta the header printed "eta=None" over a table made with eta = 0
    module = load("spectrum_sweep")
    argv = ["--dim", "20", "--lams", "0.5", "2"]
    assert module.main(["--xi", "0.3", *argv]) == 0
    without = capsys.readouterr().out
    assert "# reflections: closed-form reflections (xi=0.3, eta=0.0), dim = 20\n" in without
    assert module.main(["--xi", "0.3", "--eta", "0.0", *argv]) == 0
    assert capsys.readouterr().out == without


def test_spectrum_sweep_does_not_call_eigh_tridiagonal(capsys, monkeypatch):
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("eigh_tridiagonal was called")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
    assert load("spectrum_sweep").main(["--xi", "0.3", "--eta", "0.7"]) == 0
    assert len(csv_lines(capsys.readouterr().out)) == 1 + 9
