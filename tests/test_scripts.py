"""The experiment scripts: CSV output at the defaults, exit code 2 on bad input."""

import importlib.util
import math
import os

import pytest

from cmvpencil import measures
from cmvpencil.recurrences import MonicThreeTerm, jacobi_opuc_reflections

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
        ("spectrum_sweep", ["--inflate", "inf"]),
        ("weight_tables", ["--n", "40"]),
        ("weight_tables", ["--n", "-3"]),
        ("spectrum_sweep", ["--lams", "0"]),
        ("spectrum_sweep", ["--lams", "1", "-1"]),
        ("weight_tables", ["--n", "30"]),
        ("spectrum_sweep", ["--inflate", "-1"]),
        ("spectrum_sweep", ["--lams", "1", "-inf"]),
        ("spectrum_sweep", ["--inflate", "-NaN"]),
        ("spectrum_sweep", ["--eta", "0.5", "--lams", "2"]),
        ("spectrum_sweep", ["--lams", "1", "1e308"]),  # the pencil's Gershgorin reach overflows
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
    # exited 2 while Sturm counts refused off-diagonal entries above
    # sqrt(max float) = 1.34e154; the counts and eig_min/eig_max scale the
    # pencil by a power of two, and its eigenvalues are -+(lam + 1) to float
    assert load("spectrum_sweep").main(["--lams", "1", "1e160"]) == 0
    rows = [line.split(",") for line in csv_lines(capsys.readouterr().out)[1:]]
    assert [float(row[0]) for row in rows] == [1.0, 1e160]
    eig_min, eig_max, near_zero = float(rows[1][3]), float(rows[1][4]), int(rows[1][6])
    assert math.isclose(eig_min, -1e160, rel_tol=1e-12) and math.isclose(eig_max, 1e160, rel_tol=1e-12)
    assert near_zero == 1  # the one outlier of lam > 1


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
