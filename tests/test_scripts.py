"""The experiment scripts: CSV output at the defaults, exit code 2 on bad input."""

import importlib.util
import os

import pytest

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
