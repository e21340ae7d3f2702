"""scipy is loaded only by the calls that use it.

``cmv`` imports ``scipy.linalg`` inside its solvers and ``measures`` imports
``scipy.special`` when it builds its first Gauss-Jacobi rule, so the package
and the commands that need neither start without them.  Each case runs in a
fresh interpreter, because the test process itself has scipy loaded.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCIPY = ("scipy", "scipy.linalg", "scipy.special")


def loaded_after(code):
    """The SCIPY modules in ``sys.modules`` after running ``code`` in a new interpreter."""
    probe = (
        f"import sys\nsys.path.insert(0, {os.path.join(ROOT, 'src')!r})\n{code}\n"
        f"print(' '.join(m for m in {SCIPY!r} if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()[-1].split()


def command(*argv):
    # --help ends in SystemExit; the table goes to a buffer so the last line is the probe's
    return (
        "import contextlib, io\n"
        "from cmvpencil import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    try:\n        cli.main({list(argv)!r})\n"
        "    except SystemExit:\n        pass"
    )


@pytest.mark.parametrize(
    "code",
    [
        "import cmvpencil",
        command("--help"),
        command("recurrence"),
        command("verify", "--suite", "dunkl"),
    ],
    ids=["import", "help", "recurrence", "verify-dunkl"],
)
def test_no_scipy_where_nothing_solves_or_integrates(code):
    assert loaded_after(code) == []


def test_spectrum_loads_the_solver_but_not_the_quadrature():
    assert loaded_after(command("spectrum")) == ["scipy", "scipy.linalg"]


def test_the_full_battery_loads_both():
    assert loaded_after(command("verify")) == list(SCIPY)
