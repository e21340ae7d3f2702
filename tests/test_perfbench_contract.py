"""The benchmark harness still runs against the package.

``perfbench/`` reads public names of the package: its gates call the API and
its tracer rebinds the public functions by name.  A change that drops or
renames one of them fails here, in the test suite, rather than in a
benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_gate_selfcheck_passes():
    proc = _run([os.path.join("perfbench", "selfcheck.py")])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_installs_and_removes_its_wrappers():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'perfbench')!r}]\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.begin_pass(0)\n"
        "tracer.end_pass()\n"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_maps_suite_runs_one_szego_sweep_per_point_and_family():
    # 5 (xi, eta) pairs x 25 points x 2 families x 20 steps
    code = (
        "import contextlib, io, sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'perfbench')!r}]\n"
        "import tracing\n"
        "from cmvpencil import cli\n"
        "tracer = tracing.Tracer()\n"
        "tracer.begin_pass(0)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--suite', 'maps'])\n"
        "tracer.end_pass()\n"
        "print(code, tracer.pass_counts[0]['recurrences.szego_steps'])\n"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["0", "5000"]
