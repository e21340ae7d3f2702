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


def test_traced_maps_suite_runs_one_szego_sweep_per_point():
    # one szego_eval call sweeps all 5 (xi, eta) pairs x 25 points in 20
    # steps, and the tracer adds the degree once per call: 20.  The sweep
    # feeds both families.  The sweep and the symmetric formula read a
    # coefficient table made once per sequence; the reads left are the direct
    # route's 97 per sequence.
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
        "counts = tracer.pass_counts[0]\n"
        "print(code, counts['recurrences.szego_steps'], counts['recurrences.reflection_reads'])\n"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    code, steps, reads = proc.stdout.split()
    assert (code, steps) == ("0", "20")
    assert int(reads) <= 485


def test_traced_measures_calls_run_and_the_tracer_restores_them():
    # tracing.py patches measures.roots_jacobi by name and wraps discretize,
    # m_per and m_full, so those module-level names must stay
    code = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'perfbench')!r}]\n"
        "import tracing\n"
        "from cmvpencil import measures\n"
        "from cmvpencil.recurrences import jacobi_opuc_reflections, sdg_recurrence\n"
        "names = ('roots_jacobi', 'discretize', 'm_per', 'm_full')\n"
        "originals = [getattr(measures, name) for name in names]\n"
        "tracer = tracing.Tracer()\n"
        "tracer.begin_pass(0)\n"
        "m = measures.named_weight('sdg', xi=0.5, eta=0.25)\n"
        "rec = sdg_recurrence(jacobi_opuc_reflections(0.5, 0.25))\n"
        "for n_max in (6, 12, 18, 24, 30):\n"
        "    measures.stieltjes_recurrence(m, n_max, tol=1e-9)\n"
        "measures.gram(m, rec, rec, 3, 5)\n"
        "points = [complex(0.1 * k, 0.5 - k % 2) for k in range(-20, 20)]\n"
        "for lam in (0.7, 1.7):\n"
        "    [measures.m_per(p, lam) for p in points]\n"
        "    [measures.m_full(p, lam) for p in points]\n"
        "tracer.end_pass()\n"
        "assert [getattr(measures, name) for name in names] == originals\n"
        "metrics = tracer.layer_metrics()\n"
        "print(int(metrics['measures.weyl_calls']), metrics['measures.rule_calls'] > 0)\n"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # 2 lam x 40 points x (m_per + m_full, which calls m_per once more)
    assert proc.stdout.split() == ["240", "True"]
