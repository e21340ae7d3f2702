"""The maintenance scripts under tools/ run against the current tree."""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool("code_lines")
reach = _tool("reach")
SCRIPT = code_lines.__file__


def test_code_lines_skips_blanks_comments_and_docstrings():
    source = '"""Module\ndocstring."""\n\nimport math  # a comment\n# a comment line\n\n\nclass A:\n    """One line."""\n\n    def f(self):\n        """Two\n        lines."""\n        return """not a\n        docstring"""\n'
    # import, class, def, and the two lines of the returned string
    assert code_lines.code_lines(source) == 5


def test_code_lines_prints_the_tree_count():
    run = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True, check=True)
    assert run.stdout == f"{code_lines.tree_code_lines(Path(ROOT))}\n"
    assert int(run.stdout) > 1000


# The code lines of src/cmvpencil and scripts/ may fall below this ceiling; it
# rises only with a reason written here, as the never-entered list below grows.
# 2182 -> 2233: the maps suite's lane core (the CPython-exact complex product
# and quotient, the Szego sweep and the three circle formulas on (sequence,
# point) arrays, the suite's cached points and stacked direct route) less the
# scalar sweep, the scalar formulas and the table's Python-scalar column
CODE_LINE_CEILING = 2233


def test_code_lines_stay_under_the_ceiling():
    assert code_lines.tree_code_lines(Path(ROOT)) <= CODE_LINE_CEILING


# Every function in src/cmvpencil that no shipped path (the CLI and the two
# scripts, as tools/reach.py replays them) enters, with the reason it stays.
# The list may shrink; it grows only with a reason written here.
PERFBENCH = "read by perfbench/, which patches the banded surface by name; its removal waits on per-module layer metrics"
ORACLE = "reference route that tests compare shipped code against"
CLAIM = "paper claim with no shipped check yet; it waits for one through the output-change lane"
ERROR = "runs only on an error path; the entry-point property tests reach it"
NEVER_ENTERED = {
    # the banded surface that perfbench/ reads
    "cmv.BandedMatrix.__init__": PERFBENCH,
    "cmv.BandedMatrix.add": PERFBENCH,
    "cmv.BandedMatrix.offset": PERFBENCH,
    "cmv.BandedMatrix.to_dense": PERFBENCH,
    "cmv.BandedMatrix.transpose": PERFBENCH,
    "cmv.BandedSymmetricMatrix.eigenvalues": PERFBENCH,
    "cmv.BandedSymmetricMatrix.to_dense": PERFBENCH,
    "cmv.banded_product": PERFBENCH,
    "cmv.build_H": PERFBENCH,
    "cmv.verify_identities": PERFBENCH,
    "measures.gram": PERFBENCH,
    "measures.integrate": PERFBENCH,
    # reference routes
    "cmv.eigenvalue_counts": ORACLE + " (the census); its bands-level core stays apart for a second count route",
    "cmv._sturm_counts": ORACLE + " (the census), as eigenvalue_counts' core",
    "maps._circle_eval": ORACLE + " (the maps suite's one-sweep formulas), behind the three evaluators",
    "maps.companion_eval_from_circle": ORACLE + " (eval_monic of the companion family)",
    "maps.dg_eval_from_circle": ORACLE + " (the maps suite)",
    "maps.sdg_eval_from_circle": ORACLE + " (the maps suite)",
    "dunkl.apply_dunkl": ORACLE + " (verify_eigenfunction's operator image)",
    # paper claims
    "maps.little_m1_recurrence": CLAIM + " (the c = 0 case of big-m1)",
    "measures._pencil_weight": CLAIM + " (the pencil weight against pencil_recurrence)",
    "measures._pencil_weight.<locals>.density": CLAIM + " (the pencil weight against pencil_recurrence)",
    "measures._little_m1_weight": CLAIM + " (the c = 0 weight)",
    "recurrences.companion_symmetric_recurrence": CLAIM + " (the companion family)",
    # error-only paths
    "errors.InstabilityError.__init__": ERROR,
    "errors.OperatorImageError.__init__": ERROR,
    "errors.PolePointError.__init__": ERROR,
    "errors.ReflectionBoundError.__init__": ERROR,
    "errors._shown": ERROR + " (it formats the offending value of a message)",
    "maps.chihara_split.<locals>._advise": ERROR + " (a warning for a nonpositive split coefficient)",
    "measures._no_finite_value": ERROR,
    "recurrences.ReflectionSequence.from_list.<locals>.at": ERROR + "; shipped paths read lists through take",
}


def test_reach_lists_exactly_the_pinned_functions():
    run = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "reach.py")], capture_output=True, text=True, check=True)
    *names, summary = run.stdout.splitlines()
    assert names == sorted(NEVER_ENTERED)
    assert summary.startswith(f"# {len(NEVER_ENTERED)} never-entered functions, ")


def _code_objects(code):
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield const
            yield from _code_objects(const)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_reach_qualified_names_are_those_of_the_code_objects():
    for path in Path(ROOT, "src", "cmvpencil").glob("*.py"):
        source = path.read_text(encoding="utf-8")
        found = {(first, name) for first, name, _ in reach.defs(path)}
        compiled = {
            (code.co_firstlineno, code.co_qualname)
            for code in _code_objects(compile(source, str(path), "exec"))
            # functions only: class bodies are not optimized, and lambdas and
            # comprehensions are named <...>
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<")
        }
        assert found == compiled, path.name
