"""The maintenance scripts under tools/ run against the current tree."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_code_lines_skips_blanks_comments_and_docstrings():
    source = '"""Module\ndocstring."""\n\nimport math  # a comment\n# a comment line\n\n\nclass A:\n    """One line."""\n\n    def f(self):\n        """Two\n        lines."""\n        return """not a\n        docstring"""\n'
    # import, class, def, and the two lines of the returned string
    assert code_lines.code_lines(source) == 5


def test_code_lines_prints_the_tree_count():
    run = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True, check=True)
    assert run.stdout == f"{code_lines.tree_code_lines(Path(ROOT))}\n"
    assert int(run.stdout) > 1000
