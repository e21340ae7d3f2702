"""Print every function in the library that no shipped path enters.

The shipped paths are the CLI and the two scripts.  This script replays a
fixed list of their commands in this interpreter under ``sys.setprofile``,
records every code object that is called, and compares the calls with the
``def`` statements of ``src/cmvpencil/*.py``.  Each ``def`` never entered is
printed as ``module.qualname``, sorted, with its qualified name taken from
the source (``ReflectionSequence.from_list.<locals>.at``), so the list does
not move when lines do.  A last line starting with ``#`` gives the count and
the physical lines of those functions.  Lambdas are not counted.

Run it as a script, in a fresh interpreter: a warm cache (the
``lru_cache`` of Gauss-Jacobi rules, say) would hide the calls behind it.
Every replayed command must exit 0; one that does not stops the script
with exit 1, as its reach would be incomplete.

Usage
-----
python3 tools/reach.py          # the tree this script sits in
python3 tools/reach.py ROOT     # another checkout
"""

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

# (program, argv): the CLI, then the scripts under scripts/
COMMANDS = (
    ("cli", ["verify"]),
    ("cli", ["verify", "--format", "json", "--reproducible"]),
    ("cli", ["verify", "--suite", "spectrum", "--dim", "400"]),
    ("cli", ["verify", "--suite", "matrix-identities", "--dim", "32"]),
    ("cli", ["verify", "--suite", "dunkl", "--alpha", "1", "--beta", "1", "--c", "0.5"]),
    ("cli", ["verify", "--suite", "big-m1", "--xi", "0.5", "--eta", "1", "--lambda", "2"]),
    ("cli", ["spectrum"]),
    ("cli", ["spectrum", "--format", "json", "--xi", "0.3", "--eta", "0.7", "--lambda", "2"]),
    ("cli", ["recurrence"]),
    ("cli", ["recurrence", "--xi", "0.3", "--eta", "0.7", "--lambda", "2", "--n", "20"]),
    ("spectrum_sweep", []),
    ("spectrum_sweep", ["--xi", "0.3", "--eta", "0.7", "--dim", "100"]),
    ("weight_tables", ["--family", "sdg", "--xi", "1", "--eta", "0.5"]),
    ("weight_tables", ["--family", "big_m1", "--xi", "0.5", "--eta", "1", "--lam", "2"]),
    ("weight_tables", ["--family", "periodic", "--lam", "0.5", "--n", "15"]),
)
# the one command that writes a file: its path is made under a fresh directory
OUTPUT_COMMAND = ("cli", ["recurrence", "--format", "json", "--output"])


def defs(path: Path):
    """(first line, qualified name, physical lines) of every ``def`` in one source file.

    The first line is the code object's ``co_firstlineno``: the first
    decorator's line where there is one.  A function nested in a function is
    ``outer.<locals>.inner`` and a method ``Class.method``, as ``__qualname__``.
    """
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append((first, qualname, child.end_lineno - first + 1))
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _program(root: Path, name: str):
    """The ``main`` of the CLI or of one script under root."""
    if name == "cli":
        from cmvpencil import cli

        return cli.main
    spec = importlib.util.spec_from_file_location(name, root / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def replay(root: Path) -> set:
    """The code objects called while the commands run, their output discarded."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        program, argv = OUTPUT_COMMAND
        commands = [*COMMANDS, (program, [*argv, os.path.join(tmp, "recurrence.json")])]
        sys.setprofile(profile)
        try:
            for program, argv in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = _program(root, program)(argv)
                if code != 0:
                    raise SystemExit(f"{program} {' '.join(argv)} exited {code}")
        finally:
            sys.setprofile(None)
    return called


def never_entered(root: Path) -> list:
    """(``module.qualname``, physical lines) of each def that the replay never enters, sorted."""
    package = (root / "src" / "cmvpencil").resolve()
    entered = {
        (Path(code.co_filename).stem, code.co_firstlineno)
        for code in replay(root)
        if Path(code.co_filename).resolve().parent == package
    }
    return sorted(
        (f"{path.stem}.{qualname}", lines)
        for path in package.glob("*.py")
        for first, qualname, lines in defs(path)
        if (path.stem, first) not in entered
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    missing = never_entered(root)
    for name, _ in missing:
        print(name)
    print(f"# {len(missing)} never-entered functions, {sum(lines for _, lines in missing)} physical lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
