"""Print the number of code lines in the library and the scripts.

A code line is a non-blank line that is neither a comment line nor a
docstring line.  A docstring is the first statement of a module, class or
function that is a string constant, and all of its lines are excluded.  The
count covers ``src/cmvpencil/*.py`` plus ``scripts/*.py``.

Usage
-----
python3 tools/code_lines.py          # the tree this script sits in
python3 tools/code_lines.py ROOT     # another checkout
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Code lines of one Python source text."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    # a token spanning lines (a multi-line string) makes each of them code
    token_lines = {
        line
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in _NOT_CODE
        for line in range(token.start[0], token.end[0] + 1)
    }
    return len(token_lines - docstring_lines)


def tree_code_lines(root: Path) -> int:
    """Code lines of ``src/cmvpencil/*.py`` plus ``scripts/*.py`` under root."""
    paths = [*(root / "src" / "cmvpencil").glob("*.py"), *(root / "scripts").glob("*.py")]
    return sum(code_lines(path.read_text(encoding="utf-8")) for path in paths)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    print(tree_code_lines(root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
