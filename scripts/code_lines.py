"""Count the code lines of each Python module under a directory.

A code line holds at least one token that is not part of a comment or a
docstring; blank lines, comment lines and docstring lines do not count. A
docstring is the string that opens a module, class or function body. Every
line a multi-line token spans counts, so each line of a triple-quoted string
that is not a docstring is code.

Usage: python3 scripts/code_lines.py [DIR]

DIR defaults to src/romga. Prints one "COUNT  PATH" line per module, sorted
by path relative to DIR, then "COUNT  total". Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
})
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python3 scripts/code_lines.py [DIR]", file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else "src/romga")
    modules = sorted(root.rglob("*.py"))
    if not modules:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
