"""Count the code lines of the zflab package, the figure ROADMAP item 5 tracks.

A code line is a line that is not blank, not only a comment and not part of
a docstring (the first statement of a module, class or function, when it is
a string literal).  Prints each module's count and the total:

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/zflab`` beside this script's directory.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zflab"


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1 for number, line in enumerate(source.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<20} {count:>6,}")
    print(f"{'total':<20} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
