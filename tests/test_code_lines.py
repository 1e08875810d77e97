"""``tools/code_lines.py`` counts code lines: no docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# Seven code lines: the import, the class and its attribute, the two defs
# and the two returns.  A string that is not a body's first statement counts.
SNIPPET = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment keeps its line


class Thing:
    """Class docstring."""

    x = "not a docstring"

    def method(self):
        """Method docstring
        over two lines.
        """
        # an indented comment
        return 1


async def job():
    """Async docstring."""
    return 2
'''


def test_counts_code_lines_only():
    assert code_lines.code_lines(SNIPPET) == 7
    assert code_lines.code_lines("") == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "a.py").write_text('"""Only a docstring."""\nx = 1\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "1"], ["b.py", "7"], ["total", "8"]]
