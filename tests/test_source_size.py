"""The source-size report of `tools/source_size.py`, without git."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "source_size.py"
_spec = importlib.util.spec_from_file_location("source_size", TOOL)
source_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(source_size)

SOURCE = '''"""Module docstring,
two lines."""

# a comment
import os


def f(x):
    """Docstring."""
    return (x +
            1)  # trailing comment
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # import, def, and the two lines of the return
    assert source_size.code_lines(SOURCE) == 4
    assert source_size.code_lines("") == 0


def test_report_gives_sizes_and_nets_per_module():
    now = {"a.py": SOURCE, "b.py": "x = 1\n"}
    base = {"a.py": SOURCE + "y = 2\n", "c.py": "z = 3\n\n"}
    rows = source_size.report(now, base)
    assert [row.split()[-1] for row in rows] == ["src/liegrowth/a.py", "src/liegrowth/b.py", "src/liegrowth/c.py", "total"]
    assert rows[0].split()[:8] == ["11", "lines", "4", "code", "net", "-1", "lines", "-1"]
    assert rows[1].split()[5:8] == ["+1", "lines", "+1"]
    assert rows[2].split()[:8] == ["0", "lines", "0", "code", "net", "-2", "lines", "-1"]
    assert rows[3].split()[:8] == ["12", "lines", "5", "code", "net", "-2", "lines", "-1"]
    # without a base, the sizes only
    assert [row.split() for row in source_size.report(now)] == [
        ["11", "lines", "4", "code", "src/liegrowth/a.py"],
        ["1", "lines", "1", "code", "src/liegrowth/b.py"],
        ["12", "lines", "5", "code", "total"],
    ]


def test_working_tree_sources_are_the_package_modules():
    sources = source_size.sources()
    assert "expr.py" in sources and "__init__.py" in sources
    assert all(name.endswith(".py") for name in sources)
