"""``tools/code_lines.py``: code and docstring lines per module, for files, for
directories, and for the package's modules when given no path."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
on two lines."""

import os  # a comment


def f(x):
    """One line."""
    # a comment alone

    return (x +
            os.sep)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*args, cwd):
    """The tool's output rows, each split into fields."""
    out = subprocess.run([sys.executable, str(TOOL), *map(str, args)], cwd=cwd,
                         capture_output=True, text=True, check=True).stdout
    return [line.split(maxsplit=2) for line in out.splitlines()]


def test_counts_code_and_docstring_lines():
    # code: the import, the def and the two lines of the return; docstrings: 2 + 1
    assert _tool().line_counts(SOURCE) == (4, 3)


def test_a_directory_is_read_recursively(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    rows = _run(tmp_path, cwd=tmp_path)
    assert rows == [["code", "docs"], ["4", "3", "a.py"], ["1", "0", "sub/b.py"],
                    ["5", "3", "total code and docstring lines"]]


def test_no_path_reads_the_package_modules(tmp_path):
    modules = sorted((ROOT / "src" / "slimgraph").glob("*.py"))
    bare, listed = _run(cwd=tmp_path), _run(*modules, cwd=tmp_path)
    assert bare == listed and len(bare) == len(modules) + 2
    assert [Path(row[2]).name for row in bare[1:-1]] == [m.name for m in modules]
    code, docs = map(int, bare[-1][:2])
    assert code > 1000 and docs > 100
