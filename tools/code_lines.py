"""Print each module's code lines and docstring lines, and their totals.

A code line holds a token other than a comment, a newline or a docstring; a docstring
line lies inside a module, class or function docstring. Blank and comment-only lines
are neither.

Usage: python tools/code_lines.py [PATH ...]

Each PATH is a Python file or a directory, whose ``*.py`` files are read recursively.
With no PATH the package's modules are read: ``src/slimgraph/*.py`` of this checkout.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slimgraph"


def line_counts(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of a module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings), len(docstrings)


def _files(paths) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(paths) -> None:
    files = _files(paths) if paths else sorted(PACKAGE.glob("*.py"))
    code_total = doc_total = 0
    print(f"{'code':>6} {'docs':>6}")
    for path in files:
        code, docs = line_counts(path.read_text(encoding="utf-8"))
        code_total, doc_total = code_total + code, doc_total + docs
        print(f"{code:6d} {docs:6d} {os.path.relpath(path)}")
    print(f"{code_total:6d} {doc_total:6d} total code and docstring lines")


if __name__ == "__main__":
    main(sys.argv[1:])
