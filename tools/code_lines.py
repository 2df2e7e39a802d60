"""Print each module's code lines: lines outside docstrings, comments and blanks.

Usage: python tools/code_lines.py src/slimgraph/*.py
"""

import ast
import io
import sys
import tokenize


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, newline or docstring."""
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
    return len(lines - docstrings)


def main(paths) -> None:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total code lines")


if __name__ == "__main__":
    main(sys.argv[1:])
