#!/usr/bin/env python3
"""Code lines per module of a Python package, and their total.

A code line is a physical line that holds part of a token other than a
comment or a line break, outside every docstring (the leading string
statement of a module, class or function body, found with ast). Blank
lines, comment lines and docstrings do not count; a multi-line string that
is not a docstring counts every line it spans. A usage error exits 1, as
docksim.cli.exit_code maps it; docksim must be importable.

Usage: python scripts/code_lines.py [package directory, default src/docksim]
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

from docksim.cli import Parser, exit_code

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by every docstring of the parsed source."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    ap = Parser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("package", nargs="?", default="src/docksim")
    args = ap.parse_args()
    root = Path(args.package)
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
