"""Count code lines in Python sources: non-blank, non-comment, docstrings excluded.

Usage: python3 scripts/code_lines.py [PATH ...]   (default: src/llanet)

Each PATH is a .py file or a directory searched recursively. Prints one line
per file and the total. A docstring is the string literal that opens a
module, class or function body; every line it spans is left out.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    return sum(1 for i, line in enumerate(text.splitlines(), start=1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/llanet"]:
        p = Path(arg)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
