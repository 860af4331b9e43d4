"""Count the lines of each module of ``src/kinematica``, and print them as a table.

For each module, and in total, two figures: ``lines``, the physical lines of
the file, and ``code``, the lines that are not blank, comments or docstrings.
A line is code when a token other than a comment or a line break lies on it
(a string that spans lines covers each of them), unless it lies within a
docstring: the string that opens the module, a class or a function, found
with ``ast``.  Run it on one checkout, or on several side by side:

    python tests/src_lines.py                                # this checkout
    python tests/src_lines.py --root ../other-checkout --root .

``--root`` names a checkout whose ``src/kinematica`` is counted; repeat it to
print more than one, each in its own pair of columns.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

# tokens that lie on a line without making it code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the docstrings of the module and of its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The physical lines of ``source`` and those that are code."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def counts(root: Path) -> dict[str, tuple[int, int]]:
    """Module name -> (lines, code) for each module of the checkout at ``root``."""
    package = root / "src" / "kinematica"
    return {path.relative_to(package).as_posix(): count(path.read_text(encoding="utf-8"))
            for path in sorted(package.rglob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="checkout whose src/kinematica to count; repeat to compare "
                             "(default: this one)")
    args = parser.parse_args(argv)

    roots = [root.resolve() for root in args.root or [Path(__file__).resolve().parents[1]]]
    tables = [counts(root) for root in roots]
    modules = sorted({module for table in tables for module in table})
    totals = [(sum(lines for lines, _ in table.values()), sum(code for _, code in table.values()))
              for table in tables]
    width = max(len(module) for module in [*modules, "total"]) + 2

    def row(name: str, pairs) -> str:
        # a module missing from a checkout shows "-" in its columns
        cells = [pair or ("-", "-") for pair in pairs]
        return f"{name:<{width}}" + "".join(f"{lines:>8}{code:>8}" for lines, code in cells)

    for root in roots:
        print(root)
    print(row("module", [("lines", "code")] * len(roots)))
    for module in modules:
        print(row(module, [table.get(module) for table in tables]))
    print(row("total", totals))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
