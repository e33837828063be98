"""Code lines per module: lines that hold code, not counting docstrings,
comments or blank lines.

A line counts when it holds a token other than a comment, a line break or
an indentation change, and the token is not part of a docstring (the string
that opens a module, class or function body).  A statement that spans
several lines counts each of them.  Standard library only.

From the root of a checkout:

    python benchmarks/code_lines.py [DIRECTORY]

prints one line per module of DIRECTORY (default `src/sandwiched`) and the
total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of the Python source file `path`."""
    source = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in SKIPPED:
                continue
            for line in range(token.start[0], token.end[0] + 1):
                if line not in docstrings:
                    lines.add(line)
    return len(lines)


def main(directory: Path) -> None:
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else "src/sandwiched"))
