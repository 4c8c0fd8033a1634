"""Print the code lines of each module of a package source tree, and their total.

A line counts when it holds a token that is not a comment, a newline, an
indent or dedent, or part of a string-expression statement (a docstring or
any other bare string).  Blank lines, comments and docstrings so count for
nothing, and a statement spread over several lines counts each line that
holds one of its tokens.  One line per module, ``<lines> <module>``, sorted
by module, then ``<total> total``:

    python tests/code_lines.py [<checkout>/src/prolate_calculus]

The default is this checkout's package.  Pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prolate_calculus"
_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    source = path.read_text(encoding="utf-8")
    bare_strings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            bare_strings.update(range(node.lineno, node.end_lineno + 1))
    return len(
        {
            line
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type not in _SKIPPED
            for line in range(token.start[0], token.end[0] + 1)
            if line not in bare_strings
        }
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {path.stem: code_lines(path) for path in sorted(package.glob("*.py"))}
    for module, lines in counts.items():
        print(f"{lines} {module}")
    print(f"{sum(counts.values())} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
