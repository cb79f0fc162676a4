"""Count the lines of ``src/newtonzeta`` that hold a token, with comments
and docstrings left out: the net line count that each change reports.
Run it by hand from anywhere in the repository:

    python tests/token_lines.py

It prints each module's count and the total.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "newtonzeta"
_NO_TEXT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def token_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a
    comment, outside the docstrings of its module, classes and functions."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NO_TEXT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main():
    counts = {path.name: token_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name}: {count}")
    print(f"total: {sum(counts.values())}")


if __name__ == "__main__":
    main()
