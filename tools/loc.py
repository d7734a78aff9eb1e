"""Count the lines of the iongradim package: total, code and docstring lines per module.

A code line holds at least one token that is not a comment and not part of
a module, class or function docstring; a docstring line is a line that such
a docstring spans. Blank and comment-only lines count in the total alone.
The last line gives the number of names in the package's __all__.

Run from the repository root: python3 tools/loc.py
Standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "iongradim"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(total, code, docstring) lines of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            code.update(n for n in range(token.start[0], token.end[0] + 1) if n not in docs)
    return len(source.splitlines()), len(code), len(docs)


def main() -> None:
    sums = [0, 0, 0]
    print(f"{'module':<20}{'total':>8}{'code':>8}{'doc':>8}")
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        sums = [s + c for s, c in zip(sums, counts)]
        print(f"{path.name:<20}" + "".join(f"{c:>8,}" for c in counts))
    print(f"{'sum':<20}" + "".join(f"{s:>8,}" for s in sums))
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = next(len(node.value.elts) for node in init.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    print(f"__all__ names: {names}")


if __name__ == "__main__":
    main()
