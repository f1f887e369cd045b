"""Count the code lines of Python source files.

    python tools/code_lines.py src/pfge [more files or directories...]

prints one ``<lines>  <path>`` row per ``.py`` file, then the total. A code
line is a line that holds some token other than a comment: blank lines,
comment-only lines and the lines of module, class and function docstrings do
not count. A token that spans several lines (a multi-line string that is not
a docstring) counts on every line it covers. Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list:
    """``((row, col), (end_row, end_col))`` of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_spans(ast.parse(source))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in docstrings):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def _python_files(paths) -> list:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in _python_files(argv):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
