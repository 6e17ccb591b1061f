"""Print the code lines of src/treesink/*.py at a git revision, or in the
working tree when none is given, per file and in total.

A code line holds a token that is neither a comment nor part of a
docstring (the string that opens a module, class or function body); blank
lines are not code either.

    python3 .github/code_lines.py [REV]
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def sources(rev):
    """(path, text) of each src/treesink/*.py at ``rev``, or on disk."""
    if rev is None:
        return [(str(p), p.read_text(encoding="utf-8"))
                for p in sorted(Path("src/treesink").glob("*.py"))]
    names = subprocess.run(
        ["git", "ls-tree", "--name-only", rev, "src/treesink/"],
        check=True, capture_output=True, text=True).stdout.split()
    return [(name, subprocess.run(["git", "show", f"{rev}:{name}"],
                                  check=True, capture_output=True,
                                  text=True).stdout)
            for name in names if name.endswith(".py")]


def code_lines(text):
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(rev=None):
    total = 0
    for path, text in sources(rev):
        count = code_lines(text)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(*sys.argv[1:2])
