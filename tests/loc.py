"""Line counts per module of src/csd: code, docstring, comment and blank.

A docstring is the leading string statement of a module, class or function
body; its lines count as docstring lines, blank ones included.  Outside
docstrings a line is blank when it holds only whitespace, a comment when
its first non-blank character is '#', and code otherwise.

    python3 tests/loc.py [DIR]

prints one row per module of DIR (src/csd by default) and a total row.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree):
    """The 1-based line numbers covered by docstrings in the parsed tree."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def count(source):
    """{kind: lines} for one module's source text."""
    docs = _docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if i in docs:
            kind = "docstring"
        elif not text:
            kind = "blank"
        elif text.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "csd"
    total = dict.fromkeys(KINDS, 0)
    print("%-16s %6s %9s %7s %5s %6s" % (("module",) + KINDS + ("total",)))
    for path in sorted(root.glob("*.py")):
        c = count(path.read_text())
        for k in KINDS:
            total[k] += c[k]
        print("%-16s %6d %9d %7d %5d %6d"
              % ((path.name,) + tuple(c[k] for k in KINDS) + (sum(c.values()),)))
    print("%-16s %6d %9d %7d %5d %6d"
          % (("total",) + tuple(total[k] for k in KINDS) + (sum(total.values()),)))


if __name__ == "__main__":
    main(sys.argv)
