"""The statements of src/csd that a test run never executes, and the ifs
whose test only ever went one way.

    python3 tests/unrun.py [PYTEST ARGS]

runs pytest in this process (on tests/ with --hypothesis-seed=0 when no
argument is given, so that two full runs list the same findings) under a
stdlib sys.settrace line tracer that follows only the frames of src/csd,
then prints one row per finding, "path:line: what | source line", and a
total.  A full run takes about ten minutes, several times the suite's
untraced time; name a test file to trace less.

A statement counts as executed when a line of its own ran: every line of
a simple statement, or the decorator and header lines of a compound one.
An if went true when
its test line stepped into its body's first statement, and false when it
stepped anywhere else outside the test, a return of the frame included.
Steps are kept per frame and not for comprehensions and generator
expressions, whose frames end on the line that calls them.  Docstrings and
global and nonlocal statements, which run no code, are left out, and so
are ifs whose body shares the test's line.

A line tracer sees lines, not expressions, so an operand of ``and`` or
``or`` that never decides its test goes unseen: the if around it still
goes both ways.  Such an operand is found by counting how often it
decides, in a probe run of its own.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "csd"

# code names whose frames record lines but no steps
_INLINE = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>", "<lambda>"}


class Tracer:
    """Executed lines and per-frame steps (from line, to line) of the files
    under root, by file name; a step to line 0 is a return."""

    def __init__(self, root):
        self.root = str(Path(root).resolve())
        self.lines = {}
        self.steps = {}
        self._kept = {}
        self._outer = None

    def _call(self, frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        keep = self._kept.get(name)
        if keep is None:
            keep = self._kept[name] = str(Path(name).resolve()).startswith(self.root)
        if not keep:
            return None
        lines = self.lines.setdefault(name, set())
        steps = None if code.co_name in _INLINE else self.steps.setdefault(name, set())
        last = None

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                n = frame.f_lineno
                lines.add(n)
                if steps is not None and last is not None:
                    steps.add((last, n))
                last = n
            elif event == "return":
                if steps is not None and last is not None:
                    steps.add((last, 0))
            elif event == "exception":
                # a raise is neither way of an if
                last = None
            return local
        return local

    def start(self):
        # a tracer started under another one hands back to it on stop
        self._outer = sys.gettrace()
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(self._outer)


def _own_lines(node):
    """The lines whose events mean the statement ran: decorators and header
    for a compound statement, all of a simple one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        last = max(node.lineno, body[0].lineno - 1)
    else:
        last = node.end_lineno
    return set(range(first, last + 1))


def _statements(tree):
    """Each statement that runs code, docstrings left out."""
    out = []
    for node in ast.walk(tree):
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for i, stmt in enumerate(block):
                if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                    continue
                if (documented and field == "body" and i == 0 and isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    continue
                out.append(stmt)
    return out


def unrun(source, lines, steps):
    """[(line, what)] for one module: its statements that never ran and its
    ifs that only went one way, by line, given the lines that ran and the
    steps taken."""
    out = []
    for s in _statements(ast.parse(source)):
        if not _own_lines(s) & lines:
            out.append((s.lineno, "never executed"))
            continue
        if not isinstance(s, ast.If):
            continue
        test = set(range(s.lineno, s.test.end_lineno + 1))
        into = _own_lines(s.body[0])
        if into & test:
            continue
        ways = {to in into for frm, to in steps if frm in test and to not in test}
        if ways != {True, False}:
            out.append((s.lineno, "if went " + ("only true" if True in ways
                                                else "only false" if ways else "neither way")))
    return sorted(out)


def main(argv):
    import pytest
    sys.path.insert(0, str(SRC.parent))
    tracer = Tracer(SRC)
    tracer.start()
    try:
        code = pytest.main(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                                    "--hypothesis-seed=0"])
    finally:
        tracer.stop()
    found = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        name = str(path.resolve())
        for line, what in unrun(source, tracer.lines.get(name, set()),
                                tracer.steps.get(name, set())):
            print("%s:%d: %s | %s" % (path.relative_to(ROOT), line, what, text[line - 1].strip()))
            found += 1
    print("%d findings" % found)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
