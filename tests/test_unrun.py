import importlib
import sys

import unrun

SOURCE = '''"""Module docstring."""


def f(x):
    """Function docstring."""
    if x > 0:
        return "positive"
    if x == 0:
        y = 0
    else:
        y = -1
    if any(v < 5 for v in [x]):
        return (
            "small")
    return y


def g(xs):
    try:
        xs.append(1)
    except AttributeError:
        pass
    if xs:
        xs.append(2)


def never():
    global SEEN
    return 1
'''


def test_unrun_fixture(tmp_path, monkeypatch):
    (tmp_path / "unrun_fixture.py").write_text(SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = unrun.Tracer(tmp_path)
    tracer.start()
    try:
        module = importlib.import_module("unrun_fixture")
        module.f(1)
        module.f(-1)
        module.g(None)
    finally:
        tracer.stop()
        sys.modules.pop("unrun_fixture", None)
    name = str((tmp_path / "unrun_fixture.py").resolve())
    assert unrun.unrun(SOURCE, tracer.lines[name], tracer.steps[name]) == [
        (8, "if went only false"), (9, "never executed"),
        # the generator expression returns on the test's line: not a way of the if
        (12, "if went only true"), (15, "never executed"),
        # the frame returns from the test: the false way
        (23, "if went only false"), (24, "never executed"),
        (29, "never executed")]


def test_unrun_without_a_trace():
    # nothing ran: every statement is reported, no if is
    assert unrun.unrun("import os\nif os:\n    x = 1\n", set(), set()) == [
        (1, "never executed"), (2, "never executed"), (3, "never executed")]
    # both ways of a one-line test
    assert unrun.unrun("if a:\n    x = 1\ny = 2\n", {1, 2, 3}, {(1, 2), (1, 3), (2, 3)}) == []
