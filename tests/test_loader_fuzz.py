"""Fuzzed input files for the CLI commands that read seeds, diagrams,
broken lines, segments, pairs and point lists.

Each document is a valid one with up to two nodes replaced by other JSON
values or dropped, or any JSON value at all.  Run in-process through
cli.main, a command exits 0, or 2 with one ``error:`` line on stderr and
nothing on stdout; check-positive may also exit 1 with its verdict.  Nothing
raises past cli.main.  Numbers stay small, so that a valid polygon or
segment costs milliseconds to check and a valid seed or diagram, with
entries within 4 and order at most 4, milliseconds to build or search: a
large order or exchange entry is legitimate work, not a fault.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from csd import cli, serialize
from csd.brokenline import enumerate_lines
from csd.constructions import pair_from_segment
from csd.scattering import complete_rank2

F = Fraction

SEGMENT = {"start": [1, -5], "end": [2, 4], "total_time": "5",
           "pieces": [
               {"exponent": [1, -3], "coeff": "1", "bend": [0, -2], "duration": "1"},
               {"exponent": [1, -2], "coeff": "1", "bend": [-1, 0], "duration": "1"},
               {"exponent": [-1, -2], "coeff": "1", "bend": [0, 2], "duration": "1"},
               {"exponent": [-1, -1], "coeff": "1", "bend": None, "duration": "2"}]}
POLYGON = [[-1, 0], [1, -3], [2, -3], [1, 0]]
SEED = {"rank": 2, "unfrozen": [0, 1], "d": [1, 2], "exchange": [[0, 2], [-1, 0]],
        "principal": False}
KEYS = ["endpoint", "pieces", "exponent", "coeff", "bend", "duration", "start", "end",
        "total_time", "base", "line1", "line2", "rank", "unfrozen", "d", "exchange",
        "principal", "order", "saturated", "seed", "walls", "normal", "support", "kind",
        "dir", "func", "coeffs"]
# numbers in the forms the loaders read, and some they refuse
NUMBERS = st.one_of(st.integers(-4, 4), st.sampled_from(["0", "2", "-3/2", "1/3", "1/0", 0.5, 2.0]))
SCALARS = st.one_of(NUMBERS, st.none(), st.booleans(), st.sampled_from(["x", "", [], {}]))
JSON = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=3), st.dictionaries(st.sampled_from(KEYS), kids, max_size=3)),
    max_leaves=6)


def _paths(doc, prefix=()):
    """The path of every node of a JSON document, the root's () first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def documents(draw, template):
    """The template with up to two nodes replaced or dropped, or any JSON
    value; a number is replaced by another number half of the time."""
    if draw(st.integers(0, 5)) == 0:
        return draw(JSON)
    doc = json.loads(json.dumps(template))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON)
            continue
        node = doc
        for key in path[:-1]:
            node = node[key]
        if draw(st.booleans()):
            del node[path[-1]]
        else:
            number = not isinstance(node[path[-1]], (list, dict, type(None)))
            node[path[-1]] = draw(NUMBERS if number and draw(st.booleans()) else JSON)
    return doc


@pytest.fixture(scope="module")
def files(tmp_path_factory, a2):
    """The A2 diagram at order 4 and valid templates for each input file."""
    d = tmp_path_factory.mktemp("fuzz")
    diagram = complete_rank2(a2, 4)
    serialize.save(d / "a2.json", serialize.diagram_to_json(diagram))
    lines = enumerate_lines(a2, diagram, (-1, 2), (F(3), F(-1, 7)), 4)
    pair, _ = pair_from_segment(a2, diagram, serialize.segment_from_json(SEGMENT), F(5, 2))
    templates = {"lines": [serialize.brokenline_to_json(l) for l in lines],
                 "segment": SEGMENT, "pair": serialize.pair_to_json(pair), "points": POLYGON,
                 "seed": SEED, "diagram": serialize.diagram_to_json(diagram)}
    return d, templates


# (arguments, the flag that reads the fuzzed file, its template, exit codes)
COMMANDS = {
    "build": (["build", "--order", "3"], "--seed", "seed", {0, 2}),
    "theta": (["theta", "--direction", "1,-1", "--endpoint", "97/113,-123/151"], "--diagram",
              "diagram", {0, 2}),
    "render-lines": (["render", "--out", "OUT"], "--broken-lines", "lines", {0, 2}),
    "render-segment": (["render", "--out", "OUT"], "--segment", "segment", {0, 2}),
    "render-polygon": (["render", "--out", "OUT"], "--polygon", "points", {0, 2}),
    "pair-from-segment": (["pair-from-segment", "--tau", "5/2"], "--segment", "segment", {0, 2}),
    "segment-from-pair": (["segment-from-pair", "-a", "2", "-b", "2"], "--pair", "pair", {0, 2}),
    "hull": (["hull"], "--points", "points", {0, 2}),
    "check-positive": (["check-positive", "--max-degree", "2", "--order", "3"], "--polygon",
                       "points", {0, 1, 2}),
}


# the loader behind each template's flag: a document it rejects must exit 2
# with an error line that names the flag
LOADERS = {"lines": cli._broken_lines, "segment": serialize.segment_from_json,
           "pair": serialize.pair_from_json, "points": serialize.points_from_json,
           "seed": serialize.fd_from_json, "diagram": serialize.diagram_from_json}


def _loads(template, doc):
    try:
        LOADERS[template](doc)
    except (ValueError, KeyError):
        return False
    return True


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_input_files_exit_cleanly(files, command, data):
    d, templates = files
    argv, flag, template, codes = COMMANDS[command]
    doc = data.draw(documents(templates[template]), label="document")
    path = d / ("%s.json" % command)
    path.write_text(json.dumps(doc))
    argv = [str(d / "out.svg") if a == "OUT" else a for a in argv] + [flag, str(path)]
    if flag not in ("--seed", "--diagram"):
        argv += ["--diagram", str(d / "a2.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
    code, out, err = info.value.code, out.getvalue(), err.getvalue()
    assert code in codes, (code, out, err)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (out, err)
        if not _loads(template, doc):
            assert err.startswith("error: %s: " % flag), err
    else:
        assert "error" not in err, err


def _edited(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("command,template,path,value,message", [
    ("render-lines", "lines", (1, "pieces", 0, "bend"), None,
     "--broken-lines: broken line piece 0 bend must be a point [x, y]: only the last piece "
     "of a broken line has none"),
    ("pair-from-segment", "segment", ("pieces", 0, "duration"), -2,
     "--segment: segment piece 0 duration must be >= 0, got -2"),
    ("pair-from-segment", "segment", ("pieces",), SEGMENT["pieces"][:2],
     "no piece holds tau = 5/2: the durations end at 2, not at T = 5"),
    ("render-polygon", "points", (0, 0), "x",
     "--polygon: bad coordinate in point ['x', 0]: Invalid literal for Fraction: 'x'"),
], ids=["bend-missing", "negative-duration", "durations-short", "not-rational"])
def test_documents_the_fuzz_found(files, capsys, command, template, path, value, message):
    # the first three raised past cli.main before the loaders or the split
    # checked them; the last named no point
    d, templates = files
    argv, flag, _, _ = COMMANDS[command]
    bad = d / "found.json"
    bad.write_text(json.dumps(_edited(templates[template], path, value)))
    argv = [str(d / "found.svg") if a == "OUT" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--diagram", str(d / "a2.json"), flag, str(bad)])
    got = capsys.readouterr()
    assert (info.value.code, got.out, got.err) == (2, "", "error: %s\n" % message)


# (arguments, the flag whose file is given)
FILE_FLAGS = {
    "build-seed": (["build", "--order", "2"], "--seed"),
    "theta-diagram": (["theta", "--direction", "1,0", "--endpoint", "2,1"], "--diagram"),
    "render-lines": (["render", "--out", "OUT"], "--broken-lines"),
    "render-segment": (["render", "--out", "OUT"], "--segment"),
    "render-polygon": (["render", "--out", "OUT"], "--polygon"),
    "pair-from-segment": (["pair-from-segment", "--tau", "5/2"], "--segment"),
    "segment-from-pair": (["segment-from-pair", "-a", "2", "-b", "2"], "--pair"),
    "hull": (["hull"], "--points"),
    "check-positive": (["check-positive"], "--polygon"),
}


def _exit(files, capsys, name, text):
    """(exit code, stdout, stderr) of the command name with its flag's file
    holding text, or naming no file when text is None."""
    d, _ = files
    argv, flag = FILE_FLAGS[name]
    bad = d / "flagged.json"
    if text is None:
        bad.unlink(missing_ok=True)
    else:
        bad.write_text(text)
    argv = [str(d / "flagged.svg") if a == "OUT" else a for a in argv] + [flag, str(bad)]
    if flag not in ("--seed", "--diagram"):
        argv += ["--diagram", str(d / "a2.json")]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    got = capsys.readouterr()
    return info.value.code, got.out, got.err


@pytest.mark.parametrize("name", FILE_FLAGS)
def test_invalid_json_names_its_flag(files, capsys, name):
    flag = FILE_FLAGS[name][1]
    assert _exit(files, capsys, name, "{nope") == (
        2, "", "error: %s: Expecting property name enclosed in double quotes: "
               "line 1 column 2 (char 1)\n" % flag)


@pytest.mark.parametrize("name", FILE_FLAGS)
def test_missing_file_names_its_flag(files, capsys, name):
    d, _ = files
    assert _exit(files, capsys, name, None) == (
        2, "", "error: %s: [Errno 2] No such file or directory: '%s'\n"
               % (FILE_FLAGS[name][1], d / "flagged.json"))


@pytest.mark.parametrize("name,text,message", [
    ("render-polygon", "{}", "points must be a JSON list, got dict"),
    ("render-segment", "[]", "segment must be a JSON object with a list of pieces"),
    ("pair-from-segment", "[]", "segment must be a JSON object with a list of pieces"),
    ("segment-from-pair", "[]", "pair must be a JSON object, got list"),
    ("hull", "[]", "no points listed"),
    ("check-positive", "[]", "no points listed"),
])
def test_wrong_document_names_its_flag(files, capsys, name, text, message):
    # the render and split flags did not name themselves
    flag = FILE_FLAGS[name][1]
    assert _exit(files, capsys, name, text) == (2, "", "error: %s: %s\n" % (flag, message))


@pytest.mark.parametrize("value", ["yes", 1, None, []])
def test_saturated_must_be_a_boolean(files, capsys, value):
    # "yes" loaded, and diagram_to_json would have written it back as true
    d, _ = files
    doc = dict(json.loads((d / "a2.json").read_text()), saturated=value)
    assert _exit(files, capsys, "theta-diagram", json.dumps(doc)) == (
        2, "", "error: --diagram: saturated must be true or false, got %r\n" % (value,))
