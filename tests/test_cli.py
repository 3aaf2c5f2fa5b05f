import json
import subprocess
import sys
from fractions import Fraction

import pytest

from csd import brokenline, cli, serialize
from csd.constructions import pair_from_segment

F = Fraction


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "csd.cli"] + list(args),
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def paths(tmp_path_factory, a2, g2, a2_diagram, g2_diagram):
    d = tmp_path_factory.mktemp("cli")
    p = {}
    p["a2_seed"] = d / "a2_seed.json"
    serialize.save(p["a2_seed"], serialize.fd_to_json(a2))
    p["a2"] = d / "a2.json"
    serialize.save(p["a2"], serialize.diagram_to_json(a2_diagram))
    p["g2"] = d / "g2.json"
    serialize.save(p["g2"], serialize.diagram_to_json(g2_diagram))
    p["seg"] = d / "seg.json"
    serialize.save(p["seg"], {
        "start": [1, -5], "end": [2, 4], "total_time": "5",
        "pieces": [
            {"exponent": [1, -3], "coeff": "1", "bend": [0, -2], "duration": "1"},
            {"exponent": [1, -2], "coeff": "1", "bend": [-1, 0], "duration": "1"},
            {"exponent": [-1, -2], "coeff": "1", "bend": [0, 2], "duration": "1"},
            {"exponent": [-1, -1], "coeff": "1", "bend": None, "duration": "2"},
        ]})
    p["quad"] = d / "quad.json"
    serialize.save(p["quad"], [[-1, 0], [1, -3], [2, -3], [1, 0]])
    p["dir"] = d
    return p


def test_build(paths):
    out = paths["dir"] / "built.json"
    r = run_cli("build", "--seed", str(paths["a2_seed"]), "--order", "5",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "walls: 3" in r.stdout
    assert "saturated: True" in r.stdout
    doc = json.loads(out.read_text())
    assert doc["order"] == 5


def test_theta(paths):
    r = run_cli("theta", "--diagram", str(paths["a2"]),
                "--direction", "-1,0", "--endpoint", "2,1")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "z^(-1,0) + z^(-1,1)"


def test_multiply(paths):
    r = run_cli("multiply", "--diagram", str(paths["g2"]), "-p", "1,0", "-q", "-1,0")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert "r=(0,0): 1" in lines
    assert "r=(0,3): 1" in lines


def test_pair_and_segment_roundtrip(paths):
    pair_out = paths["dir"] / "pair.json"
    r = run_cli("pair-from-segment", "--diagram", str(paths["g2"]),
                "--segment", str(paths["seg"]), "--tau", "5/2",
                "--out", str(pair_out))
    assert r.returncode == 0, r.stderr
    assert "a=6 b=6" in r.stdout
    assert "base=(-6,12)" in r.stdout
    seg_out = paths["dir"] / "seg2.json"
    r = run_cli("segment-from-pair", "--diagram", str(paths["g2"]),
                "--pair", str(pair_out), "-a", "6", "-b", "6",
                "--out", str(seg_out))
    assert r.returncode == 0, r.stderr
    assert "segment (1,-5) -> (2,4)" in r.stdout
    doc = json.loads(seg_out.read_text())
    assert doc["start"] == [1, -5] and doc["end"] == [2, 4]


def test_hull_and_check_positive(paths):
    hull_out = paths["dir"] / "hull.json"
    r = run_cli("hull", "--diagram", str(paths["g2"]),
                "--points", str(paths["quad"]), "--out", str(hull_out))
    assert r.returncode == 0, r.stderr
    pts = {tuple(F(str(c)) for c in p) for p in json.loads(hull_out.read_text())}
    assert (F(0), F(3, 2)) in pts
    # the ordinary quadrilateral fails positivity: exit code 1 with a witness
    r = run_cli("check-positive", "--diagram", str(paths["g2"]),
                "--polygon", str(paths["quad"]), "--max-degree", "2")
    assert r.returncode == 1
    assert "verdict: False" in r.stdout
    # its broken-line hull passes
    r = run_cli("check-positive", "--diagram", str(paths["g2"]),
                "--polygon", str(hull_out), "--max-degree", "2")
    assert r.returncode == 0
    assert "verdict: True" in r.stdout


A2_WITNESS = '{"a": 1, "alpha": "1", "b": 1, "p": [0, 1], "q": [-1, -1], "r": [-2, 0]}'


def test_check_positive_witness_line(paths):
    poly = paths["dir"] / "a2_triangle.json"
    poly.write_text(json.dumps([[1, 0], [0, 1], [-1, -1]]))
    r = run_cli("check-positive", "--diagram", str(paths["a2"]),
                "--polygon", str(poly), "--max-degree", "2")
    assert r.returncode == 1, r.stderr
    assert r.stdout.splitlines() == ["verdict: False  (max_degree=2, order=6)", A2_WITNESS]


def test_witness_alpha_format_independent_of_type():
    w = {"p": (0, 1), "q": (-1, -1), "r": (-2, 0), "a": 1, "b": 1}
    assert cli._witness_json(dict(w, alpha=1)) == A2_WITNESS
    assert cli._witness_json(dict(w, alpha=F(1))) == A2_WITNESS
    assert '"alpha": "3/2"' in cli._witness_json(dict(w, alpha=F(3, 2)))


def test_harness(paths):
    r = run_cli("harness", "--diagram", str(paths["a2"]), "--trials", "3")
    assert r.returncode == 0, r.stderr
    assert "disagreements=0" in r.stdout


def test_render(paths):
    out = paths["dir"] / "fig.svg"
    r = run_cli("render", "--diagram", str(paths["g2"]), "--segment",
                str(paths["seg"]), "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert out.read_text().startswith("<svg") or "<svg" in out.read_text()


def test_usage_errors(paths):
    r = run_cli("theta", "--diagram", str(paths["dir"] / "missing.json"),
                "--direction", "1,0", "--endpoint", "2,1")
    assert r.returncode == 2
    r = run_cli("theta", "--diagram", str(paths["a2"]),
                "--direction", "1;0", "--endpoint", "2,1")
    assert r.returncode == 2
    # endpoint on a wall is an input error, not a crash
    r = run_cli("theta", "--diagram", str(paths["a2"]),
                "--direction", "1,0", "--endpoint", "0,1")
    assert r.returncode == 2


def test_build_rejects_frozen_index(paths):
    seed = paths["dir"] / "frozen_seed.json"
    seed.write_text(json.dumps({"rank": 2, "unfrozen": [0], "d": [1, 1],
                                "exchange": [[0, 1], [-1, 0]], "principal": False}))
    r = run_cli("build", "--seed", str(seed), "--order", "6")
    assert r.returncode == 2
    assert "unfrozen" in r.stderr


@pytest.mark.parametrize("seed,field", [
    ([1, 2], "seed must be a JSON object"),
    ({"rank": 2, "unfrozen": [0, 1], "d": [1, 1], "exchange": "ab"}, "exchange"),
    ({"rank": 2, "unfrozen": [0, 1], "d": [1, 1], "exchange": [[0, 1.5], [-1, 0]]}, "exchange"),
    ({"rank": 2, "unfrozen": [0, 1], "d": [0, 1], "exchange": [[0, 1], [-1, 0]]}, "d must"),
    ({"rank": 3, "unfrozen": [0, 1], "d": [1, 1], "exchange": [[0, 1], [-1, 0]]}, "rank"),
], ids=["list", "exchange-string", "exchange-float", "d-zero", "rank-3"])
def test_build_rejects_malformed_seed(paths, seed, field):
    path = paths["dir"] / "bad_seed.json"
    path.write_text(json.dumps(seed))
    r = run_cli("build", "--seed", str(path), "--order", "3")
    assert r.returncode == 2
    assert field in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("doc", [[[1, 2, 3], [0, 0]], {"a": 1}, [[1, "1/0"]], [[1, None]]],
                         ids=["three-coordinates", "object", "zero-denominator", "null"])
def test_malformed_point_files(paths, doc):
    bad = paths["dir"] / "bad_points.json"
    bad.write_text(json.dumps(doc))
    for cmd, flag in (("hull", "--points"), ("check-positive", "--polygon")):
        r = run_cli(cmd, "--diagram", str(paths["g2"]), flag, str(bad))
        assert r.returncode == 2
        assert flag in r.stderr and "Traceback" not in r.stderr


def test_zero_denominators_rejected(paths):
    r = run_cli("theta", "--diagram", str(paths["a2"]), "--direction", "-1,0",
                "--endpoint", "1/0,2")
    assert r.returncode == 2
    assert "--endpoint" in r.stderr and "Traceback" not in r.stderr
    r = run_cli("pair-from-segment", "--diagram", str(paths["g2"]), "--segment",
                str(paths["seg"]), "--tau", "1/0")
    assert r.returncode == 2
    assert "--tau" in r.stderr and "Traceback" not in r.stderr


def test_empty_point_lists(paths):
    empty = paths["dir"] / "empty.json"
    empty.write_text("[]")
    for cmd, flag in (("hull", "--points"), ("check-positive", "--polygon")):
        r = run_cli(cmd, "--diagram", str(paths["g2"]), flag, str(empty))
        assert r.returncode == 2
        assert flag in r.stderr and "Traceback" not in r.stderr


def test_max_degree_below_two(paths):
    commands = (["check-positive", "--diagram", str(paths["g2"]), "--polygon", str(paths["quad"])],
                ["harness", "--diagram", str(paths["a2"]), "--trials", "1"])
    for cmd in commands:
        for degree in ("0", "1", "-3"):
            r = run_cli(*cmd, "--max-degree", degree)
            assert r.returncode == 2
            assert "--max-degree" in r.stderr and "verdict" not in r.stdout


def test_order_zero_and_negative(paths):
    # --order 0 truncates at order 0; it does not fall back to the diagram's order
    r = run_cli("theta", "--diagram", str(paths["a2"]),
                "--direction", "-1,0", "--endpoint", "2,1", "--order", "0")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "z^(-1,0)"
    r = run_cli("multiply", "--diagram", str(paths["g2"]), "-p", "1,0", "-q", "-1,0",
                "--order", "0")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "r=(0,0): 1"
    for cmd in (["build", "--seed", str(paths["a2_seed"])],
                ["theta", "--diagram", str(paths["a2"]), "--direction", "-1,0",
                 "--endpoint", "2,1"]):
        r = run_cli(*cmd, "--order", "-1")
        assert r.returncode == 2
        assert "--order" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("doc,field", [
    ([1, 2], "diagram must be a JSON object"),
    ({"seed": [1, 2], "order": 6, "saturated": True, "walls": []}, "seed must be a JSON object"),
    ({"seed": {"rank": 2, "unfrozen": [0, 1], "d": [1, 1], "exchange": [[0, 1], [-1, 0]],
               "principal": False}, "order": 6, "saturated": True, "walls": 5},
     "walls must be a JSON list"),
] + [({"seed": {"rank": 2, "unfrozen": [0, 1], "d": [1, 1], "exchange": [[0, 1], [-1, 0]],
                "principal": False}, "order": order, "saturated": True, "walls": []},
      "order must be") for order in ("x", 2.5, None, -1)],
    ids=["list", "seed-list", "walls-int", "order-string", "order-float", "order-null",
         "order-negative"])
def test_theta_rejects_malformed_diagram(paths, doc, field):
    path = paths["dir"] / "bad_diagram.json"
    path.write_text(json.dumps(doc))
    r = run_cli("theta", "--diagram", str(path), "--direction", "-1,0", "--endpoint", "2,1")
    assert r.returncode == 2
    assert field in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("path,value,field", [
    (("func", "coeffs", 0), "1/2", "wall 2: func coeffs"),
    (("func", "coeffs", 0), "-1", "wall 2: func coeffs"),
    (("func", "coeffs", 0), "1/0", "wall 2: func coeffs"),
    (("func", "coeffs"), 5, "wall 2: func coeffs"),
    (("func", "dir"), [0, 0], "wall 2: func dir"),
    (("support", "dir"), [1, 2], "wall 2: support dir"),
    (("support", "dir"), [2, -2], "wall 2: support dir"),
    (("support",), ["ray", [1, -1]], "wall 2: support"),
    (("normal",), [1, 1, 0], "wall 2: normal"),
    (("normal",), [0, 0], "wall 2: normal"),
    ((), 7, "wall 2: wall must be a JSON object"),
], ids=["coeff-half", "coeff-negative", "coeff-zero-den", "coeffs-int", "func-dir-zero",
        "ray-off-line", "ray-not-primitive", "support-list", "normal-three", "normal-zero",
        "wall-int"])
def test_theta_rejects_malformed_wall(paths, path, value, field):
    doc = json.loads(paths["a2"].read_text())
    assert doc["walls"][2]["support"] == {"kind": "ray", "dir": [1, -1]}
    if path:
        node = doc["walls"][2]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        doc["walls"][2] = value
    bad = paths["dir"] / "bad_wall.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("theta", "--diagram", str(bad), "--direction", "-1,-1", "--endpoint", "7/5,-3/11")
    assert r.returncode == 2
    assert field in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("value,message", [
    ([-1, 1], "wall 0: func dir must lie on the line of normal [1, 0], got [-1, 1]"),
    ([0, -1], "wall 0: func dir must lie in the cone of the monoid, got [0, -1]"),
], ids=["off-line", "outside-cone"])
def test_theta_rejects_func_dir_off_wall_line_or_cone(paths, value, message):
    # the bending power is read off the pairing with the normal alone, so a
    # function direction off the wall's line would give wrong thetas silently
    doc = json.loads(paths["a2"].read_text())
    assert doc["walls"][0]["normal"] == [1, 0]
    assert doc["walls"][0]["func"]["dir"] == [0, 1]
    doc["walls"][0]["func"]["dir"] = value
    bad = paths["dir"] / "bad_func_dir.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("theta", "--diagram", str(bad), "--direction", "-1,-1", "--endpoint", "7/5,-3/11")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: %s\n" % message


def test_harness_rejects_nonpositive_trials(paths):
    for trials in ("0", "-3"):
        r = run_cli("harness", "--diagram", str(paths["a2"]), "--trials", trials)
        assert r.returncode == 2
        assert "--trials" in r.stderr and "trials=" not in r.stdout


def test_dilation_factors_must_be_positive(paths):
    # the flag is rejected while parsing, before any input file is read
    commands = (["segment-from-pair", "--pair", str(paths["dir"] / "pair.json")],
                ["pair-from-segment", "--segment", str(paths["seg"]), "--tau", "5/2"])
    for cmd in commands:
        for flag, other in (("-a", "-b"), ("-b", "-a")):
            for value in ("0", "-1"):
                r = run_cli(cmd[0], "--diagram", str(paths["g2"]), *cmd[1:],
                            flag, value, other, "6")
                assert r.returncode == 2
                assert "argument %s" % flag in r.stderr and "Traceback" not in r.stderr


def test_parser_built_once():
    assert cli._parser() is cli._parser()


def test_successive_main_calls_match_separate_calls(paths, capsys):
    # one process running two commands prints what two processes print
    cmds = [["theta", "--diagram", str(paths["a2"]), "--direction", "-1,0", "--endpoint", "2,1"],
            ["multiply", "--diagram", str(paths["g2"]), "-p", "1,0", "-q", "-1,0"],
            ["theta", "--diagram", str(paths["g2"]), "--direction", "1,-1", "--endpoint", "3/7,5/3"]]
    for cmd in cmds:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(cmd)
        out = capsys.readouterr()
        r = run_cli(*cmd)
        assert (exit_info.value.code, out.out, out.err) == (r.returncode, r.stdout, r.stderr)


def test_theta_out_searches_once(paths, capsys, monkeypatch, tmp_path):
    # --out prints the sum of the lines it writes, which is what theta prints
    cmd = ["theta", "--diagram", str(paths["g2"]), "--direction", "1,-1", "--endpoint", "3/7,5/3"]
    with pytest.raises(SystemExit):
        cli.main(cmd)
    plain = capsys.readouterr().out
    calls, search = [], brokenline.enumerate_lines

    def spy(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(brokenline, "enumerate_lines", spy)
    monkeypatch.setattr(cli, "enumerate_lines", spy)
    out = tmp_path / "lines.json"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(cmd + ["--out", str(out)])
    assert (exit_info.value.code, len(calls)) == (0, 1)
    assert capsys.readouterr().out == plain
    lines = [serialize.brokenline_from_json(doc) for doc in serialize.load(out)]
    assert "%s\n" % cli._fmt_poly(brokenline.theta_of_lines((1, -1), lines, 8)) == plain
    # theta_0 = 1 prints before the search rejects the zero exponent
    cmd[cmd.index("1,-1")] = "0,0"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(cmd + ["--out", str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr() == ("z^(0,0)\n", "error: initial exponent must be nonzero\n")


@pytest.mark.parametrize("cmd,flag,value", [
    ("theta", "--direction", "1/0,2"),
    ("theta", "--direction", "1,2,3"),
    ("multiply", "-p", "1,0,3"),
    ("multiply", "-q", "x,1"),
])
def test_vector_flags_named_in_errors(paths, cmd, flag, value):
    args = {"theta": ["--direction", "1,0", "--endpoint", "2,1"],
            "multiply": ["-p", "1,0", "-q", "-1,0"]}[cmd]
    args[args.index(flag) + 1] = value
    r = run_cli(cmd, "--diagram", str(paths["g2"]), *args)
    assert r.returncode == 2
    assert "argument %s" % flag in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("path,value,field", [
    (("start",), [1, -5, 7], "segment start"),
    (("end",), [2], "segment end"),
    (("total_time",), "5/0", "segment total_time"),
    (("pieces", 0, "duration"), "1/0", "segment piece 0 duration"),
    (("pieces", 1, "coeff"), "1/0", "segment piece 1 coeff"),
    (("pieces", 2, "exponent"), [1, "1/2"], "segment piece 2 exponent"),
    (("pieces", 0, "bend"), [0, -2, 1], "segment piece 0 bend"),
], ids=["start-three", "end-one", "total-time", "duration", "coeff", "exponent", "bend"])
def test_malformed_segment_files(paths, path, value, field):
    doc = json.loads(paths["seg"].read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = paths["dir"] / "bad_seg.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("pair-from-segment", "--diagram", str(paths["g2"]), "--segment", str(bad),
                "--tau", "5/2")
    assert r.returncode == 2
    assert field in r.stderr and "Traceback" not in r.stderr



@pytest.mark.parametrize("value,shown", [("1/2", "'1/2'"), (0.5, "0.5"), ("7/3", "'7/3'")],
                         ids=["half-string", "half-float", "seven-thirds"])
@pytest.mark.parametrize("where", ["segment", "line1", "line2"])
def test_piece_coeff_must_be_integer(paths, a2, a2_diagram, where, value, shown):
    # the unchanged files go through; a non-integer piece coefficient exits 2
    seg = json.loads(paths["seg"].read_text())
    if where == "segment":
        doc, what, args = seg, "segment", ["pair-from-segment", "--tau", "5/2", "--segment"]
    else:
        pair, _ = pair_from_segment(a2, a2_diagram, serialize.segment_from_json(seg), F(5, 2))
        doc, what = serialize.pair_to_json(pair), "pair " + where
        args = ["segment-from-pair", "-a", "2", "-b", "2", "--pair"]
    path = paths["dir"] / ("coeff_%s.json" % where)
    serialize.save(path, doc)
    assert run_cli(*args, str(path), "--diagram", str(paths["a2"])).returncode == 0
    (doc if where == "segment" else doc[where])["pieces"][0]["coeff"] = value
    serialize.save(path, doc)
    r = run_cli(*args, str(path), "--diagram", str(paths["a2"]))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: %s piece 0 coeff must be an integer, got %s\n" % (what, shown)


@pytest.mark.parametrize("base", [["x", 1], [1, 2, 3]], ids=["not-rational", "three"])
def test_malformed_pair_base(paths, a2, a2_diagram, base):
    seg = serialize.segment_from_json(json.loads(paths["seg"].read_text()))
    pair, _ = pair_from_segment(a2, a2_diagram, seg, F(5, 2))
    doc = dict(serialize.pair_to_json(pair), base=base)
    path = paths["dir"] / "bad_pair.json"
    serialize.save(path, doc)
    r = run_cli("segment-from-pair", "-a", "2", "-b", "2", "--pair", str(path),
                "--diagram", str(paths["a2"]))
    assert r.returncode == 2 and r.stdout == ""
    assert "pair base" in r.stderr and "Traceback" not in r.stderr


_TOP_USAGE = ("usage: csd [-h]\n"
              "           {build,theta,multiply,segment-from-pair,pair-from-segment,hull,"
              "check-positive,harness,render}\n"
              "           ...\n")
_THETA_USAGE = ("usage: csd theta [-h] --diagram DIAGRAM --direction DIRECTION --endpoint\n"
                "                 ENDPOINT [--order ORDER] [--out OUT]\n")
_TOP_HELP = _TOP_USAGE + """
rank-2 scattering diagram toolkit

positional arguments:
  {build,theta,multiply,segment-from-pair,pair-from-segment,hull,check-positive,harness,render}
    build               complete a diagram from a seed
    theta               theta function by broken-line enumeration
    multiply            structure constants of a theta product
    segment-from-pair   glue a balanced pair
    pair-from-segment   split a segment at a time
    hull                broken-line convex hull of points
    check-positive      bounded positivity scan
    harness             positivity vs convexity on random polygons
    render              SVG figure of a diagram with overlays

options:
  -h, --help            show this help message and exit
"""
_THETA_HELP = _THETA_USAGE + """
options:
  -h, --help            show this help message and exit
  --diagram DIAGRAM
  --direction DIRECTION
  --endpoint ENDPOINT
  --order ORDER
  --out OUT
"""


@pytest.mark.parametrize("argv,want", [
    ([], (2, "", _TOP_USAGE + "csd: error: the following arguments are required: command\n")),
    (["--help"], (0, _TOP_HELP, "")),
    (["nosuch"], (2, "", _TOP_USAGE + "csd: error: argument command: invalid choice: 'nosuch' "
                  "(choose from 'build', 'theta', 'multiply', 'segment-from-pair', "
                  "'pair-from-segment', 'hull', 'check-positive', 'harness', 'render')\n")),
    (["theta", "--help"], (0, _THETA_HELP, "")),
    (["theta", "--direction", "1,0", "--endpoint", "2,1"],
     (2, "", _THETA_USAGE + "csd theta: error: the following arguments are required: --diagram\n")),
    (["theta", "--diagram", "A2", "--direction", "1,0", "--endpoint", "2,1", "extra"],
     (2, "", _TOP_USAGE + "csd: error: unrecognized arguments: extra\n")),
    (["multiply", "--diagram", "A2", "-p", "1,0", "-q", "-1,0"], (0, "r=(0,0): 1\nr=(0,1): 1\n", "")),
], ids=["none", "help", "unknown", "theta-help", "theta-no-diagram", "theta-extra", "multiply"])
def test_parsing_output_is_pinned(paths, capsys, monkeypatch, argv, want):
    # a known subcommand goes straight to its own parser; usage, messages
    # and exit codes are those of one pass through the full parser
    monkeypatch.setenv("COLUMNS", "80")
    argv = [str(paths["a2"]) if a == "A2" else a for a in argv]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    out = capsys.readouterr()
    assert (exit_info.value.code, out.out, out.err) == want
