import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import csd
from csd import brokenline, cli, serialize
from csd.constructions import pair_from_segment

F = Fraction

# a `python -m csd.cli` run imports the csd package these tests import,
# whether or not PYTHONPATH names its directory
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(csd.__file__)))
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def run_module(*args):
    """`python -m csd.cli` with args, in a subprocess."""
    return subprocess.run([sys.executable, "-m", "csd.cli"] + list(args),
                          capture_output=True, text=True, env=_ENV)


def run_cli(*args):
    """csd.cli.main(args) in this process, with its exit code, stdout and
    stderr as run_module gives them.  main lifts the limit on int digits;
    the limit is put back."""
    out, err = io.StringIO(), io.StringIO()
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(list(args))
    except SystemExit as e:
        code = e.code
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


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


def test_hull_warns_when_the_chart_set_does_not_close(tmp_path, kron_diagram):
    # the Kronecker charts never close, so the hull is only a lower bound
    diagram, points = tmp_path / "kron.json", tmp_path / "tri.json"
    serialize.save(diagram, serialize.diagram_to_json(kron_diagram))
    serialize.save(points, [[0, 0], [1, 0], [0, 1]])
    r = run_cli("hull", "--diagram", str(diagram), "--points", str(points))
    assert r.returncode == 0
    assert r.stderr == "warning: chart set did not close; hull is a lower bound\n"


def test_harness_prints_each_disagreement(paths, monkeypatch):
    report = {"trials": 2, "agree": 1, "skipped_unknown": 0, "certified_beyond_bound": 0,
              "disagreements": [{"polygon": [(F(1, 2), F(0)), (F(0), F(1)), (F(-1), F(-1))],
                                 "is_blc": True, "positive": False}]}
    monkeypatch.setattr(cli, "main_theorem_harness", lambda *args, **kwargs: report)
    r = run_cli("harness", "--diagram", str(paths["a2"]), "--trials", "2")
    assert r.returncode == 1, r.stderr
    assert r.stdout.splitlines() == [
        "trials=2 agree=1 skipped_unknown=0 certified_beyond_bound=0 disagreements=1",
        '{"is_blc": true, "polygon": [["1/2", 0], [0, 1], [-1, -1]], "positive": false}']


def test_render_polygon(paths):
    out = paths["dir"] / "quad.svg"
    r = run_cli("render", "--diagram", str(paths["g2"]), "--polygon",
                str(paths["quad"]), "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "<polygon" in out.read_text()


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


@pytest.mark.parametrize("doc", [[[1, 2, 3], [0, 0]], {"a": 1}, [[1, "1/0"]], [[1, None]],
                                 [[0.1, 0.2], [1, 0], [0, 1]]],
                         ids=["three-coordinates", "object", "zero-denominator", "null", "float"])
def test_malformed_point_files(paths, doc):
    bad = paths["dir"] / "bad_points.json"
    bad.write_text(json.dumps(doc))
    for cmd, flag in (("hull", "--points"), ("check-positive", "--polygon")):
        r = run_cli(cmd, "--diagram", str(paths["g2"]), flag, str(bad))
        assert r.returncode == 2
        assert flag in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("flag,value,line", [
    ("--endpoint", "1,2,3", "csd theta: error: argument --endpoint: expected 'x,y', got '1,2,3'"),
    ("--order", "x", "csd theta: error: argument --order: expected an integer, got 'x'"),
])
def test_theta_parse_errors(paths, flag, value, line):
    args = {"--direction": "-1,0", "--endpoint": "2,1", flag: value}
    r = run_cli("theta", "--diagram", str(paths["a2"]), *(x for kv in args.items() for x in kv))
    assert r.returncode == 2
    assert r.stderr.splitlines()[-1] == line


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


@pytest.mark.parametrize("key,value,message", [
    ("exchange", [[0, 1], [-1, "x"]], "seed: exchange must be a square matrix of integers"),
    ("d", [0, 1], "seed: d must list one integer >= 1 per exchange row"),
    ("rank", 3, "seed: rank must be 2"),
    ("unfrozen", [0], "seed: unfrozen must be [0, 1]"),
    ("exchange", [[0, 1], [-2, 0]], "seed: skew form is not antisymmetric"),
], ids=["exchange", "d", "rank", "unfrozen", "skew"])
def test_seed_errors_in_a_diagram_name_the_seed(paths, capsys, key, value, message):
    doc = json.loads(paths["a2"].read_text())
    doc["seed"][key] = value
    path = paths["dir"] / "bad_seed_diagram.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["theta", "--diagram", str(path), "--direction", "-1,0", "--endpoint", "2,1"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("error: --diagram: " + message)


@pytest.mark.parametrize("path,value,field", [
    (("func", "coeffs", 0), "1/2", "wall 2: func coeffs"),
    (("func", "coeffs", 0), "-1", "wall 2: func coeffs"),
    (("func", "coeffs", 0), "1/0", "wall 2: func coeffs"),
    (("func", "coeffs"), 5, "wall 2: func coeffs"),
    (("func", "dir"), [0, 0], "wall 2: func dir"),
    (("support", "dir"), [1, 2], "wall 2: ray wall with normal (1, 1) has direction (1, 2) off"),
    (("support", "dir"), [2, -2], "wall 2: direction must be primitive, got (2, -2)"),
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
    ([-1, 1], "wall 0: wall with normal (1, 0) has function direction (-1, 1) off the line "
              "of its normal"),
    ([0, -1], "wall 0: wall with normal (1, 0) has function direction (0, -1) outside the "
              "cone of the monoid"),
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
    assert r.stderr == "error: --diagram: %s\n" % message


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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int digits")
@pytest.mark.parametrize("argv, code", [
    (["theta", "--diagram", "a2", "--direction", "-1,0", "--endpoint", "2,1"], 0),
    (["theta", "--diagram", "a2", "--direction", "1,0", "--endpoint", "0,1"], 2),
    (["theta", "--diagram", "a2", "--direction", "1;0", "--endpoint", "2,1"], 2),
], ids=["success", "engine-error", "parse-error"])
def test_main_gives_the_caller_its_digit_limit_back(paths, capsys, argv, code):
    # main lifts the limit while its command runs, whether it ends in the
    # command, in an engine error or in argparse
    argv = [str(paths[a]) if a == "a2" else a for a in argv]
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


def test_successive_main_calls_match_separate_calls(paths, capsys):
    # one process running two commands prints what two processes print
    cmds = [["theta", "--diagram", str(paths["a2"]), "--direction", "-1,0", "--endpoint", "2,1"],
            ["multiply", "--diagram", str(paths["g2"]), "-p", "1,0", "-q", "-1,0"],
            ["theta", "--diagram", str(paths["g2"]), "--direction", "1,-1", "--endpoint", "3/7,5/3"]]
    for cmd in cmds:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(cmd)
        out = capsys.readouterr()
        r = run_module(*cmd)
        assert (exit_info.value.code, out.out, out.err) == (r.returncode, r.stdout, r.stderr)


def test_theta_out_searches_once(paths, capsys, monkeypatch, tmp_path):
    # --out prints the sum of the lines it writes, which is what theta prints
    cmd = ["theta", "--diagram", str(paths["g2"]), "--direction", "1,-1", "--endpoint", "3/7,5/3"]
    with pytest.raises(SystemExit):
        cli.main(cmd)
    plain = capsys.readouterr().out
    # theta and enumerate_lines share brokenline._search: count that
    calls, search = [], brokenline._search

    def spy(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(brokenline, "_search", spy)
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


@pytest.mark.parametrize("scale,message", [
    (["-a", "3"], "a=3 b=None"), (["-b", "7"], "a=None b=7")])
def test_pair_from_segment_needs_both_scales(paths, capsys, scale, message):
    # a lone scale must not give way to the automatic pair a=2 b=2
    cmd = ["pair-from-segment", "--diagram", str(paths["a2"]), "--segment", str(paths["seg"]),
           "--tau", "5/2"]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(cmd + scale)
    assert (exit_info.value.code,) + tuple(capsys.readouterr()) == (
        2, "", "error: give both scales a and b or neither, got %s\n" % message)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(cmd)
    assert (exit_info.value.code, capsys.readouterr().out) == (0, "a=2 b=2 base=(-2,4)\n")


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
        doc, what, args = seg, "--segment: segment", ["pair-from-segment", "--tau", "5/2",
                                                       "--segment"]
    else:
        pair, _ = pair_from_segment(a2, a2_diagram, serialize.segment_from_json(seg), F(5, 2))
        doc, what = serialize.pair_to_json(pair), "--pair: pair " + where
        args = ["segment-from-pair", "-a", "2", "-b", "2", "--pair"]
    path = paths["dir"] / ("coeff_%s.json" % where)
    serialize.save(path, doc)
    assert run_cli(*args, str(path), "--diagram", str(paths["a2"])).returncode == 0
    (doc if where == "segment" else doc[where])["pieces"][0]["coeff"] = value
    serialize.save(path, doc)
    r = run_cli(*args, str(path), "--diagram", str(paths["a2"]))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: %s piece 0 coeff must be an integer, got %s\n" % (what, shown)


def test_glue_of_a_bend_along_its_wall_exits_2(paths):
    # line1 bends at (1, 1) from (0, 51) into (0, 50), along that bend's wall
    def line(m0, m1, bend):
        return {"endpoint": [34, 15], "pieces": [
            {"exponent": m0, "coeff": "1", "bend": bend},
            {"exponent": m1, "coeff": "1", "bend": None}]}
    path = paths["dir"] / "along_wall_pair.json"
    serialize.save(path, {"base": [34, 15], "line1": line([0, 51], [0, 50], [1, 1]),
                          "line2": line([55, -35], [34, -35], [1, 0])})
    r = run_cli("segment-from-pair", "--diagram", str(paths["a2"]), "--pair", str(path),
                "-a", "11", "-b", "11")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == ("error: pair line1: bend 1 from the endpoint runs along its wall: "
                        "exponent (0, 51) pairs to 0 with the wall normal (-1, 0)\n")


def test_glue_of_a_line_off_the_base_exits_2(paths):
    # line2 ends at (-2, 0), not at the base (-2, 4)
    def line(end, exponents, bends):
        return {"endpoint": end, "pieces": [
            {"exponent": m, "coeff": "1", "bend": bend} for m, bend in zip(exponents, bends)]}
    path = paths["dir"] / "off_base_pair.json"
    serialize.save(path, {"base": [-2, 4],
                          "line1": line([-2, 4], [[2, -10], [2, -8], [-6, -8]],
                                        [[0, -20], [-5, 0], None]),
                          "line2": line([-2, 0], [[4, 8], [4, 12]], [[0, 10], None])})
    r = run_cli("segment-from-pair", "--diagram", str(paths["a2"]), "--pair", str(path),
                "-a", "2", "-b", "2")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: pair line2: endpoint (-2, 0) is not the base (-2, 4)\n"


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


@pytest.mark.parametrize("argv,flag,doc,what", [
    (["pair-from-segment", "--tau", "1/2"], "--segment",
     {"start": [0, 0], "end": [1, 1], "total_time": "1", "pieces": []}, "segment"),
    (["segment-from-pair", "-a", "1", "-b", "1"], "--pair",
     {"base": [0, 0], "line1": {"endpoint": [0, 0], "pieces": []},
      "line2": {"endpoint": [0, 0], "pieces": []}}, "pair line1"),
    (["render", "--out", "OUT"], "--broken-lines", [{"endpoint": [1, 2], "pieces": []}],
     "broken line"),
], ids=["pair-from-segment", "segment-from-pair", "render"])
def test_empty_piece_lists_exit_2(paths, argv, flag, doc, what):
    path = paths["dir"] / "no_pieces.json"
    serialize.save(path, doc)
    out = paths["dir"] / "no_pieces.svg"
    argv = [str(out) if a == "OUT" else a for a in argv]
    r = run_cli(*argv, flag, str(path), "--diagram", str(paths["a2"]))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: %s: %s has no pieces\n"
                                                  % (flag, what))
    assert not out.exists()


def _without(doc, path):
    """A deep copy of the JSON document with the field at path removed."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return doc


@pytest.mark.parametrize("source,path,message", [
    ("seed", ("exchange",), "seed: missing field 'exchange'"),
    ("diagram", ("walls",), "diagram: missing field 'walls'"),
    ("diagram", ("order",), "diagram: missing field 'order'"),
    ("diagram", ("saturated",), "diagram: missing field 'saturated'"),
    ("diagram", ("seed", "d"), "seed: missing field 'd'"),
    ("segment", ("total_time",), "segment: missing field 'total_time'"),
    ("segment", ("pieces", 0, "exponent"), "segment piece 0: missing field 'exponent'"),
    ("segment", ("pieces", 2, "duration"), "segment piece 2: missing field 'duration'"),
    ("pair", ("line1", "endpoint"), "pair line1: missing field 'endpoint'"),
    ("pair", ("line2", "pieces", 0, "bend"), "pair line2 piece 0: missing field 'bend'"),
    ("lines", (0, "endpoint"), "broken line: missing field 'endpoint'"),
    ("lines", (0, "pieces", 0, "coeff"), "broken line piece 0: missing field 'coeff'"),
], ids=["seed-exchange", "diagram-walls", "diagram-order", "diagram-saturated", "diagram-seed-d",
        "segment-total-time", "segment-piece-exponent", "segment-piece-duration",
        "pair-line-endpoint", "pair-piece-bend", "lines-endpoint", "lines-piece-coeff"])
def test_missing_field_names_its_document(paths, a2, a2_diagram, capsys, source, path, message):
    seg = json.loads(paths["seg"].read_text())
    pair, _ = pair_from_segment(a2, a2_diagram, serialize.segment_from_json(seg), F(5, 2))
    line = serialize.brokenline_to_json(pair.line1)
    docs = {"seed": (serialize.fd_to_json(a2), ["build", "--order", "2"], "--seed"),
            "diagram": (serialize.diagram_to_json(a2_diagram),
                        ["theta", "--direction", "1,0", "--endpoint", "2,1"], "--diagram"),
            "segment": (seg, ["pair-from-segment", "--tau", "5/2"], "--segment"),
            "pair": (serialize.pair_to_json(pair), ["segment-from-pair", "-a", "2", "-b", "2"],
                     "--pair"),
            "lines": ([line], ["render", "--out", str(paths["dir"] / "lines.svg")],
                      "--broken-lines")}
    doc, argv, flag = docs[source]
    bad = paths["dir"] / "missing_field.json"
    serialize.save(bad, _without(doc, path))
    if source not in ("seed", "diagram"):
        argv = argv + ["--diagram", str(paths["a2"])]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + [flag, str(bad)])
    out = capsys.readouterr()
    assert (exit_info.value.code, out.out, out.err) == (2, "", "error: %s: %s\n" % (flag, message))


@pytest.mark.parametrize("doc,kind", [
    ({"endpoint": [1, 2], "pieces": [{"exponent": [1, 0], "coeff": "1", "bend": None}]}, "dict"),
    (3, "int"), ("lines", "str")], ids=["object", "number", "string"])
def test_render_broken_lines_must_be_a_list(paths, capsys, doc, kind):
    # one broken line on its own is not a file of them
    path = paths["dir"] / "not_a_list.json"
    serialize.save(path, doc)
    out = paths["dir"] / "not_a_list.svg"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["render", "--diagram", str(paths["a2"]), "--out", str(out),
                  "--broken-lines", str(path)])
    got = capsys.readouterr()
    assert (exit_info.value.code, got.out, got.err) == (
        2, "", "error: --broken-lines: must hold a JSON list of broken lines, got %s\n" % kind)
    assert not out.exists()


# the help of each subcommand but theta, pinned with COLUMNS=80 before
# --diagram moved into a parent parser that the commands share
_COMMAND_HELP = {
    "build": """\
usage: csd build [-h] --seed SEED --order ORDER [--out OUT]

options:
  -h, --help     show this help message and exit
  --seed SEED
  --order ORDER
  --out OUT
""",
    "multiply": """\
usage: csd multiply [-h] --diagram DIAGRAM -p P -q Q [--order ORDER]

options:
  -h, --help         show this help message and exit
  --diagram DIAGRAM
  -p P
  -q Q
  --order ORDER
""",
    "segment-from-pair": """\
usage: csd segment-from-pair [-h] --diagram DIAGRAM --pair PAIR -a A -b B
                             [--out OUT]

options:
  -h, --help         show this help message and exit
  --diagram DIAGRAM
  --pair PAIR
  -a A
  -b B
  --out OUT
""",
    "pair-from-segment": """\
usage: csd pair-from-segment [-h] --diagram DIAGRAM --segment SEGMENT --tau
                             TAU [-a A] [-b B] [--out OUT]

options:
  -h, --help         show this help message and exit
  --diagram DIAGRAM
  --segment SEGMENT
  --tau TAU
  -a A
  -b B
  --out OUT
""",
    "hull": """\
usage: csd hull [-h] --diagram DIAGRAM --points POINTS [--out OUT]

options:
  -h, --help         show this help message and exit
  --diagram DIAGRAM
  --points POINTS
  --out OUT
""",
    "check-positive": """\
usage: csd check-positive [-h] --diagram DIAGRAM --polygon POLYGON
                          [--max-degree MAX_DEGREE] [--order ORDER]

options:
  -h, --help            show this help message and exit
  --diagram DIAGRAM
  --polygon POLYGON
  --max-degree MAX_DEGREE
  --order ORDER
""",
    "harness": """\
usage: csd harness [-h] --diagram DIAGRAM [--trials TRIALS]
                   [--max-degree MAX_DEGREE] [--order ORDER]
                   [--perturb-seed PERTURB_SEED]

options:
  -h, --help            show this help message and exit
  --diagram DIAGRAM
  --trials TRIALS
  --max-degree MAX_DEGREE
  --order ORDER
  --perturb-seed PERTURB_SEED
""",
    "render": """\
usage: csd render [-h] --diagram DIAGRAM [--broken-lines BROKEN_LINES]
                  [--segment SEGMENT] [--polygon POLYGON] --out OUT

options:
  -h, --help            show this help message and exit
  --diagram DIAGRAM
  --broken-lines BROKEN_LINES
  --segment SEGMENT
  --polygon POLYGON
  --out OUT
""",
}


@pytest.mark.parametrize("command", list(_COMMAND_HELP) + ["theta"])
def test_command_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    out = capsys.readouterr()
    assert (exit_info.value.code, out.out, out.err) == (
        0, _COMMAND_HELP.get(command, _THETA_HELP), "")


# the arguments besides --diagram of each command that reads a diagram;
# each file they name is missing, so only --diagram can be read
_READS_DIAGRAM = {
    "theta": ["--direction", "1,0", "--endpoint", "2,1", "--out", "OUT"],
    "multiply": ["-p", "1,0", "-q", "0,1"],
    "segment-from-pair": ["--pair", "NONE", "-a", "1", "-b", "1", "--out", "OUT"],
    "pair-from-segment": ["--segment", "NONE", "--tau", "1/2", "--out", "OUT"],
    "hull": ["--points", "NONE", "--out", "OUT"],
    "check-positive": ["--polygon", "NONE"],
    "harness": ["--trials", "1"],
    "render": ["--broken-lines", "NONE", "--segment", "NONE", "--polygon", "NONE",
               "--out", "OUT"],
}


@pytest.mark.parametrize("text,message", [
    (None, "[Errno 2] No such file or directory: '%s'"),
    ("{nope", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[]", "diagram must be a JSON object, got list"),
], ids=["missing", "invalid-json", "not-a-diagram"])
@pytest.mark.parametrize("command", list(_READS_DIAGRAM))
def test_every_command_names_a_bad_diagram(tmp_path, capsys, command, text, message):
    # the diagram is read before any other file, and nothing is written
    diagram = tmp_path / "diagram.json"
    if text is not None:
        diagram.write_text(text)
    names = {"NONE": str(tmp_path / "none.json"), "OUT": str(tmp_path / "out")}
    argv = [command, "--diagram", str(diagram)] + [names.get(a, a) for a in
                                                   _READS_DIAGRAM[command]]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    out = capsys.readouterr()
    assert (exit_info.value.code, out.out, out.err) == (
        2, "", "error: --diagram: %s\n" % (message % diagram if text is None else message))
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if text is None else
                                                          ["diagram.json"])


def test_main_without_argv_reads_the_command_line(paths, capsys, monkeypatch):
    # `python -m csd.cli` calls main() with no argv: it parses sys.argv[1:]
    cmd = ["theta", "--diagram", str(paths["a2"]), "--direction", "-1,0", "--endpoint", "2,1"]
    monkeypatch.setattr(sys, "argv", ["csd"] + cmd)
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    out = capsys.readouterr()
    assert (exit_info.value.code, out.out, out.err) == (0, "z^(-1,0) + z^(-1,1)\n", "")
