"""The command line pinned by digest: exit code, stdout and stderr of
in-process ``cli.main`` runs, and the files they write.

On A2, B2, G2 and Kronecker the test runs ``build``, ``theta`` with and
without ``--out``, ``multiply``, ``hull --out``, ``check-positive``,
``pair-from-segment``, ``segment-from-pair`` and ``render``, each reading
the diagram file that ``build`` wrote.  ``harness`` runs where a
convexity witness is read or not: an uncertified disagreement on A2, a
failure certified beyond the bound on (3,3) and unknown verdicts on
Kronecker.  Each record is the triple
(exit code, stdout, stderr) of one run, or the text of one written file,
with the temporary directory shown as ``<tmp>``.  The test hashes the
records with SHA-256 and compares the digest with ``CLI_DIGEST``; on a
mismatch it names the first record whose short hash differs from the one
listed in ``cli_pin.txt`` and prints that record.

    PYTHONPATH=src python3 tests/test_cli_pin.py > tests/cli_pin.txt

rewrites the list of short hashes and prints the digest on stderr.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

from csd import cli

TYPES = {"A2": ([[0, 1], [-1, 0]], [1, 1], 6), "B2": ([[0, 2], [-1, 0]], [1, 2], 6),
         "G2": ([[0, 3], [-1, 0]], [1, 3], 8), "Kronecker": ([[0, 2], [-2, 0]], [1, 1], 6)}
# (type, --perturb-seed) of the harness runs, 50 trials each
HARNESS = [("A2", 2), ("(3,3)", 2), ("Kronecker", 0)]
W33 = ([[0, 3], [-3, 0]], [1, 1], 6)

DIRECTIONS = ["1,0", "0,1", "-1,0", "0,-1", "1,1", "-1,-1", "-1,2", "2,-1", "3,-5"]
# generic endpoints of every type; theta on a wall is one of the runs below
ENDPOINTS = ["97/113,-123/151", "3,-1/7", "-2/3,5/7", "-11/13,-17/19"]
PRODUCTS = [("1,0", "-1,0"), ("1,1", "-1,2"), ("0,-1", "2,-1"), ("-1,-1", "1,1")]
POINT_SETS = {"triangle": [[-1, 0], [1, -1], [0, 1]],
              "quad": [[-1, 0], [1, -3], [2, -3], [1, 0]],
              "square": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
SEGMENT = {"start": [1, -5], "end": [2, 4], "total_time": "5",
           "pieces": [
               {"exponent": [1, -3], "coeff": "1", "bend": [0, -2], "duration": "1"},
               {"exponent": [1, -2], "coeff": "1", "bend": [-1, 0], "duration": "1"},
               {"exponent": [-1, -2], "coeff": "1", "bend": [0, 2], "duration": "1"},
               {"exponent": [-1, -1], "coeff": "1", "bend": None, "duration": "2"}]}


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _records_in(tmp):
    """(label, record) pairs of the runs in the directory tmp, unmasked."""
    records = []

    def run(label, *argv, written=None):
        records.append((label, repr(_run([str(a) for a in argv]))))
        if written is not None:
            text = written.read_text() if written.exists() else "<not written>"
            records.append((label + " file", text))

    seg = tmp / "segment.json"
    seg.write_text(json.dumps(SEGMENT))
    points = {}
    for name, pts in POINT_SETS.items():
        points[name] = tmp / ("%s.json" % name)
        points[name].write_text(json.dumps(pts))

    def build(name, exchange, d, order):
        seed = tmp / ("%s_seed.json" % name)
        seed.write_text(json.dumps({"rank": 2, "unfrozen": [0, 1], "d": d,
                                    "exchange": exchange, "principal": False}))
        diagram = tmp / ("%s.json" % name)
        run("build %s" % name, "build", "--seed", seed, "--order", order, "--out", diagram,
            written=diagram)
        return diagram

    for name, (exchange, d, order) in TYPES.items():
        diagram = build(name, exchange, d, order)
        for m, z in itertools.product(DIRECTIONS, ENDPOINTS):
            run("theta %s %s %s" % (name, m, z), "theta", "--diagram", diagram,
                "--direction", m, "--endpoint", z, "--order", 4)
        for args in (["--direction", "0,0", "--endpoint", "1,2"],
                     ["--direction", "1,0", "--endpoint", "1,0"],
                     ["--direction", "-1,2", "--endpoint", "3,-1/7"]):
            run("theta %s %s" % (name, " ".join(args)), "theta", "--diagram", diagram, *args)
        lines = tmp / ("%s_lines.json" % name)
        for m, z in (("-1,2", "3,-1/7"), ("2,-1", "-2/3,5/7"), ("0,0", "1,2")):
            run("theta --out %s %s %s" % (name, m, z), "theta", "--diagram", diagram,
                "--direction", m, "--endpoint", z, "--order", 4, "--out", lines, written=lines)
        for p, q in PRODUCTS:
            run("multiply %s %s %s" % (name, p, q), "multiply", "--diagram", diagram,
                "-p", p, "-q", q, "--order", 4)
        for pts in ("triangle", "quad"):
            hull = tmp / ("%s_%s_hull.json" % (name, pts))
            run("hull %s %s" % (name, pts), "hull", "--diagram", diagram, "--points",
                points[pts], "--out", hull, written=hull)
            run("check-positive %s %s" % (name, pts), "check-positive", "--diagram", diagram,
                "--polygon", hull, "--max-degree", 2, "--order", 3)
        run("check-positive %s square" % name, "check-positive", "--diagram", diagram,
            "--polygon", points["square"], "--max-degree", 2, "--order", 3)
        pair = tmp / ("%s_pair.json" % name)
        for tau, scales in (("5/2", []), ("3/2", ["-a", 2, "-b", 3]), ("5", [])):
            run("pair-from-segment %s %s %s" % (name, tau, scales), "pair-from-segment",
                "--diagram", diagram, "--segment", seg, "--tau", tau, *scales,
                "--out", pair, written=pair)
            pair.unlink(missing_ok=True)
        run("pair-from-segment %s" % name, "pair-from-segment", "--diagram", diagram,
            "--segment", seg, "--tau", "5/2", "--out", pair)
        glued = tmp / ("%s_glued.json" % name)
        for a, b in ((2, 2), (1, 3)):
            run("segment-from-pair %s %d %d" % (name, a, b), "segment-from-pair",
                "--diagram", diagram, "--pair", pair, "-a", a, "-b", b, "--out", glued,
                written=glued)
            glued.unlink(missing_ok=True)
        svg = tmp / ("%s.svg" % name)
        run("render %s" % name, "render", "--diagram", diagram, "--out", svg, written=svg)
        run("render %s overlays" % name, "render", "--diagram", diagram,
            "--broken-lines", lines, "--segment", seg, "--polygon", points["quad"],
            "--out", svg, written=svg)
    build("(3,3)", *W33)
    for name, seed in HARNESS:
        run("harness %s %d" % (name, seed), "harness", "--diagram", tmp / ("%s.json" % name),
            "--trials", 50, "--perturb-seed", seed)
    return records


def cli_records():
    """(label, record) pairs of the CLI runs, in a fixed order, with the
    temporary directory masked."""
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        return [(label, record.replace(str(tmp), "<tmp>"))
                for label, record in _records_in(tmp)]


def _short(record):
    return hashlib.sha256(record.encode()).hexdigest()[:16]


PIN_FILE = Path(__file__).with_name("cli_pin.txt")

CLI_DIGEST = "916f66af4d66cf571cec20a6fd1434df46aa6565d786da53a3f87b1212eed0fc"


def test_cli_is_pinned():
    records = cli_records()
    digest = hashlib.sha256("\n".join(r for _, r in records).encode()).hexdigest()
    if digest != CLI_DIGEST:
        pinned = [line.rsplit(" ", 1) for line in PIN_FILE.read_text().splitlines()]
        for (label, record), (pin_label, pin) in itertools.zip_longest(
                records, pinned, fillvalue=("<none>", "")):
            if (label, _short(record)) != (pin_label, pin):
                raise AssertionError("first differing record, %s (pinned: %s):\n%s"
                                     % (label, pin_label, record))
    assert digest == CLI_DIGEST


if __name__ == "__main__":
    records = cli_records()
    for label, record in records:
        print(label, _short(record))
    print(hashlib.sha256("\n".join(r for _, r in records).encode()).hexdigest(),
          len(records), file=sys.stderr)
