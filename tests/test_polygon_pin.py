"""The polygon layer pinned by digest: charts, convexity verdicts and
witnesses, positivity scans, hulls, compiled hulls and certified failures.

Each record is the repr of one result (or the message of the ValueError it
raised), labelled by what produced it.  The test hashes the records with
SHA-256 and compares the digest with ``POLYGON_DIGEST``; on a mismatch it
names the first record whose short hash differs from the one listed in
``polygon_pin.txt`` and prints that record.

    PYTHONPATH=src python3 tests/test_polygon_pin.py > tests/polygon_pin.txt

rewrites the list of short hashes and prints the digest on stderr.
"""

import hashlib
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

from csd import convexity
from csd.convexity import chart_maps, is_blc_2d, blc_hull_2d, check_positive
from csd.geometry import convex_hull, compile_hull
from csd.lattice import FixedData
from csd.scattering import complete_rank2

F = Fraction

TYPES = {"A2": ([[0, 1], [-1, 0]], [1, 1]), "B2": ([[0, 2], [-1, 0]], [1, 2]),
         "G2": ([[0, 3], [-1, 0]], [1, 3]), "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
         "(1,4)": ([[0, 4], [-1, 0]], [1, 4]), "(3,3)": ([[0, 3], [-3, 0]], [1, 1])}

ORDER = 6
POLYGONS = 30  # seeded random polygons per type
HARNESS_TRIALS = 20  # harness polygons per seed for the certified failures

# mixed point sets for the hull kernel: ints, Fractions and reduced
# homogeneous triples, one point, two points and duplicates
HULL_SETS = [
    [(0, 0)],
    [(F(1, 2), F(-1, 3))],
    [(1, 2, 3)],
    [(0, 0), (0, 0)],
    [(1, 1), (F(1), F(1)), (1, 1, 1)],
    [(0, 0), (3, 1)],
    [(F(1, 2), 0), (0, F(1, 3))],
    [(0, 0), (1, 1), (2, 2), (F(3, 2), F(3, 2))],
    [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)],
    [(0, 0), (2, 0), (F(2), F(0)), (2, 0, 1), (0, 1)],
    [(F(-1, 2), F(1, 3)), (1, -1), (3, 3, 2), (0, 2), (F(-1), 0), (1, 1, 4)],
    [(5, -3), (-2, 7, 3), (F(7, 4), F(-5, 6)), (0, 0), (-1, -1), (5, -3), (1, 4, 5)],
    [(x, y) for x in range(-2, 3) for y in range(-2, 3)],
    [(F(x, 3), F(y * y, 2)) for x in range(-3, 4) for y in range(-2, 3)],
]

# triples that are not reduced, which compile_hull takes and convex_hull does not
UNREDUCED_SETS = [
    [(1, 1), (F(1), F(1)), (2, 2, 2)],
    [(0, 0), (2, 0), (F(2), F(0)), (4, 0, 2), (0, 1)],
    [(2, 0, 2), (0, 3, 3), (-4, -4, 4)],
]


def _diagrams():
    out = {}
    for name, (exchange, d) in TYPES.items():
        fd = FixedData.from_exchange(exchange, d)
        out[name] = (fd, complete_rank2(fd, ORDER))
    return out


def _attempt(f, *args):
    try:
        return repr(f(*args))
    except ValueError as e:
        return "ValueError: %s" % e


def polygon_records():
    """(label, record) pairs of the polygon layer, in a fixed order."""
    records = []
    diagrams = _diagrams()
    for name, (fd, _) in diagrams.items():
        maps, closed = chart_maps(fd)
        records.append(("charts %s" % name, repr(([m.sectors for m in maps], closed))))
    for name, (fd, diagram) in diagrams.items():
        rng = random.Random(0)
        for i in range(POLYGONS):
            cycle = convexity._random_polygon(rng)
            rep = is_blc_2d(fd, diagram, cycle)
            records.append(("is_blc %s %d" % (name, i),
                            repr((cycle, rep.verdict, rep.witnesses, rep.closed))))
            rep = check_positive(fd, diagram, cycle, 3, ORDER)
            records.append(("positive %s %d" % (name, i), repr((rep.verdict, rep.witnesses))))
    grid = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    for name in ("A2", "B2", "G2"):
        fd, diagram = diagrams[name]
        for pts in itertools.combinations(grid, 3):
            records.append(("hull %s %r" % (name, pts), _attempt(blc_hull_2d, fd, diagram, pts)))
    for i, pts in enumerate(HULL_SETS):
        region = compile_hull(pts)
        records.append(("convex_hull %d" % i, repr(convex_hull(pts))))
        records.append(("compile_hull %d" % i, repr((region.planes, region.box))))
    for i, pts in enumerate(UNREDUCED_SETS):
        region = compile_hull(pts)
        records.append(("compile_hull unreduced %d" % i, repr((region.planes, region.box))))
    for name in ("A2", "G2"):
        fd, diagram = diagrams[name]
        for seed in (0, 2):
            rng = random.Random(seed)
            for i in range(HARNESS_TRIALS):
                cycle = convexity._random_polygon(rng)
                rep = is_blc_2d(fd, diagram, cycle, ORDER)
                if rep.verdict is False and rep.witnesses:
                    wit = convexity._certify_failure(fd, diagram, cycle, rep.witnesses[0], ORDER)
                    records.append(("certify %s seed %d trial %d" % (name, seed, i), repr(wit)))
    return records


def _short(record):
    return hashlib.sha256(record.encode()).hexdigest()[:16]


PIN_FILE = Path(__file__).with_name("polygon_pin.txt")

# SHA-256 of the records joined by newlines, computed with two hull
# preludes, a hand-written interval walk in _certify_failure and chart
# getters PLMap.key and PLMap.boundaries()
POLYGON_DIGEST = "5eaa9331043df6a01ca9b9233d25f859728babc23e87e56f003bd85b93c76751"


def test_polygon_layer_is_pinned():
    records = polygon_records()
    digest = hashlib.sha256("\n".join(r for _, r in records).encode()).hexdigest()
    if digest != POLYGON_DIGEST:
        pinned = [line.rsplit(" ", 1) for line in PIN_FILE.read_text().splitlines()]
        for (label, record), (pin_label, pin) in itertools.zip_longest(
                records, pinned, fillvalue=("<none>", "")):
            if (label, _short(record)) != (pin_label, pin):
                raise AssertionError("first differing record, %s (pinned: %s):\n%s"
                                     % (label, pin_label, record))
    assert digest == POLYGON_DIGEST


if __name__ == "__main__":
    records = polygon_records()
    for label, record in records:
        print(label, _short(record))
    print(hashlib.sha256("\n".join(r for _, r in records).encode()).hexdigest(),
          len(records), file=sys.stderr)
