"""The broken-line search pinned by digest: enumerated lines, theta
functions, their errors, and the bends listed at fixed points.

For each of eight types, each initial exponent m in [-3, 3]^2 minus 0 and
each endpoint (generic ones, and ones with small denominators that lie on a
wall or send a traced ray into the origin), one record holds the repr of
enumerate_lines and of theta at order K, or the message of the ValueError
each raised.  allowed_bends adds one record per fixed point, exponent and
K: points on each wall, the origin and a point on no wall.  The test hashes
the records with SHA-256 and compares the digest with ``SEARCH_DIGEST``; on
a mismatch it names the first record whose short hash differs from the one
listed in ``search_pin.txt`` and prints that record.

    PYTHONPATH=src python3 tests/test_search_pin.py > tests/search_pin.txt

rewrites the list of short hashes and prints the digest on stderr.
"""

import hashlib
import itertools
import sys
from fractions import Fraction
from pathlib import Path

from csd.brokenline import allowed_bends, enumerate_lines, theta
from csd.lattice import FixedData
from csd.scattering import complete_rank2

F = Fraction

TYPES = {"A2": ([[0, 1], [-1, 0]], [1, 1]), "B2": ([[0, 2], [-1, 0]], [1, 2]),
         "G2": ([[0, 3], [-1, 0]], [1, 3]), "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
         "(3,3)": ([[0, 3], [-3, 0]], [1, 1]), "(1,4)": ([[0, 4], [-1, 0]], [1, 4]),
         "(1,5)": ([[0, 5], [-1, 0]], [1, 5]), "(2,3)": ([[0, 3], [-2, 0]], [2, 3])}

ORDER = 6
EXPONENTS = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if a or b]
# generic: prime denominators above 100; the others lie on walls or send
# some traced ray into the origin on some type
ENDPOINTS = [(F(317, 101), F(29, 103)), (F(-211, 107), F(53, 109)),
             (F(-31, 113), F(-401, 127)), (F(97, 131), F(-13, 137)),
             (1, 2), (-2, 1), (F(1, 2), F(-3, 2)), (3, -3), (2, 2)]
BEND_EXPONENTS = [(1, 0), (0, 1), (-1, 2), (2, -1), (-3, -1)]
BEND_ORDERS = [3, ORDER]


def _attempt(f, *args):
    try:
        return repr(f(*args))
    except ValueError as e:
        return "ValueError: %s" % e


def _bend_points(diagram):
    """A point on each side of each wall, the origin and a point on no wall."""
    pts = []
    for w in diagram.walls:
        dx, dy = w.direction
        pts.append((F(5, 3) * dx, F(5, 3) * dy))
        if w.kind == "line":
            pts.append((-2 * dx, -2 * dy))
    return pts + [(0, 0), (F(317, 101), F(29, 103))]


def search_records():
    """(label, record) pairs of the search, in a fixed order."""
    records = []
    for name, (exchange, d) in TYPES.items():
        fd = FixedData.from_exchange(exchange, d)
        diagram = complete_rank2(fd, ORDER)
        for j, z in enumerate(ENDPOINTS):
            for m in EXPONENTS:
                records.append(("search %s %r z%d" % (name, m, j), "%s || %s" % (
                    _attempt(enumerate_lines, fd, diagram, m, z, ORDER),
                    _attempt(theta, fd, diagram, m, z, ORDER))))
        for i, pt in enumerate(_bend_points(diagram)):
            for m, K in itertools.product(BEND_EXPONENTS, BEND_ORDERS):
                records.append(("bends %s p%d %r K=%d" % (name, i, m, K),
                                _attempt(allowed_bends, fd, diagram, pt, m, K)))
    return records


def _short(record):
    return hashlib.sha256(record.encode()).hexdigest()[:16]


PIN_FILE = Path(__file__).with_name("search_pin.txt")

# SHA-256 of the records joined by newlines, computed with a search that
# passed each bend site to allowed_bends with its remaining shift, and
# re-pinned once when theta began to list its terms sorted by exponent:
# 1,296 theta records moved by term order alone, and no error record moved
SEARCH_DIGEST = "86769aedc6d1b6e5a77d4ed2b5394afe79e915796125cc639d78ab19213b1b82"


def test_search_is_pinned():
    records = search_records()
    digest = hashlib.sha256("\n".join(r for _, r in records).encode()).hexdigest()
    if digest != SEARCH_DIGEST:
        pinned = [line.rsplit(" ", 1) for line in PIN_FILE.read_text().splitlines()]
        for (label, record), (pin_label, pin) in itertools.zip_longest(
                records, pinned, fillvalue=("<none>", "")):
            if (label, _short(record)) != (pin_label, pin):
                raise AssertionError("first differing record, %s (pinned: %s):\n%s"
                                     % (label, pin_label, record))
    assert digest == SEARCH_DIGEST


if __name__ == "__main__":
    records = search_records()
    for label, record in records:
        print(label, _short(record))
    print(hashlib.sha256("\n".join(r for _, r in records).encode()).hexdigest(),
          len(records), file=sys.stderr)
