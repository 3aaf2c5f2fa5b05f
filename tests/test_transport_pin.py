"""Alpha tables and transport pinned by digest.

For five types completed at order 4, one record holds the sorted alpha
table of each unordered pair p, q in [-2, 2]^2.  Transport adds the loop
around the origin on the initial and the completed diagram, and the
path-ordered product along fixed generic polylines, each applied to a few
monomials, together with the three errors of a path: through the origin,
with an endpoint on a wall, and with a leg inside a wall.  Each record is
the repr of one result (or the message of the ValueError it raised),
labelled by what produced it.  The test hashes the records with SHA-256 and
compares the digest with ``TRANSPORT_DIGEST``; on a mismatch it names the
first record whose short hash differs from the one listed in
``transport_pin.txt`` and prints that record.

    PYTHONPATH=src python3 tests/test_transport_pin.py > tests/transport_pin.txt

rewrites the list of short hashes and prints the digest on stderr.
"""

import hashlib
import itertools
import sys
from fractions import Fraction
from pathlib import Path

from csd.constructions import alpha_table
from csd.lattice import FixedData
from csd.scattering import apply_loop, complete_rank2, initial_diagram, path_ordered_product
from csd.series import LaurentPoly

F = Fraction

TYPES = {"A2": ([[0, 1], [-1, 0]], [1, 1]), "B2": ([[0, 2], [-1, 0]], [1, 2]),
         "G2": ([[0, 3], [-1, 0]], [1, 3]), "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
         "(3,3)": ([[0, 3], [-3, 0]], [1, 1])}

ORDER = 4
GRID = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
MONOMIALS = [(1, 0), (0, 1), (-1, 2), (2, -1)]
# polylines with generic vertices (prime denominators above 100): a loop
# around the origin each way, and open paths of one and two legs
A, B, C, D = ((F(317, 101), F(29, 103)), (F(-211, 107), F(53, 109)),
              (F(-31, 113), F(-401, 127)), (F(97, 131), F(-13, 137)))
PATHS = [[A, B, C, D, A], [A, D, C, B, A], [A, C], [B, D, A]]


def _attempt(f, *args):
    try:
        return repr(f(*args))
    except ValueError as e:
        return "ValueError: %s" % e


def _poly(p):
    return p.sorted_terms(), p.base, p.order


def _error_paths(diagram):
    """Paths through the origin, with an endpoint on a wall, and with a leg
    inside a wall: the last two on the first wall of the diagram."""
    dx, dy = diagram.walls[0].direction
    on = (F(5, 3) * dx, F(5, 3) * dy)
    return [("origin", [(F(-3, 2), F(-1)), (F(3), F(2))]),
            ("endpoint on wall", [A, on]),
            ("leg inside wall", [on, (2 * on[0], 2 * on[1])])]


def transport_records():
    """(label, record) pairs of alpha tables and transport, in a fixed order."""
    records = []
    for name, (exchange, d) in TYPES.items():
        fd = FixedData.from_exchange(exchange, d)
        diagram = complete_rank2(fd, ORDER)
        for p, q in itertools.combinations_with_replacement(GRID, 2):
            records.append(("alpha %s %r %r" % (name, p, q), _attempt(
                lambda: sorted(alpha_table(fd, diagram, p, q, ORDER).items()))))
        for label, diag in (("initial", initial_diagram(fd, ORDER)), ("completed", diagram)):
            for m in MONOMIALS:
                records.append(("loop %s %s %r" % (name, label, m), _attempt(
                    lambda: _poly(apply_loop(fd, diag, LaurentPoly.monomial(m, ORDER))))))
        for i, path in enumerate(PATHS):
            for m in MONOMIALS:
                records.append(("path %s %d %r" % (name, i, m), _attempt(lambda: _poly(
                    path_ordered_product(fd, diagram, path, LaurentPoly.monomial(m, ORDER))))))
        for label, path in _error_paths(diagram):
            records.append(("path %s %s" % (name, label), _attempt(
                path_ordered_product, fd, diagram, path, LaurentPoly.monomial((1, 0), ORDER))))
    return records


def _short(record):
    return hashlib.sha256(record.encode()).hexdigest()[:16]


PIN_FILE = Path(__file__).with_name("transport_pin.txt")

# SHA-256 of the records joined by newlines, computed while wf_pow, lp_mul
# and wall_cross built their results through unchecked second constructors
TRANSPORT_DIGEST = "39b05b4fa5cbb32d1daf5f8cd856bcdeea0e0f7fb4c7e8d6443a4739a30a2cb5"


def test_alpha_and_transport_are_pinned():
    records = transport_records()
    digest = hashlib.sha256("\n".join(r for _, r in records).encode()).hexdigest()
    if digest != TRANSPORT_DIGEST:
        pinned = [line.rsplit(" ", 1) for line in PIN_FILE.read_text().splitlines()]
        for (label, record), (pin_label, pin) in itertools.zip_longest(
                records, pinned, fillvalue=("<none>", "")):
            if (label, _short(record)) != (pin_label, pin):
                raise AssertionError("first differing record, %s (pinned: %s):\n%s"
                                     % (label, pin_label, record))
    assert digest == TRANSPORT_DIGEST


if __name__ == "__main__":
    records = transport_records()
    for label, record in records:
        print(label, _short(record))
    print(hashlib.sha256("\n".join(r for _, r in records).encode()).hexdigest(),
          len(records), file=sys.stderr)
