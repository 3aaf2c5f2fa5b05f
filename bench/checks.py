"""Output checks for the benchmark workloads.

Each check rests on a property the method must have (Gross-Hacking-Keel-
Kontsevich, arXiv:1411.1394) or on an independent computation, never on a
stored copy of an earlier answer:

- theta functions transport along paths, and their coefficients are
  positive integers;
- a structure constant alpha(p, q, r) counts balanced pairs of broken lines
  at an endpoint near r, so it is a positive integer that can be recounted
  from ``enumerate_lines`` without going through ``alpha_table``;
- a broken-line convex polygon is positive, and a non-convexity witness is a
  valid broken-line segment that starts and ends in the polygon and leaves it.

Every check returns a list of problems; an empty list means the output passed.
"""

import json
import re
from fractions import Fraction

from csd.brokenline import enumerate_lines, validate_segment
from csd.convexity import is_blc_2d
from csd.scattering import check_consistent, path_ordered_product
from csd.serialize import diagram_from_json
from csd.series import LaurentPoly

# Probe offsets 1/p1, 1/p2 with distinct primes above 1000: a point r + (1/p1,
# 1/p2) with integral r lies on no wall through the origin.
PROBE_PRIMES = ((1009, 1013), (1019, 1021), (1031, 1033))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def inside(pt, poly):
    """Exact containment in a ccw convex polygon given by 1, 2 or more vertices."""
    pt = tuple(Fraction(c) for c in pt)
    poly = [tuple(Fraction(c) for c in v) for v in poly]
    if len(poly) == 1:
        return pt == poly[0]
    if len(poly) == 2:
        a, b = poly
        if _cross(a, b, pt) != 0:
            return False
        t = (pt[0] - a[0]) * (b[0] - a[0]) + (pt[1] - a[1]) * (b[1] - a[1])
        return 0 <= t <= (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    n = len(poly)
    return all(_cross(poly[i], poly[(i + 1) % n], pt) >= 0 for i in range(n))


def dilate(poly, k):
    return [(k * Fraction(x), k * Fraction(y)) for x, y in poly]


def is_positive_int(c):
    c = Fraction(c)
    return c.denominator == 1 and c > 0


def balanced_pair_count(fd, diagram, p, q, r, K):
    """Sum of c(l1) c(l2) over broken lines l1, l2 with initial exponents p, q,
    a common endpoint near r, and final exponents adding up to r."""
    r = tuple(r)
    for p1, p2 in PROBE_PRIMES:
        z = (Fraction(r[0]) + Fraction(1, p1), Fraction(r[1]) + Fraction(1, p2))
        try:
            ones = enumerate_lines(fd, diagram, p, z, K)
            twos = enumerate_lines(fd, diagram, q, z, K)
        except ValueError:
            continue
        total = Fraction(0)
        for l1 in ones:
            for l2 in twos:
                if (l1.final[0] + l2.final[0], l1.final[1] + l2.final[1]) == r:
                    total += l1.coeff * l2.coeff
        return total
    raise ValueError("no generic probe endpoint near %r" % (r,))


def check_positivity_witness(fd, diagram, cycle, w, K, max_degree, memo):
    """A positivity violation: r escapes the (a+b)-dilation with alpha > 0."""
    problems = []
    p, q, r, a, b = w["p"], w["q"], w["r"], w["a"], w["b"]
    if not (1 <= a and 1 <= b and a + b <= max_degree):
        problems.append("witness degrees a=%r b=%r out of range" % (a, b))
    if not inside(p, dilate(cycle, a)) or not inside(q, dilate(cycle, b)):
        problems.append("witness p=%r or q=%r outside its dilation" % (p, q))
    if inside(r, dilate(cycle, a + b)):
        problems.append("witness r=%r lies inside the %d-dilation" % (r, a + b))
    if p == (0, 0) or q == (0, 0):
        expected = Fraction(1) if tuple(r) == tuple(q if p == (0, 0) else p) else Fraction(0)
    else:
        key = (id(diagram), tuple(p), tuple(q), tuple(r), K)
        if key not in memo:
            memo[key] = balanced_pair_count(fd, diagram, p, q, r, K)
        expected = memo[key]
    if not is_positive_int(w["alpha"]):
        problems.append("witness alpha=%r is not a positive integer" % (w["alpha"],))
    if w["alpha"] != expected:
        problems.append("witness alpha=%r but the balanced-pair count is %r"
                        % (w["alpha"], expected))
    return problems


def check_convexity_witness(fd, diagram, cycle, seg):
    """A non-convexity witness: a valid segment from the polygon leaving it."""
    problems = []
    ok, why = validate_segment(fd, diagram, seg)
    if not ok:
        problems.append("witness segment rejected: %s" % why)
    if not inside(seg.start, cycle) or not inside(seg.end, cycle):
        problems.append("witness segment does not start and end in the polygon")
    # pieces are straight and the polygon is convex, so the segment leaves
    # the polygon exactly when one of its bend points does
    if all(inside(x, cycle) for x in seg.positions()):
        problems.append("witness segment stays inside the polygon")
    return problems


def check_verdict(fd, diagram, cycle, blc, pos, K, max_degree, memo):
    """The convexity report ``blc`` and positivity report ``pos`` of one polygon."""
    problems = []
    if blc.verdict not in (True, False, None) or pos.verdict not in (True, False):
        return ["verdicts %r, %r are not decisions" % (blc.verdict, pos.verdict)]
    if blc.verdict is True and pos.verdict is not True:
        problems.append("convex polygon reported not positive")
    if pos.verdict is False:
        if not pos.witnesses:
            problems.append("negative positivity verdict without a witness")
        for w in pos.witnesses:
            problems += check_positivity_witness(fd, diagram, cycle, w, K,
                                                 max_degree, memo)
    if blc.verdict is False and pos.verdict is True:
        if not blc.witnesses:
            problems.append("non-convex, positive polygon without a witness segment")
        for seg in blc.witnesses:
            problems += check_convexity_witness(fd, diagram, cycle, seg)
    return problems


def check_theta_terms(m, terms):
    problems = []
    for e, c in terms.items():
        if not is_positive_int(c):
            problems.append("theta_%r has coefficient %r at %r" % (m, c, e))
    if terms.get(tuple(m), 0) < 1:
        problems.append("theta_%r lacks its leading monomial" % (m,))
    return problems


def check_theta_pair(fd, diagram, m, z1, z2, t1, t2):
    """theta_m at z1, carried along the segment z1 -> z2, equals theta_m at z2."""
    problems = check_theta_terms(m, t1.terms) + check_theta_terms(m, t2.terms)
    try:
        moved = path_ordered_product(fd, diagram, [z1, z2], t1)
    except ValueError as e:
        return problems + ["transport %r -> %r failed: %s" % (z1, z2, e)]
    if moved.terms != t2.terms:
        problems.append("theta_%r at %r does not transport to its value at %r"
                        % (m, z1, z2))
    return problems


# --- CLI outputs --------------------------------------------------------------

_TERM = re.compile(r"^(?:(\S+) )?z\^\((-?\d+),(-?\d+)\)$")
_ALPHA = re.compile(r"^r=\((-?\d+),(-?\d+)\): (\S+)$")


def parse_theta(stdout):
    """Printed theta function -> {exponent: coefficient}; raises on bad text."""
    terms = {}
    for part in stdout.strip().split(" + "):
        match = _TERM.match(part)
        if not match:
            raise ValueError("unparsable theta term %r" % part)
        c = Fraction(match.group(1) or 1)
        terms[(int(match.group(2)), int(match.group(3)))] = c
    return terms


def parse_alpha(stdout):
    """Printed structure constants -> {r: alpha}; raises on bad text."""
    table = {}
    for line in stdout.strip().splitlines():
        match = _ALPHA.match(line)
        if not match:
            raise ValueError("unparsable multiply line %r" % line)
        table[(int(match.group(1)), int(match.group(2)))] = Fraction(match.group(3))
    return table


def check_built(path, walls):
    """A built diagram file reloads, is consistent and has the expected walls."""
    with open(path) as fh:
        diagram = diagram_from_json(json.load(fh))
    problems = []
    if not check_consistent(diagram.fd, diagram):
        problems.append("%s is not consistent" % path)
    if walls is not None and len(diagram.walls) != walls:
        problems.append("%s has %d walls, expected %d" % (path, len(diagram.walls), walls))
    return problems


def check_cli_theta_pair(diagram, m, z1, z2, out1, out2):
    """Printed theta_m at z1 and at z2 on one diagram: as ``check_theta_pair``."""
    try:
        t1, t2 = (LaurentPoly(parse_theta(out), m, diagram.order) for out in (out1, out2))
    except ValueError as e:
        return [str(e)]
    return check_theta_pair(diagram.fd, diagram, m, z1, z2, t1, t2)


def check_cli_multiply(stdout, expected=None):
    try:
        table = parse_alpha(stdout)
    except ValueError as e:
        return [str(e)]
    problems = ["alpha=%r at r=%r is not a positive integer" % (c, r)
                for r, c in table.items() if not is_positive_int(c)]
    if expected is not None and table != expected:
        problems.append("product table %r, expected %r" % (table, expected))
    return problems


def check_cli_hull(diagram, points, hull_path):
    """Every input point lies in the hull, and the hull is broken-line convex."""
    with open(hull_path) as fh:
        hull = [tuple(Fraction(c) for c in v) for v in json.load(fh)]
    problems = ["input point %r outside the hull" % (p,)
                for p in points if not inside(p, hull)]
    if is_blc_2d(diagram.fd, diagram, hull).verdict is not True:
        problems.append("hull %r is not broken-line convex" % (hull,))
    return problems


def check_cli_positive(stdout):
    if not stdout.startswith("verdict: True "):
        return ["check-positive on a hull says %r" % stdout.splitlines()[:1]]
    return []
