"""Balanced-pair oracle for structure constants, independent of alpha_table.

alpha(p, q, r) is the number of balanced pairs (l1, l2) of broken lines, with
initial exponents p and q, a common endpoint z near r and final exponents
summing to r, each pair weighted by the product of its coefficients (GHKK,
Def.-Lemma 6.2).  The count is taken at z = r + eps*v for a wall-generic
direction v; a direction whose probe runs a trajectory into the origin is
skipped for the next one, and the count must not change when eps halves.
"""

from fractions import Fraction

from csd.brokenline import enumerate_lines
from csd.geometry import sort_ccw, vadd, vscale, is_zero
from csd.lattice import pairing


def spiral_directions(radius=6):
    """Deterministic direction probe order: growing rings, counterclockwise."""
    out = []
    for r in range(1, radius + 1):
        ring = {(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
                if max(abs(x), abs(y)) == r}
        out.extend(sort_ccw(ring))
    return out


def generic_endpoints_near(fd, diagram, r):
    """(v, eps) in spiral order, with r + t*v on no wall for 0 < t <= eps.

    v is skipped when a wall through r contains it; eps is half the distance,
    in t, to the nearest wall not through r.
    """
    for v in spiral_directions():
        if any(pairing(fd, w.normal, r) == 0 and pairing(fd, w.normal, v) == 0
               for w in diagram.walls):
            continue
        eps = None
        for w in diagram.walls:
            sa = pairing(fd, w.normal, r)
            sv = pairing(fd, w.normal, v)
            if sa != 0 and sv != 0:
                t = abs(sa / sv)
                if eps is None or t < eps:
                    eps = t
        yield v, Fraction(1) if eps is None else eps / 2


def generic_endpoint_near(fd, diagram, r):
    """The first (v, eps) of generic_endpoints_near."""
    for found in generic_endpoints_near(fd, diagram, r):
        return found
    raise ValueError("no generic direction near %r" % (r,))


def balanced_pair_count(fd, diagram, p, q, r, z, K):
    """Sum of c1 * c2 over the lines l1 of p and l2 of q at z with F1 + F2 = r."""
    twos = enumerate_lines(fd, diagram, q, z, K)
    total = 0
    for l1 in enumerate_lines(fd, diagram, p, z, K):
        for l2 in twos:
            if vadd(l1.final, l2.final) == r:
                total += l1.coeff * l2.coeff
    return total


def oracle_alpha(fd, diagram, p, q, r, K):
    """alpha(p, q, r) by counting balanced pairs near r (r - p - q of order <= K)."""
    p, q, r = tuple(p), tuple(q), tuple(r)
    if is_zero(p):
        return int(r == q)
    if is_zero(q):
        return int(r == p)
    for v, eps in generic_endpoints_near(fd, diagram, r):
        try:
            counts = [balanced_pair_count(fd, diagram, p, q, r, vadd(r, vscale(e, v)), K)
                      for e in (eps, eps / 2)]
        except ValueError as err:
            if "runs into the origin" not in str(err):
                raise
            continue
        assert counts[0] == counts[1], \
            "balanced-pair count at %r changes when eps halves: %r" % (r, counts)
        return counts[0]
    raise AssertionError("no direction near %r gives a generic probe" % (r,))
