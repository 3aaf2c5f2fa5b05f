"""Exact rational 2D geometry primitives.

All functions work on tuples of ints or Fractions; nothing here ever
touches floating point.
"""

from fractions import Fraction
from math import gcd


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def is_zero(u):
    return all(a == 0 for a in u)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def rot90(u):
    # counterclockwise quarter turn
    return (-u[1], u[0])


def sgn(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def primitive(v):
    """Primitive integer vector with the same direction as v.

    v may have Fraction entries; the result is integral.
    """
    if is_zero(v):
        raise ValueError("zero vector has no direction")
    fr = [Fraction(a) for a in v]
    den = 1
    for a in fr:
        den = den * a.denominator // gcd(den, a.denominator)
    ints = [int(a * den) for a in fr]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(a // g for a in ints)


def same_ray(u, v):
    """True if nonzero u, v point in the same direction."""
    return cross(u, v) == 0 and dot(u, v) > 0


def angle_class(v):
    # 0: positive x-axis, 1: open upper half, 2: negative x-axis, 3: open lower half
    x, y = v
    if y == 0:
        return 0 if x > 0 else 2
    return 1 if y > 0 else 3


def ccw_key(v):
    """Sort key for counterclockwise angular order starting at the positive x-axis."""
    return (angle_class(v), _SlopeKey(v))


class _SlopeKey:
    # within one angular class, u precedes v iff cross(u, v) > 0
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        return cross(self.v, other.v) > 0

    def __le__(self, other):
        return cross(self.v, other.v) >= 0

    def __gt__(self, other):
        return cross(self.v, other.v) < 0

    def __ge__(self, other):
        return cross(self.v, other.v) <= 0

    def __eq__(self, other):
        return cross(self.v, other.v) == 0


def sort_ccw(dirs):
    return sorted(dirs, key=ccw_key)


def ccw_between(a, x, b):
    """True if direction x lies in the ccw sector [a, b), a != b."""
    ka, kx, kb = ccw_key(a), ccw_key(x), ccw_key(b)
    if ka < kb:
        return ka <= kx < kb
    if kb < ka:
        return kx >= ka or kx < kb
    return False


def convex_hull(points):
    """Vertices of the convex hull, counterclockwise, no collinear points.

    Degenerate inputs give 1 (single point) or 2 (segment endpoints) vertices.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) == 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) > 1 and cross(vsub(lower[-1], lower[-2]), vsub(p, lower[-2])) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) > 1 and cross(vsub(upper[-1], upper[-2]), vsub(p, upper[-2])) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 0:
        # all collinear
        return [pts[0], pts[-1]]
    return hull


def cycle_is_convex(cycle):
    """True if the closed vertex cycle is convex and counterclockwise.

    Collinear consecutive points are allowed; a cycle of collinear points
    counts as convex (degenerate).
    """
    n = len(cycle)
    if n <= 2:
        return True
    signs = set()
    for i in range(n):
        a, b, c = cycle[i], cycle[(i + 1) % n], cycle[(i + 2) % n]
        s = sgn(cross(vsub(b, a), vsub(c, b)))
        if s:
            signs.add(s)
    return len(signs) <= 1


def point_in_hull(pt, hull):
    """Point containment for a ccw convex hull (boundary counts)."""
    if len(hull) == 1:
        return tuple(pt) == tuple(hull[0])
    if len(hull) == 2:
        a, b = hull
        if cross(vsub(b, a), vsub(pt, a)) != 0:
            return False
        t = dot(vsub(pt, a), vsub(b, a))
        return 0 <= t <= dot(vsub(b, a), vsub(b, a))
    for i in range(len(hull)):
        a = hull[i]
        b = hull[(i + 1) % len(hull)]
        if cross(vsub(b, a), vsub(pt, a)) < 0:
            return False
    return True


def lattice_points_in_hull(hull):
    """All integer points inside a ccw convex hull with rational vertices."""
    import math
    xs = [Fraction(p[0]) for p in hull]
    ys = [Fraction(p[1]) for p in hull]
    out = []
    for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1):
            if point_in_hull((x, y), hull):
                out.append((x, y))
    return out


def line_line_intersection(p, u, q, v):
    """Intersection of the lines p + t*u and q + s*v, or None if parallel."""
    den = cross(u, v)
    if den == 0:
        return None
    t = Fraction(cross(vsub(q, p), v), den)
    return vadd(p, vscale(t, u))
