"""Exact 2D geometry primitives; nothing here touches floating point.

Points are tuples of ints or Fractions.  The polygon kernel works on
integers alone: a point may also be homogeneous, (X, Y, q) with q > 0
standing for (X/q, Y/q).  One hull pass, ``_hull``, runs the monotone chain
on integer numerators over one common denominator.  ``convex_hull`` returns
each of its vertices as the tuple it was given, and ``compile_hull`` turns
its edges into integer half-planes A*x + B*y >= N.  A point X/q is inside
when A*X + B*Y >= N*q for every half-plane, and scaling the hull by k
scales every N by k.
"""

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from numbers import Rational


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


def primitive(v):
    """Primitive integer vector with the same direction as v (int or Fraction entries)."""
    if len(v) == 2 and type(v[0]) is int and type(v[1]) is int:
        g = gcd(*v)
        if not g:
            raise ValueError("zero vector has no direction")
        return v[0] // g, v[1] // g
    if is_zero(v):
        raise ValueError("zero vector has no direction")
    den = lcm(*(a.denominator for a in v))
    ints = [a.numerator * (den // a.denominator) for a in v]
    g = gcd(*ints)
    return tuple(a // g for a in ints)


def line_key(v):
    """The primitive direction of the line through 0 and v != 0 whose first
    nonzero entry is > 0."""
    x, y = primitive(v)
    return (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)


def is_rational(x):
    """Whether x is a rational number; ints and Fractions are told by their
    type, before the slower check against numbers.Rational."""
    return type(x) is int or type(x) is Fraction or isinstance(x, Rational)


def _rational_pair(v, field):
    """The pair v as a tuple, v itself when it is one; anything but a pair
    of rationals raises a ValueError that names the field."""
    try:
        a, b = v
    except (TypeError, ValueError):
        a = b = None
    if not (is_rational(a) and is_rational(b)):
        raise ValueError("%s must be a pair of rationals, got %r" % (field, v))
    return v if type(v) is tuple else (a, b)


def _rational_points(pts, name, field):
    """The points as a list, each checked by _rational_pair with the field
    field % i; pts that cannot be iterated raises a ValueError naming name."""
    try:
        items = enumerate(pts)
    except TypeError:
        raise ValueError("%s must be a list of points, got %r" % (name, pts)) from None
    return [_rational_pair(p, field % i) for i, p in items]


def same_ray(u, v):
    """True if nonzero u, v point in the same direction."""
    return cross(u, v) == 0 and dot(u, v) > 0


def angle_class(v):
    # 0: positive x-axis, 1: open upper half, 2: negative x-axis, 3: open lower half
    x, y = v
    if y == 0:
        return 0 if x > 0 else 2
    return 1 if y > 0 else 3


def _ccw_cmp(u, v):
    # within one angular class, u precedes v iff cross(u, v) > 0
    return angle_class(u) - angle_class(v) or -cross(u, v)


# sort key for counterclockwise angular order starting at the positive x-axis
ccw_key = cmp_to_key(_ccw_cmp)


def sort_ccw(dirs):
    return sorted(dirs, key=ccw_key)


def convex_hull(points):
    """Vertices of the convex hull, counterclockwise, no collinear points.

    Points may be plain or homogeneous (reduced, as ``homogeneous`` gives
    them).  Each vertex comes back as the tuple given, the first one of
    equal-valued points, so ints stay ints, Fractions stay Fractions and
    triples stay triples.  Degenerate inputs give 1 (single point) or 2
    (segment endpoints) vertices.
    """
    given = {}
    for p in points:
        p = tuple(p)
        given.setdefault(homogeneous(p), p)
    return [given[h] for _, _, h in _hull(given)[1]]


def _hull(hs):
    """The hull pass shared by ``convex_hull`` and ``compile_hull``.

    Every homogeneous point h of hs is scaled to the lcm L of the
    denominators, and the monotone chain runs on those integer numerators.
    Returns L and the hull's vertices as entries (x, y, h), standing for
    (x/L, y/L), counterclockwise from the least (x, y).  Of points equal in
    value the chain keeps one.
    """
    if not hs:
        raise ValueError("convex hull of no points")
    L = lcm(*(q for _, _, q in hs))
    pts = sorted([(X * (L // q), Y * (L // q), (X, Y, q)) for X, Y, q in hs])
    a, b = pts[0], pts[-1]
    if a[0] == b[0] and a[1] == b[1]:
        return L, [a]
    return L, _chain(pts)[:-1] + _chain(reversed(pts))[:-1]


def _chain(pts):
    """One monotone chain over (x, y, h) entries, dropping right and straight
    turns, and so all but one of points equal in value."""
    out = []
    for c in pts:
        while len(out) > 1:
            (ax, ay, _), (bx, by, _) = out[-2], out[-1]
            if (bx - ax) * (c[1] - ay) - (by - ay) * (c[0] - ax) > 0:
                break
            out.pop()
        out.append(c)
    return out


def homogeneous(p):
    """The point p as (X, Y, q), q > 0, gcd 1; homogeneous p is returned as is.

    Ints and Fractions are read once each through ``as_integer_ratio``;
    another rational type without it, through its numerator and denominator.
    """
    if len(p) == 3:
        return p
    x, y = p
    try:
        (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
    except AttributeError:
        (a, b), (c, d) = (x.numerator, x.denominator), (y.numerator, y.denominator)
    q = lcm(b, d)
    return (a * (q // b), c * (q // d), q)


def rational(h):
    """The homogeneous point h as a pair of Fractions."""
    X, Y, q = h
    return (Fraction(X, q), Fraction(Y, q))


def cycle_is_convex(cycle):
    """True if no two turns of the closed cycle of homogeneous points
    (X, Y, q), q > 0, have opposite orientation; a cycle of collinear points
    counts as convex.

    One pass over the turns, stopping at the first turn whose sign is
    opposite to one already seen.  The chart images are such cycles.
    """
    if len(cycle) <= 2:
        return True
    left = right = False
    (ax, ay, aq), (bx, by, bq) = cycle[-2], cycle[-1]
    for cx, cy, cq in cycle:
        # the turn's sign is the sign of the 3x3 determinant of the rows a, b, c
        t = (aq * (bx * cy - by * cx) - bq * (ax * cy - ay * cx)
             + cq * (ax * by - ay * bx))
        if t > 0:
            if right:
                return False
            left = True
        elif t < 0:
            if left:
                return False
            right = True
        ax, ay, aq, bx, by, bq = bx, by, bq, cx, cy, cq
    return True


class HalfPlanes:
    """A hull as integer half-planes A*x + B*y >= N, plus its bounding box.

    The planes with B > 0 bound each column of the hull from below and those
    with B < 0 from above; they are sorted into ``lower`` and ``upper`` once.
    A plane with B = 0 is a vertical edge or cap at the box's least or
    greatest x, which every column the box spans satisfies, so
    ``lattice_points`` reads only ``lower`` and ``upper``.
    """

    __slots__ = ("planes", "box", "lower", "upper")

    def __init__(self, planes, box):
        self.planes = planes
        # (xmin, xmax, ymin, ymax, L): integer numerators over the denominator L
        self.box = box
        self.lower = [p for p in planes if p[1] > 0]
        self.upper = [p for p in planes if p[1] < 0]

    def contains(self, x, y, q=1):
        """Whether the point (x/q, y/q), q > 0, lies in the hull (boundary
        counts); in the hull scaled by the integer k > 0 when q is k times
        the point's denominator."""
        for A, B, N in self.planes:
            if A * x + B * y < N * q:
                return False
        return True

    def lattice_points(self, k=1):
        """Integer points of the hull scaled by the integer k > 0, in
        ascending order: by column, x ascending, and y ascending within a
        column.  This is sorted order of the (x, y) tuples, which
        ``check_positive`` relies on.  Column x runs from the greatest of
        the box's least y and the lower bounds ceil((k*N - A*x)/B) to the
        least of its greatest y and the upper bounds."""
        x0, x1, y0, y1, L = self.box
        out = []
        for x in range(-(-k * x0 // L), k * x1 // L + 1):
            lo, hi = -(-k * y0 // L), k * y1 // L
            for A, B, N in self.lower:
                y = (A * x - k * N) // B
                if -y > lo:
                    lo = -y
            for A, B, N in self.upper:
                y = (k * N - A * x) // B
                if y < hi:
                    hi = y
            for y in range(lo, hi + 1):
                out.append((x, y))
        return out


def compile_hull(points):
    """HalfPlanes of the convex hull of a nonempty set of points.

    The points may be plain or homogeneous.  One pass: the hull of
    ``_hull``, over the common denominator L, with each hull edge turned
    into one half-plane.  One point gives four half-planes, a segment two
    opposite ones along it and two end caps, a polygon one per edge,
    counterclockwise from its least (x, y) vertex.  A half-plane is kept
    with gcd(A, B, N) = 1, so it does not depend on L.
    """
    # a plane through a vertex is taken at the point h of its entry: scaled
    # to (x, y, L) it has the same reduced plane
    L, hull = _hull([homogeneous(p) for p in points])
    if len(hull) == 1:
        planes = [_plane(n, hull[0][2]) for n in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    else:
        planes = []
        for a, b in zip(hull, hull[1:] + hull[:1]):
            u = (b[0] - a[0], b[1] - a[1])
            planes.append(_plane(rot90(u), a[2]))
            if len(hull) == 2:
                # the edge b -> a gives the other side; cap the segment at a
                planes.append(_plane(u, a[2]))
    xs = [x for x, _, _ in hull]
    ys = [y for _, y, _ in hull]
    return HalfPlanes(planes, (min(xs), max(xs), min(ys), max(ys), L))


def _plane(n, p):
    """The half-plane n.x >= n.p through the homogeneous point p."""
    X, Y, q = p
    A, B, N = n[0] * q, n[1] * q, n[0] * X + n[1] * Y
    g = gcd(A, B, N)
    return (A // g, B // g, N // g)
