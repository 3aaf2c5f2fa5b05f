"""Rank-2 scattering diagrams: walls, consistency loops, completion.

A diagram is a finite set of walls truncated at a fixed order.  Completion
inserts outgoing rays order by order until the counterclockwise loop around
the origin acts trivially on both coordinate monomials up to the truncation.
"""

from fractions import Fraction
from math import gcd

from .geometry import (vadd, vsub, vneg, vscale, is_zero, primitive, same_ray,
                       sort_ccw, rot90, sgn, cross, dot)
from .lattice import (pairing, p1_star, n_circ_primitive, line_dir,
                      cone_order, solve_linear)
from .series import WallFunction, LaurentPoly, wall_cross


class Wall:
    """A wall: support (full line or ray from the origin) with a normal and a function."""

    def __init__(self, normal, kind, direction, func):
        self.normal = tuple(int(x) for x in normal)
        if kind not in ("line", "ray"):
            raise ValueError("kind must be 'line' or 'ray'")
        self.kind = kind
        self.direction = tuple(int(x) for x in direction)
        self.func = func

    def __repr__(self):
        return "Wall(n=%r, %s dir=%r, f=%r)" % (self.normal, self.kind, self.direction, self.func)


class Diagram:
    def __init__(self, fd, walls, order, saturated):
        self.fd = fd
        self.walls = list(walls)
        self.order = order
        self.saturated = saturated
        # the walls compiled for broken-line search (brokenline.search_form),
        # built on the first search; whatever changes walls must reset it
        self.compiled = None


def canonical_normal(n):
    np = primitive(n)
    for x in np:
        if x != 0:
            return np if x > 0 else vneg(np)
    raise ValueError("zero normal")


def is_incoming(fd, wall):
    """A wall is incoming when the image of its normal under the skew map lies on its support."""
    if wall.kind == "line":
        return True
    p = p1_star(fd, n_circ_primitive(fd, wall.normal))
    return not is_zero(p) and same_ray(p, wall.direction)


def on_support(fd, wall, pt):
    if pairing(fd, wall.normal, pt) != 0:
        return False
    if wall.kind == "line":
        return True
    return is_zero(pt) or same_ray(pt, wall.direction)


def initial_wall(fd, i):
    n = ((1, 0), (0, 1))[i]
    p = p1_star(fd, n)
    k = gcd(*p)  # p = k * primitive(p)
    coeffs = [0] * k
    coeffs[k - 1] = 1
    return Wall(canonical_normal(n), "line", line_dir(fd, n), WallFunction(primitive(p), coeffs))


def initial_diagram(fd, order):
    walls = [initial_wall(fd, 0), initial_wall(fd, 1)]
    return Diagram(fd, walls, order, False)


def loop_events(fd, diagram):
    """Distinct primitive support directions, counterclockwise from the positive x-axis."""
    dirs = set()
    for w in diagram.walls:
        dirs.add(w.direction)
        if w.kind == "line":
            dirs.add(vneg(w.direction))
    return sort_ccw(dirs)


def _crossing_sign(fd, normal, travel):
    s = sgn(pairing(fd, normal, travel))
    if s == 0:
        raise ValueError("path runs inside a wall")
    return -s


def apply_loop(fd, diagram, p):
    """Transport a truncated Laurent polynomial once counterclockwise around the origin."""
    out = p
    for d in loop_events(fd, diagram):
        travel = rot90(d)
        for w in diagram.walls:
            hit = (w.direction == d) or (w.kind == "line" and vneg(w.direction) == d)
            if not hit:
                continue
            out = wall_cross(fd, out, w.func, w.normal, _crossing_sign(fd, w.normal, travel))
    return out


def loop_discrepancy(fd, diagram):
    """Per generator: transported minus identity, as exponent-shift -> coefficient."""
    out = []
    for mono in (LaurentPoly.monomial((1, 0), diagram.order),
                 LaurentPoly.monomial((0, 1), diagram.order)):
        res = apply_loop(fd, diagram, mono)
        diff = dict(res.terms)
        b = mono.base
        diff[b] = diff.get(b, 0) - 1
        out.append({vsub(e, b): c for e, c in diff.items() if c != 0})
    return out


def check_consistent(fd, diagram):
    return all(not d for d in loop_discrepancy(fd, diagram))


def _outgoing_normal(fd, p):
    """Primitive normal n with n mapped onto the ray of p by the skew form."""
    target = primitive(p)
    sol = solve_linear(fd.exchange, target)
    if sol is None:
        raise ValueError("skew form is degenerate in direction %r" % (p,))
    return canonical_normal(sol)


def _insert_correction(fd, diagram, p, delta):
    """Add delta to the coefficient of z^p on the outgoing ray through -p."""
    ray_dir = primitive(vneg(p))
    m0 = primitive(p)
    k0 = gcd(*p)  # p = k0 * m0
    for w in diagram.walls:
        if w.kind == "ray" and w.direction == ray_dir and not is_incoming(fd, w):
            cs = list(w.func.coeffs)
            cs += [0] * (k0 - len(cs))
            cs[k0 - 1] += delta
            w.func = WallFunction(m0, cs)
            return
    n = _outgoing_normal(fd, p)
    cs = [0] * k0
    cs[k0 - 1] = delta
    diagram.walls.append(Wall(n, "ray", ray_dir, WallFunction(m0, cs)))


def _loop_sign_at(fd, normal, support_dir):
    return _crossing_sign(fd, normal, rot90(support_dir))


def complete_rank2(fd, order):
    """Complete the initial diagram to consistency at the given truncation order."""
    return complete_diagram(fd, initial_diagram(fd, order))


def complete_diagram(fd, diagram, max_rounds=100000):
    """Add outgoing-ray corrections until the loop acts trivially; idempotent."""
    diagram.compiled = None
    for _ in range(max_rounds):
        disc = loop_discrepancy(fd, diagram)
        if all(not d for d in disc):
            break
        k = min(cone_order(fd, e) for d in disc for e in d)
        # all shifts of minimal order, with the coefficient seen from each generator
        offenders = {}
        for j, d in enumerate(disc):
            for e, c in d.items():
                if cone_order(fd, e) == k:
                    offenders.setdefault(e, {})[j] = c
        for p, by_gen in sorted(offenders.items()):
            n = _outgoing_normal(fd, p)
            n0p = n_circ_primitive(fd, n)
            eps = _loop_sign_at(fd, n, primitive(vneg(p)))
            delta = None
            for j, e in enumerate(((1, 0), (0, 1))):
                w = pairing(fd, n0p, e)
                c = by_gen.get(j, 0)
                if w == 0:
                    if c != 0:
                        raise ValueError("uncancellable discrepancy %r at %r" % (c, p))
                    continue
                # d_j = -c / (eps * w) exactly; wall functions have integer
                # coefficients, so a remainder is an internal error
                d_j, r = divmod(-c * w.denominator, eps * w.numerator)
                if r:
                    raise ArithmeticError("non-integral correction %s / %s at %r"
                                          % (-c, eps * w, p))
                if delta is None:
                    delta = d_j
                elif delta != d_j:
                    raise ValueError("inconsistent correction at %r: %r vs %r" % (p, delta, d_j))
            if delta is None:
                raise ValueError("no generator pairs with correction direction %r" % (p,))
            if delta != 0:
                _insert_correction(fd, diagram, p, delta)
    else:
        raise RuntimeError("completion did not stabilize")
    diagram.walls = [w for w in diagram.walls if not w.func.is_one()]
    diagram.saturated = _is_saturated(fd, diagram)
    return diagram


def _is_saturated(fd, diagram):
    for w in diagram.walls:
        for k, c in w.func.terms():
            if cone_order(fd, vscale(k, w.func.direction)) >= diagram.order:
                return False
    return True


def leg_crossings(fd, diagram, a, b):
    """Transversal wall crossings of the open segment a -> b, ordered along the leg.

    Returns a list of (t, point, wall).  Raises when the leg hits the origin,
    when an endpoint lies on a crossed support, or when two walls with
    distinct supports are crossed at the same point.
    """
    out = []
    v = vsub(b, a)
    if is_zero(a) or is_zero(b) or (cross(a, b) == 0 and dot(a, b) < 0):
        raise ValueError("path passes through the origin")
    for w in diagram.walls:
        sa = pairing(fd, w.normal, a)
        sb = pairing(fd, w.normal, b)
        if sa == sb:
            if sa == 0 and on_support(fd, w, a):
                raise ValueError("path runs inside a wall")
            continue
        if sa == 0 or sb == 0:
            pt = a if sa == 0 else b
            if on_support(fd, w, pt):
                raise ValueError("path endpoint lies on a wall")
            continue
        t = Fraction(sa, sa - sb)
        if not (0 < t < 1):
            continue
        pt = vadd(a, vscale(t, v))
        if on_support(fd, w, pt):
            if is_zero(pt):
                raise ValueError("path passes through the origin")
            out.append((t, pt, w))
    out.sort(key=lambda x: x[0])
    for (t1, p1, w1), (t2, p2, w2) in zip(out, out[1:]):
        if t1 == t2 and cross(w1.normal, w2.normal) != 0:
            raise ValueError("path crosses two distinct walls at one point %r" % (p1,))
    return out


def path_ordered_product(fd, diagram, path, p):
    """Transport a truncated Laurent polynomial along a generic polyline."""
    out = p
    for a, b in zip(path, path[1:]):
        travel = vsub(b, a)
        for t, pt, w in leg_crossings(fd, diagram, a, b):
            out = wall_cross(fd, out, w.func, w.normal, _crossing_sign(fd, w.normal, travel))
    return out
