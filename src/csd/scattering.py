"""Rank-2 scattering diagrams: walls, consistency loops, completion.

A diagram is a finite set of walls truncated at a fixed order.  Completion
inserts outgoing rays order by order until the counterclockwise loop around
the origin acts trivially on both coordinate monomials up to the truncation.
"""

import functools
from math import gcd

from .geometry import (vsub, vneg, vscale, is_zero, primitive, line_key, same_ray, rot90,
                       homogeneous, _rational_points)
from .lattice import (pairing, p1_star, n_circ_primitive, line_dir, scaled_normal,
                      cone_order, order_form, solve_linear)
from .series import WallFunction, LaurentPoly, wall_cross, _lattice_vector
from .brokenline import SearchForm, search_form

# the most rounds complete_diagram runs; one that has not stabilized by then
# raises RuntimeError("completion did not stabilize")
MAX_ROUNDS = 100000


class Wall:
    """A wall: support (full line or ray from the origin) with a normal and a function."""

    def __init__(self, normal, kind, direction, func):
        if kind not in ("line", "ray"):
            raise ValueError("kind must be 'line' or 'ray'")
        self.normal = _lattice_vector(normal, "normal")
        if self.normal == (0, 0):
            raise ValueError("normal must be nonzero, got (0, 0)")
        self.kind = kind
        self.direction = _lattice_vector(direction, "direction")
        if gcd(*self.direction) != 1:
            raise ValueError("direction must be primitive, got %r" % (self.direction,))
        self.func = func

    def __repr__(self):
        return "Wall(n=%r, %s dir=%r, f=%r)" % (self.normal, self.kind, self.direction, self.func)


class Diagram:
    """A scattering diagram: fixed data, walls, truncation order and whether
    completion saturated it.  It never changes.

    The walls are a tuple, checked against the fixed data once, here: a
    wall's direction and its function direction lie on the line of its
    normal, and the function direction lies in the cone sigma of the monoid.
    The search reads a bend's power off the pairing with the normal alone,
    and never meets a wall off that line; sigma is pointed, so the walls of
    a line share one m0.  A wall that fails raises a ValueError that starts
    "wall i: " and names the wall's normal.  The diagram holds its walls
    compiled into half-lines (brokenline.SearchForm), with its caches, from
    construction on.
    """

    def __init__(self, fd, walls, order, saturated):
        self.fd = fd
        self.walls = tuple(walls)
        self.order = order
        self.saturated = saturated
        ux, uy, vx, vy, _ = order_form(fd)
        for i, w in enumerate(self.walls):
            lx, ly = line_dir(fd, w.normal)
            (dx, dy), (mx, my) = w.direction, w.func.direction
            if lx * dy != ly * dx:
                raise ValueError("wall %d: %s wall with normal %r has direction %r off the "
                                 "line of its normal" % (i, w.kind, w.normal, w.direction))
            if lx * my != ly * mx:
                raise ValueError("wall %d: wall with normal %r has function direction %r off "
                                 "the line of its normal" % (i, w.normal, w.func.direction))
            if ux * mx + uy * my < 0 or vx * mx + vy * my < 0:
                raise ValueError("wall %d: wall with normal %r has function direction %r "
                                 "outside the cone of the monoid" % (i, w.normal, w.func.direction))
        self.compiled = SearchForm(fd, self.walls, order)


def is_incoming(fd, wall):
    """A wall is incoming when the image of its normal under the skew map lies on its support."""
    if wall.kind == "line":
        return True
    p = p1_star(fd, n_circ_primitive(fd, wall.normal))
    return not is_zero(p) and same_ray(p, wall.direction)


def initial_wall(fd, i):
    n = ((1, 0), (0, 1))[i]
    p = p1_star(fd, n)
    k = gcd(*p)  # p = k * primitive(p)
    coeffs = [0] * k
    coeffs[k - 1] = 1
    return Wall(n, "line", line_dir(fd, n), WallFunction(primitive(p), coeffs))


def initial_diagram(fd, order):
    walls = [initial_wall(fd, 0), initial_wall(fd, 1)]
    return Diagram(fd, walls, order, False)


def _side(a, travel):
    """The sign of a crossing along travel over walls whose normal n has the
    scaled normal a (lattice.scaled_normal): -1 when <n, travel> > 0, else 1.

    Its callers never pass a travel on the line of n, where <n, travel> = 0:
    a is nonzero and a . h = 0 for a direction h of that line, so only a
    travel parallel to h pairs to 0.  The loop travels along rot90(h) over
    half-line h, a path crosses a half-line only on a leg that is not
    parallel to it (leg_crossings), and completion travels along rot90(-p)
    with p on the line of its outgoing normal n, since <n, p1*(n)> = {n, n}
    = 0.
    """
    return -1 if a[0] * travel[0] + a[1] * travel[1] > 0 else 1


def apply_loop(fd, diagram, p):
    """Transport a truncated Laurent polynomial once counterclockwise around the origin.

    The loop crosses the half-lines of the search form counterclockwise from
    the positive x-axis, each with one wall_cross by its family's product
    function, which is crossing its walls one by one (brokenline._Family).
    """
    form = search_form(fd, diagram)
    out = p
    for h, fam in zip(form._halves, form.fams):
        out = wall_cross(fd, out, fam, _side(fam.a, rot90(h)))
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
    return line_key(sol)


def _insert_correction(fd, walls, p, delta):
    """Add delta to the coefficient of z^p on the outgoing ray through -p,
    swapping in a new wall for the one it changes."""
    ray_dir = primitive(vneg(p))
    m0 = primitive(p)
    k0 = gcd(*p)  # p = k0 * m0
    for i, w in enumerate(walls):
        if w.kind == "ray" and w.direction == ray_dir and not is_incoming(fd, w):
            cs = list(w.func.coeffs)
            cs += [0] * (k0 - len(cs))
            cs[k0 - 1] += delta
            walls[i] = Wall(w.normal, "ray", ray_dir, WallFunction(m0, cs))
            return
    n = _outgoing_normal(fd, p)
    cs = [0] * k0
    cs[k0 - 1] = delta
    walls.append(Wall(n, "ray", ray_dir, WallFunction(m0, cs)))


def complete_rank2(fd, order):
    """Complete the initial diagram to consistency at the given truncation order."""
    return complete_diagram(fd, initial_diagram(fd, order))


def matches_completion(fd, walls, order):
    """Whether the walls are those of complete_rank2(fd, order) in some order,
    compared by normal, kind, direction, function direction and coefficients."""
    return tuple(sorted(map(_wall_value, walls))) == _completion_by_value(fd, order)


def _wall_value(w):
    return w.normal, w.kind, w.direction, w.func.direction, w.func.coeffs


@functools.lru_cache(maxsize=16)
def _completion_by_value(fd, order):
    """The sorted wall values of complete_rank2 at the order, completed once
    per fixed data, equal ones shared, and order."""
    return tuple(sorted(map(_wall_value, complete_rank2(fd, order).walls)))


def complete_diagram(fd, diagram):
    """The completed diagram, a new Diagram: outgoing-ray corrections are
    added until the loop acts trivially.  Idempotent; the diagram given is
    left as it is.

    Each round's corrections go into a working wall list, and the next
    round's loop reads a Diagram made of it.
    """
    walls = list(diagram.walls)
    current = diagram
    for _ in range(MAX_ROUNDS):
        disc = loop_discrepancy(fd, current)
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
            eps = _side(scaled_normal(fd, n), rot90(vneg(p)))
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
            # n0p != 0 pairs to w != 0 with some e_j, so delta is set; some
            # generator sees c != 0, so its w != 0 and its d_j != 0 or the
            # loop has raised: delta != 0
            _insert_correction(fd, walls, p, delta)
        current = Diagram(diagram.fd, walls, diagram.order, False)
    else:
        raise RuntimeError("completion did not stabilize")
    walls = [w for w in walls if not w.func.is_one()]
    saturated = all(cone_order(fd, vscale(k, w.func.direction)) < diagram.order
                    for w in walls for k, _ in w.func.terms())
    return Diagram(diagram.fd, walls, diagram.order, saturated)


def leg_crossings(fd, diagram, a, b):
    """The wall families (brokenline._Family) of the half-lines the open
    segment a -> b crosses, in order along the leg; a family's walls are in
    diagram order.  a and b are rational pairs or homogeneous triples
    (geometry.homogeneous).

    Raises when the leg hits the origin, when an endpoint lies on a wall,
    or when the leg runs inside a wall.  A leg that misses the origin turns
    through less than a half-turn, so it crosses the half-lines of the
    search form that its walk from a meets strictly before b.  A radial leg
    crosses none, so every crossing leg is not parallel to its half-line.
    """
    x, y, q = a = homogeneous(a)
    X, Y, Q = b = homogeneous(b)
    if not (x or y) or not (X or Y) or (x * Y == y * X and x * X + y * Y < 0):
        raise ValueError("path passes through the origin")
    form = search_form(fd, diagram)
    if x * Y == y * X:
        # a radial leg stays on the ray through a
        if form.families(a):
            raise ValueError("path runs inside a wall")
        return []
    if form.families(a) or form.families(b):
        raise ValueError("path endpoint lies on a wall")
    out = []
    for i, _, _ in form.walk(x, y, q, X * q - x * Q, Y * q - y * Q, form.near(x, y)):
        hx, hy = form._halves[i]
        # h is before b while cross(h, b) has the sign of cross(a, b)
        if (hx * Y - hy * X > 0) != (x * Y - y * X > 0):
            break
        out.append(form.fams[i])
    return out


def path_ordered_product(fd, diagram, path, p):
    """Transport a truncated Laurent polynomial along a generic polyline of
    rational points: one wall_cross per half-line a leg crosses
    (leg_crossings), by its family's product function.  The points are read
    as homogeneous integer triples, and the side of a crossing from the
    direction of travel scaled to integers."""
    path = [homogeneous(pt) for pt in _rational_points(path, "path", "path point %d")]
    search_form(fd, diagram)  # fd must be the diagram's, whatever the path
    if not isinstance(p, LaurentPoly):
        raise ValueError("p must be a LaurentPoly, got %r" % (p,))
    out = p
    for a, b in zip(path, path[1:]):
        (x, y, q), (X, Y, Q) = a, b
        travel = (X * q - x * Q, Y * q - y * Q)  # q * Q * (b - a)
        for fam in leg_crossings(fd, diagram, a, b):
            out = wall_cross(fd, out, fam, _side(fam.a, travel))
    return out
