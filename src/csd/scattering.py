"""Rank-2 scattering diagrams: walls, their half-line index, consistency
loops, completion.

A diagram is a finite set of walls truncated at a fixed order, indexed by
the half-lines they cover; the broken-line search, transport and
completion all read that index (Diagram).  Completion inserts outgoing
rays order by order until the counterclockwise loop around the origin acts
trivially on both coordinate monomials up to the truncation.
"""

import functools
from bisect import bisect_left
from fractions import Fraction
from math import comb, gcd

from .geometry import (vsub, vneg, vscale, is_zero, primitive, line_key, same_ray, rot90,
                       ccw_key, homogeneous, _rational_points)
from .lattice import (FixedData, CLUSTERS, pairing, p1_star, n_circ_primitive, line_dir,
                      scaled_normal, cone_order, solve_linear)
from .series import WallFunction, LaurentPoly, wall_cross, wf_mul, _pow_coeffs, _lattice_vector


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
        if not isinstance(func, WallFunction):
            raise ValueError("func must be a WallFunction, got %r" % (func,))
        self.func = func

    def __repr__(self):
        return "Wall(n=%r, %s dir=%r, f=%r)" % (self.normal, self.kind, self.direction, self.func)


class _Family:
    """Walls through one support line, in diagram order: primitive normal n0
    in N°, direction m0 and product function f.  The normal is also kept
    scaled by L, so a bending power is an integer dot product.  m0 =
    (cn*g1 + dn*g2)/D in the monoid generators, D = |cross(g1, g2)|, so its
    cone order is the integer numerator cn + dn over D, and the coordinates
    of k*m0 are integers exactly when step = D / gcd(cn, dn, D) divides k.
    Powers of f are tabulated.

    Crossing the family once, z^m -> z^m * f^(s*<n0', m>), is crossing its
    walls one by one (apply_loop, path_ordered_product).  The walls share
    m0 and <n0', m0> = 0, so each crossing keeps <n0', m> and multiplies
    z^m by f_i to that one power: the crossings commute and
    compose to (f_1 ... f_r)^(s*<n0', m>) = f^(s*<n0', m>), whichever
    normal each wall has: a wall with normal -n0 crosses with the opposite
    sign s and the opposite pairing, so with the same power.
    Truncating after each crossing drops only terms above the order, and a
    later crossing only raises the order of a term, so it changes nothing
    below it.
    """

    __slots__ = ("walls", "n0", "m0", "f", "a", "cn", "dn", "step", "order", "powers")

    def __init__(self, fd, walls):
        self.walls = walls
        self.n0 = n_circ_primitive(fd, walls[0].normal)
        self.m0 = walls[0].func.direction
        f = walls[0].func
        for w in walls[1:]:
            f = wf_mul(f, w.func, len(f.coeffs) + len(w.func.coeffs))
        self.f = f
        self.a = scaled_normal(fd, self.n0)
        ux, uy, vx, vy, D = fd.order_form
        sx, sy = self.m0
        u, v = ux * sx + uy * sy, vx * sx + vy * sy
        self.cn, self.dn = u, v
        self.step = D // gcd(u, v, D)
        self.order = u + v
        self.powers = {}

    def cap(self, A, B):
        """The largest k with k*cn <= A and k*dn <= B, for A, B >= 0."""
        if not self.cn:
            return B // self.dn
        if not self.dn:
            return A // self.cn
        return min(A // self.cn, B // self.dn)

    def power_terms(self, pw, top):
        """Nonzero terms (k, c) of f^pw, for any integer pw, whose shift k*m0
        has order numerator at most top, by ascending k.

        Each table is computed once per (pw, top) and kept with the family,
        so with its diagram: the search (brokenline._trace, allowed_bends)
        asks for |pw| at top = K * D, and series.wall_cross, which every
        crossing of the loop, a path and theta's transport goes through,
        for the signed pw at the order numerator of the polynomial it
        crosses."""
        terms = self.powers.get((pw, top))
        if terms is None:
            bs = _pow_coeffs(self.f, pw, top // self.order)
            terms = self.powers[(pw, top)] = [(n, b) for n, b in enumerate(bs) if n and b]
        return terms

    def coefficient(self, pw, k):
        """The coefficient of z^(k*m0) in f^pw, for pw >= 0 and k >= 1.  For a
        one-term f = 1 + c*z^(j*m0) it is the binomial C(pw, k/j) * c^(k/j),
        cheap even at the very high orders that bend checks of glued segments
        ask for."""
        ts = self.f.terms()
        if len(ts) == 1:
            (j, c), = ts
            r, rest = divmod(k, j)
            # r > pw would still raise c to the huge power r
            return 0 if rest or r > pw else comb(pw, r) * c ** r
        return _pow_coeffs(self.f, pw, k)[k]


def _turn(x, y, q, mx, my):
    """cross((x, y), m), which is > 0 when the ray (x, y)/q + t*m, t > 0,
    turns counterclockwise.  Raises ValueError when the ray runs into the
    origin."""
    s = x * my - y * mx
    if s == 0 and x * mx + y * my < 0:
        # the traced ray would pass through the singular origin, silently
        # losing a family of lines; the endpoint must be perturbed
        raise ValueError("trajectory with exponent %r from %r runs into the "
                         "origin; endpoint is not generic, perturb it"
                         % ((mx, my), (Fraction(x, q), Fraction(y, q))))
    return s


class Diagram:
    """A scattering diagram: fixed data, walls, truncation order and whether
    completion saturated it, with its walls indexed into half-lines and its
    caches.  It never changes.

    The fixed data must be a FixedData, the order an int >= 0, saturated a
    bool and each wall a Wall.  The walls are a tuple, checked against the
    fixed data once, here: a wall's direction and its function direction lie
    on the line of its normal, and the function direction lies in the cone
    sigma of the monoid (lattice.cone_order is not None).  The search reads a bend's power off the pairing with the normal
    alone, and never meets a wall off that line; sigma is pointed, so the
    walls of a line share one m0.  A wall that fails raises a ValueError
    that starts "wall i: ".

    The diagram is the one wall index.  The backward broken-line search,
    transport along a path and around the origin, theta's transport and
    completion (leg_crossings, apply_loop) and bend checks
    (brokenline.bend_coefficient, allowed_bends) all read its families.
    Each side of a support line that some wall covers is a half-line from
    the origin, and the walls through a nonzero point are those of its
    half-line.  The diagram keeps the half-lines as primitive directions in
    counterclockwise order (geometry.ccw_key), a position on the circle of
    directions as the pair (cw, ccw) of indices of its neighbouring
    half-lines (see near), and, in lists indexed by half-line, the _Family
    of its walls in diagram order (fams, built with the diagram; its power
    tables fill on use) and their direction m0.  families(point) gives the
    families through a point, the empty list off every wall.

    walk is the one walker of that list.  Take a ray P + t*v, t > 0, with
    s = cross(P, v) != 0.  Seen from the origin its angle moves strictly
    monotonically from arg P toward arg v, through an arc shorter than pi,
    clockwise or counterclockwise as the sign of s says.  So the ray meets
    a half-line h exactly when h lies strictly inside that arc, and it
    meets such half-lines in their angular order: walk starts at the
    neighbour of P on the side of s and goes on while the next half-line
    is still inside the arc.  meets tells, with two cross products,
    whether a walk has a first step, and dead asks it for a walk from a bend
    site.

    Points are pairs or reduced homogeneous triples (X, Y, Q) as
    geometry.homogeneous gives them; the search builds its bend sites as
    triples (brokenline._site) and tests the monoid on fd.order_form.  Bend
    coefficients are ints, read from tables of powers of f.  The diagram
    holds these caches:

    - the families at the origin, one per support line, built on first use;
    - thetas: theta functions, keyed by (m, endpoint, K);
    - alphas: alpha tables, keyed by (unordered pair {p, q}, K);
    - products: theta products at constructions.EXPANSION_ENDPOINT, keyed
      by (unordered pair {p, q}, K);
    - whether the walls are a complete diagram of finite type
      (complete_finite), computed once;
    - the closed chambers of each exponent one_cone has read.

    Nothing is evicted.  Each entry is a value the diagram was asked for, so
    a cache grows only with the half-lines, (pair, K) and (m, endpoint, K)
    its callers request, and it is dropped with the diagram, which never
    changes, so no entry goes stale.  A diagram is hashed by identity.
    """

    def __init__(self, fd, walls, order, saturated):
        if not isinstance(fd, FixedData):
            raise ValueError("fd must be a FixedData, got %r" % (fd,))
        if type(order) is not int or order < 0:
            raise ValueError("order must be an integer >= 0, got %r" % (order,))
        if type(saturated) is not bool:
            raise ValueError("saturated must be true or false, got %r" % (saturated,))
        self.fd = fd
        self.walls = tuple(walls)
        self.order = order
        self.saturated = saturated
        for i, w in enumerate(self.walls):
            if not isinstance(w, Wall):
                raise ValueError("wall %d: not a Wall: %r" % (i, w))
            lx, ly = line_dir(fd, w.normal)
            (dx, dy), (mx, my) = w.direction, w.func.direction
            if lx * dy != ly * dx:
                raise ValueError("wall %d: %s wall with normal %r has direction %r off the "
                                 "line of its normal" % (i, w.kind, w.normal, w.direction))
            if lx * my != ly * mx:
                raise ValueError("wall %d: wall with normal %r has function direction %r off "
                                 "the line of its normal" % (i, w.normal, w.func.direction))
            if cone_order(fd, w.func.direction) is None:
                raise ValueError("wall %d: wall with normal %r has function direction %r "
                                 "outside the cone of the monoid" % (i, w.normal, w.func.direction))
        # each covered half-line, by its primitive direction: its walls in
        # diagram order; every direction lies on the line of its wall's
        # normal, as checked above
        walls_at = {}
        for w in self.walls:
            h = w.direction
            for side in ((h,) if w.kind == "ray" else (h, (-h[0], -h[1]))):
                walls_at.setdefault(side, []).append(w)
        self._halves = sorted(walls_at, key=ccw_key)
        n = len(self._halves)
        self._index = {h: i for i, h in enumerate(self._halves)}
        self._around = [((i - 1) % n, (i + 1) % n) for i in range(n)]
        # the two halves of a line that no ray shares share one family
        shared = {}
        self.fams = []
        for h in self._halves:
            ws = tuple(walls_at[h])
            if ws not in shared:
                shared[ws] = _Family(fd, ws)
            self.fams.append(shared[ws])
        self._m0 = [fam.m0 for fam in self.fams]
        self._origin = None
        self.thetas = {}
        self.alphas = {}
        self.products = {}
        self._finite = None
        self._cones = {}

    def _half(self, point):
        """The index of the half-line through the point, None if there is none
        or the point is the origin."""
        x, y, _ = homogeneous(point)
        g = gcd(x, y) or 1
        return self._index.get((x // g, y // g))

    def near(self, x, y):
        """Indices (cw, ccw) of the half-lines next to the direction of (x, y) != 0.

        For a point on half-line i they are the neighbours of i.  With no
        half-lines the pair is (0, 0), which walk never reads.
        """
        n = len(self._halves)
        if not n:
            return 0, 0
        j = bisect_left(self._halves, ccw_key((x, y)), key=ccw_key)
        if j < n:
            hx, hy = self._halves[j]
            if hx * y == hy * x and hx * x + hy * y > 0:
                return self._around[j]
        return (j - 1) % n, j % n

    def walk(self, x, y, q, mx, my, near):
        """The half-lines the open ray (x, y)/q + t*(mx, my), t > 0, meets, in t order.

        near is the pair (cw, ccw) of half-lines next to (x, y), as near
        gives it.  Yields (i, td, tn): the ray meets half-line i at
        t = tn / (q * td), with td, tn > 0.  A ray that points straight
        away from the origin meets none.  Raises ValueError when the ray
        runs into the origin.
        """
        s = _turn(x, y, q, mx, my)
        if s == 0:
            return
        halves = self._halves
        n = len(halves)
        step = 1 if s > 0 else -1
        i = near[s > 0]
        # at most one lap: the arc may hold every half-line
        for _ in range(n):
            hx, hy = halves[i]
            # h lies inside the arc when cross(P, h) and cross(h, m) both
            # have the sign of s
            td = hx * my - hy * mx
            tn = hy * x - hx * y
            if s < 0:
                td, tn = -td, -tn
            if td <= 0 or tn <= 0:
                return
            yield i, td, tn
            i = (i + step) % n

    def meets(self, x, y, i, mx, my):
        """Whether the ray (x, y) + t*(mx, my), t > 0, with s = cross((x, y), m)
        != 0, meets half-line i: whether a walk that starts at i, the
        neighbour of (x, y) on the side of s, has a first step."""
        hx, hy = self._halves[i]
        a, b = x * hy - y * hx, hx * my - hy * mx
        if x * my - y * mx > 0:
            return a > 0 and b > 0
        return a < 0 and b < 0

    def dead(self, i, mx, my):
        """True when the ray from a point of half-line i along (mx, my) meets
        no half-line and does not run into the origin: when the walk from
        h_i has no first step."""
        hx, hy = self._halves[i]
        s = hx * my - hy * mx
        if not s:
            # straight out is dead; into the origin is not, so that walk
            # raises for it
            return hx * mx + hy * my > 0
        return not self.meets(hx, hy, self._around[i][s > 0], mx, my)

    def complete_finite(self):
        """Whether the walls are those of the consistent diagram of a finite
        type up to the order, computed once per diagram; one_cone and theta
        read it.

        The guard is exact: it holds only when fd is of finite type, the
        diagram has as many half-lines as there are clusters (lattice.CLUSTERS)
        and its walls are those of complete_rank2(fd, order) by value.  On
        finite type the limit cone C is empty, the consistent diagram has one
        half-line per cluster and its closed chambers are the cluster cones
        (Reading, "Scattering fans", arXiv:1712.06968).  Completion at the
        order agrees with that diagram in every term of order at most the
        order, and with one half-line per cluster it has all of its
        half-lines, so its chambers are the cluster cones too.  The guard
        fails for a truncated diagram that misses a half-line, such as G2
        below order 5, for an edited wall, and on every infinite type, whose
        truncated chambers are wrong near C.
        """
        if self._finite is None:
            fd = self.fd
            self._finite = (fd.is_finite_type() and len(self._halves) == CLUSTERS[fd.bc]
                            and matches_completion(fd, self.walls, self.order))
        return self._finite

    def one_cone(self, p, q):
        """Whether theta_p * theta_q = theta_{p+q} holds because p and q lie
        in one closed chamber of a complete diagram of finite type
        (complete_finite).

        Cluster monomials are theta functions (GHKK, arXiv:1411.1394,
        Thm 0.3), and the cluster monomials of one cluster multiply to the
        cluster monomial of the summed g-vector.  In rank 2 the cones of the
        cluster complex are the chambers of the diagram outside C, which on
        finite type are all of them.  So for p and q in one closed chamber
        alpha(p, q, .) is 1 at p + q and 0 elsewhere.  Otherwise the answer
        is False.
        """
        return self.complete_finite() and bool(self._chambers(p) & self._chambers(q))

    def _chambers(self, m):
        """The bitmask of closed chambers that hold the exponent m, kept per m;
        chamber i runs counterclockwise from half-line i to i + 1."""
        mask = self._cones.get(m)
        if mask is None:
            if any(m):
                cw, ccw = self.near(*m)
                # inside chamber cw, ccw is cw + 1; on half-line j they are
                # j - 1 and j + 1, and j - 1 and j are its chambers
                mask = 1 << cw | 1 << (ccw - 1) % len(self._halves)
            else:
                mask = -1
            self._cones[m] = mask
        return mask

    def families(self, point):
        """Families of the walls through the point, grouped by support line:
        the family of its half-line, every line's at the origin, and none
        off the walls."""
        i = self._half(point)
        if i is not None:
            return [self.fams[i]]
        if any(point[:2]):
            return []
        if self._origin is None:
            groups = {}
            for w in self.walls:
                groups.setdefault(line_key(w.normal), []).append(w)
            self._origin = [_Family(self.fd, tuple(ws)) for ws in groups.values()]
        return self._origin


def search_form(fd, diagram):
    """The diagram, checked: it must be a Diagram and fd its fixed data, or
    equal to it.  Every entry point that takes (fd, diagram) checks both
    here, before it reads the diagram."""
    if not isinstance(diagram, Diagram):
        raise ValueError("diagram must be a Diagram, got %r" % (diagram,))
    if fd is not diagram.fd and fd != diagram.fd:
        raise ValueError("fixed data %r does not match the diagram's %r" % (fd, diagram.fd))
    return diagram


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

    The loop crosses the half-lines of the diagram counterclockwise from
    the positive x-axis, each with one wall_cross by its family's product
    function, which is crossing its walls one by one (_Family).
    """
    search_form(fd, diagram)
    out = p
    for h, fam in zip(diagram._halves, diagram.fams):
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
    """Primitive normal n with n mapped onto the ray of p by the skew form.

    solve_linear fails only on dependent columns, and the exchange rows
    (0, e01) and (e10, 0) have determinant -e01*e10, which FixedData makes
    nonzero."""
    return line_key(solve_linear(fd.exchange, primitive(p)))


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
    round's loop reads a Diagram made of it.  A round cancels the
    discrepancy of least order k, as in the Kontsevich-Soibelman lemma
    (GHKK, arXiv:1411.1394, Thm 1.21).  What follows rests only on the wall
    checks of Diagram (each normal orthogonal to its m0, and m0 in sigma
    minus 0) and on FixedData, so it holds for every Diagram, an edited one
    included.

    One derivation per exponent.  Crossing a family is exp of an element of
    the graded Lie algebra g = sum of z^p (x) p^perp over p in sigma minus 0
    (GHKK 1.1).  g is closed under the bracket, and every nonzero cone
    order is a multiple of 1/D, D = fd.order_form[4], so each graded piece
    has order >= 1/D.  So the log of the loop is L = L_k + (order > k), and
    the loop takes z^(e_j) to z^(e_j) * (1 + sum_p c_p*<n_p, e_j>*z^p) at
    order k, with L_k = sum_p c_p * z^p (x) n_p over the exponents p of
    order k and n_p = n_circ_primitive of _outgoing_normal(fd, p).  In rank
    2, p^perp is the line of that normal n, as <n, p1*(n)> = {n, n} = 0.
    So generator j sees c_p*<n_p, e_j> at p: nothing where the pairing is
    0, and the same correction from both generators.  It is read once,
    from e_0 when n_p[0] != 0 (<n_p, e_0> = n_p[0]/d_0) and from e_1
    otherwise; n_p != 0, so the pairing read is nonzero, and every p listed
    has c_p != 0, so the correction is nonzero.  It is an exact integer
    division; wall functions have integer coefficients, so a remainder
    raises ArithmeticError("non-integral correction ...").

    A round bound read from the order.  The correction delta*z^p on the ray
    through -p changes the log of the loop by eps*delta*z^p (x) n_p at order
    k, whether _insert_correction appends a wall or adds to the function of
    one it finds there; conjugating by the other crossings only adds
    brackets, of order > k.  So the round cancels L_k, and the least order
    of the discrepancy rises by at least 1/D.  It starts at 1/D or above,
    and series._kept drops every term above the diagram's order, so at most
    order*D rounds find a discrepancy, and round order*D + 1 finds none.  A
    loop that is still not trivial then has met a wrong correction, and
    raises RuntimeError("completion did not stabilize").
    """
    walls = list(search_form(fd, diagram).walls)
    current = diagram
    for _ in range(diagram.order * fd.order_form[4] + 1):
        disc = loop_discrepancy(fd, current)
        if not any(disc):
            break
        k = min(cone_order(fd, e) for d in disc for e in d)
        for p in sorted({e for d in disc for e in d if cone_order(fd, e) == k}):
            n = _outgoing_normal(fd, p)
            n0p = n_circ_primitive(fd, n)
            eps = _side(scaled_normal(fd, n), rot90(vneg(p)))
            j = 0 if n0p[0] else 1
            w = pairing(fd, n0p, ((1, 0), (0, 1))[j])
            c = disc[j].get(p, 0)
            delta, r = divmod(-c * w.denominator, eps * w.numerator)
            if r:
                raise ArithmeticError("non-integral correction %s / %s at %r" % (-c, eps * w, p))
            _insert_correction(fd, walls, p, delta)
        current = Diagram(diagram.fd, walls, diagram.order, False)
    else:
        raise RuntimeError("completion did not stabilize")
    walls = [w for w in walls if not w.func.is_one()]
    saturated = all(cone_order(fd, vscale(k, w.func.direction)) < diagram.order
                    for w in walls for k, _ in w.func.terms())
    return Diagram(diagram.fd, walls, diagram.order, saturated)


def leg_crossings(fd, diagram, a, b):
    """The wall families (_Family) of the half-lines the open
    segment a -> b crosses, in order along the leg; a family's walls are in
    diagram order.  a and b are rational pairs or homogeneous triples
    (geometry.homogeneous).

    Raises when the leg hits the origin, when an endpoint lies on a wall,
    or when the leg runs inside a wall.  A leg that misses the origin turns
    through less than a half-turn, so it crosses the half-lines of the
    diagram that its walk from a meets strictly before b.  A radial leg
    crosses none, so every crossing leg is not parallel to its half-line.
    """
    x, y, q = a = homogeneous(a)
    X, Y, Q = b = homogeneous(b)
    if not (x or y) or not (X or Y) or (x * Y == y * X and x * X + y * Y < 0):
        raise ValueError("path passes through the origin")
    search_form(fd, diagram)
    if x * Y == y * X:
        # a radial leg stays on the ray through a
        if diagram.families(a):
            raise ValueError("path runs inside a wall")
        return []
    if diagram.families(a) or diagram.families(b):
        raise ValueError("path endpoint lies on a wall")
    out = []
    for i, _, _ in diagram.walk(x, y, q, X * q - x * Q, Y * q - y * Q, diagram.near(x, y)):
        hx, hy = diagram._halves[i]
        # h is before b while cross(h, b) has the sign of cross(a, b)
        if (hx * Y - hy * X > 0) != (x * Y - y * X > 0):
            break
        out.append(diagram.fams[i])
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
