"""Broken lines, theta functions and segments.

A broken line is traced backward from its endpoint: a ray escaping to
infinity, bending at wall crossings.  Pieces are stored unbounded-first;
each carries the exponent of its attached monomial, the cumulative
coefficient (an int), and the point where it bends into the next piece.
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .geometry import (vsub, vneg, vscale, is_zero, primitive, same_ray, cross, dot,
                       ccw_key, homogeneous, rational, is_rational)
from .lattice import pairing, n_circ_primitive, scaled_normal, order_form
from .series import wf_mul, wf_coeff_pow, _pow_coeffs, _integer, LaurentPoly


class Piece:
    def __init__(self, exponent, coeff=1, bend_point=None, duration=None):
        self.exponent = tuple(exponent)
        self.coeff = _integer(coeff)
        self.bend_point = None if bend_point is None else tuple(bend_point)
        self.duration = duration

    def __repr__(self):
        return "Piece(m=%r, c=%r, at=%r, dt=%r)" % (
            self.exponent, self.coeff, self.bend_point, self.duration)


class BrokenLine:
    """Pieces unbounded-first; bend_point of a piece is where it ends."""

    def __init__(self, endpoint, pieces):
        self.endpoint = tuple(endpoint)
        self.pieces = list(pieces)

    @property
    def initial(self):
        return self.pieces[0].exponent

    @property
    def final(self):
        return self.pieces[-1].exponent

    @property
    def coeff(self):
        return self.pieces[-1].coeff

    def signature(self):
        return tuple((p.exponent, p.bend_point or ()) for p in self.pieces)

    def __repr__(self):
        return "BrokenLine(end=%r, %r)" % (self.endpoint, self.pieces)


class Segment:
    """A finite broken-line segment; pieces carry rational durations.

    Velocity on a piece is minus its exponent; duration None marks a
    degenerate (zero-length) domain.
    """

    def __init__(self, start, end, pieces, total_time):
        self.start = tuple(start)
        self.end = tuple(end)
        self.pieces = list(pieces)
        self.total_time = Fraction(total_time)

    def positions(self):
        """Position at the start of each piece, plus the final position."""
        out = [self.start]
        pos = self.start
        for p in self.pieces:
            if p.duration is not None:
                pos = vsub(pos, vscale(p.duration, p.exponent))
            out.append(pos)
        return out

    def __repr__(self):
        return "Segment(%r -> %r, T=%r, %r)" % (self.start, self.end, self.total_time, self.pieces)


class _Family:
    """Walls through one support line: primitive normal n0 in N°, direction
    m0 and product function f.  The normal is also kept scaled by L, so a
    bending power is an integer dot product.  m0 = (cn*g1 + dn*g2)/D in the
    monoid generators, D = |cross(g1, g2)|, so its cone order is the integer
    numerator cn + dn over D, and the coordinates of k*m0 are integers
    exactly when step = D / gcd(cn, dn, D) divides k.  Powers of f are
    tabulated."""

    __slots__ = ("n0", "m0", "f", "a", "cn", "dn", "step", "order", "powers")

    def __init__(self, fd, walls):
        self.n0 = n_circ_primitive(fd, walls[0].normal)
        self.m0 = walls[0].func.direction
        f = walls[0].func
        for w in walls[1:]:
            if w.func.direction != self.m0:
                raise ValueError("walls sharing a support line disagree on function direction")
            f = wf_mul(f, w.func, len(f.coeffs) + len(w.func.coeffs))
        self.f = f
        self.a = scaled_normal(fd, self.n0)
        ux, uy, vx, vy, D = order_form(fd)
        sx, sy = self.m0
        u, v = ux * sx + uy * sy, vx * sx + vy * sy
        if u < 0 or v < 0:
            raise ValueError("wall function direction outside the cone")
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
        """Nonzero terms (k, c) of f^pw whose shift k*m0 has order numerator
        at most top, by ascending k."""
        terms = self.powers.get((pw, top))
        if terms is None:
            bs = _pow_coeffs(self.f, pw, top // self.order)
            terms = self.powers[(pw, top)] = [(n, b) for n, b in enumerate(bs) if n and b]
        return terms


def _line_key(x, y):
    """The primitive direction of the line through 0 and (x, y), first nonzero entry > 0."""
    g = gcd(x, y)
    if g == 0:
        raise ValueError("zero normal")
    if x < 0 or (x == 0 and y < 0):
        g = -g
    return x // g, y // g


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


class SearchForm:
    """A diagram's walls compiled for the backward broken-line search.

    Every wall lies on a line through the origin.  Each side of a support
    line that some wall covers is a half-line from the origin, and the
    walls through a nonzero point are those of its half-line.  The form
    keeps the half-lines as primitive directions in counterclockwise order
    (geometry.ccw_key), a position on the circle of directions as the pair
    (cw, ccw) of indices of its neighbouring half-lines (see near), and,
    in lists indexed by half-line, the walls, their direction m0 and their
    _Family (family, built on first use, with its power tables).

    walk is the one walker of that list.  Take a ray P + t*v, t > 0, with
    s = cross(P, v) != 0.  Seen from the origin its angle moves strictly
    monotonically from arg P toward arg v, through an arc shorter than pi,
    clockwise or counterclockwise as the sign of s says.  So the ray meets
    a half-line h exactly when h lies strictly inside that arc, and it
    meets such half-lines in their angular order: walk starts at the
    neighbour of P on the side of s and goes on while the next half-line
    is still inside the arc.  ray_events lists the sites of a walk, and
    dead tells whether a walk from a bend site has a first step.

    The form also holds the cone coordinates that give bends its exact
    monoid test, and the diagram's caches.  Points are pairs or reduced
    homogeneous triples (X, Y, Q) as geometry.homogeneous gives them; the
    search passes its sites to allowed_bends as triples.  Bend coefficients
    are ints, read from tables of powers of f.

    - families: wall families, one per wall tuple of a half-line (the two
      halves of a line share one), plus the families at the origin;
    - arcs: the arc cones of each half-line, per (initial exponent, sense);
    - thetas: theta functions, keyed by (m, endpoint, K);
    - alphas: alpha tables, keyed by (unordered pair {p, q}, K);
    - products: theta products at the expansion endpoint, keyed by
      (unordered pair {p, q}, K);
    - endpoint: the expansion endpoint, computed once.

    Nothing is evicted.  Each entry is a value the diagram was asked for, so
    a cache grows only with the half-lines, (pair, K) and (m, endpoint, K)
    its callers request, and it is dropped with the form.  The form is
    built by search_form on the first search and reset by
    scattering.complete_diagram, the only code that changes walls.
    """

    def __init__(self, fd, walls):
        self.fd = fd
        self.L = fd.L
        self._all = tuple(walls)
        # each covered half-line, by its primitive direction: its walls in
        # diagram order
        walls_at = {}
        for w in walls:
            a = scaled_normal(fd, w.normal)
            u = _line_key(-a[1], a[0])
            if w.kind != "ray":
                sides = (u, (-u[0], -u[1]))
            elif cross(u, w.direction) == 0:
                sides = (u if dot(u, w.direction) > 0 else (-u[0], -u[1]),)
            else:
                continue
            for h in sides:
                walls_at.setdefault(h, []).append(w)
        self._halves = sorted(walls_at, key=ccw_key)
        n = len(self._halves)
        self._index = {h: i for i, h in enumerate(self._halves)}
        self._around = [((i - 1) % n, (i + 1) % n) for i in range(n)]
        self._walls = [tuple(walls_at[h]) for h in self._halves]
        self._m0 = [ws[0].func.direction for ws in self._walls]
        self._fams = [None] * n
        # m = (A*g1 + B*g2)/D with A = ux*m0 + uy*m1 and B = vx*m0 + vy*m1
        self._cone = order_form(fd)
        self._families = {}
        self._origin = None
        self._arcs = {}
        self.thetas = {}
        self.alphas = {}
        self.products = {}
        self.endpoint = None

    def _half(self, point):
        """The index of the half-line through the point, None if there is none
        or the point is the origin."""
        x, y, _ = homogeneous(point)
        g = gcd(x, y) or 1
        return self._index.get((x // g, y // g))

    def walls_through(self, point):
        """The walls whose support contains the point."""
        i = self._half(point)
        if i is None:
            return () if any(point[:2]) else self._all
        return self._walls[i]

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

    def ray_events(self, x, y, q, mx, my, near):
        """Bend sites of the open ray (x, y)/q + t*(mx, my), t > 0, in t order.

        The sites of walk: each event is (site, i), the reduced homogeneous
        triple (X, Y, Q), Q > 0, of the point where the ray crosses
        half-line i; the walls of one half-line give one site.
        """
        return [(_site(x, y, q, mx, my, td, tn), i)
                for i, td, tn in self.walk(x, y, q, mx, my, near)]

    def dead(self, i, mx, my):
        """True when the ray from a point of half-line i along (mx, my) meets
        no half-line and does not run into the origin: when the walk from
        h_i has no first step."""
        hx, hy = self._halves[i]
        if hx * my == hy * mx:
            # straight out is dead; into the origin is not, so that walk
            # raises for it
            return hx * mx + hy * my > 0
        return next(self.walk(hx, hy, 1, mx, my, self._around[i]), None) is None

    def family(self, i):
        """The wall family of half-line i, built on first use and shared by
        the half-lines with the same walls."""
        fam = self._fams[i]
        if fam is None:
            walls = self._walls[i]
            fam = self._families.get(walls)
            if fam is None:
                fam = self._families[walls] = _Family(self.fd, walls)
            self._fams[i] = fam
        return fam

    def arcs(self, t, ccw):
        """The _Arcs of the initial exponent t and sense ccw, kept on the form."""
        arcs = self._arcs.get((t, ccw))
        if arcs is None:
            arcs = self._arcs[t, ccw] = _Arcs(self, t, ccw)
        return arcs

    def families(self, point):
        """Families of the walls through the point, grouped by support line."""
        i = self._half(point)
        if i is not None:
            return [self.family(i)]
        if any(point[:2]):
            return []
        if self._origin is None:
            groups = {}
            for w in self._all:
                key = tuple(abs(c) for c in primitive(n_circ_primitive(self.fd, w.normal)))
                groups.setdefault(key, []).append(w)
            self._origin = [_Family(self.fd, ws) for ws in groups.values()]
        return self._origin

    def bends(self, point, m_in, K, shift=None):
        """Exponents reachable by bending m_in at the point, as in allowed_bends.

        Without a shift, every bend whose shift k*m0 has order at most K is
        listed.  With the remaining shift p = (A*g1 + B*g2)/D of a search,
        which lies in the monoid, k*m0 is listed exactly when p - k*m0 lies
        in the monoid too: when step divides k, k*cn <= A and k*dn <= B.
        """
        fams = self.families(point)
        if not fams:
            raise ValueError("point %r lies on no wall" % (point,))
        mx, my = m_in
        ux, uy, vx, vy, D = self._cone
        top = K * D
        if shift is not None:
            A = ux * shift[0] + uy * shift[1]
            B = vx * shift[0] + vy * shift[1]
        out = [((mx, my), 1)]
        for fam in fams:
            pw = fam.a[0] * mx + fam.a[1] * my
            if pw % self.L:
                raise ValueError("non-integral bending power")
            pw = abs(pw) // self.L
            if pw == 0:
                continue
            if shift is None:
                kcap, step = top // fam.order, 1
            else:
                kcap, step = fam.cap(A, B), fam.step
            if kcap < step:
                continue
            sx, sy = fam.m0
            for k, c in fam.power_terms(pw, top):
                if k > kcap:
                    break
                if k % step == 0:
                    out.append(((mx + k * sx, my + k * sy), c))
        return out


class _Arcs(dict):
    """Arc cones for one initial exponent t and one sense of turning:
    half-line i -> cone(h_i), built on first use.

    guard is True when -t lies in the cone of the monoid; admits then lets
    every node whose exponent lies in that cone through (see
    enumerate_lines).  The form's lists are copied by reference and the
    form itself is not kept, so a form and its arcs make no cycle.
    """

    __slots__ = ("halves", "m0", "order", "t", "ccw", "guard")

    def __init__(self, form, t, ccw):
        super().__init__()
        self.halves, self.m0, self.order = form._halves, form._m0, form._cone
        ux, uy, vx, vy, _ = self.order
        self.t, self.ccw = t, ccw
        self.guard = ux * t[0] + uy * t[1] <= 0 and vx * t[0] + vy * t[1] <= 0

    def __missing__(self, i):
        cone = self[i] = self.cone(self.halves[i])
        return cone

    def cone(self, x):
        """The cone spanned by the m0 of the half-lines strictly inside the
        arc of directions from x to t, in the sense of ccw: (e1, e2) as the
        flat tuple (e1x, e1y, e2x, e2y), every such m0 lying counterclockwise
        from e1 and clockwise from e2 (the m0 lie in the cone of the monoid,
        which is narrower than pi), or None when no half-line is inside.
        """
        (x0, x1), (t0, t1) = (x, self.t) if self.ccw else (self.t, x)
        c = x0 * t1 - x1 * t0
        e1 = e2 = None
        for (hx, hy), m in zip(self.halves, self.m0):
            a, b = x0 * hy - x1 * hx, hx * t1 - hy * t0
            # an arc up to pi: h is after x and before t (never, when x and
            # t point the same way); a wider one: h is not in the closed arc
            # from t to x
            if (a > 0 and b > 0) if c >= 0 else (a > 0 or b > 0):
                if e1 is None:
                    e1 = e2 = m
                elif cross(m, e1) > 0:
                    e1 = m
                elif cross(e2, m) > 0:
                    e2 = m
        return None if e1 is None else e1 + e2

    def admits(self, cone, ax, ay, rx, ry):
        """Whether a node with exponent (ax, ay) and remaining shift
        (rx, ry) != 0, whose later bends lie on the half-lines of cone, may
        still end in a line."""
        if self.guard:
            ux, uy, vx, vy, _ = self.order
            if ux * ax + uy * ay >= 0 and vx * ax + vy * ay >= 0:
                return True
        return (cone is not None and cone[0] * ry - cone[1] * rx >= 0
                and rx * cone[3] - ry * cone[2] >= 0)


def _site(x, y, q, mx, my, td, tn):
    """The reduced homogeneous triple of (x, y)/q + (tn / (q*td))*(mx, my)."""
    px = td * x + tn * mx
    py = td * y + tn * my
    Q = q * td
    g = gcd(px, py, Q)
    return px // g, py // g, Q // g


def search_form(fd, diagram):
    """The diagram's SearchForm for fd, compiled on first use."""
    form = diagram.compiled
    if form is None or form.fd is not fd:
        form = diagram.compiled = SearchForm(fd, diagram.walls)
    return form


def wall_families(fd, diagram, point):
    """Walls through the point grouped by support line, as (n0_primitive, m0, func)."""
    form = search_form(fd, diagram)
    return [(fam.n0, fam.m0, fam.f) for fam in form.families(point)]


def allowed_bends(fd, diagram, point, m_in, K, shift=None):
    """All exponents reachable by bending at the point, with coefficients.

    The point is a pair or a homogeneous triple.  Includes the trivial
    no-bend term.  K bounds the order of the shift; the search also passes
    its remaining shift, which drops bends it cannot use.  Coefficients are
    ints.
    """
    return search_form(fd, diagram).bends(point, m_in, K, shift)


def _endpoint(endpoint):
    """The endpoint as a reduced homogeneous triple; it must be a pair of rationals."""
    try:
        a, b = endpoint
    except (TypeError, ValueError):
        raise ValueError("endpoint must be a pair of rationals, got %r" % (endpoint,)) from None
    if not (is_rational(a) and is_rational(b)):
        raise ValueError("endpoint must be a pair of rationals, got %r" % (endpoint,))
    return homogeneous((a, b))


def enumerate_lines(fd, diagram, initial, endpoint, K=None):
    """All broken lines with the given initial exponent and endpoint.

    Bounds the shift of the final exponent by the diagram order (or K).  The
    search runs on integers: bend sites are homogeneous triples and
    coefficients ints.  Fractions are built only for the bend points of a
    returned line.

    The search goes backward from the endpoint, one root per final
    exponent, and drops every node that cannot end in a line.  Take a node
    at x (the endpoint or a bend site) with exponent a, remaining shift
    r != 0 and so initial exponent t = a - r, the same for every node of
    the search, and let sigma be the cone of the monoid.

    1. cross(y, exponent) is the same at every later point y of the line:
       along a piece y moves along the exponent, and at a bend on a
       half-line h the step k*m0_h is parallel to y.  So s = sign cross(x, a)
       is fixed, and the angle of the position moves strictly monotonically
       in the sense of s.  (A root with s = 0 is traced, so that a ray into
       the origin raises; no later node can have s = 0.)
    2. Every later exponent lies in E = t + (sigma & (r - sigma)): it is
       t + r' with r' and r - r' in sigma.
    3. Suppose 0 is not in E.  E is a compact convex set, so its
       directions span an arc narrower than pi; the position always lies
       within pi behind the current exponent; so the angle sweeps less than
       2*pi from arg x to its limit arg t, and every later bend lies
       strictly inside the one arc from arg x to arg t in the sense of s.
       r is the sum of the steps k*m0 of those bends, so it lies in the
       cone of the m0 of that arc's half-lines (_Arcs.cone).  If
       it does not, or the arc is empty, the node is dropped.

    0 lies in E exactly when -t and a lie in sigma, and lines can then wind
    more than a full turn, so such nodes are not pruned (_Arcs.guard).  On
    the type (3, 3) at order 6, with m = (1, -1) and endpoint
    (97/113, -123/151), 2 of the 7 lines sweep more than 2*pi.  The roots
    are tested here, with the two arc cones from the endpoint computed once
    per call; _trace tests the children.
    """
    if K is None:
        K = diagram.order
    ix, iy = (int(c) for c in initial)
    if (ix, iy) != tuple(initial):
        raise ValueError("initial exponent must be integral, got %r" % (tuple(initial),))
    if not (ix or iy):
        raise ValueError("initial exponent must be nonzero")
    x, y, q = _endpoint(endpoint)
    form = search_form(fd, diagram)
    if form.walls_through((x, y, q)):
        raise ValueError("endpoint lies on a wall; perturb it first")
    near = form.near(x, y)
    (g1x, g1y), (g2x, g2y) = fd.monoid_gens
    arcs = (form.arcs((ix, iy), False), form.arcs((ix, iy), True))
    cones = {}
    results = []
    for a in range(K + 1):
        for b in range(K + 1 - a):
            px, py = a * g1x + b * g2x, a * g1y + b * g2y
            mx, my = ix + px, iy + py
            if not (mx or my):
                continue
            ccw = x * my - y * mx > 0
            if (px or py) and x * my != y * mx:
                if ccw not in cones:
                    cones[ccw] = arcs[ccw].cone((x, y))
                if not arcs[ccw].admits(cones[ccw], mx, my, px, py):
                    continue
            _trace(fd, diagram, form, x, y, q, near, mx, my, px, py, K, arcs[ccw], [],
                   results)
    lines = [_assemble(endpoint, rev_steps) for rev_steps in results]
    lines.sort(key=lambda l: l.signature())
    return lines


def _trace(fd, diagram, form, x, y, q, near, mx, my, px, py, K, arcs, steps, results):
    """Backward search from (x, y)/q, between the half-lines near, with
    exponent (mx, my) and remaining shift (px, py); steps collect (bend site
    (X, Y, Q), m_before_bend, coeff) endpoint-first.  arcs holds the arc
    cones of the search's initial exponent and sense of turning.

    With no shift left the node is a line: no shift s != 0 of the pointed
    monoid leaves -s in it, so it cannot bend.  Otherwise the walk over the
    half-lines the ray meets decides, from the half-line's family alone,
    which children k*m0 survive: the power of f must be nonzero, the
    remaining shift must stay in the monoid (_Family.cap and step), and a
    child that still has a shift must meet a half-line (SearchForm.dead)
    and pass the arc test of enumerate_lines.  Only a site with a survivor
    is built and passed to allowed_bends, which gives the coefficients.
    """
    if not (px or py):
        _turn(x, y, q, mx, my)
        results.append(steps + [(None, (mx, my), 1)])
        return
    ux, uy, vx, vy, D = form._cone
    A, B = ux * px + uy * py, vx * px + vy * py
    top = K * D
    L = form.L
    fams = form._fams
    for i, td, tn in form.walk(x, y, q, mx, my, near):
        fam = fams[i] or form.family(i)
        # the bending power only depends on the pairing with the wall
        # normal, which the bend itself preserves, so the forward
        # coefficients apply; it is integral because n0 lies in N°
        pw = abs(fam.a[0] * mx + fam.a[1] * my) // L
        kcap = fam.cap(A, B)
        if not pw or kcap < fam.step:
            continue
        sx, sy = fam.m0
        step, cone = fam.step, arcs[i]
        alive = {}
        for k, _ in fam.power_terms(pw, top):
            if k > kcap:
                break
            if k % step:
                continue
            ax, ay, rx, ry = mx - k * sx, my - k * sy, px - k * sx, py - k * sy
            if not (ax or ay) or (rx or ry) and (
                    not arcs.admits(cone, ax, ay, rx, ry) or form.dead(i, ax, ay)):
                continue
            alive[mx + k * sx, my + k * sy] = (ax, ay, rx, ry)
        if not alive:
            continue
        pt = _site(x, y, q, mx, my, td, tn)
        for out, c in allowed_bends(fd, diagram, pt, (mx, my), K, (px, py)):
            child = alive.get(out)
            if child:
                _trace(fd, diagram, form, *pt, form._around[i], *child, K, arcs,
                       steps + [(pt, (mx, my), c)], results)


def _assemble(endpoint, rev_steps):
    # rev_steps, endpoint-first: (start_point_of_piece, exponent, bend_coeff);
    # the last entry is the unbounded piece (start None, coeff 1).  Points
    # are homogeneous triples or pairs of Fractions.
    fwd = rev_steps[::-1]
    ends = [pt if len(pt) == 2 else rational(pt) for pt, _, _ in fwd[1:]] + [None]
    pieces = []
    coeff = 1
    for (_, m, c), end_pt in zip(fwd, ends):
        coeff *= c
        pieces.append(Piece(m, coeff, end_pt))
    return BrokenLine(endpoint, pieces)


def theta(fd, diagram, m, endpoint, K=None):
    if K is None:
        K = diagram.order
    if is_zero(m):
        _endpoint(endpoint)  # enumerate_lines checks it otherwise
        return LaurentPoly({tuple(m): 1}, tuple(m), K)
    return theta_of_lines(m, enumerate_lines(fd, diagram, m, endpoint, K), K)


def theta_of_lines(m, lines, K):
    """The sum of c * z^F over the broken lines with initial exponent m."""
    terms = {}
    for line in lines:
        terms[line.final] = terms.get(line.final, 0) + line.coeff
    return LaurentPoly(terms, tuple(m), K)


def reverse(segment):
    pieces = [Piece(vneg(p.exponent), p.coeff, None, p.duration)
              for p in reversed(segment.pieces)]
    return Segment(segment.end, segment.start, pieces, segment.total_time)


def bend_coefficient(fd, diagram, point, m_prev, m_next):
    """Coefficient of the bend m_prev -> m_next at the point (1 if trivial).

    The point is a pair or a homogeneous triple.  Raises ValueError when the
    point lies on no wall or when no wall through it gives the step a
    nonzero coefficient; the message shows a triple as its pair of
    Fractions.
    """
    if tuple(m_prev) == tuple(m_next):
        return 1
    fams = wall_families(fd, diagram, point)
    if not fams:
        raise ValueError("bend point %r lies on no wall" % (_pair(point),))
    step = vsub(m_next, m_prev)
    for n0, m0, f in fams:
        if not same_ray(step, m0):
            continue
        i = 0 if m0[0] != 0 else 1
        k, r = divmod(step[i], m0[i])
        if r or k < 1:
            continue
        pw = pairing(fd, n0, m_prev)
        if pw.denominator != 1 or pw == 0:
            continue
        c = wf_coeff_pow(f, abs(int(pw)), k)
        if c != 0:
            return c
    raise ValueError("bend %r -> %r at %r is not allowed" % (m_prev, m_next, _pair(point)))


def _pair(point):
    """A pair as given; a homogeneous triple as its pair of Fractions."""
    return rational(point) if len(point) == 3 else point


def validate_segment(fd, diagram, segment):
    """Verdict (bool, first_violation_message_or_None).

    The walk runs on integers.  The position is a reduced homogeneous
    triple (X, Y, q); durations and exponent entries, which are rational on
    glued segments, are read through numerator and denominator; the total
    time is an integer numerator over a denominator.  A message shows a
    position as the pair that rational arithmetic on the given values
    gives: the start as given until a duration moves it, then Fractions,
    except in a coordinate where every term so far was an int.
    """
    X, Y, q = homogeneous(segment.start)
    # per coordinate: is the position shown as an int there?
    ints = [type(c) is int for c in segment.start]
    tn, td = 0, 1
    pieces = segment.pieces
    n = len(pieces)
    for i, p in enumerate(pieces):
        m = p.exponent
        if is_zero(m):
            return False, "piece %d has zero exponent" % i
        dt = p.duration
        if dt is not None:
            a, b = dt.numerator, dt.denominator
            if a < 0:
                return False, "piece %d has negative duration" % i
            # pos - (a/b)*(u, v)/e over the denominator q*b*e
            mx, my = m
            e = lcm(mx.denominator, my.denominator)
            u, v = mx.numerator * (e // mx.denominator), my.numerator * (e // my.denominator)
            be, qa = b * e, q * a
            X, Y, q = X * be - qa * u, Y * be - qa * v, q * be
            g = gcd(X, Y, q)
            X, Y, q = X // g, Y // g, q // g
            tn, td = tn * b + a * td, td * b
            g = gcd(tn, td)
            tn, td = tn // g, td // g
            if ints[0] or ints[1]:
                whole = type(dt) is int
                ints = [whole and k and type(c) is int for k, c in zip(ints, m)]
        if i + 1 < n:
            m_next = pieces[i + 1].exponent
            at = _shown(X, Y, q, ints) if ints[0] or ints[1] else (X, Y, q)
            try:
                c = bend_coefficient(fd, diagram, at, m, m_next)
            except ValueError as e:
                return False, str(e)
            if c <= 0:
                return False, "bend %r -> %r at %r is not allowed" % (
                    m, m_next, _shown(X, Y, q, ints))
    if (X, Y, q) != homogeneous(segment.end):
        return False, "segment ends at %r, expected %r" % (_shown(X, Y, q, ints), segment.end)
    T = segment.total_time
    if tn * T.denominator != T.numerator * td:
        return False, "durations sum to %r, expected total %r" % (Fraction(tn, td), T)
    return True, None


def _shown(X, Y, q, ints):
    """The homogeneous point as a pair: an int where ints says so, else a Fraction."""
    return tuple(c // q if k else Fraction(c, q) for c, k in zip((X, Y), ints))


def line_bounded_segment(fd, line):
    """The bounded part of a broken line as a Segment (first bend to endpoint)."""
    bounded = line.pieces[1:]
    if not bounded:
        raise ValueError("straight line has no bounded part")
    start = line.pieces[0].bend_point
    pts = [p.bend_point for p in bounded[:-1]] + [line.endpoint]
    pieces = []
    pos = start
    total = Fraction(0)
    for p, nxt in zip(bounded, pts):
        d = vsub(pos, nxt)
        if is_zero(d):
            dt = None
        else:
            m = p.exponent
            i = 0 if m[0] != 0 else 1
            dt = Fraction(d[i], m[i])
            total += dt
        pieces.append(Piece(p.exponent, p.coeff, None, dt))
        pos = nxt
    return Segment(start, line.endpoint, pieces, total)
