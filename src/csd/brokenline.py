"""Broken lines, theta functions and segments.

A broken line is traced backward from its endpoint: a ray escaping to
infinity, bending at wall crossings.  Pieces are stored unbounded-first;
each carries the exponent of its attached monomial, the cumulative
coefficient (an int), and the point where it bends into the next piece.
"""

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

from .geometry import (vsub, vneg, vscale, is_zero, primitive, same_ray, cross, dot,
                       homogeneous, rational)
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
    bending power is an integer dot product, and m0 keeps its cone order as
    an integer numerator over the order_form denominator; powers of f are
    tabulated."""

    __slots__ = ("n0", "m0", "f", "a", "order", "powers")

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
        ux, uy, vx, vy, _ = order_form(fd)
        sx, sy = self.m0
        u, v = ux * sx + uy * sy, vx * sx + vy * sy
        if u < 0 or v < 0:
            raise ValueError("wall function direction outside the cone")
        self.order = u + v
        self.powers = {}

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


class SearchForm:
    """A diagram's walls compiled for the backward broken-line search.

    Every wall lies on a line through the origin, and the walls through a
    nonzero point all lie on the line through it, so the walls are grouped
    by support line.  Wall normals are scaled by L = lcm(d), so
    <n, x> = (a . x) / L with an integer vector a: a wall crossing is a sign
    test on the numerators of a point, and the search tests each support
    line once per ray.  The form also holds the monoid generators for the
    integer monoid test and the diagram's caches.  Points are pairs or
    reduced homogeneous triples (X, Y, Q) as geometry.homogeneous gives
    them; the search passes the triples of ray_events unchanged.  Bend
    coefficients are ints, read from tables of powers of f.

    - families: wall families, keyed by the tuple of walls met at a point
      and looked up by the ray from the origin through the point, each with
      its table of powers of f keyed by (power, order numerator bound);
    - thetas: theta functions, keyed by (m, endpoint, K);
    - alphas: alpha tables, keyed by (unordered pair {p, q}, K);
    - products: theta products at the expansion endpoint, keyed by
      (unordered pair {p, q}, K);
    - endpoint: the expansion endpoint, computed once.

    Nothing is evicted.  Each entry is a value the diagram was asked for, so
    a cache grows only with the distinct wall sets, (pair, K) and
    (m, endpoint, K) its callers request, and it is dropped with the form.
    The form is built by search_form on the first search and reset by
    scattering.complete_diagram, the only code that changes walls.
    """

    def __init__(self, fd, walls):
        self.fd = fd
        self.L = fd.L
        self._all = tuple(walls)
        # per support line, keyed by its primitive direction u: one scaled
        # normal, the sides of the origin (+1 along u, -1 against) its walls
        # cover, and its walls in diagram order
        normals, sides, self._lines = {}, {}, {}
        for w in walls:
            a = scaled_normal(fd, w.normal)
            u = _line_key(-a[1], a[0])
            normals.setdefault(u, a)
            self._lines.setdefault(u, []).append((w, w.kind == "ray", w.direction))
            covered = sides.setdefault(u, set())
            if w.kind != "ray":
                covered.update((1, -1))
            elif cross(u, w.direction) == 0:
                covered.add(1 if dot(u, w.direction) > 0 else -1)
        self._scan = [(*normals[u], *u, 1 in covered, -1 in covered)
                      for u, covered in sides.items() if covered]
        self._gens = fd.monoid_gens
        self._det = cross(*self._gens)
        # order(m) = (ou * m0 + ov * m1) / D, additive and >= 0 on the cone
        ux, uy, vx, vy, D = order_form(fd)
        self._order = (ux + vx, uy + vy, D)
        self._families = {}
        self._families_at = {}
        self.thetas = {}
        self.alphas = {}
        self.products = {}
        self.endpoint = None

    def walls_through(self, point):
        """The walls whose support contains the point."""
        x, y, _ = homogeneous(point)
        return self._walls_at(x, y)

    def _walls_at(self, x, y):
        if not (x or y):
            return self._all
        return tuple(w for w, ray, (dx, dy) in self._lines.get(_line_key(x, y), ())
                     if not ray or (x * dy == y * dx and x * dx + y * dy > 0))

    def ray_events(self, x, y, q, mx, my):
        """Bend sites of the open ray (x, y)/q + t*(mx, my), t > 0, in t order.

        Each site is the reduced homogeneous triple (X, Y, Q), Q > 0, of a
        point where the ray crosses a wall; the walls of one support line give
        one site.  Raises ValueError when the ray runs into the origin.
        """
        if x * my == y * mx and x * mx + y * my < 0:
            # the traced ray would pass through the singular origin, silently
            # losing a family of lines; the endpoint must be perturbed
            raise ValueError("trajectory with exponent %r from %r runs into the "
                             "origin; endpoint is not generic, perturb it"
                             % ((mx, my), (Fraction(x, q), Fraction(y, q))))
        hits = []
        for a0, a1, ux, uy, pos_side, neg_side in self._scan:
            td = a0 * mx + a1 * my
            if td == 0:
                continue
            tn = -(a0 * x + a1 * y)
            # the ray meets the line at t = tn / (q * td)
            if tn == 0 or (tn > 0) != (td > 0):
                continue
            if td < 0:
                tn, td = -tn, -td
            # numerators of the meeting point over q * td; the sign of its
            # component along u tells which rays on the line contain it
            px = td * x + tn * mx
            py = td * y + tn * my
            side = px * ux + py * uy
            if pos_side if side > 0 else neg_side and side < 0:
                hits.append((tn, td, px, py))
        if len(hits) > 1:
            # distinct lines meet only at the origin, so the times differ
            D = lcm(*(h[1] for h in hits))
            hits.sort(key=lambda h: h[0] * (D // h[1]))
        events = []
        for _, td, px, py in hits:
            Q = q * td
            g = gcd(px, py, Q)
            events.append((px // g, py // g, Q // g))
        return events

    def families(self, point):
        """Families of the walls through the point, grouped by support line."""
        x, y, _ = homogeneous(point)
        g = gcd(x, y) or 1
        fams = self._families_at.get((x // g, y // g))
        if fams is None:
            walls = self._walls_at(x, y)
            fams = self._families.get(walls)
            if fams is None:
                groups = {}
                for w in walls:
                    key = tuple(abs(c) for c in primitive(n_circ_primitive(self.fd, w.normal)))
                    groups.setdefault(key, []).append(w)
                fams = self._families[walls] = [_Family(self.fd, ws) for ws in groups.values()]
            self._families_at[x // g, y // g] = fams
        return fams

    def bends(self, point, m_in, K, shift=None):
        """Exponents reachable by bending m_in at the point, as in allowed_bends.

        With the remaining shift p of a search, only shifts s with
        order(s) <= order(p) are listed: the order is additive and
        nonnegative on the monoid, so no other s leaves p - s in it.
        """
        fams = self.families(point)
        if not fams:
            raise ValueError("point %r lies on no wall" % (point,))
        mx, my = m_in
        ou, ov, D = self._order
        top = K * D
        budget = top if shift is None else ou * shift[0] + ov * shift[1]
        out = [((mx, my), 1)]
        for fam in fams:
            pw = fam.a[0] * mx + fam.a[1] * my
            if pw % self.L:
                raise ValueError("non-integral bending power")
            pw = abs(pw) // self.L
            if pw == 0:
                continue
            kcap = budget // fam.order
            if kcap < 1:
                continue
            sx, sy = fam.m0
            for k, c in fam.power_terms(pw, top):
                if k > kcap:
                    break
                out.append(((mx + k * sx, my + k * sy), c))
        return out

    def in_monoid(self, px, py):
        """True when (px, py) is a nonnegative integer combination of the monoid generators."""
        (g1x, g1y), (g2x, g2y) = self._gens
        a, ra = divmod(px * g2y - py * g2x, self._det)
        b, rb = divmod(g1x * py - g1y * px, self._det)
        return ra == 0 and rb == 0 and a >= 0 and b >= 0


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
    if not (isinstance(a, Rational) and isinstance(b, Rational)):
        raise ValueError("endpoint must be a pair of rationals, got %r" % (endpoint,))
    return homogeneous((a, b))


def enumerate_lines(fd, diagram, initial, endpoint, K=None):
    """All broken lines with the given initial exponent and endpoint.

    Bounds the shift of the final exponent by the diagram order (or K).  The
    search runs on integers: bend sites are homogeneous triples and
    coefficients ints.  Fractions are built only for the bend points of a
    returned line.
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
    (g1x, g1y), (g2x, g2y) = fd.monoid_gens
    results = []
    for a in range(K + 1):
        for b in range(K + 1 - a):
            px, py = a * g1x + b * g2x, a * g1y + b * g2y
            if ix + px or iy + py:
                _trace(fd, diagram, form, x, y, q, ix + px, iy + py, px, py, K, [], results)
    lines = [_assemble(endpoint, rev_steps) for rev_steps in results]
    lines.sort(key=lambda l: l.signature())
    return lines


def _trace(fd, diagram, form, x, y, q, mx, my, px, py, K, steps, results):
    """Backward search from (x, y)/q with exponent (mx, my) and remaining shift
    (px, py); steps collect (bend site (X, Y, Q), m_before_bend, coeff)
    endpoint-first."""
    m_cur = (mx, my)
    for pt in form.ray_events(x, y, q, mx, my):
        X, Y, Q = pt
        # the bending power only depends on the pairing with the wall normal,
        # which the bend itself preserves, so the forward coefficients apply
        for (ox, oy), c in allowed_bends(fd, diagram, pt, m_cur, K, (px, py)):
            sx, sy = ox - mx, oy - my
            if not (sx or sy):
                continue
            ax, ay = mx - sx, my - sy
            if not (ax or ay) or not form.in_monoid(px - sx, py - sy):
                continue
            _trace(fd, diagram, form, X, Y, Q, ax, ay, px - sx, py - sy, K,
                   steps + [(pt, m_cur, c)], results)
    if not (px or py):
        results.append(steps + [(None, m_cur, 1)])


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
    terms = {}
    for line in enumerate_lines(fd, diagram, m, endpoint, K):
        e = line.final
        terms[e] = terms.get(e, 0) + line.coeff
    return LaurentPoly(terms, tuple(m), K)


def reverse(segment):
    pieces = [Piece(vneg(p.exponent), p.coeff, None, p.duration)
              for p in reversed(segment.pieces)]
    return Segment(segment.end, segment.start, pieces, segment.total_time)


def bend_coefficient(fd, diagram, point, m_prev, m_next):
    """Coefficient of the bend m_prev -> m_next at the point (1 if trivial).

    Raises ValueError when the point lies on no wall or when no wall through
    it gives the step a nonzero coefficient.
    """
    if tuple(m_prev) == tuple(m_next):
        return 1
    fams = wall_families(fd, diagram, point)
    if not fams:
        raise ValueError("bend point %r lies on no wall" % (point,))
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
    raise ValueError("bend %r -> %r at %r is not allowed" % (m_prev, m_next, point))


def validate_segment(fd, diagram, segment):
    """Verdict (bool, first_violation_message_or_None)."""
    pos = segment.start
    total = Fraction(0)
    n = len(segment.pieces)
    for i, p in enumerate(segment.pieces):
        if is_zero(p.exponent):
            return False, "piece %d has zero exponent" % i
        if p.duration is not None:
            if p.duration < 0:
                return False, "piece %d has negative duration" % i
            nxt = vsub(pos, vscale(p.duration, p.exponent))
            total += p.duration
        else:
            nxt = pos
        if i + 1 < n:
            m_next = segment.pieces[i + 1].exponent
            try:
                c = bend_coefficient(fd, diagram, nxt, p.exponent, m_next)
            except ValueError as e:
                return False, str(e)
            if c <= 0:
                return False, "bend %r -> %r at %r is not allowed" % (p.exponent, m_next, nxt)
        pos = nxt
    if tuple(pos) != tuple(segment.end):
        return False, "segment ends at %r, expected %r" % (pos, segment.end)
    if total != segment.total_time:
        return False, "durations sum to %r, expected total %r" % (total, segment.total_time)
    return True, None


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
