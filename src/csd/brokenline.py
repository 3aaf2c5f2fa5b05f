"""Broken lines, theta functions and segments.

A broken line is traced backward from its endpoint: a ray escaping to
infinity, bending at wall crossings.  Pieces are stored unbounded-first;
each carries the exponent of its attached monomial, the cumulative
coefficient, and the point where it bends into the next piece.
"""

from fractions import Fraction
from math import lcm

from .geometry import vadd, vsub, vneg, vscale, is_zero, primitive, same_ray, cross
from .lattice import pairing, n_circ_primitive, scaled_normal, cone_order
from .series import wf_mul, wf_pow, wf_coeff_pow, LaurentPoly


class Piece:
    def __init__(self, exponent, coeff=Fraction(1), bend_point=None, duration=None):
        self.exponent = tuple(exponent)
        self.coeff = Fraction(coeff)
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
    bending power is an integer dot product; powers of f are tabulated."""

    __slots__ = ("n0", "m0", "f", "a", "step", "powers")

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
        self.step = cone_order(fd, self.m0)
        self.powers = {}

    def power_terms(self, pw, K):
        """Terms (k, c) of f^pw whose shift k*m0 has order at most K."""
        terms = self.powers.get((pw, K))
        if terms is None:
            kmax = int(Fraction(K) / self.step)
            terms = wf_pow(self.f, pw, kmax).terms() if kmax >= 1 else []
            self.powers[(pw, K)] = terms
        return terms


def _numerators(pos):
    """(x, y, q) with pos = (x/q, y/q), q > 0 and x, y, q integers."""
    a, b = pos
    q = lcm(a.denominator, b.denominator)
    return a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q


class SearchForm:
    """A diagram's walls compiled for the backward broken-line search.

    Wall normals are scaled by L = lcm(d), so <n, x> = (a . x) / L with an
    integer vector a: a wall crossing is a sign test on the numerators of a
    point, and a Fraction is built only for the walls a ray actually hits.
    The form also holds the monoid generators for the integer monoid test
    and the diagram's caches:

    - families: wall families, keyed by the tuple of walls met at a point,
      each with its table of powers of f keyed by (power, K);
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
        self._scan = [(w, *scaled_normal(fd, w.normal), w.kind == "ray", w.direction)
                      for w in walls]
        self._gens = fd.monoid_gens
        self._det = cross(*self._gens)
        self._families = {}
        self.thetas = {}
        self.alphas = {}
        self.products = {}
        self.endpoint = None

    def walls_through(self, point):
        """The walls whose support contains the point."""
        x, y, _ = _numerators(point)
        out = []
        for w, a0, a1, ray, (dx, dy) in self._scan:
            if a0 * x + a1 * y != 0:
                continue
            if ray and (x or y) and (x * dy != y * dx or x * dx + y * dy <= 0):
                continue
            out.append(w)
        return tuple(out)

    def ray_events(self, pos, m):
        """Wall crossings of the open ray pos + t*m, t > 0, grouped by t.

        Returns (events, t_origin) where events is a sorted list of
        (t, point, walls) and t_origin is the positive time the ray meets
        the origin, or None.
        """
        x, y, q = _numerators(pos)
        mx, my = m
        t_origin = None
        along = x * mx + y * my
        if x * my == y * mx and along < 0:
            t_origin = Fraction(-along, q * (mx * mx + my * my))
        hits = {}
        for w, a0, a1, ray, (dx, dy) in self._scan:
            sd = a0 * mx + a1 * my
            if sd == 0:
                continue
            s0 = a0 * x + a1 * y
            # the ray meets the wall line at t = -s0 / (q * sd)
            if s0 == 0 or (s0 > 0) == (sd > 0):
                continue
            # numerators of the meeting point over q * sd
            px = sd * x - s0 * mx
            py = sd * y - s0 * my
            if px == 0 and py == 0:
                continue
            if ray and (px * dy != py * dx or (px * dx + py * dy) * sd <= 0):
                continue
            t = Fraction(-s0, q * sd)
            hit = hits.get(t)
            if hit is None:
                hits[t] = ((Fraction(px, q * sd), Fraction(py, q * sd)), [w])
            else:
                hit[1].append(w)
        events = [(t, pt, ws) for t, (pt, ws) in sorted(hits.items())]
        if t_origin is not None:
            events = [e for e in events if e[0] < t_origin]
        return events, t_origin

    def families(self, walls):
        """Families of a tuple of walls, grouped by support line."""
        fams = self._families.get(walls)
        if fams is None:
            groups = {}
            for w in walls:
                key = tuple(abs(x) for x in primitive(n_circ_primitive(self.fd, w.normal)))
                groups.setdefault(key, []).append(w)
            fams = [_Family(self.fd, ws) for ws in groups.values()]
            self._families[walls] = fams
        return fams

    def bends(self, point, m_in, K):
        """Exponents reachable by bending m_in at the point, as in allowed_bends."""
        fams = self.families(self.walls_through(point))
        if not fams:
            raise ValueError("point %r lies on no wall" % (point,))
        mx, my = m_in
        out = [((mx, my), Fraction(1))]
        for fam in fams:
            pw = fam.a[0] * mx + fam.a[1] * my
            if pw % self.L:
                raise ValueError("non-integral bending power")
            pw = abs(pw) // self.L
            if pw == 0:
                continue
            sx, sy = fam.m0
            out.extend(((mx + k * sx, my + k * sy), c) for k, c in fam.power_terms(pw, K))
        return out

    def in_monoid(self, p):
        """True when p is a nonnegative integer combination of the monoid generators."""
        g1, g2 = self._gens
        a, ra = divmod(cross(p, g2), self._det)
        b, rb = divmod(cross(g1, p), self._det)
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
    return [(fam.n0, fam.m0, fam.f) for fam in form.families(form.walls_through(point))]


def allowed_bends(fd, diagram, point, m_in, K):
    """All exponents reachable by bending at the point, with coefficients.

    Includes the trivial no-bend term.  K bounds the order of the shift.
    """
    return search_form(fd, diagram).bends(point, m_in, K)


def enumerate_lines(fd, diagram, initial, endpoint, K=None):
    """All broken lines with the given initial exponent and endpoint.

    Bounds the shift of the final exponent by the diagram order (or K).
    """
    if K is None:
        K = diagram.order
    if is_zero(initial):
        raise ValueError("initial exponent must be nonzero")
    form = search_form(fd, diagram)
    if form.walls_through(endpoint):
        raise ValueError("endpoint lies on a wall; perturb it first")
    g1, g2 = fd.monoid_gens
    results = []
    for a in range(K + 1):
        for b in range(K + 1 - a):
            p = vadd(vscale(a, g1), vscale(b, g2))
            final = vadd(initial, p)
            if is_zero(final):
                continue
            _trace(fd, diagram, endpoint, final, p, K, [], results)
    lines = [_assemble(endpoint, rev_steps) for rev_steps in results]
    lines.sort(key=lambda l: l.signature())
    return lines


def _trace(fd, diagram, pos, m_cur, p_rem, K, steps, results):
    """Backward search; steps collect (bend_point, m_before_bend, coeff) endpoint-first."""
    form = search_form(fd, diagram)
    events, t_origin = form.ray_events(pos, m_cur)
    if t_origin is not None:
        # the traced ray would pass through the singular origin, silently
        # losing a family of lines; the endpoint must be perturbed
        raise ValueError("trajectory with exponent %r from %r runs into the "
                         "origin; endpoint is not generic, perturb it"
                         % (m_cur, pos))
    for t, pt, walls in events:
        # the bending power only depends on the pairing with the wall normal,
        # which the bend itself preserves, so the forward coefficients apply
        for m_out, c in allowed_bends(fd, diagram, pt, m_cur, K):
            if m_out == m_cur:
                continue
            step = vsub(m_out, m_cur)
            m_prev = vsub(m_cur, step)
            p_new = vsub(p_rem, step)
            if is_zero(m_prev) or not form.in_monoid(p_new):
                continue
            _trace(fd, diagram, pt, m_prev, p_new, K,
                   steps + [(pt, m_cur, c)], results)
    if is_zero(p_rem):
        results.append(steps + [(None, m_cur, Fraction(1))])


def _assemble(endpoint, rev_steps):
    # rev_steps, endpoint-first: (start_point_of_piece, exponent, bend_coeff);
    # the last entry is the unbounded piece (start None, coeff 1)
    fwd = list(reversed(rev_steps))
    pieces = []
    coeff = Fraction(1)
    for i, (pt, m, c) in enumerate(fwd):
        coeff *= c
        end_pt = fwd[i + 1][0] if i + 1 < len(fwd) else None
        pieces.append(Piece(m, coeff, end_pt))
    return BrokenLine(endpoint, pieces)


def theta(fd, diagram, m, endpoint, K=None):
    if K is None:
        K = diagram.order
    if is_zero(m):
        return LaurentPoly({tuple(m): Fraction(1)}, tuple(m), K)
    terms = {}
    for line in enumerate_lines(fd, diagram, m, endpoint, K):
        e = line.final
        terms[e] = terms.get(e, Fraction(0)) + line.coeff
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
        return Fraction(1)
    fams = wall_families(fd, diagram, point)
    if not fams:
        raise ValueError("bend point %r lies on no wall" % (point,))
    step = vsub(m_next, m_prev)
    for n0, m0, f in fams:
        if not same_ray(step, m0):
            continue
        i = 0 if m0[0] != 0 else 1
        k = Fraction(step[i], m0[i])
        if k.denominator != 1 or k < 1:
            continue
        pw = pairing(fd, n0, m_prev)
        if pw.denominator != 1 or pw == 0:
            continue
        c = wf_coeff_pow(f, abs(int(pw)), int(k))
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
