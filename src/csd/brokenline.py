"""Broken lines, theta functions and segments.

A broken line is traced backward from its endpoint: a ray escaping to
infinity, bending at wall crossings.  Pieces are stored unbounded-first;
each carries the exponent of its attached monomial, the cumulative
coefficient (an int), and the point where it bends into the next piece.
The search walks the half-line index of the diagram (scattering.Diagram).
"""

from fractions import Fraction
from math import gcd, prod

from .geometry import (vsub, vneg, vscale, is_zero, same_ray, cross, homogeneous, rational,
                       is_rational, _rational_pair)
from .series import _integer, _check_order, _lattice_vector, LaurentPoly
from .scattering import _turn, search_form, path_ordered_product


def _rational(x, field):
    """x if it is rational; anything else raises a ValueError that names the field."""
    if not is_rational(x):
        raise ValueError("%s must be rational, got %r" % (field, x))
    return x


class Piece:
    def __init__(self, exponent, coeff=1, bend_point=None, duration=None):
        self.exponent = _rational_pair(exponent, "piece exponent")
        self.coeff = _integer(coeff)
        self.bend_point = (None if bend_point is None
                           else _rational_pair(bend_point, "piece bend point"))
        self.duration = None if duration is None else _rational(duration, "piece duration")

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
        self.start = _rational_pair(start, "segment start")
        self.end = _rational_pair(end, "segment end")
        self.pieces = list(pieces)
        self.total_time = Fraction(_rational(total_time, "segment total time"))

    def intervals(self):
        """(t_start, t_end, start position) per piece; a degenerate piece
        has t_start == t_end."""
        out = []
        t = Fraction(0)
        for p, pos in zip(self.pieces, self.positions()):
            t_end = t + (p.duration or 0)
            out.append((t, t_end, pos))
            t = t_end
        return out

    def positions(self):
        """Position at the start of each piece, plus the final position: the
        one walk along the pieces, which intervals and validate_segment read."""
        out = [self.start]
        pos = self.start
        for p in self.pieces:
            if p.duration is not None:
                pos = vsub(pos, vscale(p.duration, p.exponent))
            out.append(pos)
        return out

    def __repr__(self):
        return "Segment(%r -> %r, T=%r, %r)" % (self.start, self.end, self.total_time, self.pieces)


class _Arcs(dict):
    """Arc cones for one initial exponent t and one sense of turning:
    half-line i -> cone(h_i), built on first use.

    guard is True when -t lies in the cone of the monoid; admits then lets
    every node whose exponent lies in that cone through (see
    _search).  _search builds one for each sense of turning per call.
    """

    __slots__ = ("halves", "m0", "order", "t", "ccw", "guard")

    def __init__(self, diagram, t, ccw):
        super().__init__()
        self.halves, self.m0, self.order = diagram._halves, diagram._m0, diagram.fd.order_form
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
    """The reduced homogeneous triple of (x, y)/q + (tn / (q*td))*(mx, my).

    _trace calls it exactly once per bend site it expands."""
    px = td * x + tn * mx
    py = td * y + tn * my
    Q = q * td
    g = gcd(px, py, Q)
    return px // g, py // g, Q // g


def wall_families(fd, diagram, point):
    """Walls through the point grouped by support line, as (n0_primitive, m0, func)."""
    return [(fam.n0, fam.m0, fam.f) for fam in search_form(fd, diagram).families(point)]


def allowed_bends(fd, diagram, point, m_in, K):
    """All exponents reachable by bending at the point, with coefficients.

    The point is a pair or a homogeneous triple.  Includes the trivial
    no-bend term m_in, then each m_in + k*m0 whose shift k*m0 has order at
    most K, where the power table of f stops.  Coefficients are ints.  The
    search does not call it: _trace reads the same coefficients from the
    power table of the site's family.
    """
    fams = search_form(fd, diagram).families(point)
    if not fams:
        raise ValueError("point %r lies on no wall" % (point,))
    mx, my = m_in
    top = K * fd.order_form[4]
    out = [((mx, my), 1)]
    for fam in fams:
        pw = fam.a[0] * mx + fam.a[1] * my
        if pw % fd.L:
            raise ValueError("non-integral bending power")
        sx, sy = fam.m0
        out += [((mx + k * sx, my + k * sy), c)
                for k, c in fam.power_terms(abs(pw) // fd.L, top)]
    return out


def _endpoint(endpoint):
    """The endpoint as a reduced homogeneous triple; it must be a pair of rationals."""
    return homogeneous(_rational_pair(endpoint, "endpoint"))


def enumerate_lines(fd, diagram, initial, endpoint, K=None):
    """All broken lines with the given initial exponent and endpoint, sorted
    by BrokenLine.signature.

    Bounds the shift of the final exponent by the diagram order (or K).  The
    lines are those of _search, which theta shares; Fractions are built and
    the lines sorted only here, since theta only adds their coefficients.
    """
    initial = _lattice_vector(initial, "initial")
    K = _check_order(K, search_form(fd, diagram).order)
    lines = [_assemble(endpoint, steps) for steps in _search(fd, diagram, initial, endpoint, K)]
    lines.sort(key=BrokenLine.signature)
    return lines


def _search(fd, diagram, initial, endpoint, K):
    """The broken lines of enumerate_lines as step lists, unsorted:
    enumerate_lines sorts the lines it builds.

    A line is the list of its steps endpoint-first: (bend site (X, Y, Q),
    exponent after the bend, bend coefficient), ending with (None, initial
    exponent, 1).  The search runs on integers: bend sites are homogeneous
    triples and coefficients ints.

    After the input checks the search goes backward from the endpoint, one
    root per final exponent, and drops every node that cannot end in a
    line.  Take a node at x (the endpoint or a bend site) with exponent a,
    remaining shift r != 0 and so initial exponent t = a - r, the same for
    every node of the search, and let sigma be the cone of the monoid.

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
    per call, and so is the first step of a root's walk
    (Diagram.meets); _trace tests the children.
    """
    if not any(initial):
        raise ValueError("initial exponent must be nonzero")
    (x, y, q), roots = _roots(fd, diagram, initial, endpoint, K)
    near = diagram.near(x, y)
    arcs = (_Arcs(diagram, initial, False), _Arcs(diagram, initial, True))
    # meets needs a half-line; with none, a root with a shift never bends
    halves = diagram._halves
    cones = {}
    results = []
    for mx, my, px, py in roots:
        ccw = x * my - y * mx > 0
        if (px or py) and x * my != y * mx:
            if ccw not in cones:
                cones[ccw] = arcs[ccw].cone((x, y))
            if not (halves and arcs[ccw].admits(cones[ccw], mx, my, px, py)
                    and diagram.meets(x, y, near[ccw], mx, my)):
                continue
        _trace(diagram, x, y, q, near, mx, my, px, py, K, arcs[ccw], [], results)
    return results


def _roots(fd, diagram, m, endpoint, K):
    """The entry that _search and _transported share: the endpoint as a
    reduced homogeneous triple, which must lie on no wall, and the roots
    (mx, my, px, py), one per final exponent m + p != 0 with p = a*g1 +
    b*g2 and a + b <= K, by ascending a, then b."""
    pt = _endpoint(endpoint)
    if diagram.families(pt):
        raise ValueError("endpoint lies on a wall; perturb it first")
    (g1x, g1y), (g2x, g2y) = fd.monoid_gens
    roots = []
    for a in range(K + 1):
        for b in range(K + 1 - a):
            px, py = a * g1x + b * g2x, a * g1y + b * g2y
            mx, my = m[0] + px, m[1] + py
            if mx or my:
                roots.append((mx, my, px, py))
    return pt, roots


def _trace(diagram, x, y, q, near, mx, my, px, py, K, arcs, steps, results):
    """Backward search from (x, y)/q, between the half-lines near, with
    exponent (mx, my) and remaining shift (px, py); steps collect (bend site
    (X, Y, Q), exponent after the bend, coeff) endpoint-first.  arcs holds
    the arc cones of the search's initial exponent and sense of turning.

    With no shift left the node is a line: no shift s != 0 of the pointed
    monoid leaves -s in it, so it cannot bend.  Otherwise the walk over the
    half-lines the ray meets decides, from the half-line's family alone,
    which children k*m0 survive: the power of f must be nonzero, the
    remaining shift must stay in the monoid (scattering._Family.cap and
    step), and a child that still has a shift must meet a half-line
    (Diagram.dead) and pass the arc test of _search.  Each survivor keeps its bend
    coefficient, the term of f^power that selected it, and the site is
    built (_site) only when some child survives.  Children are traced by
    ascending k.
    """
    if not (px or py):
        _turn(x, y, q, mx, my)
        results.append(steps + [(None, (mx, my), 1)])
        return
    ux, uy, vx, vy, D = diagram.fd.order_form
    A, B = ux * px + uy * py, vx * px + vy * py
    top = K * D
    L = diagram.fd.L
    fams = diagram.fams
    for i, td, tn in diagram.walk(x, y, q, mx, my, near):
        fam = fams[i]
        # the bending power only depends on the pairing with the wall
        # normal, which the bend itself preserves, so the forward
        # coefficients apply; it is integral because n0 lies in N°
        pw = abs(fam.a[0] * mx + fam.a[1] * my) // L
        kcap = fam.cap(A, B)
        if not pw or kcap < fam.step:
            continue
        sx, sy = fam.m0
        step, cone = fam.step, arcs[i]
        children = []
        for k, c in fam.power_terms(pw, top):
            if k > kcap:
                break
            if k % step:
                continue
            ax, ay, rx, ry = mx - k * sx, my - k * sy, px - k * sx, py - k * sy
            if not (ax or ay) or (rx or ry) and (
                    not arcs.admits(cone, ax, ay, rx, ry) or diagram.dead(i, ax, ay)):
                continue
            children.append((c, ax, ay, rx, ry))
        if not children:
            continue
        pt = _site(x, y, q, mx, my, td, tn)
        for c, *child in children:
            _trace(diagram, *pt, diagram._around[i], *child, K, arcs,
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
    """The theta function of m at the endpoint: the sum of c * z^F over the
    broken lines with initial exponent m, final exponent F and coefficient
    c, truncated at order K (the diagram order by default).  Its terms are
    sorted by exponent, as theta_of_lines gives them, one order for both
    paths below.

    On a diagram that passes Diagram.complete_finite and at K at most
    its order, theta is z^m carried by the path-ordered product from a
    point Q of a chamber of m (_transported).  Why: theta_{Q,m} = z^m for Q
    in a chamber whose closure holds m (GHKK, arXiv:1411.1394, Prop. 3.8),
    and on a consistent diagram a theta function moves between generic
    endpoints by the path-ordered product (GHKK, section 3).  Both hold for
    the consistent diagram of the type, whose chambers these walls share.
    Up to order K the transport reads only wall terms of order at most
    K <= order, where these walls agree with that diagram, so it gives that
    diagram's theta; the search reads the same terms and finds the same.

    The path: the chamber c of m runs from half-line c to c + 1, the one
    that starts at m when m lies on a half-line, and Q is the sum of those
    two half-lines.  Chambers are cluster cones, narrower than pi, so Q
    lies strictly inside.  The path is the leg Q -> z, which misses the
    origin unless z points opposite to Q; then it goes through
    M = Q + h_(c+1), also strictly inside the chamber, and neither Q -> M
    nor M -> z is radial: cross(Q, M) = cross(h_c, h_(c+1)) > 0, and
    cross(M, z) = t * cross(Q, M) for z = -t*Q.  Q and M lie on no wall,
    so every leg passes scattering.leg_crossings.

    The errors are the search's.  An endpoint on a wall raises first.  The
    search raises for a ray into the origin exactly at its first root
    F = m + a*g1 + b*g2 (a + b <= K, F != 0, by ascending a, then b) with
    cross(z, F) = 0 and dot(z, F) < 0: no later node has cross = 0
    (_search, 1.).  The transport checks the roots in that order, by the
    search's own test (_turn).

    Every other diagram, and K above the order, run the search of
    enumerate_lines (_search), which builds no line here: a line's
    coefficient is the product of its bend coefficients, added to the term
    of its final exponent.
    """
    m = _lattice_vector(m, "m")
    K = _check_order(K, search_form(fd, diagram).order)
    if m == (0, 0):
        # both paths check the endpoint otherwise
        _endpoint(endpoint)
        return LaurentPoly({m: 1}, m, K)
    if K <= diagram.order and diagram.complete_finite():
        terms = _transported(fd, diagram, m, endpoint, K)
    else:
        terms = {}
        for steps in _search(fd, diagram, m, endpoint, K):
            f = steps[0][1]
            terms[f] = terms.get(f, 0) + prod(c for _, _, c in steps)
    return LaurentPoly(dict(sorted(terms.items())), m, K)


def _transported(fd, diagram, m, endpoint, K):
    """The terms of theta_m at the endpoint by transport, with the search's
    errors: the path and the proofs are in theta's docstring."""
    (x, y, q), roots = _roots(fd, diagram, m, endpoint, K)
    for fx, fy, _, _ in roots:
        if x * fy == y * fx:
            _turn(x, y, q, fx, fy)
    halves = diagram._halves
    c = (diagram.near(*m)[1] - 1) % len(halves)
    h, k = halves[c], halves[(c + 1) % len(halves)]
    Q = (h[0] + k[0], h[1] + k[1])
    path = [Q, endpoint]
    if Q[0] * y == Q[1] * x and Q[0] * x + Q[1] * y < 0:
        path.insert(1, (Q[0] + k[0], Q[1] + k[1]))
    return path_ordered_product(fd, diagram, path, LaurentPoly.monomial(m, K)).terms


def theta_of_lines(m, lines, K):
    """The sum of c * z^F over the broken lines with initial exponent m,
    its terms sorted by exponent, as theta gives them."""
    terms = {}
    for line in lines:
        terms[line.final] = terms.get(line.final, 0) + line.coeff
    return LaurentPoly(dict(sorted(terms.items())), tuple(m), K)


def reverse(segment):
    pieces = [Piece(vneg(p.exponent), p.coeff, None, p.duration)
              for p in reversed(segment.pieces)]
    return Segment(segment.end, segment.start, pieces, segment.total_time)


def bend_coefficient(fd, diagram, point, m_prev, m_next):
    """Coefficient of the bend m_prev -> m_next at the point (1 if trivial).

    Raises ValueError when the point lies on no wall or when no wall
    through it gives the step a nonzero coefficient.
    """
    search_form(fd, diagram)
    if tuple(m_prev) == tuple(m_next):
        return 1
    fams = diagram.families(point)
    if not fams:
        raise ValueError("bend point %r lies on no wall" % (point,))
    step = vsub(m_next, m_prev)
    for fam in fams:
        m0 = fam.m0
        if not same_ray(step, m0):
            continue
        i = 0 if m0[0] != 0 else 1
        # same_ray makes k > 0, so k >= 1 unless the step is a fractional
        # multiple of m0, which exponents glued from rescaled lines can give
        k, r = divmod(step[i], m0[i])
        if r:
            continue
        # L times the pairing with n0; exponents are Fractions on glued segments
        pw = fam.a[0] * m_prev[0] + fam.a[1] * m_prev[1]
        if pw % fd.L or pw == 0:
            continue
        c = fam.coefficient(abs(pw) // fd.L, k)
        if c != 0:
            return c
    raise ValueError("bend %r -> %r at %r is not allowed" % (m_prev, m_next, point))


def validate_segment(fd, diagram, segment):
    """Verdict (bool, first_violation_message_or_None), from _walk."""
    for x in _walk(fd, diagram, segment):
        if type(x) is not int:
            return False, str(x)
    return True, None


def segment_coefficients(fd, diagram, segment):
    """The cumulative coefficient of each piece, the product of the bend
    coefficients before it, from _walk.  A bend that no wall allows raises
    its ValueError; the other violations are validate_segment's to report."""
    coeffs = []
    for x in _walk(fd, diagram, segment):
        if isinstance(x, ValueError):
            raise x
        if type(x) is int:
            coeffs.append(x)
    return coeffs


def _walk(fd, diagram, segment):
    """The walk along a segment that validate_segment and
    segment_coefficients share.

    It yields, in walk order, the cumulative coefficient of each piece (an
    int) as it enters the piece, and each violation where it finds it: a
    message (a str) for a zero exponent, a negative duration, a bend
    coefficient <= 0, a wrong end or a wrong total time, and for a bend
    that no wall allows the ValueError of bend_coefficient, after which it
    stops.  Positions are those of Segment.positions, shown as rational
    arithmetic on the given values gives them.
    """
    search_form(fd, diagram)  # fd must be the diagram's, whatever the bends
    if not isinstance(segment, Segment):
        raise ValueError("segment must be a Segment, got %r" % (segment,))
    pieces = segment.pieces
    pos = segment.positions()
    coeff = 1
    for i, p in enumerate(pieces):
        yield coeff
        m = p.exponent
        if is_zero(m):
            yield "piece %d has zero exponent" % i
        if (p.duration or 0) < 0:
            yield "piece %d has negative duration" % i
        if i + 1 < len(pieces):
            m_next = pieces[i + 1].exponent
            try:
                c = bend_coefficient(fd, diagram, pos[i + 1], m, m_next)
            except ValueError as e:
                # both readers stop here, so c is never read unset
                yield e
            if c <= 0:
                yield "bend %r -> %r at %r is not allowed" % (m, m_next, pos[i + 1])
            coeff *= c
    if pos[-1] != segment.end:
        yield "segment ends at %r, expected %r" % (pos[-1], segment.end)
    total = sum((p.duration or 0 for p in pieces), Fraction(0))
    if total != segment.total_time:
        yield "durations sum to %r, expected total %r" % (total, segment.total_time)
