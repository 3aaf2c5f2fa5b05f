"""Broken-line convexity, hulls and positivity for rank-2 diagrams.

Convexity is decided in charts: a region is broken-line convex exactly when
its image under every seed-chart straightening map is ordinarily convex.
The straightening maps are integral piecewise-linear bijections, stored as
counterclockwise sector lists with one unimodular matrix per sector.
"""

import functools
import random
from fractions import Fraction
from math import gcd, lcm

from .geometry import (vadd, vsub, vneg, vscale, primitive, line_key, cross,
                       ccw_key, sort_ccw, rot90, convex_hull,
                       cycle_is_convex, compile_hull, homogeneous, rational, _rational_points)
from .lattice import p1_star, skew_form, line_dir
from .series import _check_order, _int_at_least
from .scattering import search_form
from .brokenline import Segment, Piece, validate_segment
from .constructions import (structure_constant, pair_from_segment, _alpha_cached,
                            _product_cached)

I2 = ((1, 0), (0, 1))


def mat_vec(M, v):
    return (M[0][0] * v[0] + M[0][1] * v[1], M[1][0] * v[0] + M[1][1] * v[1])


def mat_mul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def mat_inv(M):
    d = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return ((M[1][1] // d, -M[0][1] // d), (-M[1][0] // d, M[0][0] // d))


class PLMap:
    """Piecewise-linear map: ccw list of (sector start direction, matrix).

    Sector i acts on directions in [start_i, start_{i+1}) counterclockwise;
    a single-sector map is linear.  The starts are sorted counterclockwise
    from the positive x-axis (geometry.ccw_key), and kept at construction as
    rows (half, x, y, M) from the last start to the first, where half tells
    whether the start lies in the lower half-turn (y < 0, or y == 0 and
    x < 0); ``matrix_at`` reads the rows in that order.

    ``lines`` holds the map's fold lines: its boundary directions up to
    sign, each as its ``line_key``.  A linear map has none.  A fold line
    cuts a point set when two of the points lie strictly on opposite sides
    of it; a map none of whose fold lines cuts a set is linear on it (see
    ``_linear_on``).
    """

    def __init__(self, sectors):
        self.sectors = self._canonical(list(sectors))
        self._inverse = None
        secs = self.sectors
        # the sector start directions; none for a linear map
        self.boundaries = () if len(secs) == 1 else tuple(s for s, _ in secs)
        self.lines = tuple(dict.fromkeys(map(line_key, self.boundaries)))
        self._rows = tuple((y < 0 or (y == 0 and x < 0), x, y, M)
                           for (x, y), M in reversed(secs))
        self._last = secs[-1][1]

    @staticmethod
    def _canonical(sectors):
        sectors = sorted(((tuple(primitive(s)), tuple(map(tuple, M)))
                          for s, M in sectors), key=lambda sm: ccw_key(sm[0]))
        out = []
        for s, M in sectors:
            if out and out[-1][1] == M:
                continue
            out.append((s, M))
        while len(out) > 1 and out[0][1] == out[-1][1]:
            out.pop(0)
        if len(out) == 1:
            out[0] = ((1, 0), out[0][1])
        return tuple(out)

    @classmethod
    def identity(cls):
        return cls([((1, 0), I2)])

    def __eq__(self, other):
        return isinstance(other, PLMap) and self.sectors == other.sectors

    def __hash__(self):
        return hash(self.sectors)

    def matrix_at(self, d):
        """The matrix of the sector holding the nonzero direction d.

        d lies in the sector of the last start s at or before it
        counterclockwise from the positive x-axis: s is in an earlier
        half-turn than d, or in the same one with cross(s, d) >= 0.  When no
        start comes before d, d lies in the last sector, which wraps past
        the axis.
        """
        x, y = d
        half = y < 0 or (y == 0 and x < 0)
        for h, sx, sy, M in self._rows:
            if h < half or (h == half and sx * y - sy * x >= 0):
                return M
        return self._last

    def image(self, points):
        """Images of homogeneous points (X, Y, q); each keeps its q."""
        matrix_at = self.matrix_at
        out = []
        for X, Y, q in points:
            (a, b), (c, d) = matrix_at((X, Y)) if X or Y else I2
            out.append((a * X + b * Y, c * X + d * Y, q))
        return out

    def compose(self, other):
        """self after other."""
        dirs = set()
        for s in other.boundaries:
            dirs.add(s)
            dirs.add(vneg(s))
        for b in self.boundaries:
            for s, M in other.sectors:
                d = primitive(mat_vec(mat_inv(M), b))
                for cand in (d, vneg(d)):
                    dirs.add(cand)
        if not dirs:
            return PLMap([((1, 0), mat_mul(self.sectors[0][1], other.sectors[0][1]))])
        dirs = sort_ccw(dirs)
        sectors = []
        n = len(dirs)
        for i in range(n):
            u, w = dirs[i], dirs[(i + 1) % n]
            rep = rot90(u) if cross(u, w) == 0 else vadd(u, w)
            Mo = other.matrix_at(primitive(rep))
            Ms = self.matrix_at(primitive(mat_vec(Mo, rep)))
            sectors.append((u, mat_mul(Ms, Mo)))
        return PLMap(sectors)

    def inverse(self):
        """The inverse map, computed once and kept on this map."""
        if self._inverse is None:
            inv = PLMap((primitive(mat_vec(M, s)), mat_inv(M)) for s, M in self.sectors)
            inv._inverse = self
            self._inverse = inv
        return self._inverse

    def normalized(self):
        """Representative modulo linear maps applied after this one.

        Convexity of the image is unchanged by a linear change of target
        coordinates, so charts are compared in this normal form.
        """
        inv = mat_inv(self.matrix_at((1, 0)))
        return PLMap([(s, mat_mul(inv, M)) for s, M in self.sectors])


def shear_map(fd, n, dk):
    """Straightening of the incoming wall with normal n: identity where the
    pairing with n is nonpositive, shear along the wall on the other side."""
    g = p1_star(fd, n)
    M = []
    for i in range(2):
        row = []
        for j in range(2):
            # M[i][j] = delta_ij + dk * n[j] * g[i] / d[j]
            q, r = divmod(dk * n[j] * g[i], fd.d[j])
            if r:
                raise ValueError("straightening matrix is not integral for normal %r" % (n,))
            row.append((1 if i == j else 0) + q)
        M.append(tuple(row))
    M = tuple(M)
    d = line_dir(fd, n)
    # <n, rot90(d)> = -(n0^2*d1/d0 + n1^2*d0/d1)/g < 0, so the side where the
    # pairing with n is positive starts at -d, counterclockwise
    return PLMap([(vneg(d), M), (d, I2)])


def _mutate_basis(fd, basis, k):
    """Mutation at k: e_k -> -e_k and e_i -> e_i + max(eps_ik, 0) e_k."""
    ek, ei = basis[k], basis[1 - k]
    ei = vadd(ei, vscale(max(skew_form(fd, ei, ek) * fd.d[k], 0), ek))
    return (vneg(ek), ei) if k == 0 else (ei, vneg(ek))


# Steps per mutation walk.  Every finite type closes well within it; only
# diagrams whose walk never closes (affine and wild types) reach it.
DEPTH_BOUND = 16

# Closure rounds of blc_hull_2d; a hull still growing after them is flagged.
HULL_ROUNDS = 64


def chart_maps(fd):
    """All seed-chart straightening maps reachable by mutation; (maps, closed).

    The charts depend only on the lattice data, so each walk runs once per
    distinct (exchange, d) and is shared by equal FixedData objects.  The
    returned list is a fresh copy; the PLMap objects in it are shared and
    must not be mutated.
    """
    maps, closed = _chart_maps_by_value(fd)
    return list(maps), closed


@functools.lru_cache(maxsize=16)
def _chart_maps_by_value(fd):
    """The mutation walk behind chart_maps, DEPTH_BOUND steps each way.

    In rank 2 every seed lies on one of the two alternating mutation walks
    from the initial seed.  Maps are collected modulo linear target
    coordinates, which convexity cannot see.  The cache is keyed by fd,
    which hashes and compares by (exchange, d).
    """
    phi0 = PLMap.identity().normalized()
    maps = dict.fromkeys([phi0])  # the charts, in the order first reached
    closed = True
    for first in range(2):
        basis = ((1, 0), (0, 1))
        phi = PLMap.identity()
        for step in range(DEPTH_BOUND):
            k = (first + step) % 2
            phi = shear_map(fd, basis[k], fd.d[k]).compose(phi)
            basis = _mutate_basis(fd, basis, k)
            norm = phi.normalized()
            if norm == phi0:
                break
            maps.setdefault(norm)
        else:
            closed = False
    return tuple(maps), closed


class CheckReport:
    """A verdict with its witnesses and the bounds it was checked to.

    ``witnesses`` is a list.  A report may hold, in place of the list, the
    pending search that finds it (``_find``, a function of no arguments
    returning one witness or None); the search runs the first time
    ``witnesses`` is read, and its list is kept.  Assigning ``witnesses``
    drops a pending search.  ``repr``, ``copy`` and ``pickle`` read the
    witnesses, so a copy carries the list and never the search.
    """

    def __init__(self, verdict, witnesses=None, degree_checked=None,
                 order_checked=None, closed=True):
        self.verdict = verdict  # True / False / None (unknown)
        self.witnesses = witnesses or []
        self.degree_checked = degree_checked
        self.order_checked = order_checked
        self.closed = closed

    @property
    def witnesses(self):
        if self._find is not None:
            wit = self._find()
            self._find = None
            self._witnesses = [wit] if wit is not None else []
        return self._witnesses

    @witnesses.setter
    def witnesses(self, witnesses):
        self._find = None
        self._witnesses = witnesses

    def __getstate__(self):
        self.witnesses  # run a pending search, so the state holds its list
        return self.__dict__

    def __repr__(self):
        return "CheckReport(verdict=%r, witnesses=%r)" % (self.verdict, self.witnesses)


def _edge_fold_points(a, b, folds):
    """Points where segment a->b crosses fold rays strictly inside, ordered
    along the edge (homogeneous).

    This is the one crossing test of the chart images.  Along a->b the side
    of a fold's line, cross(s, a + t*(b - a)), is linear in t with slope
    den; when den != 0 it vanishes at one t, and that t lies in (0, 1)
    exactly when a and b lie strictly on opposite sides of the line.  So an
    edge or chord whose ends no fold line separates gives [], and so do two
    equal points, for which den == 0 for every fold.
    """
    (ax, ay, aq), (bx, by, bq) = a, b
    vx, vy = bx * aq - ax * bq, by * aq - ay * bq  # (b - a)*aq*bq
    hits = []
    for s in folds:
        den = vx * s[1] - vy * s[0]
        if den == 0:
            continue
        c = s[0] * ay - s[1] * ax
        if den < 0:
            den, c = -den, -c
        if not 0 < c * bq < den:  # the crossing is at t = c*bq/den along a->b
            continue
        X, Y, q = ax * den + c * vx, ay * den + c * vy, aq * den
        if X * s[0] + Y * s[1] >= 0:
            g = gcd(X, Y, q)
            hits.append((c * bq, den, (X // g, Y // g, q // g)))
    if len(hits) < 2:
        return [pt for _, _, pt in hits]
    # t = c*bq/den, compared over the common denominator D
    D = lcm(*(den for _, den, _ in hits))
    hits.sort(key=lambda h: h[0] * (D // h[1]))
    return list(dict.fromkeys(pt for _, _, pt in hits))


def refine_cycle(cycle, folds):
    """The homogeneous cycle with the fold crossings of its edges inserted.

    Every edge goes through ``_edge_fold_points``, which returns [] for an
    edge whose ends no fold line separates strictly, so only the edges
    that cross a fold ray strictly inside gain points."""
    out = []
    n = len(cycle)
    for i, a in enumerate(cycle):
        out.append(a)
        out.extend(_edge_fold_points(a, cycle[i + 1 if i + 1 < n else 0], folds))
    return out


def _linear_on(points):
    """The test ``linear(phi)``: whether no fold line of phi cuts the
    homogeneous points.  Each line's cut bit is computed at most once.

    A chart phi that passes is linear on the points.  Each of its fold
    lines leaves every point on one closed side, so the points lie in one
    closed cell of the arrangement of those lines.  The cell is a convex
    cone into which no fold line enters, so it lies in one closed sector of
    phi, and phi, being continuous, acts on it by that sector's matrix M.
    That holds in the degenerate case too: points on both rays of one fold
    line lie strictly on the two sides of any other line, so that line is
    phi's only fold line, and the matrices of its two sectors agree on it.
    Hence ``map_cycle(phi, cycle)`` is M applied to the cycle's points:
    ``refine_cycle`` inserts nothing, as ``_edge_fold_points`` finds a
    crossing only on an edge whose ends lie strictly on opposite sides of a
    fold's line, and M, being unimodular, changes the sign of every turn or
    of none.
    """
    cuts = {}

    def linear(phi):
        for line in phi.lines:
            cut = cuts.get(line)
            if cut is None:
                sx, sy = line
                # bit 1: a point strictly left of the line, bit 2: strictly right
                signs = 0
                for X, Y, _ in points:
                    c = sx * Y - sy * X
                    signs |= 1 if c > 0 else 2 if c < 0 else 0
                cut = cuts[line] = signs == 3
            if cut:
                return False
        return True
    return linear


def map_cycle(phi, cycle):
    """The image under phi of a cycle of homogeneous points refined at the
    folds of phi.  The points must already be reduced triples, as
    geometry.homogeneous gives them; every image point is one too."""
    return phi.image(refine_cycle(cycle, phi.boundaries))


def _segment_from_polyline(poly, start, end):
    """The segment along the homogeneous polyline from start to end, start != end."""
    pieces = []
    tn, td = 0, 1  # the total time, tn/td
    for (ax, ay, aq), (bx, by, bq) in zip(poly, poly[1:]):
        dx, dy = ax * bq - bx * aq, ay * bq - by * aq  # (a - b)*aq*bq
        g, d = gcd(dx, dy), aq * bq
        pieces.append(Piece((dx // g, dy // g), 1, None, Fraction(g, d)))
        tn, td = tn * d + g * td, td * d
    return Segment(start, end, pieces, Fraction(tn, td))


def _convexity_witness(fd, diagram, cycle, phi, image):
    """A validated broken-line segment with endpoints in the region leaving it;
    image is the image of the cycle's homogeneous points in the chart phi.

    Chords (i, j) of the image are tried in order; a chord is pulled back by
    phi's inverse into a base polyline, bent where it crosses a fold of the
    inverse.  The ends of every pullback are points of the refined cycle, so
    they lie in the region, and the region is convex.  Hence a chord that
    crosses no fold strictly inside pulls back to a straight chord of the
    region and is passed over, and any other chord leaves the region
    exactly when one of its pulled-back fold points does.
    """
    points = [homogeneous(p) for p in cycle]
    region = compile_hull(points)
    given = dict(zip(points, cycle))
    phi_inv = phi.inverse()
    folds = phi_inv.boundaries
    n = len(image)
    for i in range(n):
        for j in range(i + 1, n):
            # [] for equal points and for a chord no fold line separates
            crossings = _edge_fold_points(image[i], image[j], folds)
            if not crossings:
                continue
            # the straight chart chord pulled back as a base polyline
            poly = phi_inv.image([image[i]] + crossings + [image[j]])
            if all(region.contains(*p) for p in poly[1:-1]):
                continue
            ends = [given.get(p) or rational(p) for p in (poly[0], poly[-1])]
            seg = _segment_from_polyline(poly, *ends)
            # the reversed segment has the same bend steps and the same
            # |<n0', m_prev>| at each bend, so it validates exactly when seg does
            if validate_segment(fd, diagram, seg)[0]:
                return seg
    return None


def is_blc_2d(fd, diagram, cycle, K=None):
    """Chart-convexity check; cycle is a ccw vertex list (1 or 2 points allowed).

    Every collected map is a genuine seed chart, so a non-convex image is a
    sound failure even when the chart set never closes; certifying convexity
    needs the closed set, otherwise the verdict is None (unknown).

    The first chart is the identity and decides whether the cycle itself is
    convex: its image is the cycle's own points, which are tested and handed
    to the witness search unmapped.  A later chart none of whose fold lines
    cuts the cycle's points is linear on them (``_linear_on``), so its image
    is convex exactly when the cycle is: it is skipped without being mapped.

    A False report returns at the first chart whose image is not convex.
    Its witness is searched for in that chart (``_convexity_witness``) the
    first time the report's ``witnesses`` is read; the search keeps the
    cycle, the chart and its image until then, and reads the diagram's
    walls as they are at the read.  The verdict never depends on the
    search: a search that finds no segment gives ``[]``.
    """
    cycle = _polygon(cycle, "cycle")
    # the verdict reads only the charts, which must be the diagram's
    K = _check_order(K, search_form(fd, diagram).order)
    points = [homogeneous(p) for p in cycle]
    charts, closed = chart_maps(fd)
    linear = _linear_on(points)
    for k, phi in enumerate(charts):
        if k and linear(phi):
            continue
        image = map_cycle(phi, points) if k else points
        if not cycle_is_convex(image):
            rep = CheckReport(False, order_checked=K, closed=closed)
            rep._find = functools.partial(_convexity_witness, fd, diagram, cycle, phi, image)
            return rep
    if not closed:
        return CheckReport(None, order_checked=K, closed=False)
    return CheckReport(True, order_checked=K)


def blc_hull_2d(fd, diagram, pts):
    """Smallest chart-convex region containing the points, as a base-chart cycle.

    A vertex that is one of the points comes back as the tuple given (the
    first of equal-valued ones); a vertex the closure adds is a Fraction pair.

    Each closure round maps the hull through every chart, hulls the image
    and pulls it back.  A chart none of whose fold lines cuts the hull is
    skipped: it acts on the hull's closed cell C by one matrix M
    (``_linear_on``), so the image is M·hull.  Its inverse maps M·C, a
    closed sector of the inverse that no fold ray of the inverse enters, by
    M⁻¹, so the pullback is the hull's own vertices and adds nothing to V.

    Between rounds V keeps only the current hull's vertices.  The hulls only
    grow, and a point inside a hull, or on an edge between two of its
    vertices, is a vertex of no larger one, so the rounds give the same
    hulls, and the same tuples back, as when V keeps every point.
    """
    pts = _polygon(pts, "pts")
    # the hull reads only the charts, which must be the diagram's
    search_form(fd, diagram)
    charts, closed = chart_maps(fd)
    # homogeneous point -> the tuple given, None for a point the closure adds
    V = {}
    for p in pts:
        V.setdefault(homogeneous(p), p)
    flagged = not closed
    prev = None
    for _ in range(HULL_ROUNDS):
        hull = convex_hull(V)
        V = {h: V[h] for h in hull}
        if hull == prev:
            break
        prev = hull
        linear = _linear_on(hull)
        for phi in charts:
            if linear(phi):
                continue
            image = map_cycle(phi, hull)
            # the chart hull and its fold crossings, pulled back
            back = map_cycle(phi.inverse(), convex_hull(image))
            for h in back:
                V.setdefault(h, None)
    else:
        flagged = True
    return [V[h] or rational(h) for h in convex_hull(V)], flagged


def check_positive(fd, diagram, cycle, max_degree, K=None):
    """Bounded positivity scan using structure constants; first violation wins.

    Pairs (p, q) of lattice points of the dilations aP and bP, a <= b and
    a + b <= max_degree, are scanned in a fixed order: by a + b, then a, then
    p and q descending.  A pair can only produce a violation if some exponent
    of the theta product escapes (a + b)P, since structure constants are
    nonnegative and each contributing exponent shows up in the product.
    Pairs whose whole truncation triangle p+q+{order <= K} sits inside are
    skipped without any series work, and so are the pairs in one closed
    chamber of a complete diagram of finite type (Diagram.one_cone):
    their product is theta_{p+q}, and p + q lies in aP + bP = (a + b)P.

    The scan is one integer pass over the one compiled hull of P: the
    lattice points of each dilation, descending, are listed once when first
    needed (those of bP only when aP holds one), the planes of (a + b)P are
    those of P with N scaled, pairs with the origin are left out of the
    lists (they cannot escape), the corners are tested on ints, and products
    and alpha tables come from the caches of constructions (_product_cached,
    _alpha_cached); only a miss computes them.  The corner p + q itself is
    not tested: P is convex, so aP + bP = (a + b)P holds it.

    When a == b only the pairs with q <= p are scanned.  Every test of a
    pair is symmetric in p and q (the corners, one_cone, and the product
    and alpha table, keyed by the unordered pair), and with p then q
    descending (u, v) comes before (v, u) for u > v, so the first violation
    of the full scan has p >= q and the half scan finds it, with the same
    witness, and computes the same products and tables.
    """
    cycle = _polygon(cycle, "cycle")
    # degree 2 is the first with a pair to check; below it a True would be a guess
    _int_at_least(max_degree, 2, "max_degree")
    K = _check_order(K, search_form(fd, diagram).order)
    region = compile_hull(cycle)
    # the nonzero lattice points of each dilation kP, descending (the
    # ascending scan reversed), listed when first needed.  A pair with the
    # origin is never a violation: the origin in bP puts it in P, and then
    # aP lies in (a + b)P, as P is convex.
    listed = {}

    def lattice(k):
        if k not in listed:
            listed[k] = pts = region.lattice_points(k)
            pts.reverse()
            if (0, 0) in pts:
                pts.remove((0, 0))
        return listed[k]

    one_cone = diagram.one_cone
    # (a + b)P has the planes A*x + B*y >= (a + b)*N, so both corners
    # s + K*g1 and s + K*g2 of s = p + q lie in it exactly when
    # A*sx + B*sy + m >= (a + b)*N for every plane, with
    # m = K*min(A*g1x + B*g1y, A*g2x + B*g2y), as K >= 0
    (g1x, g1y), (g2x, g2y) = fd.monoid_gens
    corners = [(A, B, N, K * min(A * g1x + B * g1y, A * g2x + B * g2y))
               for A, B, N in region.planes]

    for total in range(2, max_degree + 1):
        for a in range(1, total // 2 + 1):
            b = total - a
            pa = lattice(a)
            pb = lattice(b) if pa else ()
            for i, p in enumerate(pa):
                px, py = p
                for q in pb[i:] if a == b else pb:
                    sx, sy = px + q[0], py + q[1]
                    for A, B, N, m in corners:
                        if A * sx + B * sy + m < total * N:
                            break
                    else:
                        continue
                    if one_cone(p, q):
                        continue
                    prod = _product_cached(fd, diagram, p, q, K)
                    if all(region.contains(*e, total) for e in prod.terms):
                        continue
                    table = _alpha_cached(fd, diagram, p, q, K)
                    for r in sorted(table):
                        if not region.contains(*r, total):
                            w = {"p": p, "q": q, "r": r, "a": a, "b": b, "alpha": table[r]}
                            return CheckReport(False, [w], degree_checked=max_degree,
                                               order_checked=K)
    return CheckReport(True, degree_checked=max_degree, order_checked=K)


def _polygon(points, name):
    """The polygon argument name as a list of rational pairs.  It must list
    a point: every chart image of no points is convex, so a True verdict
    would be vacuous, and no points have no hull."""
    points = _rational_points(points, name, "point %d")
    if not points:
        raise ValueError("%s lists no points" % name)
    return points


def _random_polygon(rng):
    n = rng.randint(2, 5)
    pts = set()
    while len(pts) < n:
        x = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2)))
        y = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2)))
        pts.add((x, y))
    if rng.random() < 0.5:
        pts.add((Fraction(0), Fraction(0)))
    return convex_hull(pts)


# The largest a + b of a split pair that _certify_failure reads alpha for.
CERTIFY_MAX_AB = 24


def _certify_failure(fd, diagram, cycle, seg, K):
    """Turn a convexity witness segment into an explicit positivity violation.

    The segment is split at the midpoint of its first piece of positive
    length whose midpoint lies outside the region."""
    region = compile_hull(cycle)
    for (t0, t1, pos), p in zip(seg.intervals(), seg.pieces):
        half = (t1 - t0) / 2
        if half > 0 and not region.contains(*homogeneous(vsub(pos, vscale(half, p.exponent)))):
            break
    else:
        return None
    try:
        pair, tr = pair_from_segment(fd, diagram, seg, t0 + half)
        if tr.a + tr.b > CERTIFY_MAX_AB:
            return None
        p = tuple(pair.line1.initial)
        q = tuple(pair.line2.initial)
        r = tuple(pair.base)
        # alpha at r needing order above K raises; no certificate then
        alpha = structure_constant(fd, diagram, p, q, r, K)
    except (ValueError, ArithmeticError):
        return None
    if alpha == 0:
        return None
    return {"p": p, "q": q, "r": r, "a": tr.a, "b": tr.b, "alpha": alpha}


def main_theorem_harness(fd, diagram, trials, max_degree=3, K=None, perturb_seed=0):
    """Random polygons: positivity scan verdict vs chart-convexity verdict."""
    _int_at_least(trials, 0, "trials")
    _int_at_least(max_degree, 2, "max_degree")
    # fd must be the diagram's, even for no trials
    K = _check_order(K, search_form(fd, diagram).order)
    rng = random.Random(perturb_seed)
    report = {"trials": trials, "agree": 0, "skipped_unknown": 0,
              "certified_beyond_bound": 0, "disagreements": []}
    for _ in range(trials):
        cycle = _random_polygon(rng)
        blc = is_blc_2d(fd, diagram, cycle, K)
        if blc.verdict is None:
            report["skipped_unknown"] += 1
            continue
        pos = check_positive(fd, diagram, cycle, max_degree, K)
        if blc.verdict == pos.verdict:
            report["agree"] += 1
            continue
        if blc.verdict is False and pos.verdict is True and blc.witnesses:
            wit = _certify_failure(fd, diagram, cycle, blc.witnesses[0], K)
            if wit is not None:
                report["certified_beyond_bound"] += 1
                continue
        report["disagreements"].append({
            "polygon": cycle, "is_blc": blc.verdict, "positive": pos.verdict,
            "blc_witnesses": blc.witnesses, "pos_witnesses": pos.witnesses})
    return report
