"""Structure constants and the two constructive directions:

balanced pair of broken lines -> broken line segment (dilate, bend the
support towards the origin, attach rescaled monomials, glue at the common
endpoint), and segment -> balanced pair (split at an interior time, read off
exponents from the affine invariant x + t*m of each piece).
"""

import heapq
from fractions import Fraction
from math import lcm

from .geometry import vadd, vsub, vneg, vscale, is_zero, _rational_pair
from .lattice import pairing, n_circ_primitive, dual_perp, cone_order
from .series import lp_mul, _kept, _check_order, _int_at_least, _lattice_vector
from .scattering import search_form
from .brokenline import (BrokenLine, Segment, Piece, theta, segment_coefficients, reverse,
                         _assemble, _rational)


class BalancedPair:
    def __init__(self, line1, line2, base):
        for name, line in (("line1", line1), ("line2", line2)):
            if not isinstance(line, BrokenLine):
                raise ValueError("%s must be a BrokenLine, got %r" % (name, line))
        self.line1 = line1
        self.line2 = line2
        self.base = _rational_pair(base, "base")

    def is_balanced(self):
        return vadd(self.line1.final, self.line2.final) == self.base

    def __repr__(self):
        return "BalancedPair(base=%r, F1=%r, F2=%r)" % (
            self.base, self.line1.final, self.line2.final)


class ConstructionTrace:
    def __init__(self, C, xt, times, tau):
        self.C = C
        self.xt = xt
        self.times = times
        self.tau = tau


class ReverseTrace:
    def __init__(self, mt1, mt2, a, b):
        self.mt1 = mt1
        self.mt2 = mt2
        self.a = a
        self.b = b


def structure_constant(fd, diagram, p, q, r, K=None):
    """alpha(p, q, r), the coefficient of theta_r in theta_p * theta_q, as an int.

    Read from alpha_table at order K (the diagram order by default): 0 when
    r - p - q lies outside the cone.  Raises ValueError when r - p - q has
    cone order above K, since the order-K table does not determine alpha there.
    """
    p, q, r = (_lattice_vector(v, name) for v, name in ((p, "p"), (q, "q"), (r, "r")))
    # search_form checks fd before cone_order reads it
    K = _check_order(K, search_form(fd, diagram).order)
    k = cone_order(fd, vsub(r, vadd(p, q)))
    if k is not None and k > K:
        raise ValueError("alpha at r = %r needs order %s, above K = %s" % (r, k, K))
    return _alpha_cached(fd, diagram, p, q, K).get(r, 0)


def _theta_cached(fd, diagram, m, z0, K):
    """theta_m at z0 and order K, built once per diagram.  This and the
    two caches below read the diagram's own: each of their callers
    (alpha_table, structure_constant, check_positive) has checked fd and
    the diagram with search_form."""
    cache = diagram.thetas
    key = (tuple(m), tuple(z0), K)
    if key not in cache:
        cache[key] = theta(fd, diagram, m, z0, K)
    return cache[key]


def _pair_key(p, q, K):
    """The cache key of the unordered pair {p, q} at order K, for products and alpha tables."""
    p, q = tuple(p), tuple(q)
    return ((p, q) if p <= q else (q, p), K)


def _product_cached(fd, diagram, p, q, K):
    """theta_p * theta_q at EXPANSION_ENDPOINT, built once per ({p, q}, K)."""
    cache = diagram.products
    key = _pair_key(p, q, K)
    if key not in cache:
        lo, hi = key[0]
        cache[key] = lp_mul(fd, _theta_cached(fd, diagram, lo, EXPANSION_ENDPOINT, K),
                            _theta_cached(fd, diagram, hi, EXPANSION_ENDPOINT, K))
    return cache[key]


def _alpha_cached(fd, diagram, p, q, K):
    cache = diagram.alphas
    key = _pair_key(p, q, K)
    if key not in cache:
        cache[key] = alpha_table(fd, diagram, p, q, K)
    return cache[key]


# The point at which every theta-basis expansion evaluates its theta
# functions.  FixedData makes e01*e10 < 0, so the cone sigma of the monoid,
# spanned by g1 = (0, e01) and g2 = (e10, 0), lies in {x*y <= 0}.  Diagram
# puts every wall on the line of its function direction m0, a nonzero point
# of sigma, and that whole line lies in {x*y <= 0} too.  This point has
# x*y > 0, so neither it nor its negative lies on a wall line: it lies on
# no wall of any diagram.  Its coordinates are coprime, so a traced ray runs
# into the origin only for an exponent -k*(9973, 9967), k >= 1, where theta
# raises.
EXPANSION_ENDPOINT = (9973, 9967)


def alpha_table(fd, diagram, p, q, K=None):
    """All r with alpha(p,q,r) != 0, by triangular decomposition in the theta basis.

    The remainder of theta_p * theta_q is an int term dict, its exponents in
    a heap keyed by (order over p + q, exponent).  Subtracting c * theta_e
    only adds terms of higher order than e, so the heap yields the exponents
    in the order of a full scan.

    Each theta_e of the peel is read at EXPANSION_ENDPOINT and holds z^e
    with coefficient 1, so subtracting n * theta_e clears the term at e.
    theta either returns or raises, and what it returns holds z^e once.  The
    search's lines end at the roots e + a*g1 + b*g2 (brokenline._search):
    only a = b = 0 ends at e, and that line does not bend, so it has
    coefficient 1.  The transport crosses one family at a time, z^t ->
    z^t * f^pw, with f^pw = 1 + terms in k*m0, k >= 1, and m0 a nonzero
    point of the pointed cone sigma.  So every term lies at e plus a sum of
    such shifts, only the empty sum lands on e, and z^e is carried by the 1
    of each f^pw alone.

    A pair in one closed chamber of a complete diagram of finite type gives
    {p + q: 1} before any theta or product work: theta_p * theta_q =
    theta_{p+q} there (Diagram.one_cone states the theorem and its guard).
    """
    p, q = _lattice_vector(p, "p"), _lattice_vector(q, "q")
    K = _check_order(K, search_form(fd, diagram).order)
    if is_zero(p):
        return {q: 1}
    if is_zero(q):
        return {p: 1}
    base = vadd(p, q)
    if diagram.one_cone(p, q):
        return {base: 1}
    ux, uy, vx, vy, _ = fd.order_form
    wx, wy = ux + vx, uy + vy

    def key(e):
        return wx * (e[0] - base[0]) + wy * (e[1] - base[1]), e

    rem = dict(_product_cached(fd, diagram, p, q, K).terms)
    heap = [key(e) for e in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        e = heapq.heappop(heap)[1]
        n = rem.pop(e)
        if not n:
            continue
        out[e] = n
        th = _theta_cached(fd, diagram, e, EXPANSION_ENDPOINT, K)
        # the leading term cancels n exactly; every other term lies above e
        for t, m in _kept(fd, th.terms, base, K).items():
            if t != e:
                if t not in rem:
                    rem[t] = 0
                    heapq.heappush(heap, key(t))
                rem[t] -= n * m
    return out


def _endpoint_first(gamma):
    """The exponents m_0..m_s of a broken line, endpoint-first."""
    ms = [p.exponent for p in reversed(gamma.pieces)]
    if any(m == n for m, n in zip(ms, ms[1:])):
        raise ValueError("broken line bends trivially: two consecutive pieces "
                         "share an exponent")
    return ms


def _support(fd, x0, ms, ns, a, b):
    """The support polyline: x~_i where the chord from x~_(i-1) to m_(i-1)/a
    meets the line of bend i.  A chord parallel to that line misses it:
    its far end pairs to <n_i, m_(i-1)>/a with n_i, which ``_rho`` has
    found nonzero, so its near end does too."""
    xt = [vscale(Fraction(1, a + b), x0)]
    for i in range(1, len(ms)):
        prev = xt[-1]
        tip = vscale(Fraction(1, a), ms[i - 1])
        sa = pairing(fd, ns[i], prev)
        sb = pairing(fd, ns[i], tip)
        if sa == sb:
            raise ValueError("support chord misses the bending wall")
        t = sa / (sa - sb)
        xt.append(vadd(prev, vscale(t, vsub(tip, prev))))
    return xt + [vscale(Fraction(1, a), ms[-1])]


def _rho(fd, ms, ns):
    """rho = product over bends k of |<n_k, m_k>|, 1 for a bend without a normal.

    <n_k, m_{k-1}> is the same number, as n_k is perpendicular to m_{k-1} - m_k.
    A zero factor, a bend along its own wall, raises ValueError: every
    quantity divided by rho or by <n_k, m_{k-1}> is then undefined.
    """
    rho = 1
    for k, (m, n) in enumerate(zip(ms[1:], ns[1:]), 1):
        if n is not None:
            c = int(pairing(fd, n, m))
            if c == 0:
                raise ValueError("bend %d from the endpoint runs along its wall: exponent "
                                 "%r pairs to 0 with the wall normal %r" % (k, m, n))
            rho *= abs(c)
    return rho


def construct_segment(fd, gamma, a, b, lam):
    """Monomials on the support polyline; returns a Segment with a .trace."""
    ms = _endpoint_first(gamma)
    ns = _bend_normals_from(fd, ms)
    return _construct(fd, gamma.endpoint, ms, ns, _rho(fd, ms, ns), a, b, lam)


def _construct(fd, x0, ms, ns, rho, a, b, lam):
    """construct_segment for a line with endpoint x0, endpoint-first
    exponents ms, bend normals ns and rho."""
    support = _support(fd, x0, ms, ns, a, b)
    s = len(ms) - 1
    xt = support[:s + 1]
    C = [Fraction(a * (a + b) * rho * lam)]
    mt = [vscale(C[0], vsub(vscale(Fraction(1, a), ms[0]), xt[0]))]
    for i in range(1, s + 1):
        num = pairing(fd, ns[i], mt[i - 1])
        den = pairing(fd, ns[i], ms[i - 1])
        Ci = Fraction(a) * num / den
        C.append(Ci)
        mt.append(vscale(Ci, vsub(vscale(Fraction(1, a), ms[i]), xt[i])))
    times = [1 / C[i] - 1 / C[0] for i in range(s + 1)]
    tau = -1 / C[0]
    # segment runs from m_s/a (time tau, shifted to 0) to x~_0 (time 0)
    pieces = []
    bounds = times + [tau]
    for i in range(s, -1, -1):
        dt = bounds[i] - bounds[i + 1]
        pieces.append(Piece(mt[i], 1, None, None if dt == 0 else dt))
    seg = Segment(support[-1], xt[0], pieces, -tau)
    seg.trace = ConstructionTrace(C, xt, times, tau)
    return seg


def glue_balanced(fd, diagram, pair, a, b):
    """Balanced pair -> segment from I(line1)/a to I(line2)/b through base/(a+b),
    its piece coefficients from segment_coefficients.

    Both lines must end at the base.  Then the two halves meet in one
    exponent, with rho = rho1 * rho2 and m_i the final exponent of line i:
    side 1 ends in (a+b)*rho*m_1 - a*rho*base, and the reversed side 2
    starts in b*rho*base - (a+b)*rho*m_2, which is the same exponent
    because m_1 + m_2 = base.
    """
    search_form(fd, diagram)  # the gluing reads no wall, but fd must be the diagram's
    if not isinstance(pair, BalancedPair):
        raise ValueError("pair must be a BalancedPair, got %r" % (pair,))
    _int_at_least(a, 1, "a")
    _int_at_least(b, 1, "b")
    if not pair.is_balanced():
        raise ValueError("pair is not balanced: %r" % (pair,))
    g1, g2 = pair.line1, pair.line2
    for name, g in (("line1", g1), ("line2", g2)):
        if g.endpoint != pair.base:
            raise ValueError("pair %s: endpoint (%s) is not the base (%s)" % (
                name, ", ".join(map(str, g.endpoint)), ", ".join(map(str, pair.base))))
    ms1, ms2 = _endpoint_first(g1), _endpoint_first(g2)
    ns1, ns2 = _bend_normals_from(fd, ms1), _bend_normals_from(fd, ms2)
    rhos = []
    for name, ms, ns in (("line1", ms1, ns1), ("line2", ms2, ns2)):
        try:
            rhos.append(_rho(fd, ms, ns))
        except ValueError as e:
            raise ValueError("pair %s: %s" % (name, e)) from None
    rho1, rho2 = rhos
    side1 = _construct(fd, g1.endpoint, ms1, ns1, rho1, a, b, rho2)
    side2 = _construct(fd, g2.endpoint, ms2, ns2, rho2, b, a, rho1)
    back = reverse(side2)
    pieces = list(side1.pieces)
    j1, j2 = pieces[-1], back.pieces[0]
    # the junction piece lasts as long as its two halves together
    pieces[-1] = Piece(j1.exponent, 1, None, (j1.duration or 0) + (j2.duration or 0) or None)
    pieces.extend(back.pieces[1:])
    seg = Segment(side1.start, back.end, pieces, side1.total_time + back.total_time)
    seg.trace1 = side1.trace
    seg.trace2 = side2.trace
    for p, c in zip(pieces, segment_coefficients(fd, diagram, seg)):
        p.coeff = c
    return seg


def _auto_ab(fd, tau, T, pt, qt, rho1, rho2):
    frac = Fraction(tau, T)
    x, y = frac.numerator, frac.denominator
    t = 1
    for c, vec, rho in ((y - x, pt, rho1), (x, qt, rho2)):
        for v, d in zip(vec, fd.d):
            t = lcm(t, (Fraction(c) * v / (rho * d)).denominator)
    return (y - x) * t, x * t


def pair_from_segment(fd, diagram, seg, tau, a=None, b=None):
    """Split a segment at time tau into a balanced pair of broken lines.

    The scales a and b are given both or neither; with neither they are
    chosen automatically."""
    search_form(fd, diagram)  # the split reads no wall, but fd must be the diagram's
    if not isinstance(seg, Segment):
        raise ValueError("segment must be a Segment, got %r" % (seg,))
    tau = Fraction(_rational(tau, "tau"))
    if (a is None) != (b is None):
        raise ValueError("give both scales a and b or neither, got a=%r b=%r" % (a, b))
    if a is not None:
        _int_at_least(a, 1, "a")
        _int_at_least(b, 1, "b")
    T = seg.total_time
    if not (0 < tau < T):
        raise ValueError("tau must lie strictly inside (0, T)")
    iv = seg.intervals()
    # the piece whose half-open interval (t_start, t_end] contains tau;
    # a bend exactly at tau is assigned to the far (end) side
    j = next((i for i, (t0, t1, _) in enumerate(iv) if t0 < tau <= t1), None)
    if j is None:
        raise ValueError("no piece holds tau = %s: the durations end at %s, not at T = %s"
                         % (tau, iv[-1][1], T))
    ms = [p.exponent for p in seg.pieces]
    rt = vsub(iv[j][2], vscale(tau - iv[j][0], ms[j]))
    mt1 = ms[j::-1]
    mt2 = [vneg(m) for m in ms[j:]]
    ns1 = _bend_normals_from(fd, mt1)
    ns2 = _bend_normals_from(fd, mt2)
    if a is None:
        a, b = _auto_ab(fd, tau, T, seg.start, seg.end, _rho(fd, mt1, ns1), _rho(fd, mt2, ns2))
    # each side's exponents are the affine invariants x + t*m of its pieces,
    # taken at the start (line 1) and at the end (line 2) of the segment
    m1 = [vscale(a, vadd(pos, vscale(t0, m))) for (t0, _, pos), m in zip(iv[j::-1], mt1)]
    m2 = [vscale(b, vsub(pos, vscale(T - t0, m))) for (t0, _, pos), m in zip(iv[j:], ms[j:])]
    base = vscale(a + b, rt)
    line1 = _trace_pair_line(fd, base, m1, ns1)
    line2 = _trace_pair_line(fd, base, m2, ns2)
    return BalancedPair(line1, line2, base), ReverseTrace(m1, m2, a, b)


def _bend_normals_from(fd, mt):
    """Normals n_{0,i} for the exponent list m~_0..m~_s of one side."""
    out = [None]
    for i in range(1, len(mt)):
        step = vsub(mt[i - 1], mt[i])
        # a trivial bend, two pieces with one exponent, has no wall
        out.append(None if is_zero(step) else n_circ_primitive(fd, dual_perp(fd, step)))
    return out


def _trace_pair_line(fd, base, m_list, ns):
    """Broken line with endpoint base and endpoint-first exponents m_0..m_s,
    each coefficient 1.

    Bend i sits on the wall line with normal ns[i]; positions found by
    following each piece backward from the endpoint.
    """
    pos = base
    steps = []
    for i in range(1, len(m_list)):
        n = ns[i]
        if n is not None:
            s0 = pairing(fd, n, pos)
            sd = pairing(fd, n, m_list[i - 1])
            if sd == 0:
                raise ValueError("piece runs parallel to its bending wall")
            u = -s0 / sd
            pos = vadd(pos, vscale(u, m_list[i - 1]))
        steps.append((tuple(pos), m_list[i - 1], 1))
    return _assemble(base, steps + [(None, m_list[-1], 1)])
