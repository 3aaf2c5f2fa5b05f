"""Structure constants and the two constructive directions:

balanced pair of broken lines -> broken line segment (dilate, bend the
support towards the origin, attach rescaled monomials, glue at the common
endpoint), and segment -> balanced pair (split at an interior time, read off
exponents from the affine invariant x + t*m of each piece).
"""

import heapq
from fractions import Fraction
from math import lcm

from .geometry import vadd, vsub, vneg, vscale, is_zero
from .lattice import pairing, n_circ_primitive, dual_perp, order_form, cone_order
from .series import lp_mul, _kept
from .brokenline import (BrokenLine, Segment, Piece, theta, bend_coefficient,
                         reverse, search_form)


class BalancedPair:
    def __init__(self, line1, line2, base):
        self.line1 = line1
        self.line2 = line2
        self.base = tuple(base)

    def is_balanced(self):
        return vadd(self.line1.final, self.line2.final) == self.base

    def __repr__(self):
        return "BalancedPair(base=%r, F1=%r, F2=%r)" % (
            self.base, self.line1.final, self.line2.final)


class ConstructionTrace:
    def __init__(self, rho, C, xt, mt, times, tau):
        self.rho = rho
        self.C = C
        self.xt = xt
        self.mt = mt
        self.times = times
        self.tau = tau


class ReverseTrace:
    def __init__(self, split_index, mt1, mt2, rho1, rho2, a, b, times1, times2,
                 T, tau, delta=None):
        self.split_index = split_index
        self.mt1 = mt1
        self.mt2 = mt2
        self.rho1 = rho1
        self.rho2 = rho2
        self.a = a
        self.b = b
        self.times1 = times1
        self.times2 = times2
        self.T = T
        self.tau = tau
        self.delta = delta


def structure_constant(fd, diagram, p, q, r, K=None):
    """alpha(p, q, r), the coefficient of theta_r in theta_p * theta_q, as an int.

    Read from alpha_table at order K (the diagram order by default): 0 when
    r - p - q lies outside the cone.  Raises ValueError when r - p - q has
    cone order above K, since the order-K table does not determine alpha there.
    """
    if K is None:
        K = diagram.order
    r = tuple(r)
    k = cone_order(fd, vsub(r, vadd(p, q)))
    if k is not None and k > K:
        raise ValueError("alpha at r = %r needs order %s, above K = %s" % (r, k, K))
    return _alpha_cached(fd, diagram, p, q, K).get(r, 0)


def _theta_cached(fd, diagram, m, z0, K):
    cache = search_form(fd, diagram).thetas
    key = (tuple(m), tuple(z0), K)
    if key not in cache:
        cache[key] = theta(fd, diagram, m, z0, K)
    return cache[key]


def _pair_key(p, q, K):
    """The cache key of the unordered pair {p, q} at order K, for products and alpha tables."""
    p, q = tuple(p), tuple(q)
    return ((p, q) if p <= q else (q, p), K)


def _product_cached(fd, diagram, p, q, K):
    """theta_p * theta_q at the expansion endpoint, built once per ({p, q}, K)."""
    cache = search_form(fd, diagram).products
    key = _pair_key(p, q, K)
    if key not in cache:
        z0 = fixed_generic_endpoint(fd, diagram)
        lo, hi = key[0]
        cache[key] = lp_mul(fd, _theta_cached(fd, diagram, lo, z0, K),
                            _theta_cached(fd, diagram, hi, z0, K))
    return cache[key]


def _alpha_cached(fd, diagram, p, q, K):
    cache = search_form(fd, diagram).alphas
    key = _pair_key(p, q, K)
    if key not in cache:
        cache[key] = alpha_table(fd, diagram, p, q, K)
    return cache[key]


def fixed_generic_endpoint(fd, diagram):
    """Endpoint for theta-basis expansions, computed once per search form.

    Large coprime coordinates keep the ray through the endpoint clear of
    every exponent the truncated expansions can produce, so each theta
    keeps its leading monomial; wall-genericity is still checked.
    """
    form = search_form(fd, diagram)
    if form.endpoint is None:
        cands = [(9973, 9967), (9973, -9967), (-9967, 9973), (-9973, -9967),
                 (9967, 10007), (10007, -9973)]
        for v in cands:
            if all(pairing(fd, w.normal, v) != 0 for w in diagram.walls):
                form.endpoint = v
                break
        else:
            raise ValueError("no generic probe point found")
    return form.endpoint


def alpha_table(fd, diagram, p, q, K=None):
    """All r with alpha(p,q,r) != 0, by triangular decomposition in the theta basis.

    The remainder of theta_p * theta_q is an int term dict, its exponents in
    a heap keyed by (order over p + q, exponent).  Subtracting c * theta_e
    only adds terms of higher order than e, so the heap yields the exponents
    in the order of a full scan.
    """
    if K is None:
        K = diagram.order
    p, q = tuple(p), tuple(q)
    if is_zero(p):
        return {q: 1}
    if is_zero(q):
        return {p: 1}
    z0 = fixed_generic_endpoint(fd, diagram)
    base = vadd(p, q)
    ux, uy, vx, vy, _ = order_form(fd)
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
        th = _theta_cached(fd, diagram, e, z0, K)
        if th.terms.get(e) != 1:
            raise ValueError("theta at %r has no unit leading term; "
                             "probe endpoint is not generic enough" % (e,))
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


def segment_support(fd, gamma, a, b):
    """Support polyline of the dilated segment: x~_0 .. x~_s plus m_s/a."""
    ms = _endpoint_first(gamma)
    ns = _bend_normals_from(fd, ms)
    x0 = gamma.endpoint
    xt = [vscale(Fraction(1, a + b), x0)]
    for i in range(1, len(ms)):
        prev = xt[-1]
        tip = vscale(Fraction(1, a), ms[i - 1])
        sa = pairing(fd, ns[i], prev)
        sb = pairing(fd, ns[i], tip)
        if sa == sb:
            if sa != 0:
                raise ValueError("support chord misses the bending wall")
            xt.append(prev)
            continue
        t = sa / (sa - sb)
        xt.append(vadd(prev, vscale(t, vsub(tip, prev))))
    return xt + [vscale(Fraction(1, a), ms[-1])]


def _rho_list(fd, ms, ns):
    s = len(ms) - 1
    rho = [1] * (s + 1)
    for i in range(s - 1, -1, -1):
        w = pairing(fd, ns[i + 1], ms[i])
        rho[i] = rho[i + 1] * abs(int(w))
    return rho


def attach_monomials(fd, support, gamma, a, b, lam):
    """Monomials on the support polyline; returns a Segment with a .trace."""
    ms = _endpoint_first(gamma)
    ns = _bend_normals_from(fd, ms)
    s = len(ms) - 1
    xt = support[:s + 1]
    rho = _rho_list(fd, ms, ns)
    C = [Fraction(a * (a + b) * rho[0] * lam)]
    mt = [vscale(C[0], vsub(vscale(Fraction(1, a), ms[0]), xt[0]))]
    for i in range(1, s + 1):
        num = pairing(fd, ns[i], mt[i - 1])
        den = pairing(fd, ns[i], ms[i - 1])
        Ci = Fraction(a) * num / den
        C.append(Ci)
        mt.append(vscale(Ci, vsub(vscale(Fraction(1, a), ms[i]), xt[i])))
    times = [1 / C[i] - 1 / C[0] for i in range(s + 1)]
    tau = -1 / C[0]
    trace = ConstructionTrace(rho, C, xt, mt, times, tau)
    # segment runs from m_s/a (time tau, shifted to 0) to x~_0 (time 0)
    pieces = []
    bounds = times + [tau]
    for i in range(s, -1, -1):
        dt = bounds[i] - bounds[i + 1]
        pieces.append(Piece(mt[i], 1, None, None if dt == 0 else dt))
    seg = Segment(support[-1], xt[0], pieces, -tau)
    seg.trace = trace
    return seg


def construct_segment(fd, gamma, a, b, lam):
    return attach_monomials(fd, segment_support(fd, gamma, a, b), gamma, a, b, lam)


def _merge_durations(p1, p2):
    d = (p1.duration or Fraction(0)) + (p2.duration or Fraction(0))
    return None if d == 0 else d


def _recoefficient(fd, diagram, seg):
    """Recompute cumulative piece coefficients from actual bend coefficients."""
    pos = seg.start
    coeff = 1
    prev = None
    for p in seg.pieces:
        if prev is not None:
            coeff *= bend_coefficient(fd, diagram, pos, prev.exponent, p.exponent)
        p.coeff = coeff
        if p.duration is not None:
            pos = vsub(pos, vscale(p.duration, p.exponent))
        prev = p
    return seg


def glue_balanced(fd, diagram, pair, a, b):
    """Balanced pair -> segment from I(line1)/a to I(line2)/b through base/(a+b)."""
    if not pair.is_balanced():
        raise ValueError("pair is not balanced: %r" % (pair,))
    g1, g2 = pair.line1, pair.line2
    ms1 = _endpoint_first(g1)
    ms2 = _endpoint_first(g2)
    rho1 = _rho_list(fd, ms1, _bend_normals_from(fd, ms1))[0]
    rho2 = _rho_list(fd, ms2, _bend_normals_from(fd, ms2))[0]
    side1 = construct_segment(fd, g1, a, b, rho2)
    side2 = construct_segment(fd, g2, b, a, rho1)
    back = reverse(side2)
    pieces = list(side1.pieces)
    j1, j2 = pieces[-1], back.pieces[0]
    if j1.exponent != j2.exponent:
        raise ValueError("glued exponents disagree at the junction")
    pieces[-1] = Piece(j1.exponent, 1, None, _merge_durations(j1, j2))
    pieces.extend(back.pieces[1:])
    seg = Segment(side1.start, back.end, pieces, side1.total_time + back.total_time)
    seg.trace1 = side1.trace
    seg.trace2 = side2.trace
    return _recoefficient(fd, diagram, seg)


def _piece_intervals(seg):
    """(t_start, t_end, start_pos) per piece; degenerate pieces have t_start = t_end."""
    out = []
    t = Fraction(0)
    pos = seg.start
    for p in seg.pieces:
        dt = p.duration or Fraction(0)
        out.append((t, t + dt, pos))
        pos = vsub(pos, vscale(dt, p.exponent))
        t += dt
    return out


def _auto_ab(fd, tau, T, pt, qt, rho1, rho2):
    frac = Fraction(tau, T)
    x, y = frac.numerator, frac.denominator
    t = 1
    for c, vec, rho in ((y - x, pt, rho1), (x, qt, rho2)):
        for v, d in zip(vec, fd.d):
            t = lcm(t, (Fraction(c) * v / (rho * d)).denominator)
    return (y - x) * t, x * t


def pair_from_segment(fd, diagram, seg, tau, a=None, b=None):
    """Split a segment at time tau into a balanced pair of broken lines."""
    tau = Fraction(tau)
    T = seg.total_time
    if not (0 < tau < T):
        raise ValueError("tau must lie strictly inside (0, T)")
    iv = _piece_intervals(seg)
    # the piece whose half-open interval (t_start, t_end] contains tau;
    # a bend exactly at tau is assigned to the far (end) side
    j = next(i for i, (t0, t1, _) in enumerate(iv) if t0 < tau <= t1)
    delta = None
    events = sorted({t0 for t0, _, _ in iv} | {t1 for _, t1, _ in iv})
    if tau in events:
        gaps = [abs(tau - e) for e in events if e != tau]
        delta = min(gaps) / 2 if gaps else None
    rt = vsub(iv[j][2], vscale(tau - iv[j][0], seg.pieces[j].exponent))
    pt, qt = seg.start, seg.end

    def invariant1(i):
        t0, _, pos = iv[i]
        m = seg.pieces[i].exponent
        return vadd(pos, vscale(t0, m))

    def invariant2(i):
        t0, _, pos = iv[i]
        m = seg.pieces[i].exponent
        return vsub(pos, vscale(T - t0, m))

    mt1 = [seg.pieces[i].exponent for i in range(j, -1, -1)]
    mt2 = [vneg(seg.pieces[i].exponent) for i in range(j, len(seg.pieces))]
    ns1 = _bend_normals_from(fd, mt1)
    ns2 = _bend_normals_from(fd, mt2)
    rho1 = _rho_prefix(fd, mt1, ns1)
    rho2 = _rho_prefix(fd, mt2, ns2)
    if a is None or b is None:
        a, b = _auto_ab(fd, tau, T, pt, qt, rho1[0], rho2[0])
    m1 = [vscale(a, invariant1(i)) for i in range(j, -1, -1)]
    m2 = [vscale(b, invariant2(i)) for i in range(j, len(seg.pieces))]
    base = vscale(a + b, rt)
    times1 = [tau - iv[i][1] for i in range(j, -1, -1)]
    times2 = [iv[i][0] - tau for i in range(j, len(seg.pieces))]
    line1 = _trace_pair_line(fd, base, m1, ns1)
    line2 = _trace_pair_line(fd, base, m2, ns2)
    trace = ReverseTrace(j, m1, m2, rho1, rho2, a, b, times1, times2, T, tau, delta)
    return BalancedPair(line1, line2, base), trace


def _bend_normals_from(fd, mt):
    """Normals n_{0,i} for the exponent list m~_0..m~_s of one side."""
    out = [None]
    for i in range(1, len(mt)):
        step = vsub(mt[i - 1], mt[i])
        if is_zero(step):
            out.append(None)
        else:
            out.append(n_circ_primitive(fd, dual_perp(fd, step)))
    return out


def _rho_prefix(fd, mt, ns):
    """rho~_i = product over k = 1..s-i of |<n_{0,k}, m~_k>| (positive)."""
    s = len(mt) - 1
    rho = [1] * (s + 1)
    for i in range(s - 1, -1, -1):
        k = s - i
        w = 1 if ns[k] is None else abs(int(pairing(fd, ns[k], mt[k])))
        rho[i] = rho[i + 1] * w
    return rho


def _trace_pair_line(fd, base, m_list, ns):
    """Broken line with endpoint base and endpoint-first exponents m_0..m_s.

    Bend i sits on the wall line with normal ns[i]; positions found by
    following each piece backward from the endpoint.
    """
    pos = base
    bend_pts = []
    for i in range(1, len(m_list)):
        n = ns[i]
        if n is None:
            bend_pts.append(tuple(pos))
            continue
        s0 = pairing(fd, n, pos)
        sd = pairing(fd, n, m_list[i - 1])
        if sd == 0:
            raise ValueError("piece runs parallel to its bending wall")
        u = -s0 / sd
        pos = vadd(pos, vscale(u, m_list[i - 1]))
        bend_pts.append(tuple(pos))
    pieces = []
    s = len(m_list) - 1
    for k in range(s, -1, -1):
        end_pt = bend_pts[k - 1] if k >= 1 else None
        pieces.append(Piece(m_list[k], 1, end_pt))
    return BrokenLine(base, pieces)
