import functools
import math
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from csd import brokenline, convexity, serialize
from csd.brokenline import (Piece, BrokenLine, Segment, wall_families,
                            allowed_bends, enumerate_lines, theta, theta_of_lines, reverse,
                            validate_segment, segment_coefficients,
                            bend_coefficient, _assemble, _site)
from csd.geometry import (vadd, vsub, vscale, is_zero, homogeneous, cross, dot, same_ray,
                          primitive, line_key)
from csd.lattice import (FixedData, pairing, n_circ_primitive, cone_order,
                         solve_linear, scaled_normal, dual_perp)
from csd.constructions import alpha_table
from csd.scattering import (Diagram, Wall, complete_rank2, initial_wall, check_consistent,
                            path_ordered_product, search_form)
from csd.series import wf_mul, wf_pow, LaurentPoly, WallFunction
from segments import line_bounded_segment

F = Fraction


def test_wall_families_central_ray(kron, kron_diagram):
    fams = wall_families(kron, kron_diagram, (F(2), F(-2)))
    assert len(fams) == 1
    n0, m0, f = fams[0]
    assert m0 == (-1, 1)
    assert [f.coeff(k) for k in range(1, 7)] == [0, 2, 0, 3, 0, 4]


def test_allowed_bends_a2(a2, a2_diagram):
    bends = dict(allowed_bends(a2, a2_diagram, (F(0), F(-2)), (1, 0), 6))
    assert bends[(1, 0)] == 1
    assert bends[(1, 1)] == 1
    assert (1, 2) not in bends


def test_allowed_bends_power(a2, a2_diagram):
    # pairing 2 with the wall normal gives the square of the wall function
    bends = dict(allowed_bends(a2, a2_diagram, (F(0), F(-2)), (2, 0), 6))
    assert bends[(2, 1)] == 2
    assert bends[(2, 2)] == 1


def test_allowed_bends_kronecker_central(kron, kron_diagram):
    # wall function squared: pairing of (1,1) with the central normal is 2
    bends = dict(allowed_bends(kron, kron_diagram, (F(2), F(-2)), (1, 1), 6))
    assert bends[(-1, 3)] == 4
    assert bends[(-3, 5)] == 10
    assert (0, 2) not in bends


def test_allowed_bends_requires_wall(a2, a2_diagram):
    with pytest.raises(ValueError):
        allowed_bends(a2, a2_diagram, (F(1), F(2)), (1, 0), 6)


def test_allowed_bends_refuses_a_non_integral_power(a2, a2_diagram):
    # (1/2, 0) pairs to 1/2 with the normal (1, 0) of the wall through (0, -2)
    with pytest.raises(ValueError, match="^non-integral bending power$"):
        allowed_bends(a2, a2_diagram, (0, -2), (F(1, 2), 0), 6)


def test_enumerate_a2_two_lines(a2, a2_diagram):
    lines = enumerate_lines(a2, a2_diagram, (-1, 0), (F(2), F(1)), 6)
    finals = sorted((l.final, l.coeff) for l in lines)
    assert finals == [((-1, 0), 1), ((-1, 1), 1)]
    bent = next(l for l in lines if l.final == (-1, 1))
    assert bent.pieces[0].bend_point == (F(0), F(3))
    assert bent.initial == (-1, 0)


def test_enumerate_straight_only(a2, a2_diagram):
    lines = enumerate_lines(a2, a2_diagram, (0, 1), (F(1, 3), F(2)), 6)
    assert [(l.final, l.coeff) for l in lines] == [((0, 1), 1)]
    assert lines[0].pieces[0].bend_point is None


def test_enumerate_rejects_endpoint_on_wall(a2, a2_diagram):
    with pytest.raises(ValueError):
        enumerate_lines(a2, a2_diagram, (1, 0), (F(0), F(1)), 6)


def test_enumerate_rejects_nongeneric_endpoint(g2, g2_diagram):
    # a traced ray would run into the origin from this endpoint
    with pytest.raises(ValueError):
        enumerate_lines(g2, g2_diagram, (-1, 1), (F(4, 7), F(-1)), 8)


def test_enumerate_exponent_types(a2, a2_diagram):
    # integral Fractions are taken as ints; anything else is rejected
    z = (F(2), F(1))
    want = enumerate_lines(a2, a2_diagram, (-1, 0), z, 6)
    got = enumerate_lines(a2, a2_diagram, (F(-1), F(0)), z, 6)
    assert [(l.signature(), l.coeff) for l in got] == [(l.signature(), l.coeff) for l in want]
    assert all(type(c) is int for l in got for p in l.pieces for c in p.exponent)
    with pytest.raises(ValueError, match=r"^initial must be a pair of integers, got "):
        enumerate_lines(a2, a2_diagram, (F(-1, 2), 0), z, 6)


def test_theta_zero_exponent(a2, a2_diagram):
    t = theta(a2, a2_diagram, (0, 0), (F(2), F(1)), 6)
    assert t.terms == {(0, 0): 1}


def test_theta_a2(a2, a2_diagram):
    t = theta(a2, a2_diagram, (-1, 0), (F(2), F(1)), 6)
    assert t.terms == {(-1, 0): 1, (-1, 1): 1}


def test_theta_saturated_is_order_independent(g2, g2_diagram):
    z = (F(9, 7), F(-10, 11))
    for m in [(1, 0), (-1, 3), (2, -3)]:
        t8 = theta(g2, g2_diagram, m, z, 8)
        t6 = theta(g2, g2_diagram, m, z, 6)
        # lower order keeps a subset of the terms with identical coefficients
        for e, c in t6.terms.items():
            assert t8.terms.get(e) == c


def seg_a2(a2_diagram):
    # bends at the horizontal axis (-1/2, 0) and the vertical axis (0, 6/7)
    return Segment((F(2), F(-6)), (F(3), F(3)),
                   [Piece((5, -12), 1, None, F(1, 2)),
                    Piece((-7, -12), 1, None, F(1, 14)),
                    Piece((-7, -5), 1, None, F(3, 7))], F(1))


def test_validate_segment_true(a2, a2_diagram):
    ok, why = validate_segment(a2, a2_diagram, seg_a2(a2_diagram))
    assert ok, why


def test_validate_segment_corrupted(a2, a2_diagram):
    bad = seg_a2(a2_diagram)
    bad.pieces[1] = Piece((-7, -13), 1, None, F(1, 14))
    ok, why = validate_segment(a2, a2_diagram, bad)
    assert not ok and why is not None


# validate_segment's messages, one test per kind of failure on seg_a2

def test_validate_segment_zero_exponent(a2, a2_diagram):
    seg = seg_a2(a2_diagram)
    seg.pieces[0] = Piece((0, 0), 1, None, F(1, 2))
    assert validate_segment(a2, a2_diagram, seg) == (False, "piece 0 has zero exponent")


def test_validate_segment_negative_duration(a2, a2_diagram):
    seg = seg_a2(a2_diagram)
    seg.pieces[1] = Piece((-7, -12), 1, None, F(-1, 14))
    assert validate_segment(a2, a2_diagram, seg) == (False, "piece 1 has negative duration")


def test_validate_segment_bend_off_walls(a2, a2_diagram):
    seg = seg_a2(a2_diagram)
    seg.pieces[0] = Piece((5, -12), 1, None, F(1, 3))
    assert validate_segment(a2, a2_diagram, seg) == (
        False, "bend point (Fraction(1, 3), Fraction(-2, 1)) lies on no wall")


def test_validate_segment_disallowed_bend(a2, a2_diagram):
    seg = seg_a2(a2_diagram)
    seg.pieces[1] = Piece((-7, -13), 1, None, F(1, 14))
    assert validate_segment(a2, a2_diagram, seg) == (
        False, "bend (5, -12) -> (-7, -13) at (Fraction(-1, 2), Fraction(0, 1)) is not allowed")


def test_validate_segment_wrong_end(a2, a2_diagram):
    seg = seg_a2(a2_diagram)
    seg.end = (F(3), F(4))
    assert validate_segment(a2, a2_diagram, seg) == (
        False, "segment ends at (Fraction(3, 1), Fraction(3, 1)), "
        "expected (Fraction(3, 1), Fraction(4, 1))")


def test_validate_segment_wrong_total_time(a2, a2_diagram):
    seg = seg_a2(a2_diagram)
    seg.total_time = F(2)
    assert validate_segment(a2, a2_diagram, seg) == (
        False, "durations sum to Fraction(1, 1), expected total Fraction(2, 1)")


def test_validate_segment_shows_positions_as_given(a2, a2_diagram):
    # an int start is shown as given until a Fraction duration moves it
    seg = Segment((2, -6), (F(3), F(3)),
                  [Piece((5, -12), 1, None, None), Piece((1, 0), 1, None, F(1))], F(1))
    assert validate_segment(a2, a2_diagram, seg) == (
        False, "bend point (2, -6) lies on no wall")
    # int durations and exponents keep an int start int
    seg = Segment((2, -6), (3, 4), [Piece((-1, -9), 1, None, 1)], 1)
    assert validate_segment(a2, a2_diagram, seg) == (
        False, "segment ends at (3, 3), expected (3, 4)")


def test_segment_intervals():
    # a None duration is a piece of zero length; times and positions are
    # exact, and each piece starts where the one before it ends
    seg = Segment((1, 2), (F(-1), F(5, 2)),
                  [Piece((1, 0), 1, None, F(1, 2)), Piece((0, 1), 1, None, None),
                   Piece((3, -1), 1, None, F(1, 2))], F(1))
    assert seg.intervals() == [(0, F(1, 2), (1, 2)), (F(1, 2), F(1, 2), (F(1, 2), F(2))),
                               (F(1, 2), F(1), (F(1, 2), F(2)))]
    assert [type(t) for iv in seg.intervals() for t in iv[:2]] == [F] * 6


@pytest.mark.parametrize("cls, args, field", [
    (Piece, [(1, 0.5)], "piece exponent"),
    (Piece, [("1", 0)], "piece exponent"),
    (Piece, [(1, 0), 1, (0.5, 0)], "piece bend point"),
    (Piece, [(1, 0), 1, (0, 0, 1)], "piece bend point"),
    (Piece, [(1, 0), 1, None, 0.5], "piece duration"),
    (Segment, [(0.5, 0), (1, 0), [], 1], "segment start"),
    (Segment, [(0, 0), 1, [], 1], "segment end"),
    (Segment, [(0, 0), (1, 0), [], 0.5], "segment total time"),
    (Segment, [(0, 0), (1, 0), [], "1/2"], "segment total time"),
])
def test_segment_input_must_be_rational(cls, args, field):
    # a float would reach the walk, or become a Fraction, unseen
    with pytest.raises(ValueError, match="^%s must be " % field):
        cls(*args)


def test_validate_straight_segment(a2, a2_diagram):
    seg = Segment((F(1), F(1)), (F(3), F(1)), [Piece((-2, 0), 1, None, F(1))], F(1))
    ok, why = validate_segment(a2, a2_diagram, seg)
    assert ok, why


def test_reverse_is_involution(a2, a2_diagram):
    seg = seg_a2(a2_diagram)
    rr = reverse(reverse(seg))
    assert rr.start == seg.start and rr.end == seg.end
    assert [(p.exponent, p.duration) for p in rr.pieces] == \
        [(p.exponent, p.duration) for p in seg.pieces]
    ok, _ = validate_segment(a2, a2_diagram, reverse(seg))
    assert ok


def test_line_bounded_segment_validates(a2, a2_diagram):
    lines = enumerate_lines(a2, a2_diagram, (-1, 0), (F(2), F(1)), 6)
    bent = next(l for l in lines if l.final != l.initial)
    seg = line_bounded_segment(a2, bent)
    ok, why = validate_segment(a2, a2_diagram, seg)
    assert ok, why
    assert seg.end == bent.endpoint
    with pytest.raises(ValueError):
        straight = next(l for l in lines if l.final == l.initial)
        line_bounded_segment(a2, straight)


def _in_monoid(fd, p):
    co = solve_linear(fd.monoid_gens, p)
    return co is not None and all(c >= 0 and c.denominator == 1 for c in co)


def on_support(fd, wall, pt):
    if pairing(fd, wall.normal, pt) != 0:
        return False
    if wall.kind == "line":
        return True
    return is_zero(pt) or same_ray(pt, wall.direction)


# Reference search for the differential test, independent of the wall index:
# every wall pairing in rationals and the monoid test by Gaussian elimination.
def _reference_lines(fd, diagram, initial, endpoint, K):
    def events(pos, m):
        hits = {}
        for w in diagram.walls:
            sd = pairing(fd, w.normal, m)
            if sd == 0:
                continue
            t = -pairing(fd, w.normal, pos) / sd
            pt = vadd(pos, vscale(t, m))
            if t > 0 and not is_zero(pt) and on_support(fd, w, pt):
                hits.setdefault(t, (pt, []))[1].append(w)
        return [hits[t] for t in sorted(hits)]

    def bends(walls, m):
        # walls through a nonzero point share its line through the origin
        n0, m0, f = n_circ_primitive(fd, walls[0].normal), walls[0].func.direction, walls[0].func
        for w in walls[1:]:
            f = wf_mul(f, w.func, len(f.coeffs) + len(w.func.coeffs))
        pw = abs(int(pairing(fd, n0, m)))
        kmax = int(F(K) / cone_order(fd, m0))
        if pw == 0 or kmax < 1:
            return []
        return [(vadd(m, vscale(k, m0)), c) for k, c in wf_pow(f, pw, kmax).terms()]

    def trace(pos, m, p_rem, steps):
        for pt, walls in events(pos, m):
            for m_out, c in bends(walls, m):
                step = vsub(m_out, m)
                m_prev, p_new = vsub(m, step), vsub(p_rem, step)
                if not is_zero(m_prev) and _in_monoid(fd, p_new):
                    trace(pt, m_prev, p_new, steps + [(pt, m, c)])
        if is_zero(p_rem):
            results.append(steps + [(None, m, F(1))])

    results = []
    g1, g2 = fd.monoid_gens
    for a in range(K + 1):
        for b in range(K + 1 - a):
            p = vadd(vscale(a, g1), vscale(b, g2))
            if not is_zero(vadd(initial, p)):
                trace(endpoint, vadd(initial, p), p, [])
    return sorted((_assemble(endpoint, r) for r in results), key=BrokenLine.signature)


DIFF_TYPES = [([[0, 1], [-1, 0]], [1, 1], 6), ([[0, 2], [-1, 0]], [1, 2], 6),
              ([[0, 3], [-1, 0]], [1, 3], 6), ([[0, 2], [-2, 0]], [1, 1], 5),
              ([[0, 3], [-3, 0]], [1, 1], 4)]
DIFF_EXPONENTS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1),
                  (2, -1), (-1, 2)]
DIFF_ENDPOINTS = [(F(317, 101), F(29, 103)), (F(-211, 107), F(53, 109)),
                  (F(-31, 113), F(-401, 127)), (F(97, 131), F(-13, 137))]


@pytest.mark.parametrize("exchange,d,order", DIFF_TYPES,
                         ids=["A2", "B2", "G2", "Kronecker", "W33"])
def test_enumerate_matches_reference(exchange, d, order):
    fd = FixedData.from_exchange(exchange, d)
    diagram = complete_rank2(fd, order)
    for m in DIFF_EXPONENTS:
        for z in DIFF_ENDPOINTS:
            got = enumerate_lines(fd, diagram, m, z, order)
            want = _reference_lines(fd, diagram, m, z, order)
            assert [(l.signature(), [p.coeff for p in l.pieces]) for l in got] == \
                [(l.signature(), [p.coeff for p in l.pieces]) for l in want], (m, z)


@pytest.mark.parametrize("exchange,d,order", DIFF_TYPES,
                         ids=["A2", "B2", "G2", "Kronecker", "W33"])
def test_bend_coefficients_match_search(exchange, d, order):
    # the coefficient a line carries is the product of its bend coefficients,
    # and the bounded part of every bent line is a valid segment
    fd = FixedData.from_exchange(exchange, d)
    diagram = complete_rank2(fd, order)
    bent = 0
    for m in DIFF_EXPONENTS:
        for z in DIFF_ENDPOINTS[:2]:
            for line in enumerate_lines(fd, diagram, m, z, order):
                coeff = F(1)
                for p, q in zip(line.pieces, line.pieces[1:]):
                    coeff *= bend_coefficient(fd, diagram, p.bend_point, p.exponent, q.exponent)
                assert coeff == line.coeff, (m, z, line)
                if len(line.pieces) > 1:
                    ok, why = validate_segment(fd, diagram, line_bounded_segment(fd, line))
                    assert ok, (m, z, why)
                    bent += 1
    assert bent > 0


@pytest.mark.parametrize("endpoint", [(0.5, 0.3), ("1/2", "1/3"), (1, 2, 3), (F(1, 2),), F(1, 2)],
                         ids=["floats", "strings", "three", "one", "scalar"])
def test_endpoint_checked_where_it_enters(a2, a2_diagram, endpoint):
    for m in [(1, 0), (0, 0)]:
        with pytest.raises(ValueError, match="endpoint"):
            theta(a2, a2_diagram, m, endpoint, 6)
    with pytest.raises(ValueError, match="endpoint"):
        enumerate_lines(a2, a2_diagram, (1, 0), endpoint, 6)


PRIMES = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157]


# wild types with b != c, for the random-endpoint comparison
WILD_TYPES = [([[0, 4], [-1, 0]], [1, 4], 6), ([[0, 5], [-1, 0]], [1, 5], 6),
              ([[0, 3], [-2, 0]], [2, 3], 6)]


@functools.cache
def _diff_diagram(i):
    exchange, d, order = (DIFF_TYPES + WILD_TYPES)[i]
    fd = FixedData.from_exchange(exchange, d)
    return fd, complete_rank2(fd, order), order


@st.composite
def generic_endpoints(draw):
    # (a/p1, b/p2) with distinct primes above 100 and numerators prime to
    # them: no wall and no traced ray with small exponents meets it badly
    p1, p2 = draw(st.lists(st.sampled_from(PRIMES), min_size=2, max_size=2, unique=True))
    a = draw(st.integers(-4 * p1, 4 * p1).filter(lambda a: a % p1))
    b = draw(st.integers(-4 * p2, 4 * p2).filter(lambda b: b % p2))
    return F(a, p1), F(b, p2)


@given(st.integers(0, len(DIFF_TYPES + WILD_TYPES) - 1), generic_endpoints(),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
@settings(max_examples=200, deadline=None)
def test_enumerate_matches_reference_at_random_endpoints(i, z, m):
    # the reference has no pruning (shift budget, arc test) and no integer
    # power tables
    fd, diagram, order = _diff_diagram(i)
    got = enumerate_lines(fd, diagram, m, z, order)
    want = _reference_lines(fd, diagram, m, z, order)
    assert [(l.signature(), [p.coeff for p in l.pieces]) for l in got] == \
        [(l.signature(), [p.coeff for p in l.pieces]) for l in want]


def test_search_passes_integer_bend_sites(g2, g2_diagram, monkeypatch):
    seen = []

    def recording(*args):
        seen.append(_site(*args))
        return seen[-1]

    monkeypatch.setattr(brokenline, "_site", recording)
    lines = enumerate_lines(g2, g2_diagram, (-1, 2), (F(9, 7), F(-10, 11)), 8)
    assert any(len(l.pieces) > 1 for l in lines) and seen
    assert all(len(pt) == 3 and all(type(c) is int for c in pt) for pt in seen)


@pytest.mark.parametrize("point,m_in", [((F(0), F(-2)), (2, 0)), ((F(-7, 3), F(0)), (1, 3)),
                                        ((F(5, 4), F(-5, 4)), (2, -1))])
def test_allowed_bends_pair_or_triple(a2, a2_diagram, point, m_in):
    pair = allowed_bends(a2, a2_diagram, point, m_in, 6)
    assert len(pair) > 1
    assert allowed_bends(a2, a2_diagram, homogeneous(point), m_in, 6) == pair
    # coefficients come back as ints of equal value
    assert all(type(c) is int for _, c in pair)


def _sweep(line):
    """The angle the position of a broken line sweeps, from its direction at
    infinity (the initial exponent) through its bend points to its endpoint."""
    points = [p.bend_point for p in line.pieces[:-1]] + [line.endpoint]
    total, u = 0.0, line.initial
    for v in points:
        total += math.atan2(cross(u, v), dot(u, v))
        u = v
    return total


def test_winding_lines_are_kept():
    # -t and some final exponents lie in the cone of the monoid here, so
    # lines may wind more than a full turn around the origin, and the arc
    # test must let them through
    fd = FixedData.from_exchange([[0, 3], [-3, 0]], [1, 1])
    diagram = complete_rank2(fd, 6)
    m, z = (1, -1), (F(97, 113), F(-123, 151))
    got = enumerate_lines(fd, diagram, m, z, 6)
    want = _reference_lines(fd, diagram, m, z, 6)
    assert [(l.signature(), [p.coeff for p in l.pieces]) for l in got] == \
        [(l.signature(), [p.coeff for p in l.pieces]) for l in want]
    assert len(got) == 7
    assert sum(abs(_sweep(l)) > 2 * math.pi for l in got) == 2


def _scan_events(fd, diagram, x, y, q, mx, my):
    """Bend sites of the ray (x, y)/q + t*(mx, my), t > 0, found by testing
    every support line of the diagram and sorting the hits by time."""
    if x * my == y * mx and x * mx + y * my < 0:
        raise ValueError("trajectory with exponent %r from %r runs into the "
                         "origin; endpoint is not generic, perturb it"
                         % ((mx, my), (F(x, q), F(y, q))))
    normals, sides = {}, {}
    for w in diagram.walls:
        a = scaled_normal(fd, w.normal)
        u = line_key((-a[1], a[0]))
        normals.setdefault(u, a)
        covered = sides.setdefault(u, set())
        if w.kind != "ray":
            covered.update((1, -1))
        elif cross(u, w.direction) == 0:
            covered.add(1 if dot(u, w.direction) > 0 else -1)
    hits = []
    for u, covered in sides.items():
        a0, a1 = normals[u]
        td = a0 * mx + a1 * my
        tn = -(a0 * x + a1 * y)
        if td == 0 or tn == 0 or (tn > 0) != (td > 0):
            continue
        if td < 0:
            tn, td = -tn, -td
        px, py = td * x + tn * mx, td * y + tn * my
        side = px * u[0] + py * u[1]
        if (1 if side > 0 else -1) in covered:
            hits.append((tn, td, px, py))
    D = lcm(*(h[1] for h in hits))
    hits.sort(key=lambda h: h[0] * (D // h[1]))
    events = []
    for _, td, px, py in hits:
        g = gcd(px, py, q * td)
        events.append((px // g, py // g, q * td // g))
    return events


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return "ValueError: %s" % e


def _walk_sites(form, x, y, q, mx, my):
    """(site, i) for each half-line i the walk from (x, y)/q along m meets, in t order."""
    return [(_site(x, y, q, mx, my, td, tn), i)
            for i, td, tn in form.walk(x, y, q, mx, my, form.near(x, y))]


@functools.cache
def _rays_only(i):
    # the ray walls alone: the half-lines then lie in an arc shorter than pi,
    # as seen from some of them, and A2 keeps a single one
    fd, diagram, order = _diff_diagram(i)
    return fd, Diagram(fd, [w for w in diagram.walls if w.kind == "ray"], order, False), order


@given(st.integers(0, len(DIFF_TYPES) - 1), st.booleans(), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_ray_events_match_scan(i, rays_only, root, data):
    # the walk over the half-lines in angular order finds the sites of the
    # scan over every support line, in time order, from a generic endpoint
    # and from a bend site on a half-line
    fd, diagram, _ = (_rays_only if rays_only else _diff_diagram)(i)
    form = search_form(fd, diagram)
    halves = form._halves
    if root:
        x, y, q = homogeneous(data.draw(generic_endpoints()))
        g = gcd(x, y)
        aim = (-x // g, -y // g)
    else:
        j = data.draw(st.integers(0, len(halves) - 1))
        k, q = data.draw(st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(
            lambda kq: gcd(*kq) == 1))
        x, y = halves[j][0] * k, halves[j][1] * k
        assert form.near(x, y) == form._around[j]
        aim = (-halves[j][0], -halves[j][1])
        # a ray that runs into the origin is entered, so that it raises
        assert not form.dead(j, *aim)
    # a ray aimed at the origin raises the same error
    want = _outcome(_scan_events, fd, diagram, x, y, q, *aim)
    assert want.startswith("ValueError: trajectory")
    assert _outcome(_walk_sites, form, x, y, q, *aim) == want
    m = data.draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
    want = _outcome(_scan_events, fd, diagram, x, y, q, *m)
    got = _outcome(_walk_sites, form, x, y, q, *m)
    if not root:
        # a ray from a bend site is skipped exactly when it has no sites
        # and does not raise
        assert form.dead(j, *m) == (want == [])
    if isinstance(want, str):
        assert got == want
        return
    assert [site for site, _ in got] == want
    # each site lies on the half-line it names
    assert all(cross(halves[h], site[:2]) == 0 and dot(halves[h], site[:2]) > 0
               for site, h in got)


def _off_lattice(fd, diagram):
    # every wall function becomes 1 + z^m0 + z^(2 m0): where m0 is not in the
    # lattice of the monoid, the cap has to drop the odd powers itself
    return Diagram(fd, [Wall(w.normal, w.kind, w.direction, WallFunction(w.func.direction, [1, 1]))
                        for w in diagram.walls], diagram.order, False)


@pytest.mark.parametrize("exchange,d,order,edit", [t + (None,) for t in DIFF_TYPES] +
                         [DIFF_TYPES[3] + (_off_lattice,)],
                         ids=["A2", "B2", "G2", "Kronecker", "W33", "Kronecker-off-lattice"])
def test_bends_cap_is_monoid_test(exchange, d, order, edit, monkeypatch):
    # every bend the search traces leaves a remaining shift in the monoid,
    # with the coefficient the order-K listing gives it, and at the sites it
    # visits the cap drops some order-K bend s whose p - s, p the shift
    # before the bend, is not in the monoid
    fd = FixedData.from_exchange(exchange, d)
    diagram = complete_rank2(fd, order)
    if edit:
        diagram = edit(fd, diagram)
    seen = []
    trace = brokenline._trace

    def recording(form, x, y, q, near, mx, my, px, py, K, arcs, steps, results):
        if steps:
            seen.append((steps[-1], (mx, my), (px, py), K))
        return trace(form, x, y, q, near, mx, my, px, py, K, arcs, steps, results)

    monkeypatch.setattr(brokenline, "_trace", recording)
    for m in DIFF_EXPONENTS:
        for z in DIFF_ENDPOINTS[:2]:
            enumerate_lines(fd, diagram, m, z, order)
    sites = {}
    for (point, m_out, c), a, rest, K in seen:
        assert _in_monoid(fd, rest), (point, a, rest)
        # the bend a -> m_out is the step k*m0 = m_out - a, listed for m_out
        # as m_out + k*m0
        every = allowed_bends(fd, diagram, point, m_out, K)
        assert dict(every)[vadd(m_out, vsub(m_out, a))] == c, (point, a, m_out)
        sites[point, m_out, vadd(rest, vsub(m_out, a))] = every
    dropped = 0
    for (point, m_out, shift), every in sites.items():
        dropped += sum(not _in_monoid(fd, vsub(shift, vsub(e, m_out))) for e, _ in every)
    assert seen and dropped > 0


def test_theta_without_walls(tmp_path, a2):
    # a diagram file with no walls loads, and its theta functions are monomials
    path = tmp_path / "empty.json"
    serialize.save(path, {"seed": serialize.fd_to_json(a2), "order": 6,
                          "saturated": False, "walls": []})
    diagram = serialize.diagram_from_json(serialize.load(path))
    for m in [(1, 0), (-1, 2)]:
        t = theta(a2, diagram, m, (F(2), F(1)), 6)
        assert repr(t) == repr(LaurentPoly({m: 1}, m, 6))


def test_search_work_is_pinned(a2, a2_diagram, g2, g2_diagram, kron, kron_diagram,
                               monkeypatch):
    # rays that cannot end in a line are pruned before they are traced, and
    # a bend site is built (_site) only when some bend there can still end
    # in a line; tracing every ray and bending at every site makes 3439
    # _trace calls and 1858 sites here, and the search without the arc test
    # and the per-site check made 2272 and 1712.  A root whose ray meets no
    # half-line is not traced: before that, 1401 and 196.  A wall-free
    # chamber is searched like any other: that traces 85 more roots and
    # builds no more sites than a shortcut that returned the straight line
    # at once, which made 760 and 196
    counts = {"_trace": 0, "_site": 0}
    for name in counts:
        def counting(*args, _fn=getattr(brokenline, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(brokenline, name, counting)
    lines = 0
    for fd, diagram, K in [(a2, a2_diagram, 6), (g2, g2_diagram, 8), (kron, kron_diagram, 6)]:
        for m in DIFF_EXPONENTS:
            for z in DIFF_ENDPOINTS[:2]:
                lines += len(enumerate_lines(fd, diagram, m, z, K))
    assert lines == 125
    assert counts == {"_trace": 845, "_site": 196}


# the eight types of the shared-search and chamber checks
SHARED_TYPES = [([[0, 1], [-1, 0]], [1, 1]), ([[0, 2], [-1, 0]], [1, 2]),
                ([[0, 3], [-1, 0]], [1, 3]), ([[0, 2], [-2, 0]], [1, 1]),
                ([[0, 3], [-3, 0]], [1, 1]), ([[0, 4], [-1, 0]], [1, 4]),
                ([[0, 5], [-1, 0]], [1, 5]), ([[0, 3], [-2, 0]], [2, 3])]
SHARED_IDS = ["A2", "B2", "G2", "Kronecker", "W33", "W14", "W15", "W23"]


@functools.cache
def _shared_diagram(i, order):
    fd = FixedData.from_exchange(*SHARED_TYPES[i])
    return fd, complete_rank2(fd, order)


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("i", range(len(SHARED_TYPES)), ids=SHARED_IDS)
def test_theta_sums_the_lines_of_enumerate_lines(i, order):
    # theta reads the search that enumerate_lines assembles: equal reprs
    # (term order included) or the same error, and the lines come sorted by
    # signature; at generic endpoints, on a wall, on the ray of an exponent
    # and with no walls at all
    fd, diagram = _shared_diagram(i, order)
    form = search_form(fd, diagram)
    h = form._halves[0]
    # off every wall, on the ray of -m for one m below
    v = next(v for v in [(2, -1), (1, 2), (-1, 2), (1, 1)] if not form.families(v))
    endpoints = DIFF_ENDPOINTS[:2] + [(F(3 * h[0], 7), F(3 * h[1], 7)),
                                      (F(3 * v[0], 7), F(3 * v[1], 7))]
    seen = set()
    for d, zs in ((diagram, endpoints), (Diagram(fd, [], order, False), endpoints[:2])):
        for z in zs:
            for m in ((x, y) for x in range(-3, 4) for y in range(-3, 4) if x or y):
                lines = _outcome(enumerate_lines, fd, d, m, z, order)
                got = _outcome(theta, fd, d, m, z, order)
                if isinstance(lines, str):
                    assert got == lines, (m, z)
                    seen.add(lines.split(";")[0].split(" with")[0])
                    continue
                sigs = [l.signature() for l in lines]
                assert sigs == sorted(sigs), (m, z)
                assert repr(got) == repr(theta_of_lines(m, lines, order)), (m, z)
                seen.add(len(lines) > 1)
    assert seen >= {True, False, "ValueError: endpoint lies on a wall",
                    "ValueError: trajectory"}


def test_theta_builds_no_lines(g2, g2_diagram, monkeypatch):
    made = []

    class Spy(Piece):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)
    monkeypatch.setattr(brokenline, "Piece", Spy)
    for m in DIFF_EXPONENTS:
        theta(g2, g2_diagram, m, DIFF_ENDPOINTS[0], 8)
    assert made == []
    enumerate_lines(g2, g2_diagram, (-1, 0), DIFF_ENDPOINTS[0], 8)
    assert made


def _sector_point(a, b):
    """A point strictly inside the sector from a counterclockwise to b."""
    if cross(a, b) > 0:
        return F(a[0] + b[0]), F(a[1] + b[1])
    return F(-a[1]), F(a[0])


@pytest.mark.parametrize("i", range(len(SHARED_TYPES)), ids=SHARED_IDS)
def test_wall_free_chambers_have_straight_lines_only(i):
    # every wall but the two initial lines lies in -sigma, so the sectors
    # between two of the four initial half-lines, other than -sigma, are the
    # wall-free chambers: there the search and the reference search find
    # the straight line alone for every m in the closure (GHKK,
    # arXiv:1411.1394, Prop. 3.8); every other chamber has an m whose lines
    # bend
    fd, diagram = _shared_diagram(i, 5)
    form = search_form(fd, diagram)
    halves, n = form._halves, len(form._halves)
    initial = {primitive((s * g[0], s * g[1])) for g in fd.monoid_gens for s in (1, -1)}
    ms = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if x or y]
    free = 0
    for j in range(n):
        a, b = halves[j], halves[(j + 1) % n]
        z = _sector_point(a, b)
        assert form.near(*homogeneous(z)[:2]) == (j, (j + 1) % n)
        in_minus_sigma = all(cone_order(fd, (-h[0], -h[1])) is not None for h in (a, b))
        if {a, b} <= initial and not in_minus_sigma:
            free += 1
            closure = [m for m in ms if cross(a, m) >= 0 and cross(m, b) >= 0 and cross(a, b) > 0]
            assert closure
            for m in closure:
                for search in (enumerate_lines, _reference_lines):
                    lines = search(fd, diagram, m, z, 5)
                    assert [(l.signature(), l.coeff) for l in lines] == [(((m, ()),), 1)], \
                        (search.__name__, z, m)
        else:
            outcomes = (_outcome(enumerate_lines, fd, diagram, m, z, 5) for m in ms)
            assert any(type(lines) is list and len(lines) > 1 for lines in outcomes), (a, b)
    assert free == 3


def test_straight_holds_for_any_walls():
    # on random walls whose function directions lie on their lines and in
    # sigma (not cluster diagrams; the initial lines may be missing, so a
    # sector can hold -g1 or -g2) the search finds what the reference
    # search finds: the straight line alone for some m, bent lines for others
    rng = random.Random(5)
    straight = checked = 0
    for _ in range(150):
        fd = FixedData.from_exchange(*SHARED_TYPES[rng.randrange(4)])
        walls = []
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3)])
            m0 = primitive(vadd(vscale(a, fd.monoid_gens[0]), vscale(b, fd.monoid_gens[1])))
            side = m0 if rng.random() < 0.5 else (-m0[0], -m0[1])
            walls.append(Wall(dual_perp(fd, m0), rng.choice(["line", "ray"]), side,
                              WallFunction(m0, [rng.randint(1, 2)])))
        diagram = Diagram(fd, walls, 4, False)
        # numerators prime to 101 and 103: no root's ray runs into the
        # origin, where the search raises and the reference drops the line
        z = tuple(F(rng.choice([a for a in range(-300, 301) if a % p]), p) for p in (101, 103))
        if search_form(fd, diagram).families(homogeneous(z)):
            continue
        # four exponents per wall set keep the reference search affordable
        for m in rng.sample([(x, y) for x in range(-3, 4) for y in range(-3, 4) if x or y], 4):
            got = [(l.signature(), l.coeff) for l in enumerate_lines(fd, diagram, m, z, 4)]
            want = [(l.signature(), l.coeff) for l in _reference_lines(fd, diagram, m, z, 4)]
            assert got == want, (walls, z, m)
            straight += want == [(((m, ()),), 1)]
            checked += 1
    assert 0 < straight < checked
    # no diagram holds a wall whose function direction is outside sigma
    fd = FixedData.from_exchange(*SHARED_TYPES[0])
    bad = Wall((1, 1), "line", (-1, 1), WallFunction((1, -1), [1]))
    with pytest.raises(ValueError, match="outside the cone of the monoid"):
        Diagram(fd, complete_rank2(fd, 4).walls + (bad,), 4, False)


# --- facts the walk's callers rely on ------------------------------------

def _ends_where_it_walks(seg):
    """seg with its end and total time read off its pieces."""
    total = sum((p.duration or 0 for p in seg.pieces), F(0))
    return Segment(seg.start, seg.positions()[-1], seg.pieces, total)


def _perturbed(seg, rng):
    """Copies of seg with one exponent or one duration changed, most of them
    invalid: some keep the given end, the others end where they walk."""
    out = []
    for i, p in enumerate(seg.pieces):
        dx, dy = rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
        moved = Piece((p.exponent[0] + dx, p.exponent[1] + dy), 1, None, p.duration)
        pieces = seg.pieces[:i] + [moved] + seg.pieces[i + 1:]
        out.append(Segment(seg.start, seg.end, pieces, seg.total_time))
        out.append(_ends_where_it_walks(out[-1]))
        if p.duration:
            stretched = Piece(p.exponent, 1, None, p.duration * F(rng.choice([1, 2, 3]), 2))
            pieces = seg.pieces[:i] + [stretched] + seg.pieces[i + 1:]
            out.append(_ends_where_it_walks(Segment(seg.start, seg.end, pieces, 0)))
    return out


@pytest.mark.parametrize("i", range(4), ids=["A2", "B2", "G2", "Kronecker"])
def test_reversed_segment_validates_the_same(i, monkeypatch):
    # _walk reads a bend's step m_next - m_prev and |<n0', m_prev>|, and
    # reverse changes neither, so the witness search tries no reversed chord
    fd, diagram, order = _diff_diagram(i)
    chords = []

    def recording(fd_, diagram_, seg):
        chords.append(seg)
        return validate_segment(fd_, diagram_, seg)

    monkeypatch.setattr(convexity, "validate_segment", recording)
    rng = random.Random(i)
    for _ in range(40):
        convexity.is_blc_2d(fd, diagram, convexity._random_polygon(rng)).witnesses
    bounded = [line_bounded_segment(fd, line)
               for m in DIFF_EXPONENTS for z in DIFF_ENDPOINTS[:2]
               for line in enumerate_lines(fd, diagram, m, z, order) if len(line.pieces) > 1]
    segs = chords + bounded + [s for seg in bounded for s in _perturbed(seg, rng)]
    verdicts = [validate_segment(fd, diagram, s)[0] for s in segs]
    assert chords and bounded and True in verdicts and False in verdicts
    for seg, ok in zip(segs, verdicts):
        assert validate_segment(fd, diagram, reverse(seg))[0] == ok, seg


@pytest.mark.parametrize("seg, bend", [
    # the step (-1/2, 0) is m0/2 on the horizontal axis, m0 = (-1, 0)
    (Segment((1, 1), (F(3, 2), -1), [Piece((0, 1), 1, None, 1),
                                     Piece((F(-1, 2), 1), 1, None, 1)], 2),
     "(0, 1) -> (Fraction(-1, 2), 1)"),
    # the step (12, 0) is -12 * m0
    (Segment((F(2), F(-6)), (F(-7, 2), F(-6)), [Piece((5, -12), 1, None, F(1, 2)),
                                                Piece((17, -12), 1, None, F(1, 4))], F(3, 4)),
     "(5, -12) -> (17, -12)"),
    # (1, 0) lies on the horizontal axis and pairs to 0 with its normal
    (Segment((1, 0), (F(3, 2), 0), [Piece((1, 0), 1, None, F(1, 2)),
                                    Piece((-1, 0), 1, None, 1)], F(3, 2)),
     "(1, 0) -> (-1, 0)"),
], ids=["half-step", "negative-step", "zero-pairing"])
def test_bend_no_wall_allows_is_named(a2, a2_diagram, seg, bend):
    ok, why = validate_segment(a2, a2_diagram, seg)
    assert not ok and why.startswith("bend %s at " % bend) and why.endswith(" is not allowed")
    with pytest.raises(ValueError, match=r"^bend .* is not allowed$"):
        segment_coefficients(a2, a2_diagram, seg)


def test_bend_with_negative_coefficient_is_not_allowed(a2, a2_diagram):
    # down onto the horizontal axis at (1, 0), where <n0', (0, 1)> = 1, then
    # bent by one step m0 = (-1, 0)
    seg = Segment((1, 1), (2, -1), [Piece((0, 1), 1, None, 1), Piece((-1, 1), 1, None, 1)], 2)
    assert validate_segment(a2, a2_diagram, seg) == (True, None)
    # the same diagram with the axis's function 1 - z^(-1, 0)
    w0, w1 = initial_wall(a2, 0), initial_wall(a2, 1)
    assert w1.normal == (0, 1) and w1.func == WallFunction((-1, 0), [1])
    negated = Diagram(a2, [w0, Wall(w1.normal, "line", w1.direction,
                                    WallFunction((-1, 0), [-1]))], 6, False)
    assert validate_segment(a2, negated, seg) == (
        False, "bend (0, 1) -> (-1, 1) at (1, 0) is not allowed")
    # the walk allows the bend and reports its sign; the coefficient is -1
    assert segment_coefficients(a2, negated, seg) == [1, -1]


def test_coefficient_of_a_many_term_function(kron, kron_diagram):
    # the Kronecker half-line (1, -1) carries f = 1 + 2t^2 + 3t^4 + 4t^6,
    # t = z^m0, past the binomial shortcut for one-term functions
    fam, = search_form(kron, kron_diagram).families((1, -1))
    m0 = fam.m0
    assert fam.f.coeffs == (0, 2, 0, 3, 0, 4)
    power = WallFunction(m0, [])
    for pw in range(5):
        want = power.coeffs + (0,) * 12
        assert [fam.coefficient(pw, k) for k in range(1, 13)] == list(want[:12]), pw
        power = wf_mul(power, fam.f, 12)
    # at (3, -3), <n0', (3, 0)> = 3: a bend by k*m0 has the coefficient of
    # t^k in f^3, and an odd k has none
    f3 = wf_mul(wf_mul(fam.f, fam.f, 12), fam.f, 12).coeffs
    for k in range(1, 13):
        m_next = vadd((3, 0), vscale(k, m0))
        if f3[k - 1]:
            assert bend_coefficient(kron, kron_diagram, (3, -3), (3, 0), m_next) == f3[k - 1]
        else:
            with pytest.raises(ValueError, match="is not allowed"):
                bend_coefficient(kron, kron_diagram, (3, -3), (3, 0), m_next)


def _split_ray(fd, diagram):
    """The diagram with its ray of most terms carried by two walls whose
    functions f1 and f2 multiply to its f up to the diagram's order, and the
    ray's direction."""
    w = max((w for w in diagram.walls if w.kind == "ray"), key=lambda w: len(w.func.terms()))
    f, K = w.func, diagram.order
    top = int(K / cone_order(fd, f.direction))  # the last k with k*m0 of order <= K
    k1, c1 = f.terms()[0]
    f2 = WallFunction(f.direction, [0] * (k1 - 1) + [c1 + 1])
    f1 = wf_mul(f, wf_pow(f2, -1, top), top)
    assert not f1.is_one() and wf_mul(f1, f2, top) == f
    walls = [v for v in diagram.walls if v is not w]
    walls += [Wall(w.normal, "ray", w.direction, f1), Wall(w.normal, "ray", w.direction, f2)]
    return Diagram(fd, walls, K, diagram.saturated), w.direction


@pytest.mark.parametrize("i", range(4), ids=["A2", "B2", "G2", "Kronecker"])
def test_split_wall_function_changes_nothing(i):
    # the search multiplies the functions of the walls on one half-line
    # (_Family); crossing the two walls in turn is crossing their product
    fd, diagram, order = _diff_diagram(i)
    split, (rx, ry) = _split_ray(fd, diagram)
    assert [len(fam.walls) for fam in search_form(fd, split).families((rx, ry))] == [2]
    assert check_consistent(fd, split)
    rng = random.Random(i)
    for _ in range(12):
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        z = (F(rng.randint(-400, 400), 101), F(rng.randint(-400, 400), 103))
        assert theta(fd, split, m, z) == theta(fd, diagram, m, z), (m, z)
    for p, q in [((1, 0), (0, 1)), ((1, -1), (-1, 2)), ((2, 1), (-1, -1)), ((-1, 0), (0, -1))]:
        assert alpha_table(fd, split, p, q) == alpha_table(fd, diagram, p, q), (p, q)
    # a leg across the split ray alone, then a path that sweeps three quadrants
    across = [(3 * rx - F(ry, 7), 3 * ry + F(rx, 7)),
              (3 * rx + F(2 * ry, 13), 3 * ry - F(2 * rx, 13))]
    sweep = [(F(7, 3), F(5, 11)), (F(-13, 7), F(17, 5)), (F(-19, 9), F(-23, 7)),
             (F(29, 11), F(-31, 13))]
    for path in (across, sweep):
        for e in [(1, 0), (0, 1), (-1, 2)]:
            p = LaurentPoly.monomial(e, order)
            assert path_ordered_product(fd, split, path, p) == \
                path_ordered_product(fd, diagram, path, p), (path, e)
    for _ in range(10):
        cycle = convexity._random_polygon(rng)
        assert convexity.is_blc_2d(fd, split, cycle).verdict == \
            convexity.is_blc_2d(fd, diagram, cycle).verdict
