import hashlib
import re
from fractions import Fraction

import pytest

import random
from collections import Counter

import csd.constructions as constructions
from csd.geometry import vscale, vadd
from csd.brokenline import (BrokenLine, Piece, Segment, enumerate_lines,
                            validate_segment, segment_coefficients,
                            theta)
from csd.constructions import (BalancedPair, alpha_table, structure_constant,
                               construct_segment, glue_balanced,
                               pair_from_segment, EXPANSION_ENDPOINT,
                               _theta_cached, _product_cached, _support,
                               _endpoint_first, _bend_normals_from)
from csd.convexity import check_positive
from csd.lattice import FixedData
from csd.scattering import initial_diagram, complete_diagram, complete_rank2, search_form
from csd.series import lp_mul
from alpha_oracle import alpha_by_definition, candidates
from balanced_pairs import generic_endpoint_near, oracle_alpha
from segments import line_bounded_segment

F = Fraction


def zigzag_line():
    """Four-piece line ending at (2,4), used by the support construction."""
    return BrokenLine((F(2), F(4)),
                      [Piece((1, -3), 1, (F(0), F(-2))),
                       Piece((1, -2), 1, (F(-1), F(0))),
                       Piece((-1, -2), 1, (F(0), F(2))),
                       Piece((-1, -1), 1, None)])


def zigzag_segment():
    """The bounded zigzag from (1,-5) to (2,4) with unit coefficients."""
    return Segment((F(1), F(-5)), (F(2), F(4)),
                   [Piece((1, -3), 1, (F(0), F(-2)), F(1)),
                    Piece((1, -2), 1, (F(-1), F(0)), F(1)),
                    Piece((-1, -2), 1, (F(0), F(2)), F(1)),
                    Piece((-1, -1), 1, None, F(2))], F(5))


def test_alpha_table_a2(a2, a2_diagram):
    assert alpha_table(a2, a2_diagram, (1, 0), (-1, 0)) == \
        {(0, 0): F(1), (0, 1): F(1)}
    assert alpha_table(a2, a2_diagram, (0, 1), (0, -1)) == \
        {(0, 0): F(1), (-1, 0): F(1)}
    assert alpha_table(a2, a2_diagram, (1, 0), (0, 1)) == {(1, 1): F(1)}


def test_alpha_table_commutes(a2, a2_diagram):
    assert alpha_table(a2, a2_diagram, (1, 0), (-1, 0)) == \
        alpha_table(a2, a2_diagram, (-1, 0), (1, 0))


def test_alpha_table_unit_element(a2, a2_diagram):
    assert alpha_table(a2, a2_diagram, (0, 0), (2, 1)) == {(2, 1): F(1)}


def test_structure_constant_matches_table(a2, a2_diagram):
    assert structure_constant(a2, a2_diagram, (1, 0), (-1, 0), (0, 1)) == 1
    assert structure_constant(a2, a2_diagram, (1, 0), (-1, 0), (0, 0)) == 1
    assert structure_constant(a2, a2_diagram, (1, 0), (-1, 0), (1, 1)) == 0


def _triangle(fd, base, K):
    """Every r = base + a*g1 + b*g2 with a + b <= K: the r that order K determines."""
    (g1x, g1y), (g2x, g2y) = fd.monoid_gens
    return [(base[0] + a * g1x + b * g2x, base[1] + a * g1y + b * g2y)
            for a in range(K + 1) for b in range(K + 1 - a)]


@pytest.mark.parametrize("name", ["a2", "g2", "kron"])
def test_structure_constant_is_alpha_table(name, request):
    # every in-triangle query reads the table and none raises; a seeded
    # subset, nonzero values first, is recounted by balanced pairs
    fd = request.getfixturevalue(name)
    diagram = request.getfixturevalue(name + "_diagram")
    K = 6
    rng = random.Random(3)
    queries = []
    for _ in range(40):
        p, q = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
        table = alpha_table(fd, diagram, p, q, K)
        tri = _triangle(fd, vadd(p, q), K)
        assert set(table) <= set(tri)
        for r in tri:
            alpha = structure_constant(fd, diagram, p, q, r, K)
            assert type(alpha) is int and alpha == table.get(r, 0)
            queries.append((alpha == 0, p, q, r, alpha))
    assert len(queries) == 40 * 28
    for _, p, q, r, alpha in sorted(rng.sample(queries, 80))[:12]:
        assert oracle_alpha(fd, diagram, p, q, r, K) == alpha


def test_structure_constant_probe_on_exponent_ray(a2, a2_diagram):
    # the first probe near r, (3, -12), lies on the ray of the exponent (-1, 4)
    p, q, r = (3, -15), (-1, 2), (2, -12)
    assert structure_constant(a2, a2_diagram, p, q, r, 6) == 1
    assert oracle_alpha(a2, a2_diagram, p, q, r, 6) == 1


def test_structure_constant_above_order_raises(a2, a2_diagram):
    p, q, r = (-32, -20), (8, 12), (-24, 0)
    with pytest.raises(ValueError, match=r"\(-24, 0\) needs order 8, above K = 6"):
        structure_constant(a2, a2_diagram, p, q, r, 6)
    assert structure_constant(a2, complete_rank2(a2, 10), p, q, r) == 1


def test_generic_endpoints(g2, g2_diagram):
    z0 = EXPANSION_ENDPOINT
    from csd.lattice import pairing
    assert all(pairing(g2, w.normal, z0) != 0 for w in g2_diagram.walls)
    v, eps = generic_endpoint_near(g2, g2_diagram, (0, 3))
    z = vadd((0, 3), vscale(eps, v))
    assert all(pairing(g2, w.normal, z) != 0 for w in g2_diagram.walls)


def segment_support(fd, gamma, a, b):
    """Support polyline of the dilated segment: x~_0 .. x~_s plus m_s/a."""
    ms = _endpoint_first(gamma)
    return _support(fd, gamma.endpoint, ms, _bend_normals_from(fd, ms), a, b)


def test_segment_support(g2):
    xt = segment_support(g2, zigzag_line(), 1, 2)
    assert xt == [(F(2, 3), F(4, 3)), (F(0), F(2, 5)), (F(-1, 6), F(0)),
                  (F(0), F(-2, 7)), (F(1), F(-3))]


def test_glue_manual_pair(g2, g2_diagram):
    l1 = BrokenLine((F(0), F(3)), [Piece((1, 0), 1, None)])
    l2 = BrokenLine((F(0), F(3)), [Piece((-1, 0), 1, (F(0), F(3))),
                                   Piece((-1, 3), 1, None)])
    pair = BalancedPair(l1, l2, (0, 3))
    assert pair.is_balanced()
    seg = glue_balanced(g2, g2_diagram, pair, 1, 1)
    assert seg.start == (F(1), F(0))
    assert seg.end == (F(-1), F(0))
    assert seg.total_time == 1
    assert seg.positions() == [(F(1), F(0)), (F(0), F(3, 2)), (F(-1), F(0))]
    assert [(p.exponent, p.duration) for p in seg.pieces] == \
        [((2, -3), F(1, 2)), ((2, 3), F(1, 2))]
    ok, why = validate_segment(g2, g2_diagram, seg)
    assert ok, why


def test_glue_rational_exponents_validate(g2, g2_diagram):
    # scaled glue: every exponent entry is a Fraction, read by validate_segment
    # through numerator and denominator
    l1 = BrokenLine((F(0), F(3)), [Piece((1, 0), 1, None)])
    l2 = BrokenLine((F(0), F(3)), [Piece((-1, 0), 1, (F(0), F(3))),
                                   Piece((-1, 3), 1, None)])
    seg = glue_balanced(g2, g2_diagram, BalancedPair(l1, l2, (0, 3)), 2, 3)
    assert seg.start == (F(1, 2), F(0)) and seg.end == (F(-1, 3), F(0))
    assert [(p.exponent, p.duration) for p in seg.pieces] == \
        [((5, -6), F(1, 10)), ((5, 9), F(1, 15))]
    assert all(type(c) is Fraction for p in seg.pieces for c in p.exponent)
    assert validate_segment(g2, g2_diagram, seg) == (True, None)


def test_glue_rejects_unbalanced(g2, g2_diagram):
    l1 = BrokenLine((F(0), F(3)), [Piece((1, 0), 1, None)])
    pair = BalancedPair(l1, l1, (0, 3))
    with pytest.raises(ValueError):
        glue_balanced(g2, g2_diagram, pair, 1, 1)


def pair_ending_at(end1, end2):
    """A balanced A2 pair with base (-2, 4), its lines ending at end1 and end2."""
    line1 = BrokenLine(end1, [Piece((2, -10), 1, (0, -20)), Piece((2, -8), 1, (-5, 0)),
                              Piece((-6, -8), 1)])
    line2 = BrokenLine(end2, [Piece((4, 8), 1, (0, 10)), Piece((4, 12), 1)])
    return BalancedPair(line1, line2, (-2, 4))


@pytest.mark.parametrize("moved", [1, 2])
def test_glue_rejects_a_line_that_does_not_end_at_the_base(a2, moved):
    # a moved endpoint used to fail later, at the junction, naming nothing
    diagram = complete_rank2(a2, 4)
    seg = glue_balanced(a2, diagram, pair_ending_at((-2, 4), (-2, 4)), 2, 2)
    assert validate_segment(a2, diagram, seg) == (True, None)
    ends = [(-2, 4), (-2, 4)]
    ends[moved - 1] = (-2, 0)
    with pytest.raises(ValueError, match=r"^pair line%d: endpoint \(-2, 0\) is not the "
                                         r"base \(-2, 4\)$" % moved):
        glue_balanced(a2, diagram, pair_ending_at(*ends), 2, 2)


def test_glue_rejects_trivial_bend(g2, g2_diagram):
    l1 = BrokenLine((F(0), F(3)), [Piece((1, 0), 1, None)])
    l2 = BrokenLine((F(0), F(3)), [Piece((-1, 3), 1, (F(0), F(3))),
                                   Piece((-1, 3), 1, None)])
    pair = BalancedPair(l1, l2, (0, 3))
    with pytest.raises(ValueError, match="consecutive pieces"):
        glue_balanced(g2, g2_diagram, pair, 1, 1)


def test_split_zigzag(g2, g2_diagram):
    pair, tr = pair_from_segment(g2, g2_diagram, zigzag_segment(), F(5, 2), 1, 1)
    assert pair.base == (-1, 2)
    assert pair.is_balanced()
    assert [p.exponent for p in pair.line1.pieces] == [(1, -5), (1, -4), (-3, -4)]
    assert [p.exponent for p in pair.line2.pieces] == [(2, 4), (2, 6)]
    assert pair.line1.pieces[0].bend_point == (F(0), F(-10))
    assert pair.line1.pieces[1].bend_point == (F(-5, 2), F(0))
    assert pair.line2.pieces[0].bend_point == (F(0), F(5))
    # the unbounded exponents recover the scaled segment endpoints
    assert pair.line1.initial == (1, -5)
    assert pair.line2.initial == (2, 4)


def test_split_unit_scale_cannot_reglue(g2, g2_diagram):
    # the a = b = 1 split violates the divisibility the glue construction
    # needs: the junction bend is not a multiple of any wall direction
    pair, _ = pair_from_segment(g2, g2_diagram, zigzag_segment(), F(5, 2), 1, 1)
    with pytest.raises(ValueError):
        glue_balanced(g2, g2_diagram, pair, 1, 1)


def test_split_auto_scale_roundtrip(g2, g2_diagram):
    seg = zigzag_segment()
    pair, tr = pair_from_segment(g2, g2_diagram, seg, F(5, 2))
    assert (tr.a, tr.b) == (6, 6)
    back = glue_balanced(g2, g2_diagram, pair, tr.a, tr.b)
    assert back.start == seg.start and back.end == seg.end
    # exponents come back uniformly dilated; the walk itself is identical
    k = F(back.pieces[0].exponent[0], seg.pieces[0].exponent[0])
    assert k > 0 and k.denominator == 1
    for p, q in zip(back.pieces, seg.pieces):
        assert p.exponent == vscale(k, q.exponent)
    assert back.positions() == seg.positions()
    ok, why = validate_segment(g2, g2_diagram, back)
    assert ok, why


def test_enumerated_line_roundtrip(a2, a2_diagram):
    lines = enumerate_lines(a2, a2_diagram, (-1, 0), (F(5, 2), F(1, 3)), 6)
    bent = next(l for l in lines if l.final != l.initial)
    seg = line_bounded_segment(a2, bent)
    tau = seg.total_time / 2
    pair, tr = pair_from_segment(a2, a2_diagram, seg, tau)
    assert pair.is_balanced()
    back = glue_balanced(a2, a2_diagram, pair, tr.a, tr.b)
    assert back.start == seg.start and back.end == seg.end
    ok, why = validate_segment(a2, a2_diagram, back)
    assert ok, why


def test_construct_segment_trace(g2):
    seg = construct_segment(g2, zigzag_line(), 1, 2, 1)
    tr = seg.trace
    assert tr.times[0] == 0
    assert all(t2 < t1 for t1, t2 in zip(tr.times, tr.times[1:]))
    assert tr.tau < tr.times[-1]
    assert seg.total_time == -tr.tau
    assert tr.C == [F(6), F(10), F(12), F(14)]
    # the segment walks the support polyline backwards
    assert seg.start == (F(1), F(-3))
    assert seg.end == tr.xt[0] == (F(2, 3), F(4, 3))
    assert seg.positions() == [seg.start] + tr.xt[::-1]


def test_theta_cache_dropped_by_completion(a2):
    # completion returns a new diagram, so thetas cached on the incomplete
    # diagram are not served for the complete one, and stay right for the
    # incomplete one
    diagram = initial_diagram(a2, 6)
    z = (F(-317, 101), F(-29, 103))
    before = _theta_cached(a2, diagram, (2, -1), z, 6)
    done = complete_diagram(a2, diagram)
    after = theta(a2, done, (2, -1), z, 6)
    assert after != before
    assert _theta_cached(a2, done, (2, -1), z, 6) == after
    assert _theta_cached(a2, diagram, (2, -1), z, 6) == before == theta(a2, diagram, (2, -1), z, 6)


def test_theta_products_built_once_per_pair(g2, monkeypatch):
    diagram = complete_rank2(g2, 8)
    built = Counter()

    def counted(fd, a, b):
        built[tuple(sorted((a.base, b.base)))] += 1
        return lp_mul(fd, a, b)

    monkeypatch.setattr(constructions, "lp_mul", counted)
    polygons = [[(F(-1), F(0)), (F(1), F(-3)), (F(2), F(-3)), (F(1), F(0))],
                [(F(0), F(0)), (F(1), F(-1)), (F(1, 2), F(1))],
                [(F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1))]]
    for cycle in polygons:
        check_positive(g2, diagram, cycle, 3, 8)
    scanned = sum(built.values())
    pairs = [((1, 0), (-1, 0)), ((0, 1), (1, -3)), ((2, -3), (-1, 1))]
    for p, q in pairs + [(q, p) for p, q in pairs]:
        alpha_table(g2, diagram, p, q, 8)
    assert scanned > 0
    assert set(built.values()) == {1}
    assert sorted(built) == sorted(pq for pq, K in search_form(g2, diagram).products)
    # another order is another product
    alpha_table(g2, diagram, (1, 0), (-1, 0), 5)
    assert sum(built.values()) == len(built) + 1


def test_expansion_endpoint_computed_once(g2, monkeypatch):
    diagram = complete_rank2(g2, 8)
    form = search_form(g2, diagram)
    families = form.families

    def no_probe(point):
        # an endpoint scan would probe pairs; the search asks about triples
        if len(point) == 2:
            raise AssertionError("endpoint recomputed")
        return families(point)

    monkeypatch.setattr(form, "families", no_probe)
    alpha_table(g2, diagram, (1, 0), (-1, 0), 8)
    check_positive(g2, diagram, [(F(-1), F(0)), (F(1), F(-3)), (F(2), F(-3))], 3, 8)


def test_products_and_endpoint_dropped_by_completion(a2):
    # completion returns a new diagram, so products cached on the
    # incomplete diagram are not served for the complete one
    diagram = initial_diagram(a2, 6)
    p, q = (1, -2), (0, -2)
    before = _product_cached(a2, diagram, p, q, 6)
    form = search_form(a2, diagram)
    assert form.products
    done = complete_diagram(a2, diagram)
    assert search_form(a2, diagram) is form
    fresh = search_form(a2, done)
    assert fresh is not form and not fresh.products
    z0 = EXPANSION_ENDPOINT
    after = lp_mul(a2, theta(a2, done, q, z0, 6), theta(a2, done, p, z0, 6))
    assert after != before
    assert _product_cached(a2, done, p, q, 6) == after


def test_alpha_table_symmetric(g2, g2_diagram):
    box = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
    for p, q in zip(box, reversed(box)):
        assert repr(alpha_table(g2, g2_diagram, p, q)) == repr(alpha_table(g2, g2_diagram, q, p))


PINNED_TYPES = {"A2": ([[0, 1], [-1, 0]], [1, 1]), "B2": ([[0, 2], [-1, 0]], [1, 2]),
                "G2": ([[0, 3], [-1, 0]], [1, 3]), "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
                "(3,3)": ([[0, 3], [-3, 0]], [1, 1]), "(1,4)": ([[0, 4], [-1, 0]], [1, 4])}


def _construction_corpus():
    """Records of the constructive direction, and the segments it glued.

    Per type at order 5: twelve seeded bent lines from enumerate_lines.  Each
    line gives construct_segment at (a, b, lam) = (1, 2, 1) and its bounded
    segment, which is split at T/2 and T/3 with automatic scales and with
    (1, 2).  A split pair is glued back at its scales when a + b <= 60.  A
    record is the repr of the results and the trace fields, or the message
    of the ValueError raised.
    """
    records, glued = [], []
    for name, exchange in PINNED_TYPES.items():
        fd = FixedData.from_exchange(*exchange)
        diagram = complete_rank2(fd, 5)
        rng = random.Random(0)
        lines = []
        while len(lines) < 12:
            m = (rng.randint(-3, 3), rng.randint(-3, 3))
            z = (F(rng.randint(-40, 40), 7), F(rng.randint(-40, 40), 11))
            if m == (0, 0):
                continue
            try:
                bent = [l for l in enumerate_lines(fd, diagram, m, z, 5) if len(l.pieces) > 1]
            except ValueError:
                continue
            if bent:
                lines.append(rng.choice(bent))
        for line in lines:
            try:
                seg = construct_segment(fd, line, 1, 2, 1)
                tr = seg.trace
                records.append(repr((seg, tr.C, tr.xt, tr.times, tr.tau)))
            except ValueError as e:
                records.append("construct: %s" % e)
            seg = line_bounded_segment(fd, line)
            for tau in (seg.total_time / 2, seg.total_time / 3):
                for a, b in ((None, None), (1, 2)):
                    try:
                        pair, tr = pair_from_segment(fd, diagram, seg, tau, a, b)
                    except ValueError as e:
                        records.append("split: %s" % e)
                        continue
                    records.append(repr((pair, pair.line1, pair.line2, tr.a, tr.b,
                                         tr.mt1, tr.mt2)))
                    if tr.a + tr.b > 60:
                        continue
                    try:
                        back = glue_balanced(fd, diagram, pair, tr.a, tr.b)
                    except ValueError as e:
                        records.append("glue: %s" % e)
                        continue
                    traces = [(t.C, t.xt, t.times, t.tau) for t in (back.trace1, back.trace2)]
                    records.append(repr((back, traces, validate_segment(fd, diagram, back))))
                    glued.append((fd, diagram, back))
    return records, glued


# SHA-256 of the corpus records joined by newlines, computed with separate
# rho products per direction and a second, rational walk over each glue
CONSTRUCTION_DIGEST = "e17d83094b75034083f03d0506fc996efe6bfc2dfd4c270cc8ce76967d35e3a6"


def test_constructions_are_pinned():
    records, glued = _construction_corpus()
    assert len(records) == 519 and len(glued) == 15
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == CONSTRUCTION_DIGEST


def test_segment_coefficients_stop_only_at_bends(g2, g2_diagram):
    # the walk that gives validate_segment its first violation raises from
    # segment_coefficients only at a bend that no wall allows
    seg = zigzag_segment()
    ok, why = validate_segment(g2, g2_diagram, seg)
    assert not ok and why.startswith("bend (1, -3) -> (1, -2) at")
    with pytest.raises(ValueError, match="^%s$" % re.escape(why)):
        segment_coefficients(g2, g2_diagram, seg)
    flipped = [Piece(p.exponent, 1, None, -p.duration if i == 0 else p.duration)
               for i, p in enumerate(seg.pieces)]
    seg = Segment(seg.start, seg.end, flipped, seg.total_time)
    assert validate_segment(g2, g2_diagram, seg) == (False, "piece 0 has negative duration")
    with pytest.raises(ValueError, match=r"^bend point \(Fraction\(2, 1\), Fraction\(-8, 1\)\) "
                                         r"lies on no wall$"):
        segment_coefficients(g2, g2_diagram, seg)


def test_glued_coefficients_match_the_walk():
    # glue stores the walk's coefficients, and the same walk accepts the segment
    _, glued = _construction_corpus()
    for fd, diagram, seg in glued:
        assert [p.coeff for p in seg.pieces] == segment_coefficients(fd, diagram, seg)
        assert validate_segment(fd, diagram, seg) == (True, None)


K_ENTRIES = {
    "theta": lambda fd, d, K: theta(fd, d, (1, 0), (F(2), F(1)), K),
    "enumerate_lines": lambda fd, d, K: enumerate_lines(fd, d, (1, 0), (F(2), F(1)), K),
    "alpha_table": lambda fd, d, K: alpha_table(fd, d, (1, 0), (-1, 0), K),
    "structure_constant": lambda fd, d, K: structure_constant(fd, d, (1, 0), (-1, 0), (0, 0), K),
}


@pytest.mark.parametrize("K", [-1, 6.0, True, "6"])
@pytest.mark.parametrize("entry", sorted(K_ENTRIES))
def test_order_is_checked_at_entry(entry, K, a2, a2_diagram):
    with pytest.raises(ValueError, match=r"^K must be None or an int >= 0, got %s$"
                       % re.escape(repr(K))):
        K_ENTRIES[entry](a2, a2_diagram, K)


@pytest.mark.parametrize("entry", sorted(K_ENTRIES))
def test_order_none_and_zero_accepted(entry, a2, a2_diagram):
    K_ENTRIES[entry](a2, a2_diagram, None)
    K_ENTRIES[entry](a2, a2_diagram, 0)


def along_wall_pair(swap=False):
    """A balanced A2 pair with base (34, 15) whose line1 (line2 when swapped)
    bends at (1, 1) from (0, 51) into (0, 50), along the wall of that bend."""
    base = (34, 15)
    along = BrokenLine(base, [Piece((0, 51), 1, (1, 1)), Piece((0, 50), 1)])
    other = BrokenLine(base, [Piece((55, -35), 1, (1, 0)), Piece((34, -35), 1)])
    return BalancedPair(other, along, base) if swap else BalancedPair(along, other, base)


ALONG_WALL = (r"bend 1 from the endpoint runs along its wall: exponent \(0, 51\) "
              r"pairs to 0 with the wall normal \(-1, 0\)$")


@pytest.mark.parametrize("swap", [False, True])
def test_glue_rejects_a_bend_along_its_wall(a2, swap):
    # <n_1, m_0> = 0 made glue divide 0 by 0; now a ValueError names the line
    diagram = complete_rank2(a2, 5)
    with pytest.raises(ValueError, match="^pair line%d: %s" % (2 if swap else 1, ALONG_WALL)):
        glue_balanced(a2, diagram, along_wall_pair(swap), 11, 11)
    with pytest.raises(ValueError, match="^" + ALONG_WALL):
        construct_segment(a2, along_wall_pair().line1, 1, 2, 1)


def test_split_rejects_a_bend_along_its_wall(a2, a2_diagram):
    # automatic scales divided by rho = 0; given scales meet the line tracer's check
    seg = Segment((0, 0), (0, -101), [Piece((0, 50), 1, None, F(1)),
                                      Piece((0, 51), 1, None, F(1))], 2)
    with pytest.raises(ValueError, match=r"^bend 1 from the endpoint runs along its wall"):
        pair_from_segment(a2, a2_diagram, seg, F(3, 2))
    with pytest.raises(ValueError, match="^piece runs parallel to its bending wall$"):
        pair_from_segment(a2, a2_diagram, seg, F(3, 2), 1, 1)


def test_support_chord_parallel_to_its_wall_is_rejected(a2):
    # the endpoint (2, 0) is 2*m_0 for m_0 = (1, 0), so with a = b = 1 the
    # chord from x~_0 = (1, 0) to m_0/a = (1, 0) is a point off the wall of
    # the bend from (1, 1), which it never meets
    line = BrokenLine((2, 0), [Piece((1, 1), 1, (1, 0)), Piece((1, 0), 1)])
    with pytest.raises(ValueError, match="^support chord misses the bending wall$"):
        construct_segment(a2, line, 1, 1, 1)


@pytest.mark.parametrize("tau", [F(1, 2), F(3, 2)])
def test_trivial_bend_splits_like_no_bend(a2, a2_diagram, tau):
    # two pieces with one exponent validate like the one piece they make;
    # the side that holds the trivial bend has no wall normal there, so its
    # line keeps the exponent twice, the bend at the base
    bent = Segment((3, 1), (1, 1), [Piece((1, 0), 1, None, 1), Piece((1, 0), 1, None, 1)], 2)
    straight = Segment((3, 1), (1, 1), [Piece((1, 0), 1, None, 2)], 2)
    assert validate_segment(a2, a2_diagram, bent)[0]
    assert validate_segment(a2, a2_diagram, straight)[0]
    pair, tr = pair_from_segment(a2, a2_diagram, bent, tau)
    ref, ref_tr = pair_from_segment(a2, a2_diagram, straight, tau)
    assert pair.is_balanced() and pair.base == ref.base
    assert (tr.a, tr.b) == (ref_tr.a, ref_tr.b)
    bent_side = 2 if tau < 1 else 1
    for i, (line, ref_line) in enumerate(((pair.line1, ref.line1), (pair.line2, ref.line2)), 1):
        assert (line.initial, line.final) == (ref_line.initial, ref_line.final)
        if i == bent_side:
            assert [p.exponent for p in line.pieces] == [line.final] * 2
            assert line.pieces[0].bend_point == pair.base
        else:
            assert repr(line.pieces) == repr(ref_line.pieces)


def test_alpha_table_matches_the_definition():
    # the oracle multiplies thetas at a point near each r and reads z^r; it
    # checks every entry of the table, and every exponent of the product
    # that the table omits must give 0
    grid = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
    entries = 0
    for exchange, d in [([[0, 1], [-1, 0]], [1, 1]), ([[0, 2], [-1, 0]], [1, 2]),
                        ([[0, 3], [-1, 0]], [1, 3]), ([[0, 2], [-2, 0]], [1, 1])]:
        fd = FixedData(exchange, d)
        diagram = complete_rank2(fd, 8)
        thetas = {}
        for p in grid:
            for q in grid:
                if p <= q:
                    table = alpha_table(fd, diagram, p, q, 8)
                    for r in set(table) | set(candidates(fd, diagram, p, q, 8)):
                        assert alpha_by_definition(fd, diagram, p, q, r, 8, thetas) == \
                            table.get(r, 0), (fd, p, q, r)
                    entries += len(table)
    assert entries == 2741
