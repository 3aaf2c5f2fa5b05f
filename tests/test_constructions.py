from fractions import Fraction

import pytest

import random
from collections import Counter

import csd.constructions as constructions
from csd.geometry import vscale, vadd
from csd.brokenline import (BrokenLine, Piece, Segment, enumerate_lines,
                            line_bounded_segment, validate_segment, theta, search_form)
from csd.constructions import (BalancedPair, alpha_table, structure_constant,
                               segment_support,
                               construct_segment, glue_balanced,
                               pair_from_segment, fixed_generic_endpoint,
                               _theta_cached, _product_cached)
from csd.convexity import check_positive
from csd.scattering import initial_diagram, complete_diagram, complete_rank2
from csd.series import lp_mul
from balanced_pairs import generic_endpoint_near, oracle_alpha

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
    z0 = fixed_generic_endpoint(g2, g2_diagram)
    from csd.lattice import pairing
    assert all(pairing(g2, w.normal, z0) != 0 for w in g2_diagram.walls)
    v, eps = generic_endpoint_near(g2, g2_diagram, (0, 3))
    z = vadd((0, 3), vscale(eps, v))
    assert all(pairing(g2, w.normal, z) != 0 for w in g2_diagram.walls)


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
    # completion changes walls, so thetas cached on the incomplete diagram
    # must not be served afterwards
    diagram = initial_diagram(a2, 6)
    z = (F(-317, 101), F(-29, 103))
    before = _theta_cached(a2, diagram, (2, -1), z, 6)
    complete_diagram(a2, diagram)
    after = theta(a2, diagram, (2, -1), z, 6)
    assert after != before
    assert _theta_cached(a2, diagram, (2, -1), z, 6) == after


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
    z0 = fixed_generic_endpoint(g2, diagram)
    assert search_form(g2, diagram).endpoint == z0

    def no_pairing(*args):
        raise AssertionError("endpoint recomputed")

    monkeypatch.setattr(constructions, "pairing", no_pairing)
    assert fixed_generic_endpoint(g2, diagram) == z0
    alpha_table(g2, diagram, (1, 0), (-1, 0), 8)
    check_positive(g2, diagram, [(F(-1), F(0)), (F(1), F(-3)), (F(2), F(-3))], 3, 8)


def test_products_and_endpoint_dropped_by_completion(a2):
    # completion changes walls, so products and the endpoint cached on the
    # incomplete diagram must not be served afterwards
    diagram = initial_diagram(a2, 6)
    p, q = (1, -2), (0, -2)
    before = _product_cached(a2, diagram, p, q, 6)
    fixed_generic_endpoint(a2, diagram)
    form = search_form(a2, diagram)
    assert form.products and form.endpoint is not None
    complete_diagram(a2, diagram)
    assert diagram.compiled is None
    z0 = fixed_generic_endpoint(a2, diagram)
    after = lp_mul(a2, theta(a2, diagram, q, z0, 6), theta(a2, diagram, p, z0, 6))
    assert after != before
    assert _product_cached(a2, diagram, p, q, 6) == after
    assert search_form(a2, diagram) is not form


def test_alpha_table_symmetric(g2, g2_diagram):
    box = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
    for p, q in zip(box, reversed(box)):
        assert repr(alpha_table(g2, g2_diagram, p, q)) == repr(alpha_table(g2, g2_diagram, q, p))
