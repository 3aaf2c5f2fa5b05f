import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import csd.convexity as convexity
from csd.brokenline import validate_segment
from csd.convexity import (PLMap, shear_map, chart_maps,
                           is_blc_2d, blc_hull_2d, check_positive,
                           main_theorem_harness, map_cycle)
from csd.geometry import convex_hull, compile_hull, homogeneous, rot90
from csd.lattice import FixedData, pairing, line_dir
from csd.scattering import complete_rank2

F = Fraction


def point_in_hull(pt, hull):
    """Point containment for a convex hull (boundary counts)."""
    return compile_hull(hull).contains(*homogeneous(pt))

A2_BAD_TRIANGLE = [(F(0), F(0)), (F(2), F(-6)), (F(3), F(3))]
G2_PENTAGON = [(F(-1), F(0)), (F(1), F(-3)), (F(2), F(-3)), (F(1), F(0)),
               (F(0), F(3, 2))]
G2_QUAD = [(F(-1), F(0)), (F(1), F(-3)), (F(2), F(-3)), (F(1), F(0))]


def test_plmap_identity_and_apply(a2):
    t0 = shear_map(a2, (1, 0), 1)
    assert t0.image([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (0, 0, 1)]) == \
        [(1, 2, 1), (1, 0, 1), (-1, 1, 1), (0, 0, 1)]


def test_plmap_compose_inverse(a2, g2):
    for fd in (a2, g2):
        for k, e in enumerate(((1, 0), (0, 1))):
            t = shear_map(fd, e, fd.d[k])
            assert t.compose(t.inverse()) == PLMap.identity()
            assert t.inverse().compose(t) == PLMap.identity()


def test_shear_map_rejects_non_integral(g2):
    # on G2 the shear of e_1 needs d_1 = 3 to divide its entries
    with pytest.raises(ValueError, match=r"not integral for normal \(0, 1\)"):
        shear_map(g2, (0, 1), 1)


def test_mat_inv_rejects_a_matrix_that_is_not_unimodular():
    assert convexity.mat_inv(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
    with pytest.raises(ValueError) as info:
        convexity.mat_inv(((2, 0), (0, 1)))
    assert str(info.value) == "matrix is not unimodular"


def test_plmap_continuity_on_fold(a2):
    # both sector matrices agree on the fold line itself
    t0 = shear_map(a2, (1, 0), 1)
    from csd.convexity import mat_vec
    for b in t0.boundaries:
        images = {mat_vec(M, b) for _, M in t0.sectors}
        assert len(images) == 1


def test_chart_counts(a2, g2, kron):
    maps, closed = chart_maps(a2)
    assert len(maps) == 5 and closed
    maps, closed = chart_maps(g2)
    assert len(maps) == 8 and closed
    maps, closed = chart_maps(kron)
    assert not closed


@pytest.fixture
def shear_calls(monkeypatch):
    """Empty chart cache and a count of the shear maps the walk builds."""
    calls = []

    def counting(*args):
        calls.append(args)
        return shear_map(*args)

    convexity._chart_maps_by_value.cache_clear()
    monkeypatch.setattr(convexity, "shear_map", counting)
    return calls


def test_chart_maps_walk_runs_once_per_value(shear_calls):
    a2 = FixedData.from_exchange([[0, 1], [-1, 0]], [1, 1])
    maps, closed = chart_maps(a2)
    walked = len(shear_calls)
    assert walked > 0
    assert chart_maps(a2) == (maps, closed)
    # a separately built FixedData with equal values shares the entry
    again = FixedData.from_exchange([[0, 1], [-1, 0]], [1, 1])
    assert again is not a2
    assert chart_maps(again) == (maps, closed)
    assert len(shear_calls) == walked


def test_chart_maps_returns_fresh_list(g2):
    maps, _ = chart_maps(g2)
    keys = [m.sectors for m in maps]
    maps.pop()
    maps.append(PLMap.identity())
    assert [m.sectors for m in chart_maps(g2)[0]] == keys


@pytest.mark.parametrize("bound", [4, 16])
def test_chart_maps_match_uncached_walk(a2, g2, kron, bound, monkeypatch):
    # chart_maps walks DEPTH_BOUND = 16 steps; a shorter walk finds a subset
    assert convexity.DEPTH_BOUND == 16
    full = [chart_maps(fd) for fd in (a2, g2, kron)]
    convexity._chart_maps_by_value.cache_clear()
    monkeypatch.setattr(convexity, "DEPTH_BOUND", bound)
    try:
        cut = [chart_maps(fd) for fd in (a2, g2, kron)]
    finally:
        # no walk of the patched bound outlives the test
        convexity._chart_maps_by_value.cache_clear()
    for (maps, closed), (walk, walk_closed) in zip(full, cut):
        keys, walk_keys = [m.sectors for m in maps], [m.sectors for m in walk]
        if bound == 16:
            assert walk_keys == keys and walk_closed == closed
        else:
            assert set(walk_keys) <= set(keys) and not walk_closed
            # the cut walk misses charts unless the full walk closes
            assert len(walk_keys) < len(keys) or closed


SIX_TYPES = [([[0, 1], [-1, 0]], [1, 1]), ([[0, 2], [-1, 0]], [1, 2]),
             ([[0, 3], [-1, 0]], [1, 3]), ([[0, 2], [-2, 0]], [1, 1]),
             ([[0, 4], [-1, 0]], [1, 4]), ([[0, 3], [-3, 0]], [1, 1])]


@given(st.sampled_from(SIX_TYPES),
       st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(any))
@settings(max_examples=200, deadline=None)
def test_normal_pairs_negatively_with_its_turned_line(exchange_d, n):
    # <n, rot90(d)> = -(n0^2*d1/d0 + n1^2*d0/d1)/g for d = line_dir(fd, n), so
    # shear_map's sheared side always starts at -d
    fd = FixedData.from_exchange(*exchange_d)
    assert pairing(fd, n, rot90(line_dir(fd, n))) < 0


def test_initial_shears_are_one_sided(a2, a2_diagram):
    # convex in the identity and both initial straightenings...
    from csd.geometry import cycle_is_convex
    shears = [shear_map(a2, (1, 0), 1), shear_map(a2, (0, 1), 1)]
    for phi in [PLMap.identity()] + shears:
        image = map_cycle(phi, [homogeneous(p) for p in A2_BAD_TRIANGLE])
        assert cycle_is_convex(image)
    # ...yet a deeper chart exposes non-convexity
    rep = is_blc_2d(a2, a2_diagram, A2_BAD_TRIANGLE)
    assert rep.verdict is False
    assert rep.witnesses
    seg = rep.witnesses[0]
    ok, why = validate_segment(a2, a2_diagram, seg)
    assert ok, why
    hull = convex_hull(A2_BAD_TRIANGLE)
    assert point_in_hull(seg.start, hull) and point_in_hull(seg.end, hull)
    assert any(not point_in_hull(p, hull) for p in seg.positions())


def test_is_blc_g2(g2, g2_diagram):
    assert is_blc_2d(g2, g2_diagram, G2_PENTAGON).verdict is True
    rep = is_blc_2d(g2, g2_diagram, G2_QUAD)
    assert rep.verdict is False
    assert rep.witnesses
    ok, _ = validate_segment(g2, g2_diagram, rep.witnesses[0])
    assert ok


def test_is_blc_degenerate_inputs(a2, a2_diagram):
    assert is_blc_2d(a2, a2_diagram, [(F(1), F(1))]).verdict is True
    # a chord on one side of every wall is convex in every chart
    assert is_blc_2d(a2, a2_diagram, [(F(1), F(1)), (F(2), F(1))]).verdict is True


def test_is_blc_rejects_empty_cycle(a2, a2_diagram):
    # every chart image of no points is convex, so a verdict would be vacuous
    with pytest.raises(ValueError, match="no points"):
        is_blc_2d(a2, a2_diagram, [])


def test_is_blc_kronecker_unknown_and_false(kron, kron_diagram):
    # truncated chart walks can still disprove convexity...
    sq = [(F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1))]
    rep = is_blc_2d(kron, kron_diagram, sq)
    assert rep.verdict is False
    assert not rep.closed
    # ...but never certify it
    tri = [(F(0), F(0)), (F(3), F(-1)), (F(5), F(5))]
    rep = is_blc_2d(kron, kron_diagram, tri)
    assert rep.verdict is None
    assert not rep.closed


def test_is_blc_kronecker_unit_square_unknown(kron, kron_diagram):
    # convex in every chart of the unclosed walk, so still unknown
    sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
    rep = is_blc_2d(kron, kron_diagram, sq)
    assert rep.verdict is None
    assert not rep.closed


def test_blc_hull_a2_diamond(a2, a2_diagram):
    pts = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))]
    hull, flagged = blc_hull_2d(a2, a2_diagram, pts)
    assert not flagged
    assert set(hull) == set(pts)
    assert is_blc_2d(a2, a2_diagram, hull).verdict is True


def test_blc_hull_g2_adds_vertex(g2, g2_diagram):
    hull, flagged = blc_hull_2d(g2, g2_diagram, G2_QUAD)
    assert not flagged
    assert set(hull) == set(G2_PENTAGON)
    # fixpoint and containment
    hull2, _ = blc_hull_2d(g2, g2_diagram, hull)
    assert set(hull2) == set(hull)
    ch = convex_hull(hull)
    assert all(point_in_hull(p, ch) for p in G2_QUAD)


def test_hull_rounds_keep_only_the_hull(monkeypatch, g2, g2_diagram):
    # each closure round hulls the last hull's vertices and the points that
    # round pulled back, none older: on G2 the round before the fixpoint
    # holds interior points, and on (3,3) the hull keeps growing to the cap
    rounds = []  # (V's points, their hull, the map_cycle images after it)

    def spy_hull(points):
        hull = convex_hull(points)
        if isinstance(points, dict):
            rounds.append((set(points), hull, []))
        return hull

    def spy_map(phi, cycle):
        image = map_cycle(phi, cycle)
        rounds[-1][2].append(image)
        return image

    monkeypatch.setattr(convexity, "convex_hull", spy_hull)
    monkeypatch.setattr(convexity, "map_cycle", spy_map)
    monkeypatch.setattr(convexity, "HULL_ROUNDS", 3)
    w33 = FixedData.from_exchange([[0, 3], [-3, 0]], [1, 1])
    for fd, diagram, pts, want in (
            (g2, g2_diagram, G2_QUAD, (False, 4)),
            (w33, complete_rank2(w33, 6), [(0, F(-1, 2)), (1, -1), (1, F(-1, 2)), (0, 1)],
             (True, 4))):
        rounds.clear()
        _, flagged = blc_hull_2d(fd, diagram, pts)
        assert (flagged, len(rounds)) == want
        # each image is followed by its pullback
        for (V, vertices, images), (V_next, _, _) in zip(rounds, rounds[1:]):
            assert V_next == set(vertices).union(*images[1::2])
        assert any(V - set(vertices) for V, vertices, _ in rounds)


def test_check_positive_g2(g2, g2_diagram):
    rep = check_positive(g2, g2_diagram, G2_QUAD, 3)
    assert rep.verdict is False
    w = rep.witnesses[0]
    assert w == {"p": (1, 0), "q": (1, -2), "r": (0, 1), "a": 1, "b": 1,
                 "alpha": F(1)}
    rep = check_positive(g2, g2_diagram, G2_PENTAGON, 3)
    assert rep.verdict is True


def test_check_positive_a2(a2, a2_diagram):
    pts = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))]
    assert check_positive(a2, a2_diagram, pts, 3).verdict is True
    rep = check_positive(a2, a2_diagram, A2_BAD_TRIANGLE, 3)
    assert rep.verdict is False


@pytest.mark.parametrize("degree", [1, 0, -3])
def test_max_degree_below_two_rejected(a2, a2_diagram, degree):
    with pytest.raises(ValueError, match="max_degree"):
        check_positive(a2, a2_diagram, [(F(0), F(0)), (F(1), F(0))], degree)
    with pytest.raises(ValueError, match="max_degree"):
        main_theorem_harness(a2, a2_diagram, 1, max_degree=degree)


A2_TRIANGLE = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0))]


def _polygon_calls(a2, a2_diagram):
    return [lambda pts: is_blc_2d(a2, a2_diagram, pts),
            lambda pts: check_positive(a2, a2_diagram, pts, 2),
            lambda pts: blc_hull_2d(a2, a2_diagram, pts)]


@pytest.mark.parametrize("bad,index", [
    # a triple is not read as a homogeneous point, whatever its denominator
    ([(1, 0, 1), (0, 2, -2), (-1, 0, 1)], 0),
    ([(F(1), F(0)), (0.5, 0.25)], 1),
    ([(F(1), F(0)), (F(0), F(1)), ("1/2", 1)], 2),
    ([(1,)], 0),
    ([(0, 0), 7], 1),
], ids=["triple", "float", "string", "one-coordinate", "scalar"])
def test_polygon_api_rejects_non_pairs(a2, a2_diagram, bad, index):
    for call in _polygon_calls(a2, a2_diagram):
        with pytest.raises(ValueError, match=r"^point %d must be a pair of rationals, got "
                           % index):
            call(bad)


def test_polygon_api_accepts_int_and_list_pairs(a2, a2_diagram):
    pts = [[1, 0], [0, 1], (-1, 0)]
    is_blc, positive, hull = _polygon_calls(a2, a2_diagram)
    assert repr(is_blc(pts)) == repr(is_blc(A2_TRIANGLE))
    assert repr(positive(pts)) == repr(positive(A2_TRIANGLE))
    assert hull(pts) == hull(A2_TRIANGLE)


@pytest.mark.parametrize("degree", [2.5, "3", None, 2.0])
def test_max_degree_must_be_int(a2, a2_diagram, degree):
    with pytest.raises(ValueError, match=r"^max_degree must be an int >= 2, got "):
        check_positive(a2, a2_diagram, A2_TRIANGLE, degree)


@pytest.mark.parametrize("K", ["6", -1, 2.0, True])
def test_order_must_be_none_or_nonnegative_int(a2, a2_diagram, K):
    with pytest.raises(ValueError, match=r"^K must be None or an int >= 0, got "):
        is_blc_2d(a2, a2_diagram, A2_TRIANGLE, K)
    with pytest.raises(ValueError, match=r"^K must be None or an int >= 0, got "):
        check_positive(a2, a2_diagram, A2_TRIANGLE, 2, K)


def test_order_zero_is_accepted(a2, a2_diagram):
    assert is_blc_2d(a2, a2_diagram, A2_TRIANGLE, 0).order_checked == 0
    assert check_positive(a2, a2_diagram, A2_TRIANGLE, 2, 0).order_checked == 0


def test_harness_small(a2, a2_diagram):
    rep = main_theorem_harness(a2, a2_diagram, 4, max_degree=3, K=6)
    assert rep["trials"] == 4
    assert not rep["disagreements"]


def test_certify_failure_without_structure_constant(g2, g2_diagram, monkeypatch):
    rep = is_blc_2d(g2, g2_diagram, G2_QUAD)
    seg = rep.witnesses[0]
    assert convexity._certify_failure(g2, g2_diagram, G2_QUAD, seg, 8) is not None
    calls = []

    def non_generic(*args):
        calls.append(args)
        raise ValueError("trajectory runs into the origin")

    monkeypatch.setattr(convexity, "structure_constant", non_generic)
    assert convexity._certify_failure(g2, g2_diagram, G2_QUAD, seg, 8) is None
    assert calls


# per order, for the six types in SIX_TYPES order: False verdicts with no
# witness, and witness chords that validate_segment rejected
WITNESS_COVERAGE = {2: ([0, 1, 1, 3, 0, 0], [0, 3, 4, 5, 0, 0]),
                    3: ([0] * 6, [0, 0, 2, 0, 0, 0]),
                    4: ([0] * 6, [0, 0, 2, 0, 0, 0]),
                    6: ([0] * 6, [0] * 6)}


@pytest.mark.parametrize("order", sorted(WITNESS_COVERAGE))
def test_witness_coverage_is_pinned(order, monkeypatch):
    # harness seeds 0-5, 50 polygons each: at order 6 every False verdict
    # has a witness whose first chord validates; low orders may lack the
    # walls on the charts' fold rays that the chords bend on
    failed = []

    def counting(fd, diagram, seg):
        ok, msg = validate_segment(fd, diagram, seg)
        failed[-1] += not ok
        return ok, msg

    monkeypatch.setattr(convexity, "validate_segment", counting)
    no_witness, false = [], 0
    for exchange, d in SIX_TYPES:
        fd = FixedData.from_exchange(exchange, d)
        diagram = complete_rank2(fd, order)
        failed.append(0)
        no_witness.append(0)
        for seed in range(6):
            rng = random.Random(seed)
            for _ in range(50):
                report = is_blc_2d(fd, diagram, convexity._random_polygon(rng))
                if report.verdict is False:
                    false += 1
                    no_witness[-1] += not report.witnesses
    assert (no_witness, failed) == WITNESS_COVERAGE[order]
    # the verdicts come from the charts, which do not depend on the order
    assert false == 1577
