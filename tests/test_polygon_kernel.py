"""The integer polygon kernel against the Fraction polygon path it replaced.

The reference functions below are the Fraction implementations of the
convex hull, hull containment, the bounding-box lattice scan, chart images,
convexity witnesses, broken-line hulls and the positivity scan.  They share
the series layer (theta and alpha caches) with the program, so only the
polygon arithmetic is compared.
"""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csd import constructions, convexity
from csd.brokenline import Segment, Piece, validate_segment, reverse
from csd.constructions import EXPANSION_ENDPOINT, _theta_cached
from csd.convexity import (PLMap, chart_maps, is_blc_2d, blc_hull_2d, check_positive,
                           mat_vec, _alpha_cached)
from csd.geometry import (vadd, vsub, vscale, is_zero, primitive, cross, dot,
                          ccw_key, convex_hull, compile_hull, cycle_is_convex,
                          homogeneous, rational)
from csd.lattice import FixedData
from csd.scattering import Diagram, complete_rank2
from csd.series import lp_mul
from crossing_reference import sgn

F = Fraction


# --- reference: the Fraction polygon path ---------------------------------

def ref_convex_hull(points):
    pts = sorted(set(tuple(p) for p in points))
    if not pts:
        raise ValueError("convex hull of no points")
    if len(pts) == 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) > 1 and cross(vsub(lower[-1], lower[-2]), vsub(p, lower[-2])) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) > 1 and cross(vsub(upper[-1], upper[-2]), vsub(p, upper[-2])) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def ref_point_in_hull(pt, hull):
    if len(hull) == 1:
        return tuple(pt) == tuple(hull[0])
    if len(hull) == 2:
        a, b = hull
        if cross(vsub(b, a), vsub(pt, a)) != 0:
            return False
        t = dot(vsub(pt, a), vsub(b, a))
        return 0 <= t <= dot(vsub(b, a), vsub(b, a))
    for i in range(len(hull)):
        a = hull[i]
        b = hull[(i + 1) % len(hull)]
        if cross(vsub(b, a), vsub(pt, a)) < 0:
            return False
    return True


def ref_lattice_points(hull):
    xs = [Fraction(p[0]) for p in hull]
    ys = [Fraction(p[1]) for p in hull]
    out = []
    for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1):
            if ref_point_in_hull((x, y), hull):
                out.append((x, y))
    return out


def ref_cycle_is_convex(cycle):
    n = len(cycle)
    if n <= 2:
        return True
    signs = set()
    for i in range(n):
        a, b, c = cycle[i], cycle[(i + 1) % n], cycle[(i + 2) % n]
        s = sgn(cross(vsub(b, a), vsub(c, b)))
        if s:
            signs.add(s)
    return len(signs) <= 1


def ccw_between(a, x, b):
    """True if direction x lies in the ccw sector [a, b), a != b: the case
    analysis that PLMap compiles into its sector kinds."""
    ab = cross(a, b)
    if ab > 0:
        # narrower than a half-turn
        return cross(a, x) >= 0 and cross(x, b) > 0
    if ab < 0:
        # the complement of the narrow sector [b, a)
        return not (cross(b, x) >= 0 and cross(x, a) > 0)
    if dot(a, b) > 0:
        return False
    # a half-plane: the left side of a, with a but not -a
    ax = cross(a, x)
    return ax > 0 or (ax == 0 and dot(a, x) > 0)


def ref_ccw_between(a, x, b):
    ka, kx, kb = ccw_key(a), ccw_key(x), ccw_key(b)
    if ka < kb:
        return ka <= kx < kb
    if kb < ka:
        return kx >= ka or kx < kb
    return False


def ref_matrix_at(phi, d):
    """The sector scan that the compiled sector table replaced."""
    secs = phi.sectors
    if len(secs) > 1:
        for i, (start, M) in enumerate(secs):
            if ref_ccw_between(start, d, secs[(i + 1) % len(secs)][0]):
                return M
    return secs[-1][1]


def ref_apply(phi, v):
    if is_zero(v):
        return tuple(v)
    return mat_vec(ref_matrix_at(phi, primitive(v)), v)


def ref_edge_fold_points(a, b, folds):
    hits = []
    v = vsub(b, a)
    for s in folds:
        den = cross(v, s)
        if den == 0:
            continue
        t = Fraction(cross(s, a), den)
        if not (0 < t < 1):
            continue
        pt = vadd(a, vscale(t, v))
        if dot(pt, s) >= 0:
            hits.append((t, pt))
    hits.sort()
    out = []
    for t, pt in hits:
        if not out or out[-1] != pt:
            out.append(pt)
    return out


def ref_map_cycle(phi, cycle):
    folds = phi.boundaries
    refined = []
    for i, a in enumerate(cycle):
        refined.append(tuple(a))
        refined.extend(ref_edge_fold_points(a, cycle[(i + 1) % len(cycle)], folds))
    return [ref_apply(phi, p) for p in refined]


def ref_segment_from_polyline(poly):
    pieces = []
    total = Fraction(0)
    for a, b in zip(poly, poly[1:]):
        d = vsub(a, b)
        if is_zero(d):
            continue
        m = primitive(d)
        i = 0 if m[0] != 0 else 1
        dt = Fraction(d[i], m[i])
        total += dt
        pieces.append(Piece(m, Fraction(1), None, dt))
    if not pieces:
        return None
    return Segment(poly[0], poly[-1], pieces, total)


def ref_convexity_witness(fd, diagram, cycle, phi):
    image = ref_map_cycle(phi, cycle)
    phi_inv = phi.inverse()
    for i, j in itertools.combinations(range(len(image)), 2):
        u, w = image[i], image[j]
        if u == w:
            continue
        pts = [u] + ref_edge_fold_points(u, w, phi_inv.boundaries) + [w]
        poly = [ref_apply(phi_inv, p) for p in pts]
        probes = [vscale(Fraction(1, 2), vadd(a, b)) for a, b in zip(poly, poly[1:])]
        probes.extend(poly[1:-1])
        if all(ref_point_in_hull(p, ref_convex_hull(cycle)) for p in probes):
            continue
        seg = ref_segment_from_polyline(poly)
        if seg is None:
            continue
        if validate_segment(fd, diagram, seg)[0]:
            return seg
        if validate_segment(fd, diagram, reverse(seg))[0]:
            return reverse(seg)
    return None


def ref_is_blc(fd, diagram, cycle):
    cycle = [tuple(p) for p in cycle]
    charts, closed = chart_maps(fd)
    for phi in charts:
        if not ref_cycle_is_convex(ref_map_cycle(phi, cycle)):
            wit = ref_convexity_witness(fd, diagram, cycle, phi)
            return (False, [wit] if wit is not None else [], closed)
    return (None, [], False) if not closed else (True, [], True)


def ref_blc_hull(fd, diagram, pts, max_rounds=64):
    charts, closed = chart_maps(fd)
    V = {tuple(p) for p in pts}
    flagged = not closed
    prev = None
    for _ in range(max_rounds):
        hull = ref_convex_hull(V)
        if hull == prev:
            break
        prev = hull
        for phi in charts:
            ih = ref_convex_hull(ref_map_cycle(phi, hull))
            phi_inv = phi.inverse()
            back = []
            for i, a in enumerate(ih):
                back.append(ref_apply(phi_inv, a))
                if len(ih) > 1:
                    b = ih[(i + 1) % len(ih)]
                    back.extend(ref_apply(phi_inv, p)
                                for p in ref_edge_fold_points(a, b, phi_inv.boundaries))
            V.update(tuple(p) for p in back)
    else:
        flagged = True
    return [tuple(p) for p in ref_convex_hull(V)], flagged


def ref_check_positive(fd, diagram, cycle, max_degree, K):
    hull = ref_convex_hull([tuple(p) for p in cycle])
    z0 = EXPANSION_ENDPOINT

    def dilate(k):
        return [vscale(k, p) for p in hull]

    for total in range(2, max_degree + 1):
        for a in range(1, total):
            b = total - a
            if a > b:
                continue
            pa = sorted(ref_lattice_points(dilate(a)), reverse=True)
            pb = sorted(ref_lattice_points(dilate(b)), reverse=True)
            target = dilate(a + b)
            for p in pa:
                for q in pb:
                    if is_zero(p) or is_zero(q):
                        r = tuple(q) if is_zero(p) else tuple(p)
                        if not ref_point_in_hull(r, target):
                            return (False, [{"p": p, "q": q, "r": r, "a": a, "b": b,
                                             "alpha": Fraction(1)}])
                        continue
                    corners = [vadd(p, q)]
                    corners += [vadd(vadd(p, q), vscale(K, g)) for g in fd.monoid_gens]
                    if all(ref_point_in_hull(c, target) for c in corners):
                        continue
                    prod = lp_mul(fd, _theta_cached(fd, diagram, p, z0, K),
                                  _theta_cached(fd, diagram, q, z0, K))
                    if all(ref_point_in_hull(e, target) for e in prod.terms):
                        continue
                    table = _alpha_cached(fd, diagram, p, q, K)
                    for r in sorted(table):
                        if table[r] != 0 and not ref_point_in_hull(r, target):
                            return (False, [{"p": p, "q": q, "r": r, "a": a, "b": b,
                                             "alpha": table[r]}])
    return (True, [])


# --- the integer convex hull ----------------------------------------------

def _twins(pts):
    """An equal-valued twin of each integral point of pts: Fractions for ints
    and ints for Fractions."""
    out = []
    for x, y in pts:
        if F(x).denominator == 1 and F(y).denominator == 1:
            out.append((F(x), F(y)) if isinstance(x, int) else (int(x), int(y)))
    return out


mixed_coord = st.one_of(st.integers(-6, 6),
                        st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5])))
mixed_point = st.tuples(mixed_coord, mixed_coord)
hull_inputs = st.one_of(
    st.lists(mixed_point, min_size=1, max_size=12),
    # duplicates and equal-valued twins, in drawn order
    st.lists(mixed_point, min_size=1, max_size=6).flatmap(
        lambda pts: st.permutations(pts + pts[:2] + _twins(pts))),
    # collinear sets: points a + t*(b - a)
    st.tuples(mixed_point, mixed_point,
              st.lists(st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
                       min_size=1, max_size=6))
    .map(lambda abt: [vadd(abt[0], vscale(t, vsub(abt[1], abt[0]))) for t in abt[2]]),
    mixed_point.map(lambda p: [p]))


@settings(max_examples=400, deadline=None)
@given(hull_inputs)
def test_convex_hull_matches_fraction_reference(pts):
    hull = convex_hull(iter(pts))
    ref = ref_convex_hull(pts)
    # the same vertices, each the tuple given, so values and types agree
    assert repr(hull) == repr(ref)
    assert all(any(v is p for p in pts) for v in hull)
    # homogeneous input comes back homogeneous
    triples = [homogeneous(p) for p in pts]
    assert convex_hull(triples) == [homogeneous(p) for p in ref_convex_hull(pts)]
    assert [rational(h) for h in convex_hull(triples)] == ref


# --- compiled hulls: containment and lattice points ------------------------

coord = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 1, 2, 3, 4, 7]))
point = st.tuples(coord, coord)


def hulls(min_size, max_size):
    return st.lists(point, min_size=min_size, max_size=max_size).map(convex_hull)


any_hull = st.one_of(hulls(1, 1),
                     st.tuples(point, point).filter(lambda ab: ab[0] != ab[1])
                     .map(lambda ab: convex_hull(ab)),
                     hulls(3, 8))


@settings(max_examples=300, deadline=None)
@given(any_hull, st.integers(1, 4), st.lists(point, max_size=10),
       st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=10))
def test_compiled_containment_matches_reference(hull, k, rational_pts, int_pts):
    dilated = [vscale(k, p) for p in hull]
    compiled = compile_hull(hull)
    # every vertex of the dilation, edge midpoints and points just off them
    probes = list(dilated) + [vscale(k, p) for p in rational_pts] + rational_pts + int_pts
    for a, b in zip(dilated, dilated[1:] + dilated[:1]):
        mid = vscale(F(1, 2), vadd(a, b))
        probes += [mid, vadd(mid, (F(1, 97), 0)), vadd(mid, (0, F(-1, 97)))]
    for pt in probes:
        expected = ref_point_in_hull(pt, dilated)
        X, Y, q = homogeneous(pt)
        assert compiled.contains(X, Y, q * k) == expected, (hull, k, pt)
        assert compile_hull(dilated).contains(*homogeneous(pt)) == expected


@settings(max_examples=300, deadline=None)
@given(any_hull, st.integers(1, 4))
def test_lattice_points_match_bounding_box_scan(hull, k):
    dilated = [vscale(k, p) for p in hull]
    expected = ref_lattice_points(dilated)
    compiled = compile_hull(hull)
    assert all(type(c) is int for c in compiled.box)
    assert all(type(c) is int for p in compiled.lattice_points(k) for c in p)
    assert compiled.lattice_points(k) == expected
    assert compile_hull(dilated).lattice_points() == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("pts", [
    [(0, 0)], [(F(1, 2), F(-3, 4))],
    # horizontal and vertical segments, off the grid and on it
    [(F(-3, 2), F(1, 3)), (F(5, 4), F(1, 3))], [(-2, 1), (3, 1)],
    [(F(2, 3), F(-5, 4)), (F(2, 3), F(7, 2))], [(-1, -2), (-1, 2)],
    # hulls with vertical edges: on both sides, on the right, on the left
    [(-1, -1), (1, -1), (1, 1), (-1, 1)],
    [(F(-1, 2), 0), (F(3, 2), F(-1, 3)), (F(3, 2), F(5, 2))],
    [(F(-2, 3), F(-1, 2)), (F(5, 3), 0), (F(-2, 3), F(3, 2))]],
    ids=["origin", "point", "horizontal", "horizontal-int", "vertical", "vertical-int",
         "square", "right-edge", "left-edge"])
def test_lattice_points_of_points_segments_and_vertical_edges(pts, k):
    # the planes with B = 0 bound no column: each is an edge or cap at the
    # box's least or greatest x, which every column the box spans satisfies
    hull = convex_hull(pts)
    compiled = compile_hull(pts)
    assert compiled.lattice_points(k) == ref_lattice_points([vscale(k, p) for p in hull])
    vertical = [pl for pl in compiled.planes if pl[1] == 0]
    assert vertical
    assert len(vertical) + len(compiled.lower) + len(compiled.upper) == len(compiled.planes)
    x0, x1, _, _, L = compiled.box
    for x in range(-(-k * x0 // L), k * x1 // L + 1):
        assert all(A * x >= k * N for A, _, N in vertical)


class _Ratio:
    """A rational without ``as_integer_ratio``, read through its numerator
    and denominator."""

    def __init__(self, f):
        self.numerator, self.denominator = f.numerator, f.denominator


def ref_homogeneous(p):
    x, y = F(p[0]), F(p[1])
    q = math.lcm(x.denominator, y.denominator)
    return (int(x * q), int(y * q), q)


entry = st.one_of(st.integers(-10 ** 12, 10 ** 12), st.fractions(max_denominator=10 ** 6))


@settings(max_examples=400, deadline=None)
@given(st.tuples(entry, entry))
def test_homogeneous_matches_fraction_reference(p):
    # ints, Fractions, the two mixed and negative entries; triples as they are
    h = homogeneous(p)
    assert h == ref_homogeneous(p)
    assert all(type(c) is int for c in h) and h[2] > 0 and math.gcd(*h) == 1
    assert rational(h) == (F(p[0]), F(p[1]))
    assert homogeneous(h) is h
    assert homogeneous((_Ratio(F(p[0])), _Ratio(F(p[1])))) == h


def ref_planes(hull):
    """The half-planes n.x >= n.a of a ccw Fraction hull, one per edge a -> b
    with n = rot90(b - a) (two caps and two sides for a segment, four for a
    point), each as primitive integers (A, B, N)."""
    if len(hull) == 1:
        normals = [((1, 0), hull[0]), ((-1, 0), hull[0]), ((0, 1), hull[0]), ((0, -1), hull[0])]
    else:
        normals = []
        for a, b in zip(hull, hull[1:] + hull[:1]):
            u = vsub(b, a)
            normals.append(((-u[1], u[0]), a))
            if len(hull) == 2:
                normals.append((u, a))
    out = []
    for n, a in normals:
        row = [F(n[0]), F(n[1]), dot(n, a)]
        den = math.lcm(*(c.denominator for c in row))
        ints = [int(c * den) for c in row]
        g = math.gcd(*ints)
        out.append(tuple(c // g for c in ints))
    return out


@settings(max_examples=300, deadline=None)
@given(hull_inputs, st.booleans())
def test_compile_hull_of_any_point_set(pts, homog):
    # one pass from the raw points: the same half-planes as the reference
    # hull's edges, the same box as rationals and the same lattice points
    ref = ref_convex_hull(pts)
    compiled = compile_hull([homogeneous(p) for p in pts] if homog else pts)
    assert compiled.planes == ref_planes(ref)
    x0, x1, y0, y1, L = compiled.box
    xs, ys = [F(p[0]) for p in ref], [F(p[1]) for p in ref]
    assert (F(x0, L), F(x1, L), F(y0, L), F(y1, L)) == (min(xs), max(xs), min(ys), max(ys))
    assert compiled.lattice_points() == ref_lattice_points(ref)


@settings(max_examples=300, deadline=None)
@given(any_hull, st.integers(1, 4))
def test_lattice_points_are_ascending(hull, k):
    # check_positive reverses this list to scan each dilation descending
    pts = compile_hull(hull).lattice_points(k)
    assert pts == sorted(set(pts))


def test_compiled_hull_shapes():
    assert len(compile_hull([(F(1, 2), F(3))]).planes) == 4
    assert len(compile_hull([(0, 0), (F(3, 2), F(1))]).planes) == 4
    square = compile_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(square.planes) == 4
    assert square.lattice_points(3) == [(x, y) for x in range(4) for y in range(4)]
    # a segment between lattice points: only the points on it
    seg = compile_hull([(0, 0), (2, 4)])
    assert seg.lattice_points() == [(0, 0), (1, 2), (2, 4)]
    assert seg.contains(1, 2, 1) and not seg.contains(1, 3, 1)
    assert seg.contains(3, 6, 3) and not seg.contains(7, 14, 3)


vec = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda v: v != (0, 0))


@settings(max_examples=300, deadline=None)
@given(vec, vec, vec)
def test_ccw_between_matches_angle_keys(a, x, b):
    assert ccw_between(a, x, b) == ref_ccw_between(a, x, b)


@settings(max_examples=300, deadline=None)
@given(st.lists(vec, min_size=1, max_size=6), st.lists(vec, max_size=8))
def test_sector_table_matches_sector_scan(starts, probes):
    # any sector layout, so every kind of sector turns up in every position;
    # a repeated start direction makes an empty sector
    phi = PLMap([(s, ((k + 1, 0), (0, 1))) for k, s in enumerate(starts)])
    bounds = [s for s, _ in phi.sectors]
    for v in probes + bounds + [vscale(-1, s) for s in bounds]:
        assert phi.matrix_at(v) == ref_matrix_at(phi, v), (phi.sectors, v)


def _cycles(draw_pt):
    """Closed cycles of rational points: arbitrary, or a convex hull in ccw or
    cw order with duplicates and collinear runs inserted."""
    def decorate(args):
        hull, reverse, dups, runs = args
        out = []
        for i, a in enumerate(hull):
            b = hull[(i + 1) % len(hull)]
            out.append(a)
            out.extend([a] * dups.get(i, 0))
            out.extend(vadd(a, vscale(t, vsub(b, a))) for t in runs.get(i, ()))
        return out[::-1] if reverse else out
    fractions = st.builds(Fraction, st.integers(1, 5), st.integers(6, 7))
    hulls_ = st.lists(draw_pt, min_size=1, max_size=7).map(convex_hull)
    return st.one_of(
        st.lists(draw_pt, min_size=4, max_size=8),
        st.tuples(hulls_, st.booleans(),
                  st.dictionaries(st.integers(0, 6), st.integers(1, 2), max_size=3),
                  st.dictionaries(st.integers(0, 6),
                                  st.lists(fractions, min_size=1, max_size=3)
                                  .map(sorted), max_size=3))
        .map(decorate),
        # collinear points in any order
        st.tuples(draw_pt, draw_pt, st.lists(fractions, min_size=1, max_size=5))
        .map(lambda abt: [vadd(abt[0], vscale(t, vsub(abt[1], abt[0]))) for t in abt[2]]))


@settings(max_examples=500, deadline=None)
@given(_cycles(point))
def test_cycle_is_convex_matches_reference(cycle):
    expected = ref_cycle_is_convex(cycle)
    assert cycle_is_convex([homogeneous(p) for p in cycle]) == expected


# --- the polygon layer against the Fraction path ---------------------------

def _bench_polygon(rng, vertices, origin, span):
    pts = set()
    while len(pts) < vertices:
        pts.add((Fraction(rng.randint(-span, span), rng.choice((1, 1, 2))),
                 Fraction(rng.randint(-span, span), rng.choice((1, 1, 2)))))
    if origin:
        pts.add((Fraction(0), Fraction(0)))
    return convex_hull(pts)


def _polygons(seed, small, large):
    """small polygons in [-1, 1]^2 and large ones in [-6, 6]^2, bench style."""
    rng = random.Random(seed)
    out = [_bench_polygon(rng, 2 + j % 4, (j // 4) % 2 == 0, 1) for j in range(small)]
    out += [_bench_polygon(rng, 2 + j % 4, j % 2 == 0, 6) for j in range(large)]
    return out


def _degenerate_cycles(fd, seed):
    """Cycles the bench never draws: shuffled (non-convex) and clockwise
    vertex orders, repeated vertices, the origin inside an edge, and
    collinear zigzags on fold lines through the origin with points on both
    rays, the cases where a chart is linear on a cycle without lying in an
    open sector."""
    rng = random.Random(seed)
    out = []
    for hull in _polygons(seed, 8, 4):
        shuffled = list(hull)
        rng.shuffle(shuffled)
        out += [shuffled, hull[::-1], hull + hull[:1], hull[:1] + hull + hull[-1:]]
    out += [[(F(-1), F(-1)), (F(1), F(1)), (F(1), F(-1))],
            [(F(-1), F(0)), (F(1), F(0)), (F(0), F(1))],
            [(F(2), F(-1)), (F(0), F(0)), (F(-2), F(1)), (F(0), F(2))]]
    lines = {(1, 1), (1, 0), (0, 1), (1, -1)}
    lines.update(line for phi in chart_maps(fd)[0] for line in phi.lines)
    for x, y in sorted(lines, key=lambda s: (abs(s[0]) + abs(s[1]), s))[:8]:
        s, t = (F(x), F(y)), (F(-x), F(-y))
        out += [[s, t, vscale(2, s), vscale(2, t)],
                [s, t, (F(1, 2), F(1, 3))],
                [(F(0), F(0)), s, vscale(3, s)]]
    return out


@pytest.fixture(scope="module")
def diagrams(a2, a2_diagram, kron, kron_diagram, g2, g2_diagram):
    b2 = FixedData.from_exchange([[0, 2], [-1, 0]], [1, 2])
    wild = FixedData.from_exchange([[0, 3], [-3, 0]], [1, 1])
    one_four = FixedData.from_exchange([[0, 4], [-1, 0]], [1, 4])
    return {"A2": (a2, a2_diagram), "Kronecker": (kron, kron_diagram),
            "G2": (g2, g2_diagram), "B2": (b2, complete_rank2(b2, 6)),
            "(3,3)": (wild, complete_rank2(wild, 6)),
            "(1,4)": (one_four, complete_rank2(one_four, 6))}


@pytest.mark.parametrize("name", ["A2", "Kronecker", "G2", "B2", "(3,3)", "(1,4)"])
def test_verdicts_match_fraction_path(name, diagrams):
    fd, diagram = diagrams[name]
    for cycle in _polygons("kernel:" + name, 100, 20) + \
            _degenerate_cycles(fd, "degenerate:" + name):
        blc = is_blc_2d(fd, diagram, cycle, 6)
        verdict, witnesses, closed = ref_is_blc(fd, diagram, cycle)
        assert (blc.verdict, repr(blc.witnesses), blc.closed) == \
            (verdict, repr(witnesses), closed), cycle
        pos = check_positive(fd, diagram, cycle, 3, 6)
        ref = ref_check_positive(fd, diagram, cycle, 3, 6)
        assert (pos.verdict, repr(pos.witnesses)) == (ref[0], repr(ref[1])), cycle


# (map_cycle calls, witness chords pulled back, validate_segment calls) of
# is_blc_2d at K 6 over _polygons("kernel:<name>", 100, 20), with every
# report's witnesses read.  The identity chart and charts linear on a cycle
# are never mapped and chords that cross no fold are never pulled back; a
# change that loses any of these skips fails here.
CHART_WORK = {"A2": (152, 128, 87), "G2": (151, 113, 93), "Kronecker": (365, 128, 99)}


def _chart_work(fd, diagram, name, read, monkeypatch):
    chart_maps(fd)
    calls = {"map_cycle": 0, "image": 0, "validate_segment": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(convexity, "map_cycle", counted("map_cycle", convexity.map_cycle))
    monkeypatch.setattr(convexity, "validate_segment",
                        counted("validate_segment", convexity.validate_segment))
    monkeypatch.setattr(PLMap, "image", counted("image", PLMap.image))
    for cycle in _polygons("kernel:" + name, 100, 20):
        rep = is_blc_2d(fd, diagram, cycle, 6)
        if read:
            rep.witnesses
    # map_cycle maps through PLMap.image once; every other image is a chord
    return (calls["map_cycle"], calls["image"] - calls["map_cycle"],
            calls["validate_segment"])


@pytest.mark.parametrize("name", sorted(CHART_WORK))
def test_chart_work_is_pinned(name, diagrams, monkeypatch):
    assert _chart_work(*diagrams[name], name, True, monkeypatch) == CHART_WORK[name]


@pytest.mark.parametrize("name", sorted(CHART_WORK))
def test_unread_witness_costs_no_chart_work(name, diagrams, monkeypatch):
    # a witness nobody reads is never searched for: no chord, no validation
    assert _chart_work(*diagrams[name], name, False, monkeypatch) == \
        (CHART_WORK[name][0], 0, 0)


@pytest.mark.parametrize("name", sorted(CHART_WORK))
def test_witness_is_found_once_on_first_read(name, diagrams, monkeypatch):
    fd, diagram = diagrams[name]
    find = convexity._convexity_witness
    searches = []

    def counted(*args):
        searches.append(args)
        return find(*args)

    monkeypatch.setattr(convexity, "_convexity_witness", counted)
    ways = {"repr": lambda rep: repr(rep),
            "deepcopy": lambda rep: repr(copy.deepcopy(rep)),
            "pickle": lambda rep: repr(pickle.loads(pickle.dumps(rep))),
            "read": lambda rep: "CheckReport(verdict=%r, witnesses=%r)"
                                % (rep.verdict, rep.witnesses)}
    found = 0
    for cycle in _polygons("kernel:" + name, 100, 20):
        verdict, witnesses, _ = ref_is_blc(fd, diagram, cycle)
        eager = "CheckReport(verdict=%r, witnesses=%r)" % (verdict, witnesses)
        found += bool(witnesses)
        for first, way in ways.items():
            rep = is_blc_2d(fd, diagram, cycle, 6)
            del searches[:]
            # the first read of any kind searches; every later one, of every
            # kind, gives the same witnesses without searching again
            assert way(rep) == eager, (first, cycle)
            assert [w(rep) for w in ways.values()] == [eager] * len(ways), cycle
            assert len(searches) == (verdict is False)
        # an assigned list sticks, whether or not a search was pending
        for rep in (is_blc_2d(fd, diagram, cycle, 6), rep):
            del searches[:]
            rep.witnesses = []
            assert [w(rep) for w in ways.values()] == \
                ["CheckReport(verdict=%r, witnesses=[])" % verdict] * len(ways)
            assert rep.witnesses == [] and not searches
    assert found



@pytest.mark.parametrize("max_degree,K", [(2, 4), (2, 6), (4, 4), (4, 6)])
@pytest.mark.parametrize("name", ["A2", "Kronecker", "G2", "B2", "(3,3)"])
def test_positivity_scan_matches_fraction_path(name, max_degree, K, diagrams):
    fd, diagram = diagrams[name]
    for cycle in _polygons("scan:" + name, 60, 10):
        pos = check_positive(fd, diagram, cycle, max_degree, K)
        ref = ref_check_positive(fd, diagram, cycle, max_degree, K)
        assert (pos.verdict, repr(pos.witnesses)) == (ref[0], repr(ref[1])), cycle
        assert (pos.degree_checked, pos.order_checked) == (max_degree, K)


# (lp_mul calls, alpha_table calls, True verdicts) of the positivity scan at
# max_degree 3 and K 6 over _polygons("kernel:<name>", 100, 20), cold caches;
# a pair in one cluster cone (Diagram.one_cone) needs neither
SCAN_WORK = {"G2": (143, 67, 31), "A2": (214, 109, 46)}


def test_equal_dilations_visit_each_unordered_pair_once(a2, a2_diagram, monkeypatch):
    # at a == b == 1 the nine nonzero lattice points of the triangle make 45
    # unordered pairs, every one escaping 2P at its corners; each reaches
    # one_cone once, as (p, q) with q <= p, where the full scan made 81
    # calls.  A first scan fills the caches, so alpha_table, which asks
    # one_cone too, is not called in the counted one.
    tri = [(-2, 0), (2, -2), (0, 2)]
    check_positive(a2, a2_diagram, tri, 2, 6)
    calls = []
    one_cone = Diagram.one_cone

    def counted(self, p, q):
        calls.append((p, q))
        return one_cone(self, p, q)

    monkeypatch.setattr(Diagram, "one_cone", counted)
    assert check_positive(a2, a2_diagram, tri, 2, 6).verdict is True
    pts = [p for p in compile_hull(tri).lattice_points() if p != (0, 0)]
    assert len(pts) == 9
    assert sorted(calls) == sorted((p, q) for p in pts for q in pts if q <= p)


@pytest.mark.parametrize("name", sorted(SCAN_WORK))
def test_scan_work_is_pinned(name, diagrams, monkeypatch):
    # one product per unordered pair and one alpha table per pair that needs
    # it; a scan that loses a cache or builds extra products fails here
    fd = diagrams[name][0]
    diagram = complete_rank2(fd, diagrams[name][1].order)
    calls = {"lp_mul": 0, "alpha_table": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(constructions, "lp_mul", counted(constructions.lp_mul))
    monkeypatch.setattr(constructions, "alpha_table", counted(constructions.alpha_table))
    verdicts = [check_positive(fd, diagram, cycle, 3, 6).verdict
                for cycle in _polygons("kernel:" + name, 100, 20)]
    assert (calls["lp_mul"], calls["alpha_table"], verdicts.count(True)) == SCAN_WORK[name]


def test_int_vertices_keep_their_type(a2, a2_diagram):
    tri = [(0, 0), (2, -6), (3, 3)]
    rep = is_blc_2d(a2, a2_diagram, tri)
    assert repr(rep.witnesses) == repr(ref_is_blc(a2, a2_diagram, tri)[1])


@pytest.mark.parametrize("exchange,d", [
    ([[0, 1], [-1, 0]], [1, 1]), ([[0, 2], [-1, 0]], [1, 2]), ([[0, 3], [-1, 0]], [1, 3]),
    ([[0, 2], [-2, 0]], [1, 1]), ([[0, 3], [-3, 0]], [1, 1])],
    ids=["A2", "B2", "G2", "Kronecker", "(3,3)"])
def test_chart_inverse_computed_once(exchange, d):
    for phi in chart_maps(FixedData(exchange, d))[0]:
        assert phi.inverse() is phi.inverse()
        assert phi.inverse().inverse() == phi
        assert phi.inverse().compose(phi) == phi.identity()


@pytest.mark.parametrize("exchange,d", [
    ([[0, 1], [-1, 0]], [1, 1]), ([[0, 2], [-1, 0]], [1, 2]), ([[0, 3], [-1, 0]], [1, 3]),
    ([[0, 2], [-2, 0]], [1, 1]), ([[0, 3], [-3, 0]], [1, 1])],
    ids=["A2", "B2", "G2", "Kronecker", "(3,3)"])
def test_compiled_matrix_at_matches_sector_scan(exchange, d):
    grid = [(x, y) for x in range(-8, 9) for y in range(-8, 9)
            if math.gcd(x, y) == 1]
    for phi in chart_maps(FixedData(exchange, d))[0]:
        for chart in (phi, phi.inverse()):
            bounds = [s for s, _ in chart.sectors]
            for v in grid + bounds + [vscale(-1, s) for s in bounds]:
                assert chart.matrix_at(v) == ref_matrix_at(chart, v), (chart.sectors, v)
                # a homogeneous point keeps its q; a multiple keeps its sector
                X, Y = vscale(3, v)
                assert chart.image([(X, Y, 7)]) == [ref_apply(chart, (X, Y)) + (7,)]
                assert chart.image([v + (1,)]) == [ref_apply(chart, v) + (1,)]


def test_hull_vertices_come_back_as_given(g2, g2_diagram):
    # G2_QUAD of test_convexity with mixed types and an equal-valued twin
    pts = [(-1, 0), (F(1), F(-3)), (2, -3), (1, 0), (F(-1), F(0))]
    hull, flagged = blc_hull_2d(g2, g2_diagram, pts)
    assert not flagged
    given = [v for v in hull if any(v == p for p in pts)]
    assert given == [(-1, 0), (1, -3), (2, -3), (1, 0)]
    assert [next(p for p in pts if p == v) is v for v in given] == [True] * 4
    assert all(type(c) is Fraction for v in hull if v not in given for c in v)
    assert len(hull) > len(given)


def test_hulls_match_fraction_path(a2, a2_diagram, g2, g2_diagram, kron, kron_diagram):
    b2 = FixedData.from_exchange([[0, 2], [-1, 0]], [1, 2])
    b2_diagram = complete_rank2(b2, 6)
    grid = [(F(x), F(y)) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    for fd, diagram in ((a2, a2_diagram), (b2, b2_diagram), (g2, g2_diagram)):
        for pts in itertools.combinations(grid, 3):
            assert repr(blc_hull_2d(fd, diagram, pts)) == \
                repr(ref_blc_hull(fd, diagram, pts)), pts
    # Kronecker's chart set never closes, so its hulls come back flagged;
    # seeded half-integer point sets on every type
    rng = random.Random("hulls")
    half = [F(k, 2) for k in range(-4, 5)]
    for fd, diagram in ((a2, a2_diagram), (b2, b2_diagram), (g2, g2_diagram),
                        (kron, kron_diagram)):
        sets = [[(rng.choice(half), rng.choice(half)) for _ in range(rng.randint(1, 5))]
                for _ in range(12)]
        if fd is kron:
            sets += list(itertools.combinations(grid, 3))[::4]
        for pts in sets:
            hull = blc_hull_2d(fd, diagram, pts)
            assert repr(hull) == repr(ref_blc_hull(fd, diagram, pts)), pts
            assert hull[1] == (fd is kron)
