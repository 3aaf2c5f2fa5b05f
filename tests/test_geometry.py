from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from csd.convexity import PLMap, I2
from csd.geometry import (vadd, vsub, vneg, vscale, is_zero, dot, cross, rot90,
                          primitive, same_ray, sort_ccw, convex_hull, cycle_is_convex,
                          compile_hull, homogeneous)

F = Fraction


def point_in_hull(pt, hull):
    """Point containment for a convex hull (boundary counts)."""
    return compile_hull(hull).contains(*homogeneous(pt))


def lattice_points_in_hull(hull):
    """All integer points of a convex hull with rational vertices."""
    return compile_hull(hull).lattice_points()


def ccw_between(a, x, b):
    """Whether direction x lies in the ccw sector [a, b), a != b, by the
    compiled sector table of a two-sector map."""
    doubled = ((2, 0), (0, 1))
    return PLMap([(a, doubled), (b, I2)]).matrix_at(x) == doubled

vec = st.tuples(st.integers(-50, 50), st.integers(-50, 50))
nonzero_vec = vec.filter(lambda v: v != (0, 0))


def test_basic_ops():
    assert vadd((1, 2), (3, -4)) == (4, -2)
    assert vsub((1, 2), (3, -4)) == (-2, 6)
    assert vneg((1, -2)) == (-1, 2)
    assert vscale(F(1, 2), (4, 6)) == (2, 3)
    assert is_zero((0, 0)) and not is_zero((0, 1))
    assert dot((1, 2), (3, 4)) == 11
    assert cross((1, 0), (0, 1)) == 1
    assert rot90((1, 0)) == (0, 1)


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((F(1, 2), F(3, 4))) == (2, 3)
    assert primitive((0, -5)) == (0, -1)
    # ints and Fractions take different paths to the same message
    for zero in ((0, 0), (F(0), F(0))):
        with pytest.raises(ValueError) as info:
            primitive(zero)
        assert str(info.value) == "zero vector has no direction"


@given(nonzero_vec, st.integers(1, 7))
def test_primitive_scale_invariant(v, k):
    assert primitive(vscale(k, v)) == primitive(v)


def test_same_ray():
    assert same_ray((1, 2), (3, 6))
    assert not same_ray((1, 2), (-1, -2))
    assert not same_ray((1, 2), (2, 1))


def test_sort_ccw_starts_positive_x():
    dirs = [(0, 1), (-1, 0), (1, 0), (1, 1), (0, -1), (-1, -1)]
    assert sort_ccw(dirs) == [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def test_ccw_between():
    assert ccw_between((1, 0), (1, 1), (0, 1))
    assert ccw_between((1, 0), (1, 0), (0, 1))
    assert not ccw_between((1, 0), (0, 1), (0, 1))
    # wrap-around sector
    assert ccw_between((0, -1), (1, 0), (0, 1))


def test_convex_hull():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    assert convex_hull(pts) == [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert convex_hull([(1, 1)]) == [(1, 1)]
    assert convex_hull([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]
    with pytest.raises(ValueError):
        convex_hull([])


@given(st.lists(vec, min_size=1, max_size=12))
def test_hull_contains_points(pts):
    hull = convex_hull(pts)
    assert all(point_in_hull(p, hull) for p in pts)


def test_cycle_is_convex():
    assert cycle_is_convex([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])
    assert not cycle_is_convex([(0, 0, 1), (2, 0, 1), (1, 1, 1), (2, 2, 1), (0, 2, 1)])
    assert cycle_is_convex([(0, 0, 1), (1, 0, 1), (2, 0, 1)])
    # (1, 1, 2) is (1/2, 1/2): the same square as the first, read over q
    assert cycle_is_convex([(0, 0, 1), (1, 0, 2), (1, 1, 2), (0, 1, 2)])


def test_lattice_points_in_hull():
    hull = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert len(lattice_points_in_hull(hull)) == 9
    tri = [(F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 2))]
    assert lattice_points_in_hull(tri) == [(0, 0)]
