"""Crossing a half-line once, with the product function of its walls, is
crossing its walls one by one: apply_loop and path_ordered_product against
the wall-by-wall references of crossing_reference."""

import pytest

from csd.lattice import FixedData
from csd.scattering import apply_loop, complete_rank2, initial_diagram, path_ordered_product
from csd.series import LaurentPoly
from crossing_reference import loop_by_walls, path_by_walls
from test_brokenline import _diff_diagram, _split_ray
from test_transport_pin import PATHS

TYPES = {"A2": ([[0, 1], [-1, 0]], [1, 1]), "B2": ([[0, 2], [-1, 0]], [1, 2]),
         "G2": ([[0, 3], [-1, 0]], [1, 3]), "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
         "(1,4)": ([[0, 4], [-1, 0]], [1, 4]), "(3,3)": ([[0, 3], [-3, 0]], [1, 1])}
MONOMIALS = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return "ValueError: %s" % e


def _diagrams(name):
    """The initial diagram and the order-6 completion, and for the four
    types of test_split_wall_function_changes_nothing its diagram with one
    ray carried by two walls."""
    fd = FixedData.from_exchange(*TYPES[name])
    out = [initial_diagram(fd, 6), complete_rank2(fd, 6)]
    if name in ("A2", "B2", "G2", "Kronecker"):
        # test_brokenline's DIFF_TYPES start with these four, in this order
        out.append(_split_ray(*_diff_diagram(list(TYPES).index(name))[:2])[0])
    return fd, out


@pytest.mark.parametrize("name", list(TYPES))
def test_family_crossing_is_wall_by_wall(name):
    fd, diagrams = _diagrams(name)
    split = 0
    for diagram in diagrams:
        split += any(len(fam.walls) > 1 for fam in diagram.fams)
        for m in MONOMIALS:
            p = LaurentPoly.monomial(m, diagram.order)
            assert apply_loop(fd, diagram, p) == loop_by_walls(fd, diagram, p), m
            for path in PATHS:
                assert _outcome(path_ordered_product, fd, diagram, path, p) == \
                    _outcome(path_by_walls, fd, diagram, path, p), (m, path)
    # the split-wall diagram is the only one with two walls on a half-line
    assert split == (name in ("A2", "B2", "G2", "Kronecker"))
