"""What the proofs about the expansion endpoint and the theta-basis peel
rest on.

constructions.EXPANSION_ENDPOINT lies on no wall of any diagram: every
wall line lies in {x*y <= 0}, because Diagram refuses a function direction
outside the cone of the monoid.  And theta at that endpoint holds z^m with
coefficient exactly 1, which alpha_table's peel reads without a check.
"""

import pytest

from csd.brokenline import enumerate_lines, theta, theta_of_lines
from csd.constructions import EXPANSION_ENDPOINT
from csd.lattice import FixedData
from csd.scattering import Diagram, Wall, complete_rank2, initial_diagram
from csd.series import WallFunction

# the eight types of test_brokenline's shared-search checks
TYPES = {"A2": ([[0, 1], [-1, 0]], [1, 1]), "B2": ([[0, 2], [-1, 0]], [1, 2]),
         "G2": ([[0, 3], [-1, 0]], [1, 3]), "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
         "W33": ([[0, 3], [-3, 0]], [1, 1]), "W14": ([[0, 4], [-1, 0]], [1, 4]),
         "W15": ([[0, 5], [-1, 0]], [1, 5]), "W23": ([[0, 3], [-2, 0]], [2, 3])}
# each type and its transpose, whose multipliers come in reverse
ORIENTED = dict(TYPES)
ORIENTED.update({name + "^T": ([[0, ex[1][0]], [ex[0][1], 0]], d[::-1])
                 for name, (ex, d) in TYPES.items()})
SIX = ["A2", "B2", "G2", "Kronecker", "W33", "W14"]
BOX = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if (x, y) != (0, 0)]


@pytest.mark.parametrize("name", sorted(ORIENTED))
def test_every_wall_line_lies_where_x_times_y_is_at_most_0(name):
    fd = FixedData(*ORIENTED[name])
    diagram = complete_rank2(fd, 6)
    for w in diagram.walls:
        for x, y in (w.direction, w.func.direction):
            assert x * y <= 0, w
    x, y = EXPANSION_ENDPOINT
    assert x * y > 0
    assert not diagram.families(EXPANSION_ENDPOINT)
    assert not diagram.families((-x, -y))


def test_function_direction_off_the_quadrant_is_refused(a2):
    # (1, 1) lies on the line of the normal (1, -1), outside the cone of the
    # monoid of A2, which is the quadrant x <= 0 <= y
    wall = Wall((1, -1), "ray", (1, 1), WallFunction((1, 1), [1]))
    walls = initial_diagram(a2, 4).walls + (wall,)
    with pytest.raises(ValueError, match=r"^wall 2: wall with normal \(1, -1\) has function "
                                         r"direction \(1, 1\) outside the cone of the monoid$"):
        Diagram(a2, walls, 4, False)


@pytest.mark.parametrize("name", SIX)
def test_theta_at_the_endpoint_leads_with_its_own_monomial(name):
    fd = FixedData(*TYPES[name])
    diagram = complete_rank2(fd, 6)
    # theta transports on the finite types; the searched lines are the
    # other path on every type
    assert diagram.complete_finite() == (name in ("A2", "B2", "G2"))
    for m in BOX:
        by_theta = theta(fd, diagram, m, EXPANSION_ENDPOINT, 6).terms
        lines = enumerate_lines(fd, diagram, m, EXPANSION_ENDPOINT, 6)
        by_search = theta_of_lines(m, lines, 6).terms
        assert by_theta[m] == by_search[m] == 1, m
        # one line ends at m: the root a = b = 0, which does not bend
        assert [len(l.pieces) for l in lines if l.final == m] == [1], m
