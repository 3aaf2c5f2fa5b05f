"""Entry points check their arguments where they enter: the fixed data
against the diagram's own, and exponents and path points by type."""

import re
from fractions import Fraction

import pytest

from csd import scattering
from csd.brokenline import (Segment, Piece, theta, enumerate_lines, bend_coefficient,
                            validate_segment, segment_coefficients)
from csd.constructions import alpha_table, structure_constant, pair_from_segment, glue_balanced
from csd.convexity import is_blc_2d, blc_hull_2d, check_positive, main_theorem_harness
from csd.lattice import FixedData
from csd.scattering import (Diagram, complete_rank2, complete_diagram, check_consistent,
                            path_ordered_product)
from csd.series import LaurentPoly

F = Fraction
Z = (F(1, 7), F(2, 11))
TRIANGLE = [(0, 0), (1, 0), (0, 1)]
PATH = [(F(1), F(1, 3)), (F(-1), F(1, 3))]
# one piece from (1, 1) to (0, 1): no bend, so no wall is read
SEGMENT = Segment((F(1), F(1)), (F(0), F(1)), [Piece((1, 0), 1, None, F(1))], F(1))

# every entry point that takes (fd, diagram), called so that a matching fd
# gives an answer, some of them without reading a wall
CALLS = {
    "theta": lambda fd, d: theta(fd, d, (1, -1), Z),
    "theta of 0": lambda fd, d: theta(fd, d, (0, 0), Z),
    "enumerate_lines": lambda fd, d: enumerate_lines(fd, d, (1, -1), Z),
    "alpha_table": lambda fd, d: alpha_table(fd, d, (1, 0), (0, 1)),
    "alpha_table of 0": lambda fd, d: alpha_table(fd, d, (0, 0), (0, 1)),
    "structure_constant": lambda fd, d: structure_constant(fd, d, (1, 0), (0, 1), (1, 1)),
    "is_blc_2d": lambda fd, d: is_blc_2d(fd, d, TRIANGLE),
    "blc_hull_2d": lambda fd, d: blc_hull_2d(fd, d, TRIANGLE),
    "check_positive": lambda fd, d: check_positive(fd, d, TRIANGLE, 2),
    "main_theorem_harness": lambda fd, d: main_theorem_harness(fd, d, 0),
    "path_ordered_product": lambda fd, d: path_ordered_product(
        fd, d, PATH, LaurentPoly.monomial((1, 0), 6)),
    "path of one point": lambda fd, d: path_ordered_product(
        fd, d, PATH[:1], LaurentPoly.monomial((1, 0), 6)),
    "check_consistent": check_consistent,
    "complete_diagram": complete_diagram,
    "bend_coefficient": lambda fd, d: bend_coefficient(fd, d, (F(1), F(1)), (1, 0), (1, 0)),
    "validate_segment": lambda fd, d: validate_segment(fd, d, SEGMENT),
    "pair_from_segment": lambda fd, d: pair_from_segment(fd, d, SEGMENT, F(1, 2)),
}


def test_kronecker_theta_on_the_a2_diagram_raises(a2, kron, a2_diagram):
    # it once read the A2 walls with the Kronecker pairing and lost a term
    assert theta(a2, a2_diagram, (1, -1), Z).terms == {(1, -1): 1, (0, -1): 1}
    with pytest.raises(ValueError) as info:
        theta(kron, a2_diagram, (1, -1), Z)
    assert str(info.value) == "fixed data %r does not match the diagram's %r" % (kron, a2)


def test_kronecker_verdict_on_the_a2_diagram_raises(kron, a2_diagram):
    # it once read the Kronecker charts and gave None
    with pytest.raises(ValueError, match="does not match the diagram's"):
        is_blc_2d(kron, a2_diagram, TRIANGLE)


@pytest.mark.parametrize("name", list(CALLS))
def test_every_entry_point_checks_the_fixed_data(a2, kron, a2_diagram, name):
    CALLS[name](a2, a2_diagram)
    CALLS[name](FixedData([[0, 1], [-1, 0]], [1, 1]), a2_diagram)
    with pytest.raises(ValueError, match=re.escape("fixed data %r does not match" % (kron,))):
        CALLS[name](kron, a2_diagram)


def test_equal_fixed_data_share_the_form(a2, monkeypatch):
    # an fd equal to the diagram's is the diagram's: theta calls that switch
    # between two equal fds read one diagram and its caches, so its
    # finite-type guard compares the walls with completion once
    twin = FixedData([[0, 1], [-1, 0]], [1, 1])
    assert twin == a2 and twin is not a2 and hash(twin) == hash(a2)
    assert twin != FixedData([[0, 2], [-2, 0]], [1, 1])
    walls = complete_rank2(a2, 6).walls
    guards = []
    matches = scattering.matches_completion

    def counted(*args):
        guards.append(args)
        return matches(*args)

    monkeypatch.setattr(scattering, "matches_completion", counted)
    diagram = Diagram(a2, walls, 6, True)
    for i in range(200):
        assert theta(twin if i % 2 else a2, diagram, (1, -1), Z).terms == {(1, -1): 1, (0, -1): 1}
    assert len(guards) == 1


@pytest.mark.parametrize("name, call", [
    ("m", lambda fd, d: theta(fd, d, 1, Z)),
    ("m", lambda fd, d: theta(fd, d, (F(1, 2), 0), Z)),
    ("m", lambda fd, d: theta(fd, d, (0.0, 0), Z)),
    ("initial", lambda fd, d: enumerate_lines(fd, d, (1, 2, 3), Z)),
    ("initial", lambda fd, d: enumerate_lines(fd, d, None, Z)),
    ("p", lambda fd, d: alpha_table(fd, d, (F(1, 2), 0), (1, 0))),
    ("p", lambda fd, d: alpha_table(fd, d, (0.5, 0), (1, 0))),
    ("q", lambda fd, d: alpha_table(fd, d, (1, 0), (1, 0, 0))),
    ("q", lambda fd, d: alpha_table(fd, d, (0, 0), "10")),
    ("p", lambda fd, d: structure_constant(fd, d, (F(1, 2), 0), (1, 0), (1, 0))),
    ("r", lambda fd, d: structure_constant(fd, d, (1, 0), (0, 1), (1,))),
    ("r", lambda fd, d: structure_constant(fd, d, (1, 0), (0, 1), (0.5, 1))),
    ("path point 1", lambda fd, d: path_ordered_product(
        fd, d, [PATH[0], (-1.0, F(1, 3))], LaurentPoly.monomial((1, 0), 4))),
], ids=["theta-int", "theta-half", "theta-float", "lines-triple", "lines-none", "alpha-half",
        "alpha-float", "alpha-triple", "alpha-str", "constant-half", "constant-single",
        "constant-float", "path-float"])
def test_entry_points_name_a_bad_argument(a2, name, call):
    # each of these once returned a value or raised TypeError, IndexError or
    # AttributeError; A2 at order 4, where the product rule answers first
    diagram = complete_rank2(a2, 4)
    with pytest.raises(ValueError, match=r"^%s must be a pair of (integers|rationals), got "
                       % re.escape(name)):
        call(a2, diagram)


def _pair(fd, d):
    """A balanced pair that glue_balanced glues with any scales."""
    return pair_from_segment(fd, d, SEGMENT, F(1, 2))[0]


@pytest.mark.parametrize("call, message", [
    (lambda fd, d: validate_segment(fd, d, "x"), "segment must be a Segment, got 'x'"),
    (lambda fd, d: segment_coefficients(fd, d, "x"), "segment must be a Segment, got 'x'"),
    (lambda fd, d: pair_from_segment(fd, d, "x", F(1, 2)), "segment must be a Segment, got 'x'"),
    (lambda fd, d: pair_from_segment(fd, d, SEGMENT, None), "tau must be rational, got None"),
    (lambda fd, d: pair_from_segment(fd, d, SEGMENT, (1, 2)), "tau must be rational, got (1, 2)"),
    (lambda fd, d: pair_from_segment(fd, d, SEGMENT, 0.5), "tau must be rational, got 0.5"),
    (lambda fd, d: pair_from_segment(fd, d, SEGMENT, F(1, 2), 0, 1),
     "a must be an int >= 1, got 0"),
    (lambda fd, d: pair_from_segment(fd, d, SEGMENT, F(1, 2), -1, 1),
     "a must be an int >= 1, got -1"),
    (lambda fd, d: pair_from_segment(fd, d, SEGMENT, F(1, 2), "x", 1),
     "a must be an int >= 1, got 'x'"),
    (lambda fd, d: pair_from_segment(fd, d, SEGMENT, F(1, 2), 1, 2.0),
     "b must be an int >= 1, got 2.0"),
    (lambda fd, d: glue_balanced(fd, d, "x", 1, 1), "pair must be a BalancedPair, got 'x'"),
    (lambda fd, d: glue_balanced(fd, d, _pair(fd, d), 0, 1), "a must be an int >= 1, got 0"),
    (lambda fd, d: glue_balanced(fd, d, _pair(fd, d), -1, 1), "a must be an int >= 1, got -1"),
    (lambda fd, d: glue_balanced(fd, d, _pair(fd, d), None, 1), "a must be an int >= 1, got None"),
    (lambda fd, d: glue_balanced(fd, d, _pair(fd, d), 1.5, 1), "a must be an int >= 1, got 1.5"),
    (lambda fd, d: glue_balanced(fd, d, _pair(fd, d), 1, True), "b must be an int >= 1, got True"),
], ids=["validate-str", "coefficients-str", "split-str", "tau-none", "tau-pair", "tau-float",
        "split-a-0", "split-a-neg", "split-a-str", "split-b-float", "glue-str", "glue-a-0",
        "glue-a-neg", "glue-a-none", "glue-a-float", "glue-b-bool"])
def test_segment_and_pair_arguments_are_named(a2, call, message):
    # each of these once raised AttributeError, TypeError or
    # ZeroDivisionError, or split with a scale of 0 or -1
    diagram = complete_rank2(a2, 4)
    with pytest.raises(ValueError) as info:
        call(a2, diagram)
    assert str(info.value) == message


@pytest.mark.parametrize("path", [[(F(1), F(1, 3)), (F(2), F(1, 3))], PATH],
                         ids=["no-wall", "one-wall"])
@pytest.mark.parametrize("p", ["x", None, 3])
def test_path_ordered_product_checks_p(a2, path, p):
    # along a path that crosses no wall p came back as given; across a wall
    # it raised AttributeError
    with pytest.raises(ValueError) as info:
        path_ordered_product(a2, complete_rank2(a2, 4), path, p)
    assert str(info.value) == "p must be a LaurentPoly, got %r" % (p,)


@pytest.mark.parametrize("trials", ["x", -1, True, 2.0])
def test_harness_names_bad_trials(a2, a2_diagram, trials):
    # "x" raised TypeError from range, -1 reported -1 trials and True ran one
    # trial and reported True; 0 trials stays legal (CALLS)
    with pytest.raises(ValueError) as info:
        main_theorem_harness(a2, a2_diagram, trials)
    assert str(info.value) == "trials must be an int >= 0, got %r" % (trials,)
