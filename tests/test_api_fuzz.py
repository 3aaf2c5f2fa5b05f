"""Fuzzed arguments for the Python entry points, one argument at a time.

Every call starts from arguments that give an answer on A2 at order 4 and
replaces one of them by a drawn value: an int, a Fraction, a float, a bool,
a string, None, or a tuple of up to three of these.  The diagram is replaced
by a few values that are not a Diagram.  The call then either
returns or raises a ValueError whose message names the argument replaced;
nothing else may escape.  Ints stay small, so that a drawn exponent, order
or degree that is valid costs milliseconds: a large one is legitimate work,
not a fault.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csd.brokenline import (BrokenLine, Segment, Piece, theta, enumerate_lines, validate_segment,
                            segment_coefficients)
from csd.constructions import (BalancedPair, alpha_table, structure_constant, pair_from_segment,
                               glue_balanced)
from csd.convexity import is_blc_2d, blc_hull_2d, check_positive
from csd.lattice import FixedData
from csd.scattering import complete_rank2, path_ordered_product
from csd.series import LaurentPoly

F = Fraction
A2 = FixedData.from_exchange([[0, 1], [-1, 0]], [1, 1])
DIAGRAM = complete_rank2(A2, 4)
Z = (F(1, 7), F(2, 11))
TRIANGLE = [(0, 0), (1, 0), (0, 1)]
# crosses one wall, the line x = 0
PATH = [(F(1), F(1, 3)), (F(-1), F(1, 3))]
SEGMENT = Segment((1, -5), (2, 4), [Piece((1, -3), 1, (0, -2), 1), Piece((1, -2), 1, (-1, 0), 1),
                                    Piece((-1, -2), 1, (0, 2), 1), Piece((-1, -1), 1, None, 2)],
                  5)
PAIR = pair_from_segment(A2, DIAGRAM, SEGMENT, F(5, 2))[0]

# (function, its arguments after (fd, diagram) with values that give an answer)
CALLS = {
    "theta": (theta, {"m": (1, -1), "endpoint": Z, "K": None}),
    "enumerate_lines": (enumerate_lines, {"initial": (1, -1), "endpoint": Z, "K": None}),
    "alpha_table": (alpha_table, {"p": (1, 0), "q": (-1, 1), "K": None}),
    "structure_constant": (structure_constant, {"p": (1, 0), "q": (-1, 1), "r": (0, 1),
                                                "K": None}),
    "path_ordered_product": (path_ordered_product,
                             {"path": PATH, "p": LaurentPoly.monomial((1, 0), 4)}),
    "validate_segment": (validate_segment, {"segment": SEGMENT}),
    "segment_coefficients": (segment_coefficients, {"segment": SEGMENT}),
    "pair_from_segment": (pair_from_segment, {"seg": SEGMENT, "tau": F(5, 2), "a": 2, "b": 2}),
    "glue_balanced": (glue_balanced, {"pair": PAIR, "a": 2, "b": 2}),
    "is_blc_2d": (is_blc_2d, {"cycle": TRIANGLE, "K": None}),
    "blc_hull_2d": (blc_hull_2d, {"pts": TRIANGLE}),
    "check_positive": (check_positive, {"cycle": TRIANGLE, "max_degree": 2, "K": None}),
}

# how a message names an argument: it starts with the argument's name,
# except where the name is set apart below
NAMED = {
    "fd": r"^fixed data ",
    "path": r"^path( point \d+)? ",
    "seg": r"^segment ",
    "cycle": r"^(cycle|point \d+) ",
    "pts": r"^(pts|point \d+) ",
    "a": r"^a |, got a=",
    "b": r"^b |, got a=\S+ b=",
}

SCALARS = st.one_of(
    st.integers(-3, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.booleans(),
    st.sampled_from(["", "x", "1,0", "1/2"]),
    st.none())
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3).map(tuple))


@pytest.mark.parametrize("name", list(CALLS))
def test_valid_arguments_give_an_answer(name):
    fn, kwargs = CALLS[name]
    fn(A2, DIAGRAM, **kwargs)


@pytest.mark.parametrize("name", list(CALLS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_bad_argument_is_named(name, data):
    fn, kwargs = CALLS[name]
    arg = data.draw(st.sampled_from(["fd"] + list(kwargs)), label="argument")
    value = data.draw(VALUES, label="value")
    kwargs = dict(kwargs)
    fd = A2
    if arg == "fd":
        fd = value
    else:
        kwargs[arg] = value
    try:
        fn(fd, DIAGRAM, **kwargs)
    except ValueError as e:
        assert re.search(NAMED.get(arg, r"^%s " % arg), str(e)), (arg, value, str(e))


@pytest.mark.parametrize("value", [None, "x", 3, (1, 2)])
@pytest.mark.parametrize("name", list(CALLS))
def test_a_bad_diagram_is_named(name, value):
    fn, kwargs = CALLS[name]
    with pytest.raises(ValueError, match=r"^diagram must be a Diagram, got "):
        fn(A2, value, **kwargs)


# (constructor, arguments that build a value, a read of the value)
CONSTRUCTORS = {
    "BrokenLine": (BrokenLine, {"endpoint": Z, "pieces": [Piece((1, -1))]},
                   lambda line: (line.initial, line.final, line.coeff)),
    "BalancedPair": (BalancedPair, {"line1": PAIR.line1, "line2": PAIR.line2, "base": PAIR.base},
                     lambda pair: pair.is_balanced()),
}


@pytest.mark.parametrize("name", list(CONSTRUCTORS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_bad_constructor_argument_is_named(name, data):
    cls, kwargs, read = CONSTRUCTORS[name]
    arg = data.draw(st.sampled_from(list(kwargs)), label="argument")
    kwargs = dict(kwargs, **{arg: data.draw(VALUES, label="value")})
    try:
        value = cls(**kwargs)
    except ValueError as e:
        assert re.search(r"^%s " % arg, str(e)), (arg, kwargs[arg], str(e))
    else:
        read(value)


@pytest.mark.parametrize("name, args, message", [
    ("BrokenLine", (None, []), "endpoint must be a pair of rationals, got None"),
    ("BrokenLine", (Z, []), "pieces must be a nonempty list of Pieces, got []"),
    ("BrokenLine", (Z, [(1, 0)]), "pieces must be a nonempty list of Pieces, got [(1, 0)]"),
    ("BalancedPair", (1, 2, 3), "line1 must be a BrokenLine, got 1"),
    ("BalancedPair", (PAIR.line1, 2, 3), "line2 must be a BrokenLine, got 2"),
    ("BalancedPair", (PAIR.line1, PAIR.line2, 3), "base must be a pair of rationals, got 3"),
], ids=["line-none", "line-no-pieces", "line-pair-piece", "pair-ints", "pair-line2",
        "pair-base"])
def test_constructors_name_a_bad_argument(name, args, message):
    # each of these once raised TypeError or IndexError, at once or on the
    # first read of the value
    with pytest.raises(ValueError) as info:
        CONSTRUCTORS[name][0](*args)
    assert str(info.value) == message
