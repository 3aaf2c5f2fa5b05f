from fractions import Fraction

import pytest

from csd.lattice import (FixedData, pairing, skew_form, p1_star,
                         n_circ_primitive, solve_linear, cone_order)

F = Fraction


def test_from_exchange_roundtrip(g2):
    assert g2.exchange == ((0, 3), (-1, 0))
    assert g2.d == (1, 3)
    assert g2.skew[0][1] == 1 and g2.skew[1][0] == -1


def test_antisymmetry_enforced():
    with pytest.raises(ValueError):
        FixedData(2, (0, 1), [[0, 1], [1, 0]], [1, 1])


@pytest.mark.parametrize("exchange,d", [([[0]], [1]), ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], [1, 1, 1])],
                         ids=["rank1", "rank3"])
def test_rank_other_than_two_rejected(exchange, d):
    with pytest.raises(ValueError, match="rank-2 construction only: exchange"):
        FixedData.from_exchange(exchange, d)


def test_pairing(g2):
    # f-basis coordinates carry the 1/d_i weights
    assert pairing(g2, (1, 0), (1, 0)) == 1
    assert pairing(g2, (0, 1), (0, 1)) == F(1, 3)
    assert pairing(g2, (2, 3), (1, 1)) == 3


def test_skew_form(a2, g2):
    assert skew_form(a2, (1, 0), (0, 1)) == 1
    assert skew_form(g2, (1, 0), (0, 1)) == 1
    assert skew_form(g2, (0, 1), (1, 0)) == -1


def test_p1_star(a2, g2, kron):
    assert p1_star(a2, (1, 0)) == (0, 1)
    assert p1_star(a2, (0, 1)) == (-1, 0)
    assert p1_star(g2, (1, 0)) == (0, 3)
    assert p1_star(g2, (0, 1)) == (-1, 0)
    assert p1_star(kron, (1, 0)) == (0, 2)
    assert p1_star(kron, (0, 1)) == (-2, 0)


def test_n_circ_primitive(g2):
    assert n_circ_primitive(g2, (2, 0)) == (1, 0)
    # the second coordinate must clear the multiplier d_2 = 3
    assert n_circ_primitive(g2, (0, 2)) == (0, 3)
    assert n_circ_primitive(g2, (1, 3)) == (1, 3)
    assert n_circ_primitive(g2, (1, 1)) == (3, 3)


def test_monoid_gens(a2, g2):
    assert set(a2.monoid_gens) == {(0, 1), (-1, 0)}
    assert set(g2.monoid_gens) == {(0, 3), (-1, 0)}


def test_cone_order(a2, g2):
    assert cone_order(a2, (0, 0)) == 0
    assert cone_order(a2, (-1, 1)) == 2
    assert cone_order(a2, (1, 0)) is None
    assert cone_order(g2, (0, 3)) == 1
    assert cone_order(g2, (0, 1)) == F(1, 3)
    assert cone_order(g2, (-1, 3)) == 2


def test_solve_linear():
    assert solve_linear([(1, 0), (0, 1)], (3, -4)) == (3, -4)
    assert solve_linear([(1, 1), (2, 2)], (1, 0)) is None
    assert solve_linear([(2, 0), (1, 1)], (3, 1)) == (1, 1)
