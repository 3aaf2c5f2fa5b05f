from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from csd.lattice import (FixedData, unit, pairing, skew_form, p1_star,
                         n_circ_primitive, with_principal_coefficients,
                         solve_linear, cone_coords, cone_order, j_order)

F = Fraction


def test_from_exchange_roundtrip(g2):
    assert g2.exchange == ((0, 3), (-1, 0))
    assert g2.d == (1, 3)
    assert g2.skew[0][1] == 1 and g2.skew[1][0] == -1


def test_antisymmetry_enforced():
    with pytest.raises(ValueError):
        FixedData(2, (0, 1), [[0, 1], [1, 0]], [1, 1])


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


def test_j_order(a2, g2):
    assert j_order(a2, (-2, 3)) == 5
    assert j_order(g2, (0, 1)) is None
    assert j_order(g2, (-1, 3)) == 2
    assert j_order(g2, (1, 0)) is None


def test_solve_linear():
    assert solve_linear([(1, 0), (0, 1)], (3, -4)) == (3, -4)
    assert solve_linear([(1, 1), (2, 2)], (1, 0)) is None
    assert solve_linear([(2, 0), (1, 1)], (3, 1)) == (1, 1)


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_cone_coords_reconstruct(x, y):
    fd = FixedData.from_exchange([[0, 3], [-1, 0]], [1, 3])
    co = cone_coords(fd, (x, y))
    if co is not None:
        g1, g2_ = fd.monoid_gens
        assert (co[0] * g1[0] + co[1] * g2_[0],
                co[0] * g1[1] + co[1] * g2_[1]) == (x, y)


def test_with_principal_coefficients(a2):
    big, seed = with_principal_coefficients(a2)
    assert big.rank == 4
    assert big.unfrozen == (0, 1)
    assert skew_form(big, unit(4, 0), unit(4, 2)) == 1
    assert skew_form(big, unit(4, 1), unit(4, 3)) == 1
    assert skew_form(big, unit(4, 0), unit(4, 3)) == 0
    assert p1_star(big, unit(4, 0))[:2] == (0, 1)


@pytest.mark.parametrize("exchange,d", [([[0, 1], [-1, 0]], [1, 1]), ([[0, 2], [-1, 0]], [1, 2]),
                                        ([[0, 3], [-1, 0]], [1, 3]), ([[0, 2], [-2, 0]], [1, 1]),
                                        ([[0, 3], [-3, 0]], [1, 1])],
                         ids=["A2", "B2", "G2", "Kronecker", "W33"])
def test_cone_coords_match_elimination(exchange, d):
    fd = FixedData.from_exchange(exchange, d)
    for x in range(-7, 8):
        for y in range(-7, 8):
            for m in [(x, y), (F(x, 3), F(y, 2))]:
                assert cone_coords(fd, m) == solve_linear(fd.monoid_gens, m)
