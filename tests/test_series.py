import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csd.brokenline import Piece
from csd.lattice import FixedData
from csd.scattering import Wall, initial_wall, _Family
from csd.series import (WallFunction, wf_mul, wf_pow, LaurentPoly,
                        lp_truncate, lp_mul, wall_cross, _pow_coeffs)
from crossing_reference import one_wall_family

F = Fraction


def wf_pow_naive(f, e, K):
    """Oracle: repeated truncated multiplication (inverse for negatives)."""
    one = WallFunction(f.direction, [])
    if e < 0:
        # g with f*g = 1 mod order K, found coefficient by coefficient
        inv = [F(0)] * K
        for k in range(1, K + 1):
            s = -f.coeff(k)
            for j in range(1, k):
                s -= f.coeff(j) * inv[k - j - 1]
            inv[k - 1] = s
        return wf_pow_naive(WallFunction(f.direction, inv), -e, K)
    out = one
    for _ in range(e):
        out = wf_mul(out, f, K)
    return out


def test_wallfunction_basics():
    f = WallFunction((1, -1), [1, 0, F(2)])
    assert f.coeff(0) == 1
    assert f.coeff(1) == 1
    assert f.coeff(3) == 2
    assert f.coeff(7) == 0
    assert f.terms() == [(1, 1), (3, 2)]
    assert all(type(c) is int for c in f.coeffs)
    with pytest.raises(ValueError):
        WallFunction((2, -2), [1])


@pytest.mark.parametrize("direction, shown", [((2, 4), "(2, 4)"), ((0, 0), "(0, 0)")])
def test_wallfunction_direction_error_names_the_value(direction, shown):
    with pytest.raises(ValueError) as info:
        WallFunction(direction, [1])
    assert str(info.value) == "direction must be primitive, got " + shown


def test_wf_mul():
    f = WallFunction((0, 1), [1])
    assert wf_mul(f, f, 4).coeffs == (2, 1)
    with pytest.raises(ValueError) as info:
        wf_mul(f, WallFunction((1, 0), [1]), 4)
    assert str(info.value) == "direction mismatch"


def test_wf_pow_small():
    f = WallFunction((0, 1), [1])
    assert wf_pow(f, 3, 5).coeffs == (3, 3, 1)
    assert wf_pow(f, -1, 4).coeffs == (-1, 1, -1, 1)
    assert wf_pow(f, 0, 4).is_one()


@pytest.mark.parametrize("e", [F(1, 2), F(3), 0.5, True])
def test_wf_pow_takes_an_int_exponent_only(e):
    # a half power of 1 + z has no integer coefficients
    with pytest.raises(ValueError, match=r"^exponent must be an int, got %s$" % re.escape(repr(e))):
        wf_pow(WallFunction((0, 1), [1]), e, 4)


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4), st.integers(-4, 8))
@settings(max_examples=80)
def test_wf_pow_matches_naive(coeffs, e):
    f = WallFunction((1, 1), coeffs)
    assert wf_pow(f, e, 8).coeffs == wf_pow_naive(f, e, 8).coeffs


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
       st.integers(-4, 8), st.integers(0, 8))
@settings(max_examples=60)
def test_pow_coeffs_are_wf_pow(coeffs, e, K):
    # the broken-line search reads its power tables as [b_0..b_K]
    f = WallFunction((1, 1), coeffs)
    bs = _pow_coeffs(f, e, K)
    assert len(bs) == K + 1 and bs[0] == 1
    assert all(type(b) is int for b in bs)
    assert [(n, b) for n, b in enumerate(bs) if n and b] == wf_pow(f, e, K).terms()


@given(st.lists(st.integers(-2, 2), min_size=1, max_size=3),
       st.integers(-3, 4), st.integers(-3, 4))
@settings(max_examples=40)
def test_wf_pow_additive(coeffs, e1, e2):
    f = WallFunction((1, 0), coeffs)
    lhs = wf_mul(wf_pow(f, e1, 6), wf_pow(f, e2, 6), 6)
    assert lhs.coeffs == wf_pow(f, e1 + e2, 6).coeffs


def _family(coeffs):
    """The wall family of one A2 line whose function has the given coefficients."""
    a2 = FixedData.from_exchange([[0, 1], [-1, 0]], [1, 1])
    w = initial_wall(a2, 1)
    return _Family(a2, [Wall(w.normal, w.kind, w.direction,
                             WallFunction(w.func.direction, coeffs))])


@given(st.integers(1, 3), st.sampled_from([1, -1, 2]), st.integers(0, 9), st.integers(1, 9))
def test_family_coefficient_single_term(j, c, e, k):
    # bend checks ask for powers e >= 0 and shifts k >= 1 only
    fam = _family([0] * (j - 1) + [c])
    assert fam.coefficient(e, k) == wf_pow(fam.f, e, 10).coeff(k)


def test_family_coefficient_multi_term():
    fam = _family([1, 2])
    assert fam.coefficient(3, 4) == wf_pow(fam.f, 3, 6).coeff(4)


def test_family_coefficient_huge_order_is_cheap():
    fam = _family([0, 1])
    # binomial fast path: no series of length 10**5 is ever built
    assert fam.coefficient(2, 10) == 0
    assert fam.coefficient(200000, 200000) > 0
    # a shift past the power is 0 without raising c to it
    assert _family([0, 3]).coefficient(2, 10 ** 8) == 0


def laurent(fd, terms, base, order):
    return lp_truncate(fd, {tuple(k): F(v) for k, v in terms.items()}, base, order)


def test_lp_ops(a2):
    p = laurent(a2, {(2, 1): 1, (1, 1): 2}, (2, 1), 6)
    q = laurent(a2, {(0, 0): 1, (-1, 0): 1}, (0, 0), 6)
    s = lp_mul(a2, p, q)
    assert s.terms[(2, 1)] == 1
    assert s.terms[(1, 1)] == 3
    assert s.terms[(0, 1)] == 2


@pytest.mark.parametrize("value", [F(1, 2), 0.5], ids=["fraction", "float"])
@pytest.mark.parametrize("make", [
    lambda c: WallFunction((0, 1), [1, c]),
    lambda c: LaurentPoly({(0, 0): 1, (0, 1): c}, (0, 0), 6),
    lambda c: Piece((1, 0), c),
    lambda c: lp_truncate(FixedData([[0, 1], [-1, 0]], [1, 1]), {(0, 1): c}, (0, 0), 6),
], ids=["WallFunction", "LaurentPoly", "Piece", "lp_truncate"])
def test_non_integer_coefficient_rejected(make, value):
    with pytest.raises(ValueError, match=r"^coefficient must be an integer, got "):
        make(value)


def test_integral_coefficients_enter_as_int(a2):
    # a Fraction of denominator 1 is an integer and is stored as an int
    made = [WallFunction((0, 1), [F(2)]).coeffs[0],
            LaurentPoly({(0, 0): F(3)}, (0, 0), 6).terms[(0, 0)],
            Piece((1, 0), F(4)).coeff,
            lp_truncate(a2, {(0, 0): F(5)}, (0, 0), 6).terms[(0, 0)]]
    assert made == [2, 3, 4, 5] and all(type(c) is int for c in made)


@pytest.mark.parametrize("direction", [(F(3, 2), 1), (1.0, 1), (F(3, 2), 1.9), ("1", 1)],
                         ids=["fraction", "float", "both", "string"])
def test_non_integer_direction_rejected(direction):
    # int() would have truncated these to (1, 1)
    with pytest.raises(ValueError, match=r"^direction must be a pair of integers, got "):
        WallFunction(direction, [1])


def test_integral_direction_enters_as_int():
    f = WallFunction((F(2), 1), [F(3)])
    assert f == WallFunction((2, 1), [3])
    assert all(type(c) is int for c in f.direction + f.coeffs)


def test_lp_truncate_drops_deep_terms(a2):
    p = laurent(a2, {(0, 0): 1, (-4, 0): 1}, (0, 0), 3)
    assert (-4, 0) not in p.terms
    with pytest.raises(ValueError):
        laurent(a2, {(1, 0): 1}, (0, 0), 3)


def test_wall_cross_a2(a2):
    # crossing the vertical-axis wall sends z^(1,0) to z^(1,0)*(1+z^(0,1))
    f = WallFunction((0, 1), [1])
    p = LaurentPoly.monomial((1, 0), 6)
    out = wall_cross(a2, p, one_wall_family(a2, f, (1, 0)), 1)
    assert out.terms == {(1, 0): 1, (1, 1): 1}
    # the inverse crossing undoes it
    back = wall_cross(a2, out, one_wall_family(a2, f, (1, 0)), -1)
    assert back.terms == {(1, 0): 1}


def test_wall_cross_invariant_monomial(a2):
    f = WallFunction((0, 1), [1])
    p = LaurentPoly.monomial((0, 1), 6)
    out = wall_cross(a2, p, one_wall_family(a2, f, (1, 0)), 1)
    assert out.terms == {(0, 1): 1}


def test_wall_cross_g2_weights(g2):
    # d_2 = 3: pairing of the normal (0,1) with f_2 is 1/3, so z^(0,3)
    # picks up the third power of the wall function
    f = WallFunction((-1, 0), [1])
    p = LaurentPoly.monomial((0, 3), 8)
    out = wall_cross(g2, p, one_wall_family(g2, f, (0, 1)), 1)
    assert out.terms == {(0, 3): 1, (-1, 3): 3, (-2, 3): 3, (-3, 3): 1}
