from fractions import Fraction
from math import gcd, lcm

import pytest

from csd.geometry import primitive, cross
from csd.lattice import (FixedData, pairing, skew_form, p1_star, line_dir, dual_perp,
                         scaled_normal, n_circ_primitive, solve_linear, cone_order)

F = Fraction


# --- reference: the rank-generic forms the closed forms replaced -------------

def ref_skew(exchange, d):
    n = len(d)
    return [[F(exchange[i][j], d[j]) for j in range(n)] for i in range(n)]


def ref_pairing(d, n, m):
    return sum(F(n[i]) * F(m[i]) / d[i] for i in range(len(d)))


def ref_skew_form(skew, n1, n2):
    r = range(len(skew))
    return sum(F(n1[i]) * skew[i][j] * F(n2[j]) for i in r for j in r)


def ref_p1_star(skew, d, n):
    r = range(len(d))
    out = [sum(F(n[i]) * skew[i][j] * d[j] for i in r) for j in r]
    assert all(v.denominator == 1 for v in out)
    return tuple(int(v) for v in out)


def ref_n_circ_primitive(d, n):
    np = primitive(n)
    k = 1
    for i in range(len(d)):
        k = lcm(k, d[i] // gcd(abs(np[i]), d[i]))
    return tuple(k * x for x in np)


def ref_solve_linear(cols, target):
    """Gaussian elimination; a solution, or None when there is none."""
    rows, k = len(target), len(cols)
    aug = [[F(cols[j][i]) for j in range(k)] + [F(target[i])] for i in range(rows)]
    piv, r = [], 0
    for c in range(k):
        p = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv.append(c)
        r += 1
    sol = [F(0)] * k
    for i, c in enumerate(piv):
        sol[c] = aug[i][-1]
    if any(sum(sol[j] * cols[j][i] for j in range(k)) != target[i] for i in range(rows)):
        return None
    return tuple(sol)


TYPES = {"A2": ([[0, 1], [-1, 0]], [1, 1]), "B2": ([[0, 2], [-1, 0]], [1, 2]),
         "G2": ([[0, 3], [-1, 0]], [1, 3]), "G2d32": ([[0, 2], [-3, 0]], [3, 2]),
         "Kronecker": ([[0, 2], [-2, 0]], [1, 1]), "W33": ([[0, 3], [-3, 0]], [1, 1])}
GRID = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
RATIONAL = [(F(1, 3), -2), (-3, F(5, 7)), (F(-2, 9), F(4, 5))]


@pytest.mark.parametrize("name", sorted(TYPES))
def test_closed_forms_match_reference(name):
    exchange, d = TYPES[name]
    fd = FixedData(exchange, d)
    skew = ref_skew(exchange, d)
    assert fd.exchange == tuple(map(tuple, exchange)) and skew[0][1] == fd.s
    assert fd.monoid_gens == (ref_p1_star(skew, d, (1, 0)), ref_p1_star(skew, d, (0, 1)))
    for n in GRID:
        assert p1_star(fd, n) == ref_p1_star(skew, d, n)
        for m in GRID + RATIONAL:
            assert pairing(fd, n, m) == ref_pairing(d, n, m)
            a = scaled_normal(fd, n)
            assert F(a[0] * m[0] + a[1] * m[1], fd.L) == ref_pairing(d, n, m)
        for m in GRID:
            assert skew_form(fd, n, m) == ref_skew_form(skew, n, m)
        if n == (0, 0):
            continue
        assert n_circ_primitive(fd, n) == ref_n_circ_primitive(d, n)
        assert ref_pairing(d, n, line_dir(fd, n)) == 0 == ref_pairing(d, dual_perp(fd, n), n)


def test_solve_linear_matches_reference():
    small = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    for u in small:
        for v in small:
            for target in (u, (1, 0), (-2, 3), (F(1, 2), 5)):
                if u[0] * v[1] == u[1] * v[0]:
                    # dependent columns: no unique solution, even where one exists
                    assert solve_linear((u, v), target) is None
                else:
                    assert solve_linear((u, v), target) == ref_solve_linear((u, v), target)


def test_from_exchange_roundtrip(g2):
    assert g2.exchange == ((0, 3), (-1, 0))
    assert g2.d == (1, 3)
    assert g2.s == 1 and g2.L == 3


def test_antisymmetry_enforced():
    with pytest.raises(ValueError):
        FixedData([[0, 1], [1, 0]], [1, 1])


@pytest.mark.parametrize("exchange,d", [([[0]], [1]), ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], [1, 1, 1])],
                         ids=["rank1", "rank3"])
def test_rank_other_than_two_rejected(exchange, d):
    with pytest.raises(ValueError, match="rank-2 construction only: exchange"):
        FixedData.from_exchange(exchange, d)


def _message(call, *args):
    with pytest.raises(ValueError) as e:
        call(*args)
    return str(e.value)


def test_non_integral_exchange_entry_rejected():
    assert _message(FixedData, [[0, 1.5], [-1, 0]], [1, 1]) == \
        "exchange entries must be integers, got [[0, 1.5], [-1, 0]]"
    assert _message(FixedData, [[0, F(3, 2)], [-1, 0]], [1, 1]) == \
        "exchange entries must be integers, got [[0, Fraction(3, 2)], [-1, 0]]"


@pytest.mark.parametrize("exchange, d, message", [
    ([[0, 1], [-1, 0]], [1.5, 1], "d must be a pair of integers, got [1.5, 1]"),
    ([[0, 1], [-1, 0]], [F(3, 2), 1], "d must be a pair of integers, got [Fraction(3, 2), 1]"),
    ([[0, 1], [-1, 0]], ["1", 1], "d must be a pair of integers, got ['1', 1]"),
    ([[0, 1], [-1, 0]], [1, 1, 1], "d must be a pair of integers, got [1, 1, 1]"),
    ([[0, 1], [-1, 0]], [None, 1], "d must be a pair of integers, got [None, 1]"),
    ([[0, 1], [-1, 0]], 5, "d must be a pair of integers, got 5"),
    ([[0, "x"], [-1, 0]], [1, 1], "exchange entries must be integers, got [[0, 'x'], [-1, 0]]"),
    ([[0, None], [-1, 0]], [1, 1], "exchange entries must be integers, got [[0, None], [-1, 0]]"),
    (5, [1, 1], "exchange must be a 2x2 matrix, got 5"),
    ([5, 6], [1, 1], "exchange must be a 2x2 matrix, got [5, 6]"),
    (None, [1, 1], "exchange must be a 2x2 matrix, got None"),
], ids=["d-float", "d-fraction", "d-str", "d-triple", "d-none", "d-int", "exchange-str",
        "exchange-none", "exchange-int", "exchange-int-rows", "exchange-none-matrix"])
def test_non_integral_or_misshapen_field_is_named(exchange, d, message):
    # the first three were once truncated to d = (1, 1); the others raised
    # an unpacking error, a TypeError (the last three from len) or an
    # "invalid literal" ValueError
    assert _message(FixedData, exchange, d) == message


def test_whole_floats_are_taken_as_ints():
    fd = FixedData([[0, 2.0], [-1, 0]], [1, 2.0])
    assert (fd.exchange, fd.d) == (((0, 2), (-1, 0)), (1, 2))
    assert all(type(x) is int for x in fd.exchange[0] + fd.exchange[1] + fd.d)


def test_multipliers_without_gcd_one_rejected():
    assert _message(FixedData, [[0, 2], [-2, 0]], [2, 2]) == \
        "multipliers d_i must be positive with gcd 1, got (2, 2)"


def test_pairing_rejects_a_three_vector(g2):
    assert _message(pairing, g2, (1, 0, 0), (1, 0)) == "dimension mismatch"


def test_n_circ_primitive_rejects_the_zero_normal(g2):
    assert _message(n_circ_primitive, g2, (0, 0)) == "zero normal"


@pytest.mark.parametrize("name", sorted(TYPES))
def test_order_form_gives_cone_coordinates(name):
    # g1 and g2 have cone coordinates (1, 0) and (0, 1): u and v are D and 0
    fd = FixedData(*TYPES[name])
    ux, uy, vx, vy, D = fd.order_form
    (g1x, g1y), (g2x, g2y) = fd.monoid_gens
    assert D == abs(cross(fd.monoid_gens[0], fd.monoid_gens[1])) > 0
    assert (ux * g1x + uy * g1y, vx * g1x + vy * g1y) == (D, 0)
    assert (ux * g2x + uy * g2y, vx * g2x + vy * g2y) == (0, D)


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
