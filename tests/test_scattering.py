from fractions import Fraction

import pytest

from csd import scattering
from csd.lattice import FixedData, cone_order, line_dir
from csd.series import WallFunction, LaurentPoly
from csd.scattering import (Wall, is_incoming, initial_diagram,
                            complete_rank2, complete_diagram, check_consistent,
                            loop_discrepancy, apply_loop, path_ordered_product,
                            leg_crossings, canonical_normal)

F = Fraction


def ray_funcs(diagram):
    """(direction -> wall function) for the outgoing rays only."""
    out = {}
    for w in diagram.walls:
        if w.kind == "ray":
            out[w.direction] = w.func
    return out


def test_line_dir_and_normal(g2):
    assert line_dir(g2, (1, 0)) == (0, 1)
    assert line_dir(g2, (0, 1)) == (-1, 0)
    assert canonical_normal((-2, 0)) == (1, 0)
    assert canonical_normal((0, -3)) == (0, 1)


def test_initial_walls(a2, g2):
    d = initial_diagram(a2, 6)
    assert len(d.walls) == 2
    fns = {w.normal: w.func for w in d.walls}
    assert fns[(1, 0)] == WallFunction((0, 1), [1])
    assert fns[(0, 1)] == WallFunction((-1, 0), [1])
    dg = initial_diagram(g2, 8)
    fns = {w.normal: w.func for w in dg.walls}
    assert fns[(1, 0)] == WallFunction((0, 1), [0, 0, 1])
    assert fns[(0, 1)] == WallFunction((-1, 0), [1])


def test_initial_diagram_rejects_degenerate():
    with pytest.raises(ValueError):
        initial_diagram(FixedData([[0, 0], [0, 0]], [1, 1]), 4)


def test_classify(a2, a2_diagram):
    kinds = {}
    for w in a2_diagram.walls:
        kinds.setdefault(is_incoming(a2, w), []).append(w)
    assert len(kinds[True]) == 2
    assert len(kinds[False]) == 1
    assert all(w.kind == "line" for w in kinds[True])
    # an outgoing ray placed along the image of its own normal is incoming
    w = Wall((1, 0), "ray", (0, 1), WallFunction((0, 1), [1]))
    assert is_incoming(a2, w)


def test_complete_a2(a2, a2_diagram):
    assert len(a2_diagram.walls) == 3
    assert a2_diagram.saturated
    rays = ray_funcs(a2_diagram)
    assert rays == {(1, -1): WallFunction((-1, 1), [1])}
    assert check_consistent(a2, a2_diagram)


def test_complete_g2(g2, g2_diagram):
    assert g2_diagram.saturated
    rays = ray_funcs(g2_diagram)
    assert rays == {
        (1, -3): WallFunction((-1, 3), [1]),
        (1, -2): WallFunction((-1, 2), [0, 0, 1]),
        (1, -1): WallFunction((-1, 1), [0, 0, 1]),
        (2, -3): WallFunction((-2, 3), [1]),
    }
    assert check_consistent(g2, g2_diagram)


def test_complete_kronecker(kron, kron_diagram):
    assert not kron_diagram.saturated
    rays = ray_funcs(kron_diagram)
    assert rays[(2, -1)] == WallFunction((-2, 1), [0, 1])
    assert rays[(1, -2)] == WallFunction((-1, 2), [0, 1])
    # central ray: truncation of (1 - z^(-2,2))^(-2)
    assert rays[(1, -1)].direction == (-1, 1)
    assert [rays[(1, -1)].coeff(k) for k in range(1, 7)] == [0, 2, 0, 3, 0, 4]
    assert check_consistent(kron, kron_diagram)


def test_completion_idempotent(a2, a2_diagram):
    before = [(w.normal, w.kind, w.direction, w.func.coeffs) for w in a2_diagram.walls]
    complete_diagram(a2, a2_diagram)
    after = [(w.normal, w.kind, w.direction, w.func.coeffs) for w in a2_diagram.walls]
    assert before == after


def test_initial_diagram_is_inconsistent(a2):
    d = initial_diagram(a2, 6)
    assert not check_consistent(a2, d)
    disc = loop_discrepancy(a2, d)
    assert any(disc)


def test_corrections_are_outgoing_and_integral(a2, g2, kron,
                                               a2_diagram, g2_diagram, kron_diagram):
    for fd, diagram in ((a2, a2_diagram), (g2, g2_diagram), (kron, kron_diagram)):
        for w in diagram.walls:
            if w.kind != "ray":
                continue
            assert not is_incoming(fd, w)
            for k, c in w.func.terms():
                assert c.denominator == 1 and c > 0
                assert cone_order(fd, tuple(k * x for x in w.func.direction)) is not None


def test_non_integral_correction_raises(a2, monkeypatch):
    # on A2 the correction along (-1, 2) pairs with e_0 to 2, so a
    # discrepancy of 1 there would need the correction 1/2: completion must
    # raise, not round or insert a non-integral coefficient
    rounds = iter([[{(-1, 2): 1}, {}]])
    monkeypatch.setattr(scattering, "loop_discrepancy", lambda fd, diagram: next(rounds))
    with pytest.raises(ArithmeticError, match=r"non-integral correction .* at \(-1, 2\)"):
        complete_diagram(a2, initial_diagram(a2, 4))


def test_apply_loop_identity(a2, a2_diagram):
    p = LaurentPoly.monomial((1, 1), 6)
    out = apply_loop(a2, a2_diagram, p)
    assert out.terms == {(1, 1): 1}


def test_leg_crossings(a2, a2_diagram):
    hits = leg_crossings(a2, a2_diagram, (F(1), F(1, 2)), (F(-1), F(1, 2)))
    assert [w.normal for _, _, w in hits] == [(1, 0)]
    hits = leg_crossings(a2, a2_diagram, (F(1), F(-1, 2)), (F(-1), F(-3, 2)))
    assert len(hits) == 2
    with pytest.raises(ValueError):
        leg_crossings(a2, a2_diagram, (F(1), F(1)), (F(-1), F(-1)))


def test_path_ordered_product_closed_path(g2, g2_diagram):
    # a generic closed polyline around the origin acts trivially
    path = [(F(5), F(1)), (F(-1), F(5)), (F(-5), F(-2)), (F(2), F(-5)), (F(5), F(1))]
    p = LaurentPoly.monomial((1, 0), 8)
    out = path_ordered_product(g2, g2_diagram, path, p)
    assert out.terms == {(1, 0): 1}
    q = LaurentPoly.monomial((0, 1), 8)
    out = path_ordered_product(g2, g2_diagram, path, q)
    assert out.terms == {(0, 1): 1}


def test_path_ordered_product_open_path(a2, a2_diagram):
    # crossing just the vertical-axis wall from right to left
    path = [(F(1), F(1, 3)), (F(-1), F(1, 3))]
    p = LaurentPoly.monomial((1, 0), 6)
    out = path_ordered_product(a2, a2_diagram, path, p)
    assert out.terms == {(1, 0): 1, (1, 1): 1}
