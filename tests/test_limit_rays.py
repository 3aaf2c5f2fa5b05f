"""Completion against closed forms for the walls of affine and wild types.

The closed forms are written here with Fraction and math.comb, not with
csd.series, so completion is compared with values it did not compute.
What each form rests on:

- (2, 2), the Kronecker type: cited.  Gross and Pandharipande
  (arXiv:0909.5153) state the central function of the tropical vertex for
  l1 = l2 = 2 as (1 - x)^(-4).  The cluster normalization here takes the
  m-th root of their m^2-th power, so it is (1 - x)^(-2).
- (3, 3): cited as a conjecture.  Gross and Pandharipande (arXiv:0909.5153)
  conjecture the power 9 of the same Fuss-Catalan series for l1 = l2 = 3,
  and Reineke (arXiv:0903.0261) proves cases of it; which cases cover this
  one is not checked here.
- (4, 4) and (5, 5): observed.  The same formula with p = (m - 1)^2 matches
  every computed term.
- (1, 4), the half-line (1, -2): observed, (1 + x)/(1 - x)^2.
- Every other half-line of Kronecker and (1, 4) carries one term with
  coefficient 1: cited, the walls outside the limit cone are the cluster
  walls (Reading, "Scattering fans", arXiv:1712.06968).
"""

from fractions import Fraction
from math import comb

import pytest

from csd.lattice import FixedData
from csd.scattering import complete_rank2


def _fuss_catalan_power(m, terms):
    """The coefficients of x^1 .. x^terms in (sum_k C(pk, k)/((p - 1)k + 1) x^k)^m,
    p = (m - 1)^2, as ints."""
    p = (m - 1) ** 2
    base = [Fraction(comb(p * k, k), (p - 1) * k + 1) for k in range(terms + 1)]
    out = [Fraction(1)] + [Fraction(0)] * terms
    for _ in range(m):
        out = [sum(out[j] * base[k - j] for j in range(k + 1)) for k in range(terms + 1)]
    assert all(c.denominator == 1 for c in out)
    return [int(c) for c in out[1:]]


def _one_plus_x_over_one_minus_x_squared(terms):
    """The coefficients of x^1 .. x^terms in (1 + x)/(1 - x)^2 = sum (2k + 1) x^k."""
    return [2 * k + 1 for k in range(1, terms + 1)]


def _half_lines(diagram):
    """{primitive direction: walls} for every half-line some wall covers."""
    out = {}
    for w in diagram.walls:
        h = w.direction
        for side in ((h,) if w.kind == "ray" else (h, (-h[0], -h[1]))):
            out.setdefault(side, []).append(w)
    return out


def _function(walls):
    """{j: c} of the product of the wall functions, 1 + sum c z^(j*m0), m0
    the direction they share."""
    prod = {0: 1}
    for w in walls:
        assert w.func.direction == walls[0].func.direction
        f = {0: 1}
        f.update((j, c) for j, c in enumerate(w.func.coeffs, 1) if c)
        out = {}
        for a, x in prod.items():
            for b, y in f.items():
                out[a + b] = out.get(a + b, 0) + x * y
        prod = {j: c for j, c in out.items() if c}
    del prod[0]
    return prod


def _central(exchange, d, order, h):
    """{j: c} of the one wall on half-line h of the complete diagram."""
    walls = _half_lines(complete_rank2(FixedData(exchange, d), order))[h]
    assert len(walls) == 1
    return _function(walls)


# (exchange, d, order, x as a multiple of m0, order of x, expected terms)
CENTRAL = {
    "(2,2)": ([[0, 2], [-2, 0]], [1, 1], 24, 2, 2, lambda n: _fuss_catalan_power(2, n)),
    "(3,3)": ([[0, 3], [-3, 0]], [1, 1], 24, 3, 2, lambda n: _fuss_catalan_power(3, n)),
    "(4,4)": ([[0, 4], [-4, 0]], [1, 1], 16, 4, 2, lambda n: _fuss_catalan_power(4, n)),
    "(5,5)": ([[0, 5], [-5, 0]], [1, 1], 16, 5, 2, lambda n: _fuss_catalan_power(5, n)),
    "(1,4)": ([[0, 4], [-1, 0]], [1, 4], 24, 2, 3, _one_plus_x_over_one_minus_x_squared),
}


def test_closed_forms():
    # the forms as they read in the literature and the probe
    assert _fuss_catalan_power(2, 5) == [2, 3, 4, 5, 6]
    assert _fuss_catalan_power(3, 6) == [3, 15, 91, 612, 4389, 32890]
    assert _one_plus_x_over_one_minus_x_squared(4) == [3, 5, 7, 9]


@pytest.mark.parametrize("name", list(CENTRAL))
def test_limit_ray_matches_its_closed_form(name):
    # on (m, m) the half-line (1, -1) has m0 = (-1, 1) and x = z^(m*m0) =
    # z^(g1 + g2), of cone order 2; on (1, 4) the half-line (1, -2) has
    # m0 = (-1, 2) and x = z^(2*m0) = z^(g1 + 2*g2), of cone order 3.  So
    # the order keeps the terms x^1 .. x^(order // (order of x)), and the
    # shifts j*m0 between them carry nothing.
    exchange, d, order, step, x_order, form = CENTRAL[name]
    h = (1, -1) if d == [1, 1] else (1, -2)
    f = _central(exchange, d, order, h)
    n = order // x_order
    expected = {step * k: c for k, c in enumerate(form(n), 1)}
    assert len(expected) == n and f == expected


@pytest.mark.parametrize("exchange, d, limit", [
    ([[0, 2], [-2, 0]], [1, 1], (1, -1)),
    ([[0, 4], [-1, 0]], [1, 4], (1, -2)),
])
def test_other_half_lines_carry_one_unit_term(exchange, d, limit):
    diagram = complete_rank2(FixedData(exchange, d), 16)
    halves = _half_lines(diagram)
    assert limit in halves and len(halves) > 10
    for h, walls in halves.items():
        if h != limit:
            f = _function(walls)
            assert len(f) == 1 and list(f.values()) == [1], (h, f)
