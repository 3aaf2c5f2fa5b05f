"""The integer series kernel against the Fraction series path it replaced.

The reference functions below are the Fraction implementations of
truncation, sums, products, wall crossing and the theta-basis expansion.
Results are compared by repr, so coefficients, exponents and the insertion
order of the term dicts must all agree; a reference result is built through
the LaurentPoly constructor, which stores its integral Fractions as ints.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from csd.brokenline import enumerate_lines, theta
from csd.constructions import (alpha_table, EXPANSION_ENDPOINT, glue_balanced,
                               pair_from_segment, structure_constant, _theta_cached)
from csd.geometry import vadd, vsub, vscale
from csd.lattice import FixedData, cone_order, n_circ_primitive, pairing
from csd.scattering import complete_rank2
from csd.series import LaurentPoly, WallFunction, wf_pow, lp_truncate, lp_mul, wall_cross
from crossing_reference import one_wall_family
from segments import line_bounded_segment

F = Fraction


# --- reference: the Fraction series path ----------------------------------

def ref_truncate(fd, terms, base, order):
    kept = {}
    for e, c in terms.items():
        if c == 0:
            continue
        o = cone_order(fd, vsub(e, base))
        if o is None:
            raise ValueError("term %r escapes the truncation cone over base %r" % (e, base))
        if o <= order:
            kept[e] = c
    return LaurentPoly(kept, base, order)


def ref_add(fd, a, b):
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, F(0)) + c
    return ref_truncate(fd, terms, a.base, min(a.order, b.order))


def ref_mul(fd, a, b):
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = vadd(e1, e2)
            terms[e] = terms.get(e, F(0)) + c1 * c2
    return ref_truncate(fd, terms, vadd(a.base, b.base), min(a.order, b.order))


def ref_wall_cross(fd, p, f, n0, sign, K=None):
    if K is None:
        K = p.order
    K = min(K, p.order)
    n0p = n_circ_primitive(fd, n0)
    step = cone_order(fd, f.direction)
    if step is None or step <= 0:
        raise ValueError("wall function direction outside the cone")
    out = {}
    for e, c in p.terms.items():
        pw = sign * pairing(fd, n0p, e)
        if pw.denominator != 1:
            raise ValueError("non-integral crossing exponent")
        used = cone_order(fd, vsub(e, p.base))
        kmax = int((K - used) / step)
        if pw == 0 or kmax < 1 or f.is_one():
            out[e] = out.get(e, F(0)) + c
            continue
        g = wf_pow(f, int(pw), kmax)
        out[e] = out.get(e, F(0)) + c
        for k, gc in g.terms():
            ee = vadd(e, vscale(k, f.direction))
            out[ee] = out.get(ee, F(0)) + c * gc
    return ref_truncate(fd, out, p.base, K)


def ref_alpha_table(fd, diagram, p, q, K):
    z0 = EXPANSION_ENDPOINT
    base = vadd(p, q)
    rem = ref_truncate(fd, ref_mul(fd, _theta_cached(fd, diagram, p, z0, K),
                                   _theta_cached(fd, diagram, q, z0, K)).terms, base, K)
    out = {}
    while rem.terms:
        e = min(rem.terms, key=lambda e: (cone_order(fd, vsub(e, base)), e))
        c = rem.terms[e]
        out[e] = c
        th = _theta_cached(fd, diagram, e, z0, K)
        if th.terms.get(tuple(e)) != 1:
            raise ValueError("theta at %r has no unit leading term; "
                             "probe endpoint is not generic enough" % (e,))
        rebased = ref_truncate(fd, th.terms, base, K)
        scaled = LaurentPoly({t: -c * v for t, v in rebased.terms.items()}, base, K)
        rem = ref_add(fd, rem, scaled)
    return out


# --- the five types ----------------------------------------------------------

TYPES = {"A2": ([[0, 1], [-1, 0]], [1, 1], 6), "B2": ([[0, 2], [-1, 0]], [1, 2], 6),
         "G2": ([[0, 3], [-1, 0]], [1, 3], 6), "Kronecker": ([[0, 2], [-2, 0]], [1, 1], 5),
         "W33": ([[0, 3], [-3, 0]], [1, 1], 4)}
_DIAGRAMS = {}


def _typed(name):
    if name not in _DIAGRAMS:
        exchange, d, order = TYPES[name]
        fd = FixedData.from_exchange(exchange, d)
        _DIAGRAMS[name] = fd, complete_rank2(fd, order)
    return _DIAGRAMS[name]


coeffs = st.integers(-4, 4)


@st.composite
def polys(draw, fd, base, order, escape=False):
    """A polynomial over base: cone points base + a*g1 + b*g2, a few outside."""
    g1, g2 = fd.monoid_gens
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(st.integers(0, order + 1)), draw(st.integers(0, order + 1))
        e = vadd(base, vadd(vscale(a, g1), vscale(b, g2)))
        if escape and draw(st.booleans()):
            e = vadd(e, draw(st.sampled_from([(-1, 0), (0, -1), (1, 0), (0, 1)])))
        terms[e] = draw(coeffs)
    return LaurentPoly(terms, base, order)


bases = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
names = st.sampled_from(sorted(TYPES))


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except ValueError as e:
        return "error", str(e)
    return repr(r), r.base, r.order


@settings(max_examples=150, deadline=None)
@given(st.data(), names, bases, st.integers(0, 5))
def test_truncate_matches_reference(data, name, base, order):
    fd, _ = _typed(name)
    terms = data.draw(polys(fd, base, order + 2, escape=True)).terms
    terms.update(data.draw(st.dictionaries(st.sampled_from(sorted(terms) or [base]),
                                           st.just(F(0)), max_size=2)))
    assert _outcome(lp_truncate, fd, terms, base, order) == \
        _outcome(ref_truncate, fd, terms, base, order)


@settings(max_examples=150, deadline=None)
@given(st.data(), names, bases, bases, st.integers(0, 5), st.integers(0, 5))
def test_mul_matches_reference(data, name, b1, b2, o1, o2):
    fd, _ = _typed(name)
    escape = data.draw(st.booleans())
    a = data.draw(polys(fd, b1, o1, escape))
    b = data.draw(polys(fd, b2, o2, escape))
    assert _outcome(lp_mul, fd, a, b) == _outcome(ref_mul, fd, a, b)


@settings(max_examples=150, deadline=None)
@given(st.data(), names, bases, st.integers(0, 6))
def test_wall_cross_matches_reference(data, name, base, order):
    fd, diagram = _typed(name)
    p = data.draw(polys(fd, base, order))
    wall = data.draw(st.sampled_from(diagram.walls))
    f = data.draw(st.sampled_from([
        wall.func, WallFunction(wall.func.direction, data.draw(st.lists(coeffs, max_size=4)))]))
    sign = data.draw(st.sampled_from([1, -1]))
    K = data.draw(st.sampled_from([None, 0, 1, 3, order]))
    # wall_cross truncates at the order of p: a lower K is a p of order K
    q = p if K is None else LaurentPoly(p.terms, p.base, min(K, p.order))
    assert _outcome(wall_cross, fd, q, one_wall_family(fd, f, wall.normal), sign) == \
        _outcome(ref_wall_cross, fd, p, f, wall.normal, sign, K)


def test_escaping_term_message():
    fd, _ = _typed("G2")
    # the cone of G2 is spanned by (0, 3) and (-1, 0)
    terms = {(-1, 0): F(2), (0, -1): F(0), (1, 0): F(3), (0, 1): F(1)}
    for trunc in (lp_truncate, ref_truncate):
        with pytest.raises(ValueError, match=r"^term \(1, 0\) escapes the truncation "
                                             r"cone over base \(0, 0\)$"):
            trunc(fd, terms, (0, 0), 6)
    # a zero coefficient outside the cone is dropped, not reported
    assert lp_truncate(fd, {(0, -1): F(0), (0, 1): F(2)}, (0, 0), 6).terms == {(0, 1): 2}


@pytest.mark.parametrize("name", sorted(TYPES))
def test_alpha_table_matches_reference(name):
    fd, diagram = _typed(name)
    K = diagram.order
    rng = random.Random(name)
    box = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
    for _ in range(12 if name == "W33" else 30):
        p, q = rng.choice(box), rng.choice(box)
        assert repr(alpha_table(fd, diagram, p, q, K)) == \
            repr(ref_alpha_table(fd, diagram, p, q, K)), (p, q)


def _all_int(values):
    values = list(values)
    return bool(values) and all(type(c) is int for c in values)


@pytest.mark.parametrize("name", sorted(TYPES))
def test_coefficients_are_ints(name):
    # wall functions, theta functions, structure constants and broken lines
    # of a cluster scattering diagram have integer coefficients, held as ints
    fd, diagram = _typed(name)
    K = diagram.order
    assert _all_int(c for w in diagram.walls for c in w.func.coeffs)
    z = (F(7, 2), F(5, 3))
    lines = []
    for m in [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1), (2, -1)]:
        assert _all_int(theta(fd, diagram, m, z, K).terms.values())
        lines += enumerate_lines(fd, diagram, m, z, K)
    assert _all_int(p.coeff for line in lines for p in line.pieces)
    for p, q in [((1, 0), (-1, 0)), ((0, 1), (-1, -1)), ((1, 1), (-2, 0))]:
        table = alpha_table(fd, diagram, p, q, K)
        assert _all_int(table.values())
        r = min(table)
        assert type(structure_constant(fd, diagram, p, q, r, K)) is int
    # a balanced pair split from the first line that bends twice
    line = next(line for line in lines if len(line.pieces) > 2)
    seg = line_bounded_segment(fd, line)
    pair, tr = pair_from_segment(fd, diagram, seg, seg.total_time / 2)
    glued = glue_balanced(fd, diagram, pair, tr.a, tr.b)
    assert _all_int(p.coeff for p in pair.line1.pieces + pair.line2.pieces + glued.pieces)
