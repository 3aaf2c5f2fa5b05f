import hashlib
import random
from fractions import Fraction

import pytest

from csd import scattering, serialize
from csd.brokenline import theta
from csd.geometry import vadd, vsub, vscale, is_zero, same_ray, cross, dot, line_key
from csd.lattice import FixedData, cone_order, line_dir, pairing, dual_perp, n_circ_primitive
from csd.series import WallFunction, LaurentPoly
from csd.scattering import (Diagram, Wall, is_incoming, initial_diagram,
                            complete_rank2, complete_diagram, check_consistent,
                            loop_discrepancy, apply_loop, path_ordered_product,
                            leg_crossings, search_form)

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
    assert line_key((-2, 0)) == (1, 0)
    assert line_key((0, -3)) == (0, 1)


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
    done = complete_diagram(a2, a2_diagram)
    after = [(w.normal, w.kind, w.direction, w.func.coeffs) for w in done.walls]
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


def test_each_least_order_exponent_has_one_derivation(a2, monkeypatch):
    # the loop's log at the least order k is sum_p c_p z^p (x) n_p with n_p
    # spanning p^perp, so generator e_j sees c_p <n_p, e_j> at p: the two
    # generators' coefficients are proportional to the pairings, which the
    # completion's single correction per exponent rests on.  On the eight
    # types at order 8, and on A2 with an edited outgoing ray whose function
    # the modify branch of the correction adds to
    rounds = []
    loop = scattering.loop_discrepancy
    monkeypatch.setattr(scattering, "loop_discrepancy",
                        lambda fd, diagram: rounds.append(loop(fd, diagram)) or rounds[-1])
    edited = Diagram(a2, initial_diagram(a2, 8).walls
                     + (Wall((1, 1), "ray", (1, -1), WallFunction((-1, 1), [1, 2])),), 8, False)
    cases = [(FixedData(*TYPES[name]), None) for name in TYPES] + [(a2, edited)]
    checked = 0
    for fd, diagram in cases:
        rounds.clear()
        complete_diagram(fd, diagram or initial_diagram(fd, 8))
        assert not any(rounds[-1])
        for disc in rounds[:-1]:
            k = min(cone_order(fd, e) for d in disc for e in d)
            for p in {e for d in disc for e in d if cone_order(fd, e) == k}:
                n = dual_perp(fd, p)
                assert line_key(scattering._outgoing_normal(fd, p)) == line_key(n)
                n0p = n_circ_primitive(fd, n)
                w0, w1 = pairing(fd, n0p, (1, 0)), pairing(fd, n0p, (0, 1))
                assert disc[0].get(p, 0) * w1 == disc[1].get(p, 0) * w0, (fd, p, disc)
                checked += 1
    assert checked == 71


def test_completion_stops_after_order_times_d_rounds(a2, monkeypatch):
    # the least discrepancy order rises by 1/D a round, so order*D + 1
    # rounds find the loop trivial; with the corrections dropped the loop
    # never is, and completion raises after exactly that many rounds
    calls = []
    loop = scattering.loop_discrepancy
    monkeypatch.setattr(scattering, "_insert_correction", lambda fd, walls, p, delta: None)
    monkeypatch.setattr(scattering, "loop_discrepancy",
                        lambda fd, diagram: calls.append(diagram) or loop(fd, diagram))
    with pytest.raises(RuntimeError, match="^completion did not stabilize$"):
        complete_diagram(a2, initial_diagram(a2, 4))
    assert len(calls) == 4 * a2.order_form[4] + 1 == 5


def test_apply_loop_identity(a2, a2_diagram):
    p = LaurentPoly.monomial((1, 1), 6)
    out = apply_loop(a2, a2_diagram, p)
    assert out.terms == {(1, 1): 1}


def test_crossing_a_non_integral_exponent_raises(a2, a2_diagram):
    # (1/2, 0) pairs to 1/2 with the normal (1, 0) of the positive y-axis,
    # which the loop crosses and the leg at y = 1/2 crosses alone
    p = LaurentPoly({(F(1, 2), 0): 1}, (F(1, 2), 0), 6)
    with pytest.raises(ValueError, match="^non-integral crossing exponent$"):
        apply_loop(a2, a2_diagram, p)
    with pytest.raises(ValueError, match="^non-integral crossing exponent$"):
        path_ordered_product(a2, a2_diagram, [(1, F(1, 2)), (-1, F(1, 2))], p)


def test_leg_crossings(a2, a2_diagram):
    fams = leg_crossings(a2, a2_diagram, (F(1), F(1, 2)), (F(-1), F(1, 2)))
    hits = [w for fam in fams for w in fam.walls]
    assert [w.normal for w in hits] == [(1, 0)]
    fams = leg_crossings(a2, a2_diagram, (F(1), F(-1, 2)), (F(-1), F(-3, 2)))
    hits = [w for fam in fams for w in fam.walls]
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


TYPES = {"A2": ([[0, 1], [-1, 0]], [1, 1]), "B2": ([[0, 2], [-1, 0]], [1, 2]),
         "G2": ([[0, 3], [-1, 0]], [1, 3]), "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
         "(1,4)": ([[0, 4], [-1, 0]], [1, 4]), "(3,3)": ([[0, 3], [-3, 0]], [1, 1]),
         "(1,5)": ([[0, 5], [-1, 0]], [1, 5]), "(2,3)": ([[0, 3], [-2, 0]], [2, 3])}


def _reference_crossings(fd, diagram, a, b):
    """The walls a -> b crosses, in order, by a scan of every wall in rationals."""
    def on_support(w, pt):
        if pairing(fd, w.normal, pt) != 0:
            return False
        return w.kind == "line" or is_zero(pt) or same_ray(pt, w.direction)

    if is_zero(a) or is_zero(b) or (cross(a, b) == 0 and dot(a, b) < 0):
        raise ValueError("path passes through the origin")
    out = []
    for w in diagram.walls:
        sa, sb = pairing(fd, w.normal, a), pairing(fd, w.normal, b)
        if sa == sb:
            if sa == 0 and on_support(w, a):
                raise ValueError("path runs inside a wall")
            continue
        if sa == 0 or sb == 0:
            if on_support(w, a if sa == 0 else b):
                raise ValueError("path endpoint lies on a wall")
            continue
        t = Fraction(sa, sa - sb)
        pt = vadd(a, vscale(t, vsub(b, a)))
        if 0 < t < 1 and on_support(w, pt):
            if is_zero(pt):
                raise ValueError("path passes through the origin")
            out.append((t, pt, w))
    out.sort(key=lambda x: x[0])
    for (t1, p1, w1), (t2, _, w2) in zip(out, out[1:]):
        if t1 == t2 and cross(w1.normal, w2.normal) != 0:
            raise ValueError("path crosses two distinct walls at one point %r" % (p1,))
    return [w for _, _, w in out]


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return "ValueError: %s" % e


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "Kronecker", "(1,4)", "(3,3)"])
def test_leg_crossings_match_wall_scan(name):
    # seeded legs between grid points with denominators 1-3, plus legs
    # from a point of a wall line: along it (inside a wall or beside a ray),
    # through the origin, and off it (an endpoint on a wall or not)
    fd = FixedData.from_exchange(*TYPES[name])
    diagram = complete_rank2(fd, 6)
    rng = random.Random("legs:" + name)
    grid = sorted({F(k, d) for d in (1, 2, 3) for k in range(-3 * d, 3 * d + 1)})
    lines = [line_dir(fd, w.normal) for w in diagram.walls]
    legs = []
    for _ in range(300):
        legs.append(((rng.choice(grid), rng.choice(grid)), (rng.choice(grid), rng.choice(grid))))
        u = rng.choice(lines)
        a = vscale(rng.choice(grid), u)
        legs += [(a, vscale(rng.choice(grid), u)), (a, (rng.choice(grid), rng.choice(grid)))]
    seen = set()
    for a, b in legs:
        want = _outcome(_reference_crossings, fd, diagram, a, b)
        got = _outcome(leg_crossings, fd, diagram, a, b)
        if not isinstance(got, str):
            got = [w for fam in got for w in fam.walls]
        assert got == want, (a, b)
        seen.add(want if isinstance(want, str) else bool(want))
    assert seen == {True, False, "ValueError: path passes through the origin",
                    "ValueError: path endpoint lies on a wall",
                    "ValueError: path runs inside a wall"}


def test_radial_leg_crosses_nothing(a2, a2_diagram, g2, g2_diagram):
    # a leg along a ray toward the origin that stops short: on A2 between
    # the walls, on G2 on the line of the ray (1, -1), on the side it leaves
    for fd, diagram, a, b in [(a2, a2_diagram, (F(1), F(1)), (F(1, 2), F(1, 2))),
                              (g2, g2_diagram, (F(-2), F(2)), (F(-1, 2), F(1, 2)))]:
        assert leg_crossings(fd, diagram, a, b) == []
        p = LaurentPoly.monomial((1, 0), diagram.order)
        assert path_ordered_product(fd, diagram, [a, b], p) == p


def test_ray_off_its_normal_line_is_rejected(a2, a2_diagram):
    # the search would never meet such a ray, so no diagram holds it
    bad = Wall((1, 0), "ray", (1, 0), WallFunction((0, 1), [1]))
    msg = r"^wall 3: ray wall with normal \(1, 0\) has direction \(1, 0\) off the line"
    with pytest.raises(ValueError, match=msg):
        Diagram(a2, a2_diagram.walls + (bad,), 6, False)


def test_line_off_its_normal_line_is_rejected(a2):
    # the search reads a line's support from its normal alone, so a wrong
    # direction would be drawn by render_svg and dropped by diagram_to_json
    bad = Wall((1, 0), "line", (1, 1), WallFunction((0, 1), [1]))
    msg = r"^wall 3: line wall with normal \(1, 0\) has direction \(1, 1\) off the line"
    with pytest.raises(ValueError, match=msg):
        Diagram(a2, complete_rank2(a2, 4).walls + (bad,), 4, False)


@pytest.mark.parametrize("kind", ["line", "ray"])
def test_wall_off_its_normal_line_is_neither_drawn_nor_written(a2, kind):
    # the figure would draw the wall along its direction and the document
    # would drop a line's direction, and a polygon verdict or hull reads the
    # charts alone; none of them meets the wall, as no diagram holds it
    bad = Wall((1, 0), kind, (1, 1), WallFunction((0, 1), [1]))
    msg = r"^wall 0: %s wall with normal \(1, 0\) has direction \(1, 1\) off the line" % kind
    with pytest.raises(ValueError, match=msg):
        Diagram(a2, (bad,) + complete_rank2(a2, 4).walls, 4, False)


def test_function_direction_off_its_normal_line_is_rejected(a2):
    # the search reads a bend's power off the pairing with the normal, which
    # a bend along (-1, 1) would change; the diagram loader refuses it as well
    bad = Wall((1, 2), "line", (-2, 1), WallFunction((-1, 1), [1]))
    walls = complete_rank2(a2, 4).walls + (bad,)
    msg = "wall 3: wall with normal (1, 2) has function direction (-1, 1) off the line of its normal"
    with pytest.raises(ValueError) as info:
        Diagram(a2, walls, 4, False)
    assert str(info.value) == msg
    # the same walls in a document, written wall by wall
    doc = {"seed": serialize.fd_to_json(a2), "order": 4, "saturated": False,
           "walls": [serialize.wall_to_json(w) for w in walls]}
    with pytest.raises(ValueError) as info:
        serialize.diagram_from_json(doc)
    assert str(info.value) == msg


@pytest.mark.parametrize("kind", ["line", "ray"])
def test_function_direction_outside_the_cone_is_rejected(a2, kind):
    # on the wall's line but outside sigma: the diagram refuses the wall with
    # one message, wherever it stands among the walls
    bad = Wall((1, 1), kind, (-1, 1), WallFunction((1, -1), [1]))
    msg = "wall with normal (1, 1) has function direction (1, -1) outside the cone of the monoid"
    walls = complete_rank2(a2, 4).walls
    for i in range(len(walls) + 1):
        with pytest.raises(ValueError) as info:
            Diagram(a2, walls[:i] + (bad,) + walls[i:], 4, False)
        assert str(info.value) == "wall %d: %s" % (i, msg)


@pytest.mark.parametrize("args, message", [
    ((None, (), 4, False), "fd must be a FixedData, got None"),
    (("a2", (), -1, False), "order must be an integer >= 0, got -1"),
    (("a2", (), "4", False), "order must be an integer >= 0, got '4'"),
    (("a2", (), 4.5, False), "order must be an integer >= 0, got 4.5"),
    (("a2", (), True, False), "order must be an integer >= 0, got True"),
    (("a2", ("x",), 4, False), "wall 2: not a Wall: 'x'"),
    (("a2", (), 4, "no"), "saturated must be true or false, got 'no'"),
    (("a2", (), 4, 1), "saturated must be true or false, got 1"),
    (("a2", (), 4, None), "saturated must be true or false, got None"),
], ids=["fd-none", "order-negative", "order-str", "order-float", "order-bool", "wall-str",
        "saturated-str", "saturated-int", "saturated-none"])
def test_diagram_names_a_field_it_cannot_use(a2, args, message):
    # an order of -1 once gave the empty theta function, "4" and 4.5 a
    # later TypeError, True a saved file that would not reload; None for
    # fd and a wall that is not a Wall an AttributeError; a saturated of
    # "no" was kept and saved as true
    fd, extra, order, saturated = args
    walls = initial_diagram(a2, 4).walls + extra
    with pytest.raises(ValueError) as info:
        Diagram(a2 if fd == "a2" else fd, walls, order, saturated)
    assert str(info.value) == message


@pytest.mark.parametrize("order", [-1, True])
def test_completion_names_an_order_it_cannot_use(a2, order):
    # -1 once raised "zero vector has no direction"
    with pytest.raises(ValueError) as info:
        complete_rank2(a2, order)
    assert str(info.value) == "order must be an integer >= 0, got %r" % (order,)


def test_wall_function_must_be_a_wall_function():
    with pytest.raises(ValueError) as info:
        Wall((1, 0), "line", (0, 1), "x")
    assert str(info.value) == "func must be a WallFunction, got 'x'"


def test_wall_kind_other_than_line_or_ray_is_rejected():
    with pytest.raises(ValueError) as info:
        Wall((1, 0), "segment", (0, 1), WallFunction((0, 1), [1]))
    assert str(info.value) == "kind must be 'line' or 'ray'"


def test_zero_normal_is_rejected():
    with pytest.raises(ValueError) as info:
        Wall((0, 0), "line", (1, 0), WallFunction((0, 1), [1]))
    assert str(info.value) == "normal must be nonzero, got (0, 0)"


@pytest.mark.parametrize("direction, shown", [((2, -2), "(2, -2)"), ((0, 0), "(0, 0)"),
                                               ((F(3), 0), "(3, 0)")])
def test_wall_direction_must_be_primitive(a2, direction, shown):
    # completion finds a ray by its primitive direction, and the loader
    # refuses any other; a wall that was written once must load again
    walls = complete_rank2(a2, 4).walls
    with pytest.raises(ValueError) as info:
        Wall((1, 1), "ray", direction, WallFunction((-1, 1), [1]))
    assert str(info.value) == "direction must be primitive, got " + shown
    diagram = Diagram(a2, walls + (Wall((1, 1), "ray", (1, -1), WallFunction((-1, 1), [1])),),
                      4, False)
    back = serialize.diagram_from_json(serialize.diagram_to_json(diagram))
    assert repr(back.walls) == repr(diagram.walls)


# SHA-256 of repr(list(complete_rank2(fd, order).walls)), computed with a loop
# that scanned every wall for each support direction
COMPLETION_DIGESTS = {
    ('A2', 4): "f76213f237df8e82a39a4f7ac1f0fecd3af4d34a131a7f1ce4668fe9e1e34832",
    ('A2', 6): "f76213f237df8e82a39a4f7ac1f0fecd3af4d34a131a7f1ce4668fe9e1e34832",
    ('A2', 8): "f76213f237df8e82a39a4f7ac1f0fecd3af4d34a131a7f1ce4668fe9e1e34832",
    ('B2', 4): "3f933042eadddba42f1c954c12c03eced0d25be86dd90fb3068d11d6d92a7a9d",
    ('B2', 6): "3f933042eadddba42f1c954c12c03eced0d25be86dd90fb3068d11d6d92a7a9d",
    ('B2', 8): "3f933042eadddba42f1c954c12c03eced0d25be86dd90fb3068d11d6d92a7a9d",
    ('G2', 4): "935876dff9ef3e0b044e7e543efa7bb5398e1d16887b0021cd4c503337a5c68c",
    ('G2', 6): "6052a31ab0d9ae91a122267a5999d8dc890f2f3e318158d46911c69ce68329fa",
    ('G2', 8): "6052a31ab0d9ae91a122267a5999d8dc890f2f3e318158d46911c69ce68329fa",
    ('Kronecker', 4): "7e8c660cc2d5692e2e53e0472f17620d1c67660e522b660110637c2271921e72",
    ('Kronecker', 6): "8a69348f6be9c3a6d89a2dbb5dd13628b3cc38d10998f7e82c3e6b9442fdcde3",
    ('Kronecker', 8): "0c00c188706807c4fc3b9945fb55c84a70ec545a6020c98ba233cd26fe218e58",
    ('(1,4)', 4): "5f2053e1cf30d0a35e3815c77086fac711d07ae6954ebe32a158bf858f7221a8",
    ('(1,4)', 6): "9eac37f1e2f5413ff5f43a12cbb0542182ab3c2f5976748967b1e44fe688026d",
    ('(1,4)', 8): "5b048aae6b2db03f46f1a75dc97ad2f581cb1b3374527b30623aa1b7eea598d5",
    ('(3,3)', 4): "c9d233499965182f0e82b96678b9faca2eaa7d5a7e2a04d75a7d5821c3be3f1e",
    ('(3,3)', 6): "5264f06ce57da9daad27470e177067bc127ef52990d38e1fd9d2b07ef35eaa65",
    ('(3,3)', 8): "5d651045ef362d4dd78b221be7d56c21045998034789287df4bc62c31ac3b3eb",
    ('(1,5)', 4): "bfe5d5347b7c93ceabf48ebbd80522994667253fc10ee853ffa12132d7aee3c4",
    ('(1,5)', 6): "25f06aaf4844f252e42a3c8e5364a72d4fb7c83f871557beaf7b9878451c4e25",
    ('(1,5)', 8): "dcbcfec8a27bfc98589f3600670c85a2631ed6f096db9687f3129c0392156048",
    ('(2,3)', 4): "8b45104c026839bdc86dd3c2a7e925f801a584fc978a65fff74aa5981448205c",
    ('(2,3)', 6): "8727a22a679b1dc3395f5ca0158d5a0cad46d1e238ee2621eda4e41db58d9953",
    ('(2,3)', 8): "5dcc9335f691cfdfe125453dff54f547a41c697cbf311af38f5d6b941d94a2ca",
}


@pytest.mark.parametrize("normal, direction, field", [
    ((2.7, 1), (0, 1), "normal"),
    ((2.7, F(1, 3)), (F(1, 2), 1.2), "normal"),
    ((1, 0), (0, F(1, 2)), "direction"),
    ((1, 0), (0.0, 1), "direction"),
])
def test_wall_with_non_integer_entries_rejected(normal, direction, field):
    # int() would have truncated these to the normal (2, 0) or the direction (0, 0)
    f = WallFunction((0, 1), [1])
    with pytest.raises(ValueError, match=r"^%s must be a pair of integers, got " % field):
        Wall(normal, "line", direction, f)


def test_wall_takes_integral_fractions_as_ints():
    w = Wall((F(1), 0), "ray", (0, F(-1)), WallFunction((0, 1), [1]))
    assert (w.normal, w.direction) == ((1, 0), (0, -1))
    assert all(type(c) is int for c in w.normal + w.direction)


def test_completion_is_pinned():
    for (name, order), digest in COMPLETION_DIGESTS.items():
        fd = FixedData.from_exchange(*TYPES[name])
        walls = complete_rank2(fd, order).walls
        assert hashlib.sha256(repr(list(walls)).encode()).hexdigest() == digest, (name, order)


def test_completion_drops_the_form(kron):
    # the index of the initial diagram, read by a search or by the loop,
    # never serves the completed diagram: its families hold the completed
    # walls
    for search_first in (False, True):
        diagram = initial_diagram(kron, 6)
        if search_first:
            theta(kron, diagram, (1, 0), (F(2), F(1)), 6)
        done = complete_diagram(kron, diagram)
        assert search_form(kron, done) is done
        assert {w for fam in done.fams for w in fam.walls} == set(done.walls)
        assert check_consistent(kron, done)


def test_completion_leaves_its_argument_unchanged(kron):
    # the diagram given keeps its walls, their functions and its families,
    # with the caches on it, and the complete diagram is a new value
    diagram = initial_diagram(kron, 6)
    walls, fams = diagram.walls, list(diagram.fams)
    shown = repr(walls)
    cached = theta(kron, diagram, (1, 0), (F(2), F(1)), 6)
    done = complete_diagram(kron, diagram)
    assert done is not diagram and done.walls != walls
    assert diagram.walls is walls and repr(diagram.walls) == shown
    assert search_form(kron, diagram) is diagram and diagram.fams == fams
    assert {w for fam in fams for w in fam.walls} == set(walls)
    assert theta(kron, diagram, (1, 0), (F(2), F(1)), 6) == cached
    assert not check_consistent(kron, diagram) and not diagram.saturated
