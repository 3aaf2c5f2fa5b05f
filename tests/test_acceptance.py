"""End-to-end checks of the headline behaviors, with timing budgets."""

import random
import time
from fractions import Fraction

import pytest

from csd.lattice import FixedData
from csd.geometry import vadd, vsub, vscale, same_ray, convex_hull
from csd.series import WallFunction, LaurentPoly
from csd.scattering import (complete_rank2, check_consistent,
                            path_ordered_product)
from csd.brokenline import (BrokenLine, Piece, Segment, theta, enumerate_lines,
                            theta_of_lines, validate_segment)
from csd.constructions import (alpha_table, structure_constant,
                               construct_segment, glue_balanced,
                               pair_from_segment)
from csd.convexity import blc_hull_2d, check_positive, main_theorem_harness
from segments import line_bounded_segment

F = Fraction

G_VECTORS_G2 = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (1, -2), (1, -3),
                (2, -3)]


def timed(budget):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < budget, "took %.1fs, budget %.1fs" % (elapsed, budget)
    return check


def test_criterion_1_a2_completion(a2):
    done = timed(1.0)
    diagram = complete_rank2(a2, 5)
    assert len(diagram.walls) == 3
    rays = {w.direction: w.func for w in diagram.walls if w.kind == "ray"}
    assert rays == {(1, -1): WallFunction((-1, 1), [1])}
    done()


def test_criterion_2_a2_theta(a2, a2_diagram):
    done = timed(1.0)
    t = theta(a2, a2_diagram, (-1, 0), (F(2), F(1)), 6)
    assert t.terms == {(-1, 1): F(1), (-1, 0): F(1)}
    done()


def test_criterion_3_g2_product(g2, g2_diagram):
    done = timed(10.0)
    table = alpha_table(g2, g2_diagram, (1, 0), (-1, 0), 8)
    assert table == {(0, 0): F(1), (0, 3): F(1)}
    assert structure_constant(g2, g2_diagram, (1, 0), (-1, 0), (0, 3), 8) == 1
    done()


def test_criterion_4_kronecker_completion(kron):
    done = timed(30.0)
    diagram = complete_rank2(kron, 6)
    rays = {w.direction: w.func for w in diagram.walls if w.kind == "ray"}
    assert rays[(2, -1)] == WallFunction((-2, 1), [0, 1])
    central = rays[(1, -1)]
    assert central.direction == (-1, 1)
    # truncated geometric-square series in x = z^(-2,2): 1, 2, 3 (then 4)
    assert [central.coeff(2 * j) for j in (1, 2, 3)] == [2, 3, 4]
    assert all(central.coeff(2 * j + 1) == 0 for j in (0, 1, 2))
    done()


def test_criterion_5_support_points(g2):
    done = timed(1.0)
    line = BrokenLine((F(2), F(4)),
                      [Piece((1, -3), 1, (F(0), F(-2))),
                       Piece((1, -2), 1, (F(-1), F(0))),
                       Piece((-1, -2), 1, (F(0), F(2))),
                       Piece((-1, -1), 1, None)])
    seg = construct_segment(g2, line, 1, 2, 1)
    assert seg.trace.xt == [(F(2, 3), F(4, 3)), (F(0), F(2, 5)),
                            (F(-1, 6), F(0)), (F(0), F(-2, 7))]
    assert seg.start == (F(1), F(-3))
    done()


def zigzag_segment():
    return Segment((F(1), F(-5)), (F(2), F(4)),
                   [Piece((1, -3), 1, (F(0), F(-2)), F(1)),
                    Piece((1, -2), 1, (F(-1), F(0)), F(1)),
                    Piece((-1, -2), 1, (F(0), F(2)), F(1)),
                    Piece((-1, -1), 1, None, F(2))], F(5))


def test_criterion_6_split_worked_example(g2, g2_diagram):
    done = timed(1.0)
    pair, tr = pair_from_segment(g2, g2_diagram, zigzag_segment(), F(5, 2), 1, 1)
    assert pair.base == (-1, 2)
    assert [p.exponent for p in pair.line1.pieces] == [(1, -5), (1, -4), (-3, -4)]
    assert [p.exponent for p in pair.line2.pieces] == [(2, 4), (2, 6)]
    assert pair.is_balanced()
    done()


def test_criterion_7_g2_hull(g2, g2_diagram):
    done = timed(60.0)
    pts = [(F(x), F(y)) for x, y in G_VECTORS_G2]
    hull, flagged = blc_hull_2d(g2, g2_diagram, pts)
    assert not flagged
    assert set(hull) == {(F(-1), F(0)), (F(1), F(-3)), (F(2), F(-3)),
                         (F(1), F(0)), (F(0), F(3, 2))}
    assert check_positive(g2, g2_diagram, hull, 4).verdict is True
    rep = check_positive(g2, g2_diagram, convex_hull(pts), 4)
    assert rep.verdict is False
    assert rep.witnesses[0]["r"] == (0, 3)
    done()


def test_criterion_8_property_suites(a2, g2, kron, a2_diagram, g2_diagram,
                                     kron_diagram):
    done = timed(600.0)
    setups = [(a2, a2_diagram), (g2, g2_diagram), (kron, kron_diagram)]

    # (i) loop consistency after completion
    for fd, diagram in setups:
        assert check_consistent(fd, diagram)

    # (ii) theta is independent of the (generic) endpoint within a transport;
    # theta itself transports on finite type, so the broken lines give the
    # thetas here and the two methods stay distinct
    rng = random.Random(7)

    def random_endpoint():
        return (F(rng.randint(-40, 40), 7), F(rng.randint(-40, 40), 11))

    def searched(fd, diagram, m, z):
        K = diagram.order
        return theta_of_lines(m, enumerate_lines(fd, diagram, m, z, K), K)

    directions = [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, 1), (1, -1)]
    for fd, diagram in setups:
        pairs_done = 0
        while pairs_done < 10:
            z1, z2 = random_endpoint(), random_endpoint()
            m = directions[rng.randrange(len(directions))]
            try:
                t1 = searched(fd, diagram, m, z1)
                t2 = searched(fd, diagram, m, z2)
                moved = path_ordered_product(fd, diagram, [z1, z2], t1)
            except ValueError:
                continue
            assert moved.terms == t2.terms, (fd, m, z1, z2)
            pairs_done += 1

    # (iii)+(iv) split/glue round trips with the trace identities
    def check_traces(seg, pair, tr, back):
        # endpoint identities of the split
        assert tr.mt1[-1] == vscale(tr.a, seg.start)
        assert tr.mt2[-1] == vscale(tr.b, seg.end)
        assert vadd(pair.line1.final, pair.line2.final) == pair.base
        # timing identity of the glue: times count down from 0 to tau and
        # each attached exponent points from the support to the scaled target
        for trace in (back.trace1, back.trace2):
            assert trace.times[0] == 0
            assert trace.tau < 0
            for i in range(len(trace.times)):
                assert trace.times[i] - trace.tau == 1 / trace.C[i]

    def roundtrip(fd, diagram, seg):
        tau = seg.total_time / 2
        pair, tr = pair_from_segment(fd, diagram, seg, tau)
        back = glue_balanced(fd, diagram, pair, tr.a, tr.b)
        check_traces(seg, pair, tr, back)
        assert back.start == seg.start and back.end == seg.end
        assert back.positions() == seg.positions()
        for p, q in zip(back.pieces, seg.pieces):
            assert same_ray(p.exponent, q.exponent)
        ok, why = validate_segment(fd, diagram, back)
        assert ok, why

    rng = random.Random(11)
    trips = 0
    attempts = 0
    while trips < 20:
        attempts += 1
        assert attempts < 400, "too many degenerate samples"
        fd, diagram = setups[trips % 3]
        z = (F(rng.randint(-30, 30), 7), F(rng.randint(-30, 30), 11))
        m = directions[rng.randrange(len(directions))]
        try:
            lines = enumerate_lines(fd, diagram, m, z, diagram.order)
        except ValueError:
            continue
        bent = [l for l in lines if len(l.pieces) > 1]
        if not bent:
            continue
        seg = line_bounded_segment(fd, bent[rng.randrange(len(bent))])
        if seg.total_time == 0:
            continue
        try:
            roundtrip(fd, diagram, seg)
        except ValueError:
            # splits landing exactly on a bend of a degenerate walk are
            # rejected by construction; resample
            continue
        trips += 1

    # (v) positivity verdict matches convexity verdict on random polygons
    for fd, diagram in setups:
        rep = main_theorem_harness(fd, diagram, 50, max_degree=3, K=6)
        assert rep["disagreements"] == []
        assert rep["agree"] + rep["skipped_unknown"] + \
            rep["certified_beyond_bound"] == 50

    done()
