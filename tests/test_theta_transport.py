"""theta by transport on finite type, against the broken-line search.

On a complete diagram of finite type, theta carries z^m from the chamber of
m to the endpoint with the path-ordered product, at K up to the diagram
order; enumerate_lines always searches.  The oracle sums the searched lines
with theta_of_lines, so it never goes through the transport.
"""

import random
from fractions import Fraction

import pytest

from csd import brokenline
from csd.brokenline import enumerate_lines, theta, theta_of_lines
from csd.lattice import FixedData
from csd.scattering import Diagram, Wall, complete_rank2
from csd.series import WallFunction

F = Fraction

FINITE = {"A2": ([[0, 1], [-1, 0]], [1, 1]), "B2": ([[0, 2], [-1, 0]], [1, 2]),
          "G2": ([[0, 3], [-1, 0]], [1, 3])}
ORDERS = {"A2": (6, 8, 12, 16), "B2": (6, 8, 12, 16), "G2": (5, 6, 8, 12, 16)}
EXPONENTS = [(a, b) for a in range(-6, 7) for b in range(-6, 7) if a or b]
SMALL = [m for m in EXPONENTS if max(map(abs, m)) <= 3]
# endpoints with small denominators: on a wall, or sending some traced ray
# into the origin, on some type
SPECIAL = [(1, 2), (-2, 1), (F(1, 2), F(-3, 2)), (3, -3), (2, 2), (0, 1), (-1, -1)]
PRIMES = [101, 103, 107, 109, 113, 127]


def _generic(rng):
    """(a/p, b/q) with distinct primes p, q above 100 and a, b prime to them:
    every lattice vector with entries below 100 pairs with it to a nonzero
    cross product, so it lies on no wall and no traced ray meets the origin."""
    p, q = rng.sample(PRIMES, 2)
    a, b = (rng.choice([c for c in range(-4 * r, 4 * r) if c % r]) for r in (p, q))
    return F(a, p), F(b, q)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


def _searched(fd, diagram, m, z, K):
    return theta_of_lines(m, enumerate_lines(fd, diagram, m, z, K), K).terms


@pytest.mark.parametrize("name", sorted(FINITE))
def test_transport_matches_the_search(name):
    fd = FixedData(*FINITE[name])
    rng = random.Random(name)
    for order in ORDERS[name]:
        diagram = complete_rank2(fd, order)
        for K in (order - 2, order, order + 3):
            z = _generic(rng)
            # above the order theta searches too, so a smaller box of
            # exponents keeps the test fast
            for m in EXPONENTS if K <= order else SMALL:
                got = theta(fd, diagram, m, z, K)
                assert got.terms == _searched(fd, diagram, m, z, K), (order, K, m, z)
                assert list(got.terms) == sorted(got.terms)


@pytest.mark.parametrize("name", sorted(FINITE))
def test_transport_raises_what_the_search_raises(name):
    # both orientations of the type
    exchange, d = FINITE[name]
    for fd in (FixedData(exchange, d), FixedData([[0, exchange[1][0]], [exchange[0][1], 0]],
                                                 d[::-1])):
        diagram = complete_rank2(fd, 6)
        for z in SPECIAL:
            for m in EXPONENTS:
                got = _outcome(lambda: theta(fd, diagram, m, z).terms)
                assert got == _outcome(_searched, fd, diagram, m, z, 6), (m, z)


def _searches(monkeypatch, fd, diagram, K=None):
    """How many times theta runs the search for the exponents of [-3, 3]^2
    at a generic endpoint."""
    calls, search = [], brokenline._search

    def spy(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(brokenline, "_search", spy)
    for m in SMALL:
        theta(fd, diagram, m, (F(317, 101), F(-29, 103)), K)
    monkeypatch.undo()
    return len(calls)


def test_search_runs_only_off_the_guard(monkeypatch):
    for name, order in (("A2", 6), ("B2", 3), ("G2", 5), ("G2", 8)):
        fd = FixedData(*FINITE[name])
        diagram = complete_rank2(fd, order)
        assert _searches(monkeypatch, fd, diagram) == 0
        assert _searches(monkeypatch, fd, diagram, order - 1) == 0
        # above the order the search decides
        assert _searches(monkeypatch, fd, diagram, order + 1) > 0
    kron = FixedData([[0, 2], [-2, 0]], [1, 1])
    assert _searches(monkeypatch, kron, complete_rank2(kron, 6)) > 0
    g2 = FixedData(*FINITE["G2"])
    # order 4 misses a half-line of G2
    assert _searches(monkeypatch, g2, complete_rank2(g2, 4)) > 0
    # one wall coefficient edited
    full = complete_rank2(g2, 8)
    w = full.walls[-1]
    edited = Wall(w.normal, w.kind, w.direction,
                  WallFunction(w.func.direction, w.func.coeffs[:-1] + (2,)))
    diagram = Diagram(g2, full.walls[:-1] + (edited,), 8, full.saturated)
    assert _searches(monkeypatch, g2, diagram) > 0
