"""Swapping the two indices of a seed is the opposite orientation.

The seed with exchange [[0, b], [-c, 0]] and multipliers (d0, d1) becomes
the seed with exchange [[0, -c], [b, 0]] and multipliers (d1, d0), and
(x, y) -> (y, x), which reverses orientation, carries one onto the other.
tests/test_cluster_rule.py runs the swapped finite seeds ("^T") on their
own; here each seed is compared with its swap.  The completed walls, the
theta functions and the broken-line convexity verdicts must correspond.
"""

import functools
import random
from fractions import Fraction

import pytest

from csd.brokenline import theta
from csd.convexity import is_blc_2d, _random_polygon
from csd.geometry import line_key
from csd.lattice import FixedData
from csd.scattering import complete_rank2

F = Fraction
TYPES = {"A2": ([[0, 1], [-1, 0]], [1, 1]), "B2": ([[0, 2], [-1, 0]], [1, 2]),
         "G2": ([[0, 3], [-1, 0]], [1, 3]), "Kronecker": ([[0, 2], [-2, 0]], [1, 1])}
ORDER = 6


def swap(v):
    return v[1], v[0]


@functools.cache
def seeds(name):
    """(fd, diagram) of the type and of its index swap, completed at ORDER."""
    exchange, d = TYPES[name]
    (_, b), (c, _) = exchange
    fd = FixedData.from_exchange(exchange, d)
    swapped = FixedData.from_exchange([[0, c], [b, 0]], d[::-1])
    return (fd, complete_rank2(fd, ORDER)), (swapped, complete_rank2(swapped, ORDER))


def _wall_value(w, flip):
    """A wall up to the sign of its normal and of a line's direction, read
    through the swap when flip is set."""
    f = swap if flip else tuple
    direction = f(w.direction)
    return (line_key(f(w.normal)), w.kind,
            line_key(direction) if w.kind == "line" else direction,
            f(w.func.direction), w.func.coeffs)


def _theta_terms(fd, diagram, m, z):
    """theta's terms, or None when the endpoint or a traced ray is not generic."""
    try:
        return theta(fd, diagram, m, z).terms
    except ValueError:
        return None


@pytest.mark.parametrize("name", TYPES)
def test_walls_swap(name):
    (fd, diagram), (swapped, other) = seeds(name)
    assert sorted(_wall_value(w, True) for w in diagram.walls) == \
        sorted(_wall_value(w, False) for w in other.walls)


@pytest.mark.parametrize("name", TYPES)
def test_theta_swaps(name):
    (fd, diagram), (swapped, other) = seeds(name)
    rng = random.Random(name)
    found = 0
    for _ in range(37):
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        z = tuple(F(rng.randint(-50, 50), rng.randint(7, 60)) for _ in "xy")
        terms = _theta_terms(fd, diagram, m, z)
        want = None if terms is None else {swap(e): c for e, c in terms.items()}
        assert _theta_terms(swapped, other, swap(m), swap(z)) == want, (m, z)
        found += terms is not None
    assert found >= 30


@pytest.mark.parametrize("name", TYPES)
def test_convexity_verdicts_swap(name):
    (fd, diagram), (swapped, other) = seeds(name)
    rng = random.Random(name)
    verdicts = []
    for _ in range(60):
        cycle = _random_polygon(rng)
        # the swap reverses orientation, so the image cycle runs backwards to stay ccw
        image = [swap(p) for p in reversed(cycle)]
        verdicts.append(is_blc_2d(fd, diagram, cycle).verdict)
        assert is_blc_2d(swapped, other, image).verdict == verdicts[-1], cycle
    assert False in verdicts
