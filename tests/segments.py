"""Bounded segments cut from enumerated broken lines, for tests.

A broken line from enumerate_lines runs from infinity to its endpoint; its
bounded part, from the first bend to the endpoint, is a Segment that
validate_segment must accept and pair_from_segment can split.
"""

from fractions import Fraction

from csd.brokenline import Piece, Segment
from csd.geometry import vsub, is_zero


def line_bounded_segment(fd, line):
    """The bounded part of a broken line as a Segment (first bend to endpoint)."""
    bounded = line.pieces[1:]
    if not bounded:
        raise ValueError("straight line has no bounded part")
    start = line.pieces[0].bend_point
    pts = [p.bend_point for p in bounded[:-1]] + [line.endpoint]
    pieces = []
    pos = start
    total = Fraction(0)
    for p, nxt in zip(bounded, pts):
        d = vsub(pos, nxt)
        if is_zero(d):
            dt = None
        else:
            m = p.exponent
            i = 0 if m[0] != 0 else 1
            dt = Fraction(d[i], m[i])
            total += dt
        pieces.append(Piece(p.exponent, p.coeff, None, dt))
        pos = nxt
    return Segment(start, line.endpoint, pieces, total)
