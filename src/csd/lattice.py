"""Cluster fixed data: lattices and pairings.

Coordinate conventions: elements of N are integer vectors in the seed basis
(e_i); elements of the dual M-degree lattice are integer vectors in the
f-basis (f_i = e_i^* / d_i).  The exchange matrix is eps[i][j] = skew(e_i, e_j) * d_j.
"""

from fractions import Fraction
from math import gcd, lcm

from .geometry import primitive, is_zero, cross


class FixedData:
    """Lattice data: rank, unfrozen indices, skew form, multipliers d_i.

    The engine works in rank 2 with both indices unfrozen and a
    non-degenerate antisymmetric skew form; any other data is rejected here.
    The monoid generators are {p1_star(e_i) : i unfrozen}.
    """

    def __init__(self, rank, unfrozen, skew, d):
        if rank != 2:
            raise ValueError("rank-2 construction only: exchange must be a 2x2 "
                             "matrix, got rank %r" % (rank,))
        self.rank = rank
        self.unfrozen = tuple(unfrozen)
        self.skew = tuple(tuple(Fraction(x) for x in row) for row in skew)
        self.d = tuple(int(x) for x in d)
        if gcd(*self.d) != 1:
            raise ValueError("multipliers d_i must have gcd 1")
        for i in range(rank):
            for j in range(rank):
                if self.skew[i][j] != -self.skew[j][i]:
                    raise ValueError("skew form is not antisymmetric")
        if self.unfrozen != (0, 1):
            raise ValueError("unfrozen must be [0, 1], got %r: the rank-2 engine "
                             "needs both indices unfrozen" % (list(self.unfrozen),))
        rows = self.exchange
        if cross(rows[0], rows[1]) == 0:
            raise ValueError("degenerate skew form: the dual map is not injective")
        self.monoid_gens = tuple(p1_star(self, unit(rank, i)) for i in self.unfrozen)

    @classmethod
    def from_exchange(cls, exchange, d, unfrozen=None):
        rank = len(exchange)
        if unfrozen is None:
            unfrozen = range(rank)
        skew = [[Fraction(exchange[i][j], d[j]) for j in range(rank)] for i in range(rank)]
        return cls(rank, unfrozen, skew, d)

    @property
    def exchange(self):
        return tuple(tuple(self.skew[i][j] * self.d[j] for j in range(self.rank))
                     for i in range(self.rank))

    def __repr__(self):
        return "FixedData(rank=%d, d=%r)" % (self.rank, self.d)


def unit(rank, i):
    return tuple(1 if j == i else 0 for j in range(rank))


def pairing(fd, n, m):
    """Dual pairing <n, m> with n in N-coordinates and m in f-basis coordinates."""
    if len(n) != fd.rank or len(m) != fd.rank:
        raise ValueError("dimension mismatch")
    return sum(Fraction(n[i]) * Fraction(m[i]) / fd.d[i] for i in range(fd.rank))


def skew_form(fd, n1, n2):
    return sum(Fraction(n1[i]) * fd.skew[i][j] * Fraction(n2[j])
               for i in range(fd.rank) for j in range(fd.rank))


def p1_star(fd, n):
    """The image {n, .} in the f-basis."""
    out = []
    for j in range(fd.rank):
        v = sum(Fraction(n[i]) * fd.skew[i][j] * fd.d[j] for i in range(fd.rank))
        if v.denominator != 1:
            raise ValueError("skew form does not map N_uf into the dual lattice")
        out.append(int(v))
    return tuple(out)


def n_circ_primitive(fd, n):
    """Primitive generator of the ray through n inside the rescaled lattice N°."""
    if is_zero(n):
        raise ValueError("zero normal")
    np = primitive(n)
    k = 1
    for i in range(fd.rank):
        k = lcm(k, fd.d[i] // gcd(abs(np[i]), fd.d[i]))
    return tuple(k * x for x in np)


def solve_linear(cols, target):
    """Solve sum_i a_i * cols[i] = target exactly; returns Fractions or None."""
    rows = len(target)
    k = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])]
           for i in range(rows)]
    piv = []
    r = 0
    for c in range(k):
        p = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        pr = aug[r]
        pr[:] = [x / pr[c] for x in pr]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], pr)]
        piv.append(c)
        r += 1
    sol = [Fraction(0)] * k
    for i, c in enumerate(piv):
        sol[c] = aug[i][-1]
    # consistency check
    for i in range(rows):
        if sum(sol[j] * cols[j][i] for j in range(k)) != target[i]:
            return None
    return tuple(sol)


def order_form(fd):
    """Integer form of the cone coordinates: (ux, uy, vx, vy, D).

    m has cone coordinates (u/D, v/D) with u = ux*m0 + uy*m1 and
    v = vx*m0 + vy*m1, and D = |cross(g1, g2)| > 0.  So m lies in the cone
    when u, v >= 0, and its cone_order is (u + v)/D.
    """
    (ax, ay), (bx, by) = fd.monoid_gens
    det = ax * by - ay * bx
    s = 1 if det > 0 else -1
    return s * by, -s * bx, -s * ay, s * ax, abs(det)


def cone_order(fd, m):
    """Rational grading order of m in the cone spanned by the monoid generators.

    None when m is outside the cone.  Additive and positive on the nonzero
    part of the cone, which is all the truncation bookkeeping needs.
    """
    ux, uy, vx, vy, D = order_form(fd)
    u, v = ux * m[0] + uy * m[1], vx * m[0] + vy * m[1]
    if u < 0 or v < 0:
        return None
    return Fraction(u + v, D)
