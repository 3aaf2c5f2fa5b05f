"""Cluster fixed data: lattices, pairings, seeds, principal coefficients.

Coordinate conventions: elements of N are integer vectors in the seed basis
(e_i); elements of the dual M-degree lattice are integer vectors in the
f-basis (f_i = e_i^* / d_i).  The exchange matrix is eps[i][j] = skew(e_i, e_j) * d_j.
"""

from fractions import Fraction
from math import gcd, lcm

from .geometry import primitive, is_zero, cross


class Seed:
    """A basis of N; the identity in the standard chart."""

    def __init__(self, basis):
        self.basis = tuple(tuple(int(x) for x in row) for row in basis)

    @classmethod
    def identity(cls, rank):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)))

    def __eq__(self, other):
        return isinstance(other, Seed) and self.basis == other.basis

    def __repr__(self):
        return "Seed(%r)" % (self.basis,)


class FixedData:
    """Lattice data: rank, unfrozen indices, skew form, multipliers d_i.

    monoid_gens default to {p1_star(e_i) : i unfrozen}; a larger user-supplied
    cone changes j_order.
    """

    def __init__(self, rank, unfrozen, skew, d, monoid_gens=None):
        self.rank = rank
        self.unfrozen = tuple(unfrozen)
        self.skew = tuple(tuple(Fraction(x) for x in row) for row in skew)
        self.d = tuple(int(x) for x in d)
        if gcd(*self.d) != 1 and len(self.d) > 1:
            raise ValueError("multipliers d_i must have gcd 1")
        for i in range(rank):
            for j in range(rank):
                if self.skew[i][j] != -self.skew[j][i]:
                    raise ValueError("skew form is not antisymmetric")
        if monoid_gens is None:
            monoid_gens = [p1_star(self, unit(rank, i)) for i in self.unfrozen]
        self.monoid_gens = tuple(tuple(int(x) for x in g) for g in monoid_gens)

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
    """The image {n, .} in the f-basis; n must be supported on unfrozen indices."""
    for i in range(fd.rank):
        if n[i] != 0 and i not in fd.unfrozen:
            raise ValueError("n has frozen components")
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


def with_principal_coefficients(fd, seed=None):
    """Double the rank: new lattice N + M-degree-lattice with the standard extension."""
    r = fd.rank
    skew = [[Fraction(0)] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        for j in range(r):
            skew[i][j] = fd.skew[i][j]
    for i in range(r):
        for j in range(r):
            # <e_i, f_j> = delta_ij / d_j
            v = Fraction(1, fd.d[j]) if i == j else Fraction(0)
            skew[i][r + j] = v
            skew[r + j][i] = -v
    new = FixedData(2 * r, fd.unfrozen, skew, fd.d + fd.d)
    return new, Seed.identity(2 * r)


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


def cone_coords(fd, m):
    """Coordinates of m in the basis of the two monoid generators.

    Cramer's rule: two cross products over the generators' determinant.
    """
    if fd.rank != 2 or len(fd.monoid_gens) != 2:
        raise ValueError("cone coordinates need two monoid generators in rank 2")
    g1, g2 = fd.monoid_gens
    det = cross(g1, g2)
    if det == 0:
        raise ValueError("monoid generators are linearly dependent")
    return Fraction(cross(m, g2), det), Fraction(cross(g1, m), det)


def order_form(fd):
    """Integer form of the cone coordinates: (ux, uy, vx, vy, D).

    m has cone coordinates (u/D, v/D) with u = ux*m0 + uy*m1 and
    v = vx*m0 + vy*m1, and D = |cross(g1, g2)| > 0.  So m lies in the cone
    when u, v >= 0, and its cone_order is (u + v)/D.
    """
    if fd.rank != 2 or len(fd.monoid_gens) != 2:
        raise ValueError("cone coordinates need two monoid generators in rank 2")
    (ax, ay), (bx, by) = fd.monoid_gens
    det = ax * by - ay * bx
    if det == 0:
        raise ValueError("monoid generators are linearly dependent")
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


def j_order(fd, m):
    """Monomial-ideal adic order: sum of generator exponents, or None outside the monoid."""
    co = cone_coords(fd, m)
    if any(a < 0 or a.denominator != 1 for a in co):
        return None
    return int(sum(co))
