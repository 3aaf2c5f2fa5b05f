"""Rank-2 cluster fixed data: lattices and pairings.

Coordinate conventions: elements of N are integer vectors in the seed basis
(e_0, e_1); elements of the dual M-degree lattice are integer vectors in the
f-basis (f_i = e_i^* / d_i), so <n, m> = n_0 m_0 / d_0 + n_1 m_1 / d_1.  The
skew form is {e_0, e_1} = s and the exchange matrix is
eps[i][j] = {e_i, e_j} * d_j = [[0, s d_1], [-s d_0, 0]].
"""

from fractions import Fraction
from math import gcd, lcm

from .geometry import primitive, is_zero, cross


def _integers(values):
    """The entries of values as a tuple of ints, or None when values is not
    iterable or an entry is not a whole number: 1.5, Fraction(3, 2), "1"
    and None are none, and a whole float such as 2.0 is one."""
    try:
        vs = tuple(values)
        out = tuple(int(x) for x in vs)
    except (TypeError, ValueError, OverflowError):
        return None
    return out if out == vs else None


class FixedData:
    """Cluster fixed data of rank 2 with both indices unfrozen: (exchange, d).

    Holds integers only: the multipliers d (positive, gcd 1), the exchange
    matrix, the skew form s = {e_0, e_1} (a nonzero integer, since s*d_1 and
    s*d_0 are integers and gcd(d) = 1), L = lcm(d), the monoid generators
    g1 = p1_star(e_0), g2 = p1_star(e_1) and their order form.  Anything
    else is rejected here: a matrix that is not 2x2 or not integral,
    multipliers that are not a pair of integers, a non-antisymmetric or a
    degenerate skew form.  Seed files name the rank and the unfrozen
    indices too; serialize.fd_from_json checks those fields.  Two fixed
    data are equal when their exchange matrices and multipliers are.

    The order form (ux, uy, vx, vy, D) gives the cone coordinates as
    integers: m has cone coordinates (u/D, v/D) with u = ux*m0 + uy*m1 and
    v = vx*m0 + vy*m1, and D = |cross(g1, g2)| > 0.  So m lies in the cone
    when u, v >= 0, and its cone_order is (u + v)/D.
    """

    def __init__(self, exchange, d):
        try:
            square = len(exchange) == 2 and all(len(row) == 2 for row in exchange)
        except TypeError:
            raise ValueError("exchange must be a 2x2 matrix, got %r" % (exchange,))
        if not square:
            raise ValueError("rank-2 construction only: exchange must be a 2x2 "
                             "matrix, got rank %r" % (len(exchange),))
        rows = tuple(_integers(row) for row in exchange)
        if None in rows:
            raise ValueError("exchange entries must be integers, got %r" % (exchange,))
        self.exchange = rows
        self.d = _integers(d)
        if self.d is None or len(self.d) != 2:
            raise ValueError("d must be a pair of integers, got %r" % (d,))
        d0, d1 = self.d
        if min(d0, d1) < 1 or gcd(d0, d1) != 1:
            raise ValueError("multipliers d_i must be positive with gcd 1, got %r" % (self.d,))
        (e00, e01), (e10, e11) = self.exchange
        if e00 or e11 or e01 * d0 != -e10 * d1:
            raise ValueError("skew form is not antisymmetric")
        if e01 == 0:
            raise ValueError("degenerate skew form: the dual map is not injective")
        self.s = e01 // d1
        # b*c with b = |exchange[0][1]| and c = |exchange[1][0]|
        self.bc = -e01 * e10
        self.L = lcm(d0, d1)
        self.monoid_gens = p1_star(self, (1, 0)), p1_star(self, (0, 1))
        (ax, ay), (bx, by) = self.monoid_gens
        det = ax * by - ay * bx
        sign = 1 if det > 0 else -1
        self.order_form = sign * by, -sign * bx, -sign * ay, sign * ax, abs(det)

    def is_finite_type(self):
        """Whether the cluster algebra has finitely many clusters: bc <= 3, that
        is A2 (bc = 1), B2 (2) or G2 (3), in either orientation."""
        return self.bc <= 3

    @classmethod
    def from_exchange(cls, exchange, d):
        """The same as FixedData(exchange, d)."""
        return cls(exchange, d)

    def __eq__(self, other):
        return (isinstance(other, FixedData)
                and (self.exchange, self.d) == (other.exchange, other.d))

    def __hash__(self):
        return hash((self.exchange, self.d))

    def __repr__(self):
        return "FixedData(exchange=%r, d=%r)" % (self.exchange, self.d)


# the number of clusters of each finite type, by bc: A2, B2 and G2
CLUSTERS = {1: 5, 2: 6, 3: 8}


def pairing(fd, n, m):
    """Dual pairing <n, m> with n in N-coordinates and m in f-basis coordinates."""
    if len(n) != 2 or len(m) != 2:
        raise ValueError("dimension mismatch")
    d0, d1 = fd.d
    return Fraction(n[0] * m[0] * d1 + n[1] * m[1] * d0, d0 * d1)


def scaled_normal(fd, n):
    """The integer vector a with <n, m> = (a . m) / fd.L for every m."""
    return n[0] * (fd.L // fd.d[0]), n[1] * (fd.L // fd.d[1])


def skew_form(fd, n1, n2):
    return fd.s * cross(n1, n2)


def p1_star(fd, n):
    """The image {n, .} in the f-basis."""
    (_, e01), (e10, _) = fd.exchange
    return e10 * n[1], e01 * n[0]


def line_dir(fd, n):
    """Primitive direction of the line {m : <n, m> = 0} in f-basis coordinates."""
    return primitive((-n[1] * fd.d[0], n[0] * fd.d[1]))


def dual_perp(fd, v):
    """Primitive n with <n, v> = 0 (wall normal of the line containing v)."""
    return primitive((fd.d[0] * v[1], -fd.d[1] * v[0]))


def n_circ_primitive(fd, n):
    """Primitive generator of the ray through n inside the rescaled lattice N°."""
    if is_zero(n):
        raise ValueError("zero normal")
    x, y = primitive(n)
    d0, d1 = fd.d
    k = lcm(d0 // gcd(x, d0), d1 // gcd(y, d1))
    return k * x, k * y


def solve_linear(cols, target):
    """Solve a*cols[0] + b*cols[1] = target by Cramer's rule.

    Returns (a, b) as Fractions, or None when the columns are dependent.
    """
    det = cross(cols[0], cols[1])
    if det == 0:
        return None
    return Fraction(cross(target, cols[1]), det), Fraction(cross(cols[0], target), det)


def cone_order(fd, m):
    """Rational grading order of m in the cone spanned by the monoid generators.

    None when m is outside the cone.  Additive and positive on the nonzero
    part of the cone, which is all the truncation bookkeeping needs.
    """
    ux, uy, vx, vy, D = fd.order_form
    u, v = ux * m[0] + uy * m[1], vx * m[0] + vy * m[1]
    if u < 0 or v < 0:
        return None
    return Fraction(u + v, D)
