"""Truncated series along a ray direction and truncated Laurent polynomials.

A WallFunction is f = 1 + sum_{k>=1} c_k z^{k*m0} with m0 a primitive lattice
direction.  A LaurentPoly keeps a base exponent; truncation drops terms whose
shift from the base exceeds the order in the adic grading.

Coefficients are ints: the wall functions, broken lines and structure
constants of a cluster scattering diagram have integer coefficients (GHKK,
arXiv:1411.1394).  WallFunction and LaurentPoly each have one constructor,
and it checks each coefficient that enters through _integer, the kernels'
results included; lp_truncate checks the terms it drops too.  The
tables of powers of f that the broken-line search and wall_cross read
(scattering._Family.power_terms) come from _pow_coeffs.
"""

from math import gcd
from numbers import Rational

from .geometry import vadd


def _integer(c):
    """The coefficient c as an int; a value that is not an integer raises ValueError."""
    if type(c) is int:
        return c
    if isinstance(c, Rational) and int(c) == c:
        return int(c)
    raise ValueError("coefficient must be an integer, got %r" % (c,))


def _lattice_vector(v, name):
    """The lattice vector v as a pair of ints; anything else, such as an entry
    that is not an integer, raises ValueError naming the field name."""
    try:
        x, y = v
        if type(x) is not int or type(y) is not int:
            x, y = _integer(x), _integer(y)
    except (TypeError, ValueError):
        raise ValueError("%s must be a pair of integers, got %r" % (name, v)) from None
    return x, y


def _int_at_least(v, lo, name):
    """Raises a ValueError naming the field name unless v is an int >= lo;
    a bool is not one."""
    if type(v) is not int or v < lo:
        raise ValueError("%s must be an int >= %d, got %r" % (name, lo, v))


def _check_order(K, default):
    """The truncation order K, or default when K is None; K must be None or an int >= 0."""
    if K is None:
        return default
    if type(K) is not int or K < 0:
        raise ValueError("K must be None or an int >= 0, got %r" % (K,))
    return K


class WallFunction:
    def __init__(self, direction, coeffs):
        direction = _lattice_vector(direction, "direction")
        if gcd(*direction) != 1:
            raise ValueError("direction must be primitive, got %r" % (direction,))
        cs = [c if type(c) is int else _integer(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.direction, self.coeffs = direction, tuple(cs)

    def coeff(self, k):
        if 1 <= k <= len(self.coeffs):
            return self.coeffs[k - 1]
        return 1 if k == 0 else 0

    def terms(self):
        """Nonzero terms (k, c_k) with k >= 1."""
        return [(k + 1, c) for k, c in enumerate(self.coeffs) if c != 0]

    def is_one(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, WallFunction)
                and self.direction == other.direction and self.coeffs == other.coeffs)

    def __repr__(self):
        return "WallFunction(%r, %r)" % (self.direction, list(self.coeffs))


def wf_mul(a, b, K):
    if a.direction != b.direction:
        raise ValueError("direction mismatch")
    x, y = ((1,) + f.coeffs + (0,) * K for f in (a, b))
    return WallFunction(a.direction, [sum(x[j] * y[k - j] for j in range(k + 1))
                                      for k in range(1, K + 1)])


def _pow_coeffs(f, e, K):
    """[b_0, ..., b_K]: the coefficients of f^e truncated at z^K.

    Uses the first-order recurrence implied by f * (f^e)' = e * f' * f^e,
    which costs O(K * #terms(f)) instead of repeated convolution: n * b_n = s
    with s a sum over the b_j before it.  Every division by n is exact.  f
    lies in 1 + z*Z[z], a unit of Z[[z]], so f^e has integer coefficients
    for every integer e; the recurrence fixes b_n, so s is n times that
    integer.
    """
    gs = f.terms()
    out = [1]
    for n in range(1, K + 1):
        s = 0
        for j, c in gs:
            if j > n:
                break
            s += ((e + 1) * j - n) * c * out[n - j]
        out.append(s // n)
    return out


def wf_pow(f, e, K):
    """Truncated integer power of f, negative powers included (see _pow_coeffs).

    Every caller in the engine passes an int e; an e of any other type,
    for which _pow_coeffs' division need not be exact, raises ValueError."""
    if type(e) is not int:
        raise ValueError("exponent must be an int, got %r" % (e,))
    return WallFunction(f.direction, _pow_coeffs(f, e, K)[1:])


class LaurentPoly:
    """Finite sum of c * z^exponent, truncated relative to a base exponent."""

    def __init__(self, terms, base, order):
        self.terms = {tuple(e): c if type(c) is int else _integer(c)
                      for e, c in terms.items() if c != 0}
        self.base = tuple(base)
        self.order = order

    @classmethod
    def monomial(cls, exponent, order):
        return cls({tuple(exponent): 1}, exponent, order)

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.terms == other.terms)

    def __repr__(self):
        return "LaurentPoly(%r)" % (self.terms,)

    def sorted_terms(self):
        return sorted(self.terms.items())


def monomial_text(c, e):
    """The term c * z^e as text, "c z^(x,y)", or "z^(x,y)" when c is 1."""
    return "%sz^(%d,%d)" % ("" if c == 1 else "%s " % (c,), e[0], e[1])


def _kept(fd, terms, base, order):
    """The nonzero terms whose shift from base has order at most order."""
    ux, uy, vx, vy, D = fd.order_form
    bx, by = base
    top = order * D
    kept = {}
    for e, n in terms.items():
        x, y = e[0] - bx, e[1] - by
        u, v = ux * x + uy * y, vx * x + vy * y
        if n and (u < 0 or v < 0):
            raise ValueError("term %r escapes the truncation cone over base %r" % (e, base))
        if n and u + v <= top:
            kept[e] = n
    return kept


def lp_truncate(fd, terms, base, order):
    """The LaurentPoly of the terms whose shift from base has order at most
    order; every coefficient must be an integer, the dropped ones too."""
    terms = {e: _integer(c) for e, c in terms.items()}
    return LaurentPoly(_kept(fd, terms, base, order), base, order)


def lp_mul(fd, a, b):
    terms = {}
    for (x1, y1), c1 in a.terms.items():
        for (x2, y2), c2 in b.terms.items():
            e = (x1 + x2, y1 + y2)
            terms[e] = terms.get(e, 0) + c1 * c2
    base, order = vadd(a.base, b.base), min(a.order, b.order)
    return LaurentPoly(_kept(fd, terms, base, order), base, order)


def wall_cross(fd, p, fam, sign):
    """Cross the walls of one half-line with the given sign: z^m -> z^m *
    f^(sign * <n0', m>) termwise, truncated at the order of p.

    fam is the half-line's scattering._Family: its primitive normal n0 in N°
    (kept scaled by L), direction m0 and product function f.  The powers of
    f come from fam.power_terms at the order numerator K * D of p, the key
    the broken-line search uses too, so a diagram's crossings and searches
    share one set of tables.  A term that needs f^pw only up to a lower
    order reads a prefix of that table.

    A family is built from the walls of a scattering.Diagram, which checks
    that its m0 lies in the cone of the monoid, and m0 is primitive, so
    nonzero.  So its cone coordinates cn and dn are >= 0, and cn + dn > 0
    because the order form is invertible: the divisor of kmax, the order
    numerator fam.order = cn + dn of m0, is positive.
    """
    K = p.order
    ux, uy, vx, vy, D = fd.order_form
    L = fd.L  # <n0', m> = (a . m) / L
    ax, ay = fam.a
    sx, sy = fam.m0
    m0_order = fam.order
    bx, by = p.base
    top = K * D
    out = {}
    for (x, y), n in p.terms.items():
        pw, r = divmod(sign * (ax * x + ay * y), L)
        if r:
            raise ValueError("non-integral crossing exponent")
        out[x, y] = out.get((x, y), 0) + n
        # the highest k whose shift k*m0 keeps the term within order K
        kmax = (top - (ux + vx) * (x - bx) - (uy + vy) * (y - by)) // m0_order
        if pw and kmax >= 1:
            for k, c in fam.power_terms(pw, top):
                if k > kmax:
                    break
                e = (x + k * sx, y + k * sy)
                out[e] = out.get(e, 0) + n * c
    return LaurentPoly(_kept(fd, out, p.base, K), p.base, K)
