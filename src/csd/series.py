"""Truncated series along a ray direction and truncated Laurent polynomials.

A WallFunction is f = 1 + sum_{k>=1} c_k z^{k*m0} with m0 a primitive lattice
direction.  A LaurentPoly keeps a base exponent; truncation drops terms whose
shift from the base exceeds the order in the adic grading.  Truncation, sums,
products, crossings and powers run on integer numerators; the terms of a
WallFunction or LaurentPoly stay Fractions.  The broken-line search takes
its tables of powers of f from _pow_numerators, as integer numerators.
"""

from fractions import Fraction
from math import comb, lcm

from .geometry import vadd, primitive
from .lattice import n_circ_primitive, order_form, scaled_normal


class WallFunction:
    def __init__(self, direction, coeffs, order=None):
        self.direction = tuple(int(x) for x in direction)
        if self.direction != primitive(self.direction):
            raise ValueError("direction must be primitive")
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.order = order

    def coeff(self, k):
        if 1 <= k <= len(self.coeffs):
            return self.coeffs[k - 1]
        return Fraction(1 if k == 0 else 0)

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
    x, y = ((Fraction(1),) + f.coeffs + (Fraction(0),) * K for f in (a, b))
    return WallFunction(a.direction, [sum(x[j] * y[k - j] for j in range(k + 1))
                                      for k in range(1, K + 1)], K)


def _pow_numerators(f, e, K):
    """(D, [b_0, ..., b_K]): f^e truncated at z^K has coefficient b_n / D^n.

    Uses the first-order recurrence implied by f * (f^e)' = e * f' * f^e,
    which costs O(K * #terms(f)) instead of repeated convolution.  It runs on
    g(z) = f(D z), D the lcm of f's coefficient denominators: g has integer
    coefficients and constant term 1, so each coefficient b_n of g^e is an
    integer and every division by n is exact.
    """
    D = lcm(*(c.denominator for c in f.coeffs))
    gs = [(j, c.numerator * (D // c.denominator) * D ** (j - 1)) for j, c in f.terms()]
    out = [1]
    for n in range(1, K + 1):
        s = 0
        for j, c in gs:
            if j > n:
                break
            s += ((e + 1) * j - n) * c * out[n - j]
        b, r = divmod(s, n)
        if r:
            raise ArithmeticError("wf_pow: inexact division at order %d" % n)
        out.append(b)
    return D, out


def wf_pow(f, e, K):
    """Truncated integer power of f, negative powers included (see _pow_numerators)."""
    D, out = _pow_numerators(f, e, K)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    g = object.__new__(WallFunction)  # f's direction is already checked
    g.direction, g.order = f.direction, K
    if D == 1:
        g.coeffs = tuple(Fraction(b) for b in out[1:])
    else:
        g.coeffs = tuple(Fraction(b, D ** n) for n, b in enumerate(out) if n)
    return g


def wf_coeff_pow(f, e, k):
    """Single coefficient of z^{k*m0} in f^e; the one-term case is a binomial,
    cheap even at the very high orders bend checks can ask for."""
    ts = f.terms()
    if k == 0:
        return Fraction(1)
    if len(ts) > 1:
        return wf_pow(f, e, k).coeff(k)
    r, rest = divmod(k, ts[0][0]) if ts else (0, 1)
    if rest or 0 <= e < r:
        return Fraction(0)
    c = ts[0][1] ** r
    return comb(e, r) * c if e >= 0 else Fraction((-1) ** r * comb(r - e - 1, r)) * c


class LaurentPoly:
    """Finite sum of c * z^exponent, truncated relative to a base exponent."""

    def __init__(self, terms, base, order):
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c != 0}
        self.base = tuple(base)
        self.order = order

    @classmethod
    def monomial(cls, exponent, order, coeff=1):
        return cls({tuple(exponent): Fraction(coeff)}, exponent, order)

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.terms == other.terms)

    def __repr__(self):
        return "LaurentPoly(%r)" % (self.terms,)

    def sorted_terms(self):
        return sorted(self.terms.items())


def _kept(fd, nums, base, order):
    """The nonzero terms of nums whose shift from base has order at most order."""
    ux, uy, vx, vy, D = order_form(fd)
    bx, by = base
    top = order * D
    kept = {}
    for e, n in nums.items():
        x, y = e[0] - bx, e[1] - by
        u, v = ux * x + uy * y, vx * x + vy * y
        if n and (u < 0 or v < 0):
            raise ValueError("term %r escapes the truncation cone over base %r" % (e, base))
        if n and u + v <= top:
            kept[e] = n
    return kept


def _scaled(*parts):
    """(D, numerators) of the sum of term dicts, over their lcm denominator D."""
    D = lcm(*(c.denominator for t in parts for c in t.values()))
    nums = {}
    for t in parts:
        for e, c in t.items():
            nums[e] = nums.get(e, 0) + c.numerator * (D // c.denominator)
    return D, nums


def _truncated(fd, D, nums, base, order):
    """The LaurentPoly of the terms n / D whose shift from base has order at most order."""
    p = LaurentPoly({}, base, order)
    p.terms = {e: Fraction(n, D) for e, n in _kept(fd, nums, base, order).items()}
    return p


def lp_truncate(fd, terms, base, order):
    return _truncated(fd, *_scaled(terms), base, order)


def lp_add(fd, a, b):
    if a.base != b.base:
        raise ValueError("base mismatch in sum")
    return _truncated(fd, *_scaled(a.terms, b.terms), a.base, min(a.order, b.order))


def lp_scale(a, c):
    return LaurentPoly({e: v * c for e, v in a.terms.items()}, a.base, a.order)


def lp_mul(fd, a, b):
    """Product on integer numerators, divided once by both denominators."""
    (da, na), (db, nb) = _scaled(a.terms), _scaled(b.terms)
    terms = {}
    for (x1, y1), c1 in na.items():
        for (x2, y2), c2 in nb.items():
            e = (x1 + x2, y1 + y2)
            terms[e] = terms.get(e, 0) + c1 * c2
    base, order = vadd(a.base, b.base), min(a.order, b.order)
    return _truncated(fd, da * db, terms, base, order)


def wall_cross(fd, p, f, n0, sign, K=None):
    """Apply the crossing automorphism z^m -> z^m * f^(sign * <n0', m>) termwise."""
    K = p.order if K is None else min(K, p.order)
    ux, uy, vx, vy, D = order_form(fd)
    sx, sy = f.direction
    su, sv = ux * sx + uy * sy, vx * sx + vy * sy
    if su < 0 or sv < 0 or su + sv == 0:
        raise ValueError("wall function direction outside the cone")
    L = fd.L  # <n0', m> = (a . m) / L
    ax, ay = scaled_normal(fd, n_circ_primitive(fd, n0))
    bx, by = p.base
    Dp, nums = _scaled(p.terms)
    steps = []
    kmaxes = {}  # power of f -> the highest order a term needs it to
    for (ex, ey), n in nums.items():
        pw, r = divmod(sign * (ax * ex + ay * ey), L)
        if r:
            raise ValueError("non-integral crossing exponent")
        x, y = ex - bx, ey - by
        kmax = (K * D - (ux + vx) * x - (uy + vy) * y) // (su + sv)
        if pw and kmax >= 1 and not f.is_one():
            kmaxes[pw] = max(kmax, kmaxes.get(pw, 0))
        steps.append((ex, ey, n, pw, kmax))
    # one wf_pow per power: a lower truncation of f^pw is a prefix of the highest
    powers = {pw: wf_pow(f, pw, kmax).terms() for pw, kmax in kmaxes.items()}
    Dg = lcm(*(c.denominator for g in powers.values() for _, c in g))
    out = {}
    for x, y, n, pw, kmax in steps:
        out[x, y] = out.get((x, y), 0) + n * Dg
        for k, c in powers.get(pw, ()):
            if k > kmax:
                break
            e = (x + k * sx, y + k * sy)
            out[e] = out.get(e, 0) + n * c.numerator * (Dg // c.denominator)
    return _truncated(fd, Dp * Dg, out, p.base, K)
