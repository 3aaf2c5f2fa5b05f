"""Truncated series along a ray direction and truncated Laurent polynomials.

A WallFunction is f = 1 + sum_{k>=1} c_k z^{k*m0} with m0 a primitive lattice
direction.  A LaurentPoly keeps a base exponent; truncation drops terms whose
shift from the base exceeds the order in the adic grading.
"""

from fractions import Fraction

from .geometry import vadd, vsub, vscale, primitive
from .lattice import cone_order, n_circ_primitive, pairing


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
        if k == 0:
            return Fraction(1)
        if 1 <= k <= len(self.coeffs):
            return self.coeffs[k - 1]
        return Fraction(0)

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


def _conv(a, b, K):
    # coefficient lists with implicit leading 1
    out = [Fraction(0)] * K
    for k in range(1, K + 1):
        s = a[k - 1] if k <= len(a) else Fraction(0)
        s += b[k - 1] if k <= len(b) else Fraction(0)
        for j in range(1, k):
            ca = a[j - 1] if j <= len(a) else Fraction(0)
            cb = b[k - j - 1] if k - j <= len(b) else Fraction(0)
            s += ca * cb
        out[k - 1] = s
    return out


def wf_mul(a, b, K):
    if a.direction != b.direction:
        raise ValueError("direction mismatch")
    return WallFunction(a.direction, _conv(list(a.coeffs), list(b.coeffs), K), K)


def wf_pow(f, e, K):
    """Truncated integer power of f, negative powers included.

    Uses the first-order recurrence implied by f * (f^e)' = e * f' * f^e,
    which costs O(K * #terms(f)) instead of repeated convolution.
    """
    fs = f.terms()
    out = [Fraction(0)] * K

    def g(n):
        return Fraction(1) if n == 0 else out[n - 1]

    for n in range(1, K + 1):
        s = Fraction(0)
        for j, c in fs:
            if j > n:
                break
            s += ((e + 1) * j - n) * c * g(n - j)
        out[n - 1] = s / n
    return WallFunction(f.direction, out, K)


def wf_coeff_pow(f, e, k):
    """Single coefficient of z^{k*m0} in f^e without building the whole series.

    Bend checks can ask for very high orders; the one-term case is a plain
    binomial and stays cheap even then.
    """
    from math import comb
    if k == 0:
        return Fraction(1)
    ts = f.terms()
    if not ts:
        return Fraction(0)
    if len(ts) == 1:
        j, c = ts[0]
        if k % j:
            return Fraction(0)
        r = k // j
        if e >= 0:
            if r > e:
                return Fraction(0)
            return comb(e, r) * c ** r
        return Fraction((-1) ** r * comb(r - e - 1, r)) * c ** r
    return wf_pow(f, e, k).coeff(k)


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


def lp_truncate(fd, terms, base, order):
    kept = {}
    for e, c in terms.items():
        if c == 0:
            continue
        o = cone_order(fd, vsub(e, base))
        if o is None:
            raise ValueError("term %r escapes the truncation cone over base %r" % (e, base))
        if o <= order:
            kept[e] = c
    return LaurentPoly(kept, base, order)


def lp_add(fd, a, b):
    if a.base != b.base:
        raise ValueError("base mismatch in sum")
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, Fraction(0)) + c
    return lp_truncate(fd, terms, a.base, min(a.order, b.order))


def lp_scale(a, c):
    return LaurentPoly({e: v * c for e, v in a.terms.items()}, a.base, a.order)


def lp_mul(fd, a, b):
    base = vadd(a.base, b.base)
    order = min(a.order, b.order)
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = vadd(e1, e2)
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return lp_truncate(fd, terms, base, order)


def wall_cross(fd, p, f, n0, sign, K=None):
    """Apply the crossing automorphism z^m -> z^m * f^(sign * <n0', m>) termwise."""
    if K is None:
        K = p.order
    K = min(K, p.order)
    n0p = n_circ_primitive(fd, n0)
    step = cone_order(fd, f.direction)
    if step is None or step <= 0:
        raise ValueError("wall function direction outside the cone")
    out = {}
    for e, c in p.terms.items():
        pw = sign * pairing(fd, n0p, e)
        if pw.denominator != 1:
            raise ValueError("non-integral crossing exponent")
        used = cone_order(fd, vsub(e, p.base))
        budget = K - used
        kmax = int(budget / step)
        if pw == 0 or kmax < 1 or f.is_one():
            out[e] = out.get(e, Fraction(0)) + c
            continue
        g = wf_pow(f, int(pw), kmax)
        out[e] = out.get(e, Fraction(0)) + c
        for k, gc in g.terms():
            ee = vadd(e, vscale(k, f.direction))
            out[ee] = out.get(ee, Fraction(0)) + c * gc
    return lp_truncate(fd, out, p.base, K)
