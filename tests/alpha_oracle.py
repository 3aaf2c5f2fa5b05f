"""Structure constants by their definition, for tests.

alpha(p, q, r) is the coefficient of z^r in theta_p * theta_q at a generic
endpoint z near r (GHKK, arXiv:1411.1394, section 6).  It needs no peel, no
leading-term test and no far endpoint.  Here z = r + (1/99991, 1/100003),
taken as generic near r.
"""

from fractions import Fraction

from csd.brokenline import theta
from csd.constructions import EXPANSION_ENDPOINT
from csd.series import lp_mul

NEAR = (Fraction(1, 99991), Fraction(1, 100003))


def alpha_by_definition(fd, diagram, p, q, r, K, thetas):
    """alpha(p, q, r) at order K; thetas caches theta_m at the endpoint near r."""
    z = (r[0] + NEAR[0], r[1] + NEAR[1])
    for m in (p, q):
        if (m, z) not in thetas:
            thetas[m, z] = theta(fd, diagram, m, z, K)
    return lp_mul(fd, thetas[p, z], thetas[q, z]).terms.get(r, 0)


def candidates(fd, diagram, p, q, K):
    """The exponents of theta_p * theta_q at the expansion endpoint: every r
    that can have alpha(p, q, r) != 0 at order K."""
    z0 = EXPANSION_ENDPOINT
    return lp_mul(fd, theta(fd, diagram, p, z0, K), theta(fd, diagram, q, z0, K)).terms
