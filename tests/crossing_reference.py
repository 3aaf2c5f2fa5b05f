"""Transport by crossing one wall at a time, for tests.

scattering.apply_loop and path_ordered_product cross each half-line once,
with the product function of its walls (scattering._Family).  These
references cross the walls themselves, one wall_cross per wall, in the
order the engine crossed them before it crossed families: the half-lines
in the order the loop or leg meets them, and the walls of one half-line in
diagram order.  Each crossing takes the sign -sgn <n, travel> of the wall's
own normal n and the direction of travel.
"""

from csd.geometry import rot90, vsub
from csd.lattice import pairing
from csd.scattering import Wall, leg_crossings, search_form, _Family
from csd.series import wall_cross


def sgn(x):
    """The sign of x: -1, 0 or 1."""
    return (x > 0) - (x < 0)


def one_wall_family(fd, f, n0):
    """The half-line family of one wall with function f and normal n0, the
    argument through which series.wall_cross crosses that wall alone."""
    return _Family(fd, (Wall(n0, "ray", f.direction, f),))


def _cross_walls(fd, p, walls, travel):
    for w in walls:
        p = wall_cross(fd, p, one_wall_family(fd, w.func, w.normal),
                       -sgn(pairing(fd, w.normal, travel)))
    return p


def loop_by_walls(fd, diagram, p):
    """apply_loop, one wall at a time."""
    form = search_form(fd, diagram)
    for h, fam in zip(form._halves, form.fams):
        p = _cross_walls(fd, p, fam.walls, rot90(h))
    return p


def path_by_walls(fd, diagram, path, p):
    """path_ordered_product, one wall at a time."""
    for a, b in zip(path, path[1:]):
        for fam in leg_crossings(fd, diagram, a, b):
            p = _cross_walls(fd, p, fam.walls, vsub(b, a))
    return p
