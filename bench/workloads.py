"""The benchmark workloads: verdicts and cli.

A workload makes its inputs from the seed alone.  ``setup`` completes every
diagram it uses and generates its inputs, so each set-up starts with empty
program caches (the theta and alpha caches live on the diagrams).
``operations`` lists the timed operations of one round, each a thunk that
returns the operation's output.  ``check`` tests the outputs of a round and
returns (operation index or None, problem) pairs.

Every call into csd goes through a module attribute (``convexity.is_blc_2d``)
so that the tracer's wrappers see it.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import shutil
import tempfile
from fractions import Fraction

from csd import cli, convexity, scattering
from csd.geometry import convex_hull
from csd.lattice import FixedData

import checks

# name -> (exchange matrix, multipliers d)
TYPES = {
    "A2": ([[0, 1], [-1, 0]], [1, 1]),
    "B2": ([[0, 2], [-1, 0]], [1, 2]),
    "G2": ([[0, 3], [-1, 0]], [1, 3]),
    "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
    "W33": ([[0, 3], [-3, 0]], [1, 1]),
}

SMALL = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]
PRIMES = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157]


def _fd(name):
    exchange, d = TYPES[name]
    return FixedData.from_exchange(exchange, d)


def _generic_point(rng, angle):
    """A point (a/p1, b/p2) near direction ``angle``, at radius 1 to 4.

    p1, p2 are distinct primes above 100 and the numerators are nonzero and
    prime to them.  A wall normal or an exponent with entries below 100 then
    pairs with the point to a nonzero number, so the point lies on no wall
    and no ray traced from it in such a direction runs into the origin.
    Broken lines are invariant under scaling the endpoint, so the work of a
    theta function depends on the direction alone."""
    p1, p2 = rng.sample(PRIMES, 2)
    radius = rng.uniform(1, 4)

    def numerator(p, c):
        a = round(radius * c * p)
        return a + 1 if a % p == 0 else a
    return (Fraction(numerator(p1, math.cos(angle)), p1),
            Fraction(numerator(p2, math.sin(angle)), p2))


def _directions(rng, n):
    """n directions evenly spaced around the circle from a random start, so
    that every seed meets each chamber of a diagram about equally often."""
    start = rng.uniform(0, 2 * math.pi)
    return [start + 2 * math.pi * j / n for j in range(n)]


class Verdicts:
    """Polygon verdicts on warm diagrams, caches shared across the round.

    One operation runs ``is_blc_2d`` and then ``check_positive`` on one polygon,
    as ``main_theorem_harness`` does.  Polygons have 2-5 vertices on the
    half-integer grid of [-1, 1]^2, with the origin added to half of them; the
    vertex count and the origin flag cycle through all eight combinations on
    each diagram, so every seed gets the same mix.
    """

    DIAGRAMS = (("A2", 6), ("Kronecker", 6), ("G2", 8))
    # diagram of each successive operation: G2 takes half of the polygons,
    # so the median operation time falls inside G2's spread of times rather
    # than in the gap between two diagrams' spreads
    PATTERN = (0, 2, 1, 2)
    POLYGONS = 1024
    K = 6
    MAX_DEGREE = 3

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        diagrams = [(fd, scattering.complete_rank2(fd, order))
                    for fd, order in ((_fd(n), k) for n, k in self.DIAGRAMS)]
        rng = random.Random("verdicts:%d" % self.seed)
        polys = []
        made = [0] * len(diagrams)
        for i in range(self.POLYGONS):
            di = self.PATTERN[i % len(self.PATTERN)]
            j = made[di]
            made[di] += 1
            polys.append((di, self._polygon(rng, 2 + j % 4, (j // 4) % 2 == 0)))
        return {"diagrams": diagrams, "polygons": polys}

    @staticmethod
    def _polygon(rng, vertices, origin):
        pts = set()
        while len(pts) < vertices:
            x = Fraction(rng.randint(-1, 1), rng.choice((1, 1, 2)))
            y = Fraction(rng.randint(-1, 1), rng.choice((1, 1, 2)))
            pts.add((x, y))
        if origin:
            pts.add((Fraction(0), Fraction(0)))
        return convex_hull(pts)

    def operations(self, state):
        ops = []
        for di, cycle in state["polygons"]:
            fd, diagram = state["diagrams"][di]

            def op(fd=fd, diagram=diagram, cycle=cycle):
                blc = convexity.is_blc_2d(fd, diagram, cycle, self.K)
                pos = convexity.check_positive(fd, diagram, cycle, self.MAX_DEGREE, self.K)
                return blc, pos
            ops.append(("polygon", op))
        return ops

    def check(self, state, outputs):
        memo = {}
        found = []
        for i, ((di, cycle), out) in enumerate(zip(state["polygons"], outputs)):
            fd, diagram = state["diagrams"][di]
            for problem in checks.check_verdict(fd, diagram, cycle, out[0], out[1],
                                                self.K, self.MAX_DEGREE, memo):
                found.append((i, problem))
        return found

    def teardown(self, state):
        pass


def _area2(tri):
    (ax, ay), (bx, by), (cx, cy) = tri
    return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


# Triples of points of the integer grid [-1, 1]^2, smallest triangles first.
TRIPLES = sorted(itertools.combinations(
    [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)], 3), key=lambda t: (_area2(t), t))


def _strata(items, n):
    """items cut into n runs of nearly equal length."""
    return [items[len(items) * i // n:len(items) * (i + 1) // n] for i in range(n)]


class Cli:
    """``csd.cli.main`` in-process, every command reloading its diagram.

    Set-up builds one diagram file per type and writes the point files.  A
    round runs, in a seeded order, ``theta`` and ``multiply`` on every type,
    and ``hull`` followed by ``check-positive`` on the hull it wrote for the
    finite types.  Every (type, m) gets theta endpoints in six evenly spaced
    directions from a seeded start, run as two pairs in neighbouring
    directions so that the check can transport one to the other; every p
    meets two distinct random q in products; hull inputs are three grid points, one
    triple from each size class of triangles.  Every seed thus gets the same
    mix.
    """

    BUILDS = (("A2", 6, 3), ("B2", 6, 4), ("G2", 8, 6), ("Kronecker", 6, None))
    THETAS = 6             # per (type, m), in pairs
    PRODUCTS = 2           # per (type, p), plus the fixed G2 product below
    HULLS = 10             # per finite type
    G2_PRODUCT = {(0, 0): Fraction(1), (0, 3): Fraction(1)}

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        tmp = tempfile.mkdtemp(prefix="cli-", dir=self.workdir)
        rng = random.Random("cli:%d" % self.seed)
        built = {}
        for name, order, walls in self.BUILDS:
            exchange, d = TYPES[name]
            seed_path = os.path.join(tmp, "%s_seed.json" % name)
            with open(seed_path, "w") as fh:
                json.dump({"rank": 2, "unfrozen": [0, 1], "d": d,
                           "exchange": exchange, "principal": False}, fh)
            path = os.path.join(tmp, "%s.json" % name)
            code, out, err = self.run(["build", "--seed", seed_path,
                                       "--order", str(order), "--out", path])
            if code != 0:
                raise RuntimeError("build %s failed: %s" % (name, err))
            built[name] = path
        units = []
        for name, _, walls in self.BUILDS:
            path = built[name]
            for m in SMALL:
                zs = [_generic_point(rng, a) for a in _directions(rng, self.THETAS)]
                for z1, z2 in zip(zs[::2], zs[1::2]):
                    # the first command of a pair carries what the check
                    # needs; the second is checked with it
                    units.append([("theta", name, extra, [
                        "theta", "--diagram", path, "--direction", "%d,%d" % m,
                        "--endpoint", "%s,%s" % z])
                        for extra, z in (((m, z1, z2), z1), (None, z2))])
            for p, q in ((p, q) for p in SMALL for q in rng.sample(SMALL, self.PRODUCTS)):
                units.append([("multiply", name, None, [
                    "multiply", "--diagram", path, "-p", "%d,%d" % p, "-q", "%d,%d" % q])])
            if walls is None:
                continue
            for i, stratum in enumerate(_strata(TRIPLES, self.HULLS)):
                pts = list(rng.choice(stratum))
                pts_path = os.path.join(tmp, "%s_pts%d.json" % (name, i))
                hull_path = os.path.join(tmp, "%s_hull%d.json" % (name, i))
                with open(pts_path, "w") as fh:
                    json.dump([list(p) for p in pts], fh)
                units.append([
                    ("hull", name, (pts, hull_path), [
                        "hull", "--diagram", path, "--points", pts_path, "--out", hull_path]),
                    ("check-positive", name, None, [
                        "check-positive", "--diagram", path, "--polygon", hull_path,
                        "--max-degree", "2"])])
        units.append([("multiply", "G2", self.G2_PRODUCT, [
            "multiply", "--diagram", built["G2"], "-p", "1,0", "-q", "-1,0"])])
        rng.shuffle(units)
        return {"dir": tmp, "built": built, "commands": [c for u in units for c in u]}

    @staticmethod
    def run(argv):
        """(exit code, stdout, stderr) of one in-process CLI call."""
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(argv)
            except SystemExit as e:
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def operations(self, state):
        return [(kind, lambda argv=argv: self.run(argv))
                for kind, _, _, argv in state["commands"]]

    def check(self, state, outputs):
        found = []
        walls = {name: w for name, _, w in self.BUILDS}
        for name, path in state["built"].items():
            found += [(None, p) for p in checks.check_built(path, walls[name])]
        loaded = {}
        for name, path in state["built"].items():
            with open(path) as fh:
                loaded[name] = checks.diagram_from_json(json.load(fh))
        for i, ((kind, name, extra, argv), (code, out, err)) in enumerate(
                zip(state["commands"], outputs)):
            if code != 0:
                found.append((i, "%s exited %r: %s" % (" ".join(argv), code, err.strip())))
                continue
            if kind == "theta":
                problems = []
                if extra is not None:
                    m, z1, z2 = extra
                    problems = checks.check_cli_theta_pair(
                        loaded[name], m, z1, z2, out, outputs[i + 1][1])
            elif kind == "multiply":
                problems = checks.check_cli_multiply(out, extra)
            elif kind == "hull":
                pts, hull_path = extra
                problems = checks.check_cli_hull(loaded[name], pts, hull_path)
            else:
                problems = checks.check_cli_positive(out)
            found += [(i, p) for p in problems]
        return found

    def teardown(self, state):
        shutil.rmtree(state["dir"], ignore_errors=True)
