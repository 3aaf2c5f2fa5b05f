"""Command-line front-end: build/query diagrams, JSON artifacts, SVG figures.

Exit codes: 0 success, 1 check command with a false verdict (witness printed),
2 input or usage errors.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import serialize
from .serialize import frac_to_str
from .scattering import complete_rank2
from .brokenline import theta, theta_of_lines, enumerate_lines
from .constructions import alpha_table, glue_balanced, pair_from_segment
from .convexity import blc_hull_2d, check_positive, main_theorem_harness
from .svg import render_svg


def _vec(s):
    """argparse type: an integer vector 'x,y'."""
    try:
        x, y = (int(p) for p in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected integers 'x,y', got %r" % s)
    return x, y


def _fraction(s):
    """argparse type: a rational number such as '5/2'."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a rational number, got %r" % s)


def _point(s):
    """argparse type: a rational point 'x,y'."""
    parts = s.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'x,y', got %r" % s)
    return tuple(_fraction(p) for p in parts)


def _int_at_least(lo):
    """argparse type: an integer no smaller than lo."""
    def parse(s):
        try:
            v = int(s)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer, got %r" % s)
        if v < lo:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (lo, v))
        return v
    return parse


def _fmt_point(p):
    return "(%s)" % ",".join(frac_to_str(c) for c in p)


def _fmt_poly(lp):
    parts = []
    for e, c in lp.sorted_terms():
        cs = "" if c == 1 else "%s " % frac_to_str(c)
        parts.append("%sz^(%d,%d)" % (cs, e[0], e[1]))
    return " + ".join(parts) if parts else "0"


def _load_diagram(path):
    return serialize.diagram_from_json(serialize.load(path))


def _load_points(path, flag):
    """A nonempty point list from the file given with flag; errors name the flag."""
    try:
        pts = serialize.points_from_json(serialize.load(path))
    except ValueError as e:
        raise ValueError("%s: %s" % (flag, e))
    if not pts:
        raise ValueError("%s lists no points" % flag)
    return pts


def cmd_build(args):
    fd = serialize.fd_from_json(serialize.load(args.seed))
    diagram = complete_rank2(fd, args.order)
    doc = serialize.diagram_to_json(diagram)
    if args.out:
        serialize.save(args.out, doc)
    print("walls: %d  order: %d  saturated: %s"
          % (len(diagram.walls), diagram.order, diagram.saturated))
    return 0


def cmd_theta(args):
    d = _load_diagram(args.diagram)
    K = d.order if args.order is None else args.order
    m, z = args.direction, args.endpoint
    if not args.out or m == (0, 0):
        # theta_0 = 1 prints before the search below rejects the zero exponent
        print(_fmt_poly(theta(d.fd, d, m, z, K)))
    if args.out:
        lines = enumerate_lines(d.fd, d, m, z, K)
        print(_fmt_poly(theta_of_lines(m, lines, K)))
        serialize.save(args.out, [serialize.brokenline_to_json(l) for l in lines])
    return 0


def cmd_multiply(args):
    d = _load_diagram(args.diagram)
    K = d.order if args.order is None else args.order
    table = alpha_table(d.fd, d, args.p, args.q, K)
    for r in sorted(table):
        if table[r] != 0:
            print("r=%s: %s" % (_fmt_point(r), frac_to_str(table[r])))
    return 0


def cmd_segment_from_pair(args):
    d = _load_diagram(args.diagram)
    pair = serialize.pair_from_json(serialize.load(args.pair))
    seg = glue_balanced(d.fd, d, pair, args.a, args.b)
    print("segment %s -> %s  T=%s" % (_fmt_point(seg.start), _fmt_point(seg.end),
                                      frac_to_str(seg.total_time)))
    if args.out:
        serialize.save(args.out, serialize.segment_to_json(seg))
    return 0


def cmd_pair_from_segment(args):
    d = _load_diagram(args.diagram)
    seg = serialize.segment_from_json(serialize.load(args.segment))
    pair, trace = pair_from_segment(d.fd, d, seg, args.tau, args.a, args.b)
    print("a=%d b=%d base=%s" % (trace.a, trace.b, _fmt_point(pair.base)))
    if args.out:
        serialize.save(args.out, serialize.pair_to_json(pair))
    return 0


def cmd_hull(args):
    d = _load_diagram(args.diagram)
    pts = _load_points(args.points, "--points")
    hull, flagged = blc_hull_2d(d.fd, d, pts)
    for p in hull:
        print(_fmt_point(p))
    if flagged:
        print("warning: chart set did not close; hull is a lower bound",
              file=sys.stderr)
    if args.out:
        serialize.save(args.out, serialize.points_to_json(hull))
    return 0


def cmd_check_positive(args):
    d = _load_diagram(args.diagram)
    poly = _load_points(args.polygon, "--polygon")
    K = d.order if args.order is None else args.order
    rep = check_positive(d.fd, d, poly, args.max_degree, K)
    print("verdict: %s  (max_degree=%d, order=%d)"
          % (rep.verdict, args.max_degree, K))
    for w in rep.witnesses:
        print(_witness_json(w))
    return 0 if rep.verdict else 1


def _witness_json(w):
    """A positivity witness as one JSON line: points as lists, the structure
    constant alpha as a rational string, the degrees a and b as numbers."""
    return json.dumps({k: (serialize.point_to_json(v) if isinstance(v, tuple)
                           else frac_to_str(v) if k == "alpha" else v)
                       for k, v in w.items()}, sort_keys=True)


def cmd_harness(args):
    d = _load_diagram(args.diagram)
    K = d.order if args.order is None else args.order
    rep = main_theorem_harness(d.fd, d, args.trials, max_degree=args.max_degree,
                               K=K, perturb_seed=args.perturb_seed)
    print("trials=%d agree=%d skipped_unknown=%d certified_beyond_bound=%d "
          "disagreements=%d" % (rep["trials"], rep["agree"], rep["skipped_unknown"],
                                rep["certified_beyond_bound"],
                                len(rep["disagreements"])))
    for dis in rep["disagreements"]:
        print(json.dumps({"polygon": serialize.points_to_json(dis["polygon"]),
                          "is_blc": dis["is_blc"], "positive": dis["positive"]},
                         sort_keys=True))
    return 1 if rep["disagreements"] else 0


def cmd_render(args):
    d = _load_diagram(args.diagram)
    lines = []
    if args.broken_lines:
        lines = [serialize.brokenline_from_json(x)
                 for x in serialize.load(args.broken_lines)]
    segments = []
    if args.segment:
        segments = [serialize.segment_from_json(serialize.load(args.segment))]
    polygons = []
    if args.polygon:
        polygons = [serialize.points_from_json(serialize.load(args.polygon))]
    doc = render_svg(d, lines, segments, polygons)
    with open(args.out, "w") as fh:
        fh.write(doc)
    print("wrote %s" % args.out)
    return 0


@functools.cache
def _parser():
    """The argument parser and its subcommand parsers by name, built once per
    process: parse_args leaves them unchanged."""
    p = argparse.ArgumentParser(prog="csd",
                                description="rank-2 scattering diagram toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="complete a diagram from a seed")
    b.add_argument("--seed", required=True)
    b.add_argument("--order", type=_int_at_least(0), required=True)
    b.add_argument("--out")
    b.set_defaults(fn=cmd_build)

    t = sub.add_parser("theta", help="theta function by broken-line enumeration")
    t.add_argument("--diagram", required=True)
    t.add_argument("--direction", type=_vec, required=True)
    t.add_argument("--endpoint", type=_point, required=True)
    t.add_argument("--order", type=_int_at_least(0))
    t.add_argument("--out")
    t.set_defaults(fn=cmd_theta)

    m = sub.add_parser("multiply", help="structure constants of a theta product")
    m.add_argument("--diagram", required=True)
    m.add_argument("-p", type=_vec, required=True)
    m.add_argument("-q", type=_vec, required=True)
    m.add_argument("--order", type=_int_at_least(0))
    m.set_defaults(fn=cmd_multiply)

    sp = sub.add_parser("segment-from-pair", help="glue a balanced pair")
    sp.add_argument("--diagram", required=True)
    sp.add_argument("--pair", required=True)
    sp.add_argument("-a", type=_int_at_least(1), required=True)
    sp.add_argument("-b", type=_int_at_least(1), required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_segment_from_pair)

    ps = sub.add_parser("pair-from-segment", help="split a segment at a time")
    ps.add_argument("--diagram", required=True)
    ps.add_argument("--segment", required=True)
    ps.add_argument("--tau", type=_fraction, required=True)
    ps.add_argument("-a", type=_int_at_least(1))
    ps.add_argument("-b", type=_int_at_least(1))
    ps.add_argument("--out")
    ps.set_defaults(fn=cmd_pair_from_segment)

    h = sub.add_parser("hull", help="broken-line convex hull of points")
    h.add_argument("--diagram", required=True)
    h.add_argument("--points", required=True)
    h.add_argument("--out")
    h.set_defaults(fn=cmd_hull)

    cp = sub.add_parser("check-positive", help="bounded positivity scan")
    cp.add_argument("--diagram", required=True)
    cp.add_argument("--polygon", required=True)
    cp.add_argument("--max-degree", type=_int_at_least(2), default=3)
    cp.add_argument("--order", type=_int_at_least(0))
    cp.set_defaults(fn=cmd_check_positive)

    ha = sub.add_parser("harness", help="positivity vs convexity on random polygons")
    ha.add_argument("--diagram", required=True)
    ha.add_argument("--trials", type=_int_at_least(1), default=50)
    ha.add_argument("--max-degree", type=_int_at_least(2), default=3)
    ha.add_argument("--order", type=_int_at_least(0))
    ha.add_argument("--perturb-seed", type=int, default=0)
    ha.set_defaults(fn=cmd_harness)

    r = sub.add_parser("render", help="SVG figure of a diagram with overlays")
    r.add_argument("--diagram", required=True)
    r.add_argument("--broken-lines")
    r.add_argument("--segment")
    r.add_argument("--polygon")
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_render)
    return p, sub.choices


_VALUE_FLAGS = {"-p", "-q", "--direction", "--endpoint", "--tau"}


def _merge_negative_values(argv):
    """Let flags accept values starting with '-', e.g. `-q -1,0`."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt is not None and nxt.startswith("-"):
            if tok.startswith("--"):
                out.append("%s=%s" % (tok, nxt))
            else:
                out.append("%s%s" % (tok, nxt))
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # exact piece coefficients can be huge binomials
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = _merge_negative_values(list(argv))
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        # what parser.parse_args does for a known subcommand, without
        # matching the whole command line against the parser first
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error("unrecognized arguments: %s" % " ".join(extra))
    try:
        code = args.fn(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print("error: %s" % e, file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
