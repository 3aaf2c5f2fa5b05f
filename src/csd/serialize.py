"""Canonical JSON (de)serialization for seeds, diagrams, lines and segments.

Rationals are strings "num/den" ("num" when integral); serialization is
byte-stable: sorted keys, compact separators, trailing newline.
"""

import json
from fractions import Fraction
from math import gcd

from .lattice import FixedData, line_dir
from .series import WallFunction
from .scattering import Wall, Diagram
from .brokenline import Piece, BrokenLine, Segment
from .constructions import BalancedPair


def frac_to_str(x):
    if type(x) is int:
        return str(x)
    f = x if type(x) is Fraction else Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def point_to_json(pt):
    out = []
    for c in pt:
        f = Fraction(c)
        out.append(int(f) if f.denominator == 1 else frac_to_str(f))
    return out


def _rational(c):
    """A rational read from JSON: an int or a string such as "3/2".  A float
    or a bool raises TypeError: a float is not exact, and true is not 1."""
    if isinstance(c, (float, bool)):
        raise TypeError('a rational is an integer or a string such as "3/2", got %r' % (c,))
    return Fraction(c)


def _field(doc, key, what):
    """doc[key]; a missing key raises ValueError naming the document what."""
    if key not in doc:
        raise ValueError("%s: missing field %r" % (what, key))
    return doc[key]


def point_from_json(v):
    try:
        return tuple(_rational(c) for c in v)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ValueError("bad coordinate in point %r: %s" % (v, e))


def fd_to_json(fd):
    return {
        "rank": 2,
        "unfrozen": [0, 1],
        "d": list(fd.d),
        "exchange": [list(row) for row in fd.exchange],
        "principal": False,
    }


def _is_int(x):
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def fd_from_json(doc):
    """Lattice data from a seed document; malformed fields raise ValueError naming them."""
    if not isinstance(doc, dict):
        raise ValueError("seed must be a JSON object, got %s" % type(doc).__name__)
    ex, d = _field(doc, "exchange", "seed"), _field(doc, "d", "seed")
    if not (isinstance(ex, list) and all(isinstance(row, list) and len(row) == len(ex)
                                         and all(_is_int(x) for x in row) for row in ex)):
        raise ValueError("exchange must be a square matrix of integers, got %r" % (ex,))
    if not (isinstance(d, list) and len(d) == len(ex) and all(_is_int(x) and x >= 1 for x in d)):
        raise ValueError("d must list one integer >= 1 per exchange row, got %r" % (d,))
    if doc.get("principal", False) is not False:
        raise ValueError("principal must be false: principal coefficients are "
                         "not supported, got %r" % (doc["principal"],))
    # repr tells 2 from 2.0 and [0, 1] from [false, true]
    if repr(doc.get("rank", 2)) != "2":
        raise ValueError("rank must be 2: the engine is rank-2 only, got %r" % (doc["rank"],))
    if repr(doc.get("unfrozen", [0, 1])) != "[0, 1]":
        raise ValueError("unfrozen must be [0, 1], got %r: the rank-2 engine "
                         "needs both indices unfrozen" % (doc["unfrozen"],))
    return FixedData(ex, d)


def wallfunction_to_json(f):
    ks = [k for k, c in f.terms()]
    step = 0
    for k in ks:
        step = gcd(step, k)
    step = step or 1
    coeffs = [f.coeff(step * j) for j in range(1, (max(ks) // step + 1) if ks else 1)]
    return {
        "dir": [step * x for x in f.direction],
        "coeffs": [frac_to_str(c) for c in coeffs],
    }


def _int_pair(v, field):
    """A nonzero integer pair [x, y] read from a document field, as a tuple of ints."""
    if not (isinstance(v, list) and len(v) == 2 and _is_int(v[0]) and _is_int(v[1]) and any(v)):
        raise ValueError("%s must be a nonzero integer pair [x, y], got %r" % (field, v))
    return int(v[0]), int(v[1])


def wallfunction_from_json(doc):
    """A wall function from its document; malformed fields raise ValueError naming them.

    The fields are checked here, against the document, and the
    WallFunction constructor checks the values it is given once more.
    dir = g*m0 with m0 primitive spreads the coefficients over the
    multiples of m0.
    """
    if not isinstance(doc, dict):
        raise ValueError("func must be a JSON object, got %r" % (doc,))
    dx, dy = _int_pair(doc["dir"], "func dir")
    cs = doc["coeffs"]
    if not isinstance(cs, list):
        raise ValueError("func coeffs must be a JSON list, got %r" % (cs,))
    g = gcd(dx, dy)
    coeffs = []
    for c in cs:
        if not (isinstance(c, str) and c.isascii() and c.isdecimal()):
            raise ValueError("func coeffs must hold integers >= 0 as strings, got %r" % (c,))
        coeffs.extend([0] * (g - 1))
        coeffs.append(int(c))
    return WallFunction((dx // g, dy // g), coeffs)


def wall_to_json(w):
    support = {"kind": "line"} if w.kind == "line" else {"kind": "ray", "dir": list(w.direction)}
    return {"normal": list(w.normal), "support": support, "func": wallfunction_to_json(w.func)}


def wall_from_json(doc, fd):
    """A wall from its document; malformed fields raise ValueError naming them.

    The fields are checked here, against the document; a line wall takes
    the direction of its normal's line.  The Wall constructor checks the
    values once more, and Diagram checks the wall against the fixed data.
    """
    if not isinstance(doc, dict):
        raise ValueError("wall must be a JSON object, got %r" % (doc,))
    n = _int_pair(doc["normal"], "normal")
    support = doc["support"]
    if not isinstance(support, dict):
        raise ValueError("support must be a JSON object, got %r" % (support,))
    kind = support["kind"]
    if kind == "line":
        direction = line_dir(fd, n)
    elif kind == "ray":
        direction = _int_pair(support["dir"], "support dir")
    else:
        raise ValueError("support kind must be 'line' or 'ray', got %r" % (kind,))
    return Wall(n, kind, direction, wallfunction_from_json(doc["func"]))


def diagram_to_json(diagram):
    return {
        "seed": fd_to_json(diagram.fd),
        "order": diagram.order,
        "saturated": bool(diagram.saturated),
        "walls": [wall_to_json(w) for w in diagram.walls],
    }


def diagram_from_json(doc):
    """A diagram from its document; a malformed top level raises ValueError
    naming it, and a wall, order or saturated flag that Diagram refuses its
    message."""
    if not isinstance(doc, dict):
        raise ValueError("diagram must be a JSON object, got %s" % type(doc).__name__)
    if not isinstance(_field(doc, "walls", "diagram"), list):
        raise ValueError("walls must be a JSON list, got %s" % type(doc["walls"]).__name__)
    order = _field(doc, "order", "diagram")
    seed = _field(doc, "seed", "diagram")
    try:
        fd = fd_from_json(seed)
    except ValueError as e:
        # a missing field and a seed of the wrong type name the seed already
        raise ValueError(str(e) if str(e).startswith("seed") else "seed: %s" % e)
    walls = []
    for i, w in enumerate(doc["walls"]):
        try:
            walls.append(wall_from_json(w, fd))
        except ValueError as e:
            raise ValueError("wall %d: %s" % (i, e))
        except KeyError as e:
            raise ValueError("wall %d: missing field %s" % (i, e))
    return Diagram(fd, walls, order, _field(doc, "saturated", "diagram"))


def _piece_to_json(p):
    """The fields a piece has in both broken lines and segments."""
    return {
        "exponent": point_to_json(p.exponent),
        "coeff": frac_to_str(p.coeff),
        "bend": None if p.bend_point is None else point_to_json(p.bend_point),
    }


def brokenline_to_json(line):
    return {
        "endpoint": point_to_json(line.endpoint),
        "pieces": [_piece_to_json(p) for p in line.pieces],
    }


def _field_point(doc, key, what):
    """The rational point [x, y] in field key of the document what; errors name the field."""
    v = _field(doc, key, what)
    if not (isinstance(v, list) and len(v) == 2):
        raise ValueError("%s %s must be a point [x, y], got %r" % (what, key, v))
    try:
        return point_from_json(v)
    except ValueError as e:
        raise ValueError("%s %s: %s" % (what, key, e))


def _field_exponent(doc, key, what):
    """The integer exponent [x, y] in field key of the document what."""
    pt = _field_point(doc, key, what)
    if any(c.denominator != 1 for c in pt):
        raise ValueError("%s %s must have integer coordinates, got %r" % (what, key, doc[key]))
    return tuple(int(c) for c in pt)


def _field_rational(doc, key, what):
    """The rational number (an integer or a string such as "5/2") in field
    key of the document what."""
    v = _field(doc, key, what)
    try:
        return _rational(v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError("%s %s must be a rational number, got %r" % (what, key, v))


def _field_integer(doc, key, what):
    """The integer (such as 3 or "3") in field key of the document what; a
    float or a bool is none, even when whole."""
    v = _field(doc, key, what)
    c = None if isinstance(v, (float, bool)) else _field_rational(doc, key, what)
    if c is None or c.denominator != 1:
        raise ValueError("%s %s must be an integer, got %r" % (what, key, v))
    return c.numerator


def _pieces(doc, what, durations):
    """Pieces of a broken line or segment document, each field checked; the
    list must not be empty."""
    if not (isinstance(doc, dict) and isinstance(doc.get("pieces"), list)):
        raise ValueError("%s must be a JSON object with a list of pieces" % what)
    if not doc["pieces"]:
        raise ValueError("%s has no pieces" % what)
    pieces = []
    for i, p in enumerate(doc["pieces"]):
        if not isinstance(p, dict):
            raise ValueError("%s piece %d must be a JSON object, got %r" % (what, i, p))
        name = "%s piece %d" % (what, i)
        bend = None if _field(p, "bend", name) is None else _field_point(p, "bend", name)
        if bend is None and not durations and i < len(doc["pieces"]) - 1:
            raise ValueError("%s bend must be a point [x, y]: only the last piece of a "
                             "broken line has none" % name)
        dur = None
        if durations and _field(p, "duration", name) is not None:
            dur = _field_rational(p, "duration", name)
            if dur < 0:
                raise ValueError("%s duration must be >= 0, got %r" % (name, p["duration"]))
        pieces.append(Piece(_field_exponent(p, "exponent", name),
                            _field_integer(p, "coeff", name), bend, dur))
    return pieces


def brokenline_from_json(doc, what="broken line"):
    """A broken line from its document; errors name it as what."""
    pieces = _pieces(doc, what, False)
    return BrokenLine(_field_point(doc, "endpoint", what), pieces)


def segment_to_json(seg):
    return {
        "start": point_to_json(seg.start),
        "end": point_to_json(seg.end),
        "total_time": frac_to_str(seg.total_time),
        "pieces": [
            dict(_piece_to_json(p),
                 duration=None if p.duration is None else frac_to_str(p.duration))
            for p in seg.pieces
        ],
    }


def segment_from_json(doc):
    pieces = _pieces(doc, "segment", True)
    return Segment(_field_point(doc, "start", "segment"), _field_point(doc, "end", "segment"),
                   pieces, _field_rational(doc, "total_time", "segment"))


def pair_to_json(pair):
    return {
        "base": point_to_json(pair.base),
        "line1": brokenline_to_json(pair.line1),
        "line2": brokenline_to_json(pair.line2),
    }


def pair_from_json(doc):
    """A balanced pair from its document; errors name the line or field."""
    if not isinstance(doc, dict):
        raise ValueError("pair must be a JSON object, got %s" % type(doc).__name__)
    return BalancedPair(brokenline_from_json(_field(doc, "line1", "pair"), "pair line1"),
                        brokenline_from_json(_field(doc, "line2", "pair"), "pair line2"),
                        _field_point(doc, "base", "pair"))


def points_to_json(pts):
    return [point_to_json(p) for p in pts]


def points_from_json(doc):
    """Points from a JSON list of [x, y] pairs; any other shape raises ValueError."""
    if not isinstance(doc, list):
        raise ValueError("points must be a JSON list, got %s" % type(doc).__name__)
    for p in doc:
        if not (isinstance(p, list) and len(p) == 2):
            raise ValueError("each point must be a pair [x, y], got %r" % (p,))
    return [point_from_json(p) for p in doc]


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))


def load(path):
    with open(path) as fh:
        return json.load(fh)
