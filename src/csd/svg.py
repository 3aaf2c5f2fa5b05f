"""Deterministic SVG rendering of rank-2 diagrams with overlays.

All geometry stays exact until the final coordinate formatting; identical
inputs produce byte-identical documents.
"""

from fractions import Fraction

from .geometry import vadd, vscale, vneg
from .series import monomial_text

SIZE = 640  # width and height of the document
MARGIN = 40


def _func_label(f):
    return "+".join(["1"] + [monomial_text(c, vscale(k, f.direction)) for k, c in f.terms()])


class _View:
    def __init__(self, radius):
        self.r = Fraction(radius)

    def pt(self, p):
        s = Fraction(SIZE - 2 * MARGIN, 2)
        x = MARGIN + float((Fraction(p[0]) / self.r + 1) * s)
        y = MARGIN + float((1 - Fraction(p[1]) / self.r) * s)
        return "%.2f,%.2f" % (x, y)

    def xy(self, p):
        return self.pt(p).split(",")


def _content_radius(overlays):
    r = Fraction(4)
    for pts in overlays:
        for p in pts:
            for c in p:
                a = abs(Fraction(c))
                if a > r:
                    r = a
    return r + 1


def _line_points(line, radius):
    pts = [p.bend_point for p in line.pieces[:-1]] + [tuple(line.endpoint)]
    ext = vadd(pts[0], vscale(2 * Fraction(radius), line.pieces[0].exponent))
    return [ext] + pts


def _polyline(v, pts, pieces, colour):
    """A polyline through pts, each piece's monomial written at the middle
    of its stretch, all in the one colour."""
    out = ['<polyline points="%s" fill="none" stroke="%s" stroke-width="1.2"/>'
           % (" ".join(v.pt(p) for p in pts), colour)]
    for i, piece in enumerate(pieces):
        mid = vscale(Fraction(1, 2), vadd(pts[i], pts[i + 1]))
        out.append('<text x="%s" y="%s" font-size="10" fill="%s">%s</text>'
                   % (tuple(v.xy(mid)) + (colour, monomial_text(piece.coeff, piece.exponent))))
    return out


def render_svg(diagram, broken_lines=(), segments=(), polygons=()):
    """The diagram as an SVG document, each wall drawn along its direction,
    with the overlays."""
    overlays = [s.positions() for s in segments]
    overlays += [list(p) for p in polygons]
    overlays += [[p.bend_point for p in bl.pieces[:-1]] + [tuple(bl.endpoint)]
                 for bl in broken_lines]
    radius = _content_radius(overlays)
    v = _View(radius)
    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
               'viewBox="0 0 %d %d">' % (SIZE, SIZE, SIZE, SIZE))
    out.append('<rect width="%d" height="%d" fill="white"/>' % (SIZE, SIZE))
    for w in diagram.walls:
        a = vscale(radius, w.direction)
        b = vneg(a) if w.kind == "line" else (0, 0)
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" '
                   'stroke-width="1.5"/>' % (tuple(v.xy(a)) + tuple(v.xy(b))))
        lab = vscale(Fraction(7, 10) * radius, w.direction)
        out.append('<text x="%s" y="%s" font-size="11">%s</text>'
                   % (tuple(v.xy(lab)) + (_func_label(w.func),)))
    for cyc in polygons:
        path = " ".join(v.pt(p) for p in cyc)
        out.append('<polygon points="%s" fill="steelblue" fill-opacity="0.2" '
                   'stroke="steelblue"/>' % path)
    for bl in broken_lines:
        out += _polyline(v, _line_points(bl, radius), bl.pieces, "crimson")
    for seg in segments:
        out += _polyline(v, seg.positions(), seg.pieces, "darkgreen")
    out.append("</svg>")
    return "\n".join(out) + "\n"
