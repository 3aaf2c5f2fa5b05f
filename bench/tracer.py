"""Per-layer tracing of the csd modules, from outside the program.

The tracer replaces selected public functions by wrappers.  Because csd
modules import functions by name (``from .brokenline import enumerate_lines``),
every ``csd.*`` module attribute that refers to a wrapped function is rebound,
not only the one in the defining module.  Calls through module globals, such
as the recursive ``_trace`` or ``cone_coords -> solve_linear``, then reach the
wrappers too.

Hot functions are only counted.  Every other wrapped function records a span
(name, start, end, parent); spans stay in memory until the run ends.  A
layer's self time is the wall time of its spans minus the time covered by
their child spans.
"""

import functools
import sys
import time
import types
import weakref

# (module, function) -> layer name; each call records a span.
SPANNED = {
    ("scattering", "complete_diagram"): "scattering.complete",
    ("brokenline", "enumerate_lines"): "brokenline.enumerate",
    ("constructions", "alpha_table"): "constructions.alpha_table",
    ("series", "lp_mul"): "series.lp_mul",
    ("convexity", "chart_maps"): "convexity.chart_maps",
    ("convexity", "is_blc_2d"): "convexity.is_blc",
    ("convexity", "check_positive"): "convexity.check_positive",
    ("convexity", "blc_hull_2d"): "convexity.hull",
    ("serialize", "load"): "serialize.load",
    ("serialize", "save"): "serialize.save",
    ("cli", "main"): "cli.main",
}

# (module, function) -> counter name; hot paths, counted without a span.
COUNTED = {
    ("lattice", "pairing"): "lattice.pairing_calls",
    ("lattice", "solve_linear"): "lattice.solve_linear_calls",
    ("series", "wf_pow"): "series.wf_pow_calls",
    ("series", "wall_cross"): "series.wall_cross_calls",
    ("brokenline", "allowed_bends"): "brokenline.bend_sites",
    ("brokenline", "wall_families"): "brokenline.wall_families_calls",
}

# Per-layer metrics in the order they are reported: (name, unit).
METRICS = [
    ("scattering.complete_s", "s"),
    ("series.wall_cross_calls", "count"),
    ("lattice.pairing_calls", "count"),
    ("lattice.solve_linear_calls", "count"),
    ("series.wf_pow_calls", "count"),
    ("brokenline.bend_sites", "count"),
    ("brokenline.wall_families_calls", "count"),
    ("brokenline.enumerate_s", "s"),
    ("brokenline.enumerate_calls", "count"),
    ("brokenline.roots", "count"),
    ("brokenline.distinct_roots", "count"),
    ("brokenline.lines", "count"),
    ("constructions.alpha_table_s", "s"),
    ("constructions.alpha_table_calls", "count"),
    ("series.lp_mul_s", "s"),
    ("series.lp_mul_calls", "count"),
    ("convexity.chart_maps_s", "s"),
    ("convexity.chart_maps_calls", "count"),
    ("convexity.is_blc_s", "s"),
    ("convexity.check_positive_s", "s"),
    ("convexity.hull_s", "s"),
    ("serialize.load_s", "s"),
    ("serialize.save_s", "s"),
    ("cli.main_s", "s"),
]


class Tracer:
    """Wraps csd functions; records spans and counts while ``active``."""

    def __init__(self):
        self.active = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {name: 0 for name in COUNTED.values()}
        self.roots = 0
        self.lines = 0
        self.root_keys = set()
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = 0
        self._originals = []

    def install(self):
        """Rebind every csd module attribute that refers to a traced function."""
        wrappers = {}
        for (mod, fn), name in SPANNED.items():
            orig = getattr(sys.modules["csd." + mod], fn)
            if name == "brokenline.enumerate":
                wrappers[orig] = self._spanned(self._enumerate(orig), name)
            else:
                wrappers[orig] = self._spanned(orig, name)
        for (mod, fn), name in COUNTED.items():
            orig = getattr(sys.modules["csd." + mod], fn)
            wrappers[orig] = self._counted(orig, name)
        for modname, module in list(sys.modules.items()):
            if modname != "csd" and not modname.startswith("csd."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals = []

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, fn, name):
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def _enumerate(self, fn):
        """enumerate_lines plus its root searches and returned lines."""

        @functools.wraps(fn)
        def wrapper(fd, diagram, initial, endpoint, K=None):
            lines = fn(fd, diagram, initial, endpoint, K)
            if self.active:
                self._count_roots(fd, diagram, initial, endpoint,
                                  diagram.order if K is None else K)
                self.lines += len(lines)
            return lines
        return wrapper

    def _count_roots(self, fd, diagram, initial, endpoint, K):
        # enumerate_lines starts one backward search per nonzero final
        # exponent initial + a*g1 + b*g2 with a + b <= K.
        serial = self._serials.get(diagram)
        if serial is None:
            serial = self._serials[diagram] = self._next_serial
            self._next_serial += 1
        (g1x, g1y), (g2x, g2y) = fd.monoid_gens
        end = tuple(endpoint)
        for a in range(K + 1):
            for b in range(K + 1 - a):
                final = (initial[0] + a * g1x + b * g2x, initial[1] + a * g1y + b * g2y)
                if final == (0, 0):
                    continue
                self.roots += 1
                self.root_keys.add((serial, end, final, K))

    def self_times(self):
        """Layer name -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def metrics(self):
        """Every per-layer metric, as name -> (value, unit)."""
        self_times = self.self_times()
        calls = {}
        for name, _, _, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
        values = dict(self.counts)
        for name in SPANNED.values():
            values[name + "_s"] = self_times.get(name, 0.0)
            values[name + "_calls"] = calls.get(name, 0)
        values["brokenline.roots"] = self.roots
        values["brokenline.distinct_roots"] = len(self.root_keys)
        values["brokenline.lines"] = self.lines
        return {name: (values[name], unit) for name, unit in METRICS}

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
