"""The benchmark's tracer wraps csd functions by name; each must exist."""

import os
import sys
from fractions import Fraction

import csd.cli  # noqa: F401  (loads every csd module the tracer patches)
from csd import brokenline

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import tracer  # noqa: E402


def test_tracer_installs_and_uninstalls():
    modules = {mod for mod, _ in list(tracer.SPANNED) + list(tracer.COUNTED)}
    before = {mod: dict(vars(sys.modules["csd." + mod])) for mod in modules}
    t = tracer.Tracer()
    t.install()
    try:
        for mod, fn in list(tracer.SPANNED) + list(tracer.COUNTED):
            assert getattr(sys.modules["csd." + mod], fn) is not before[mod][fn], (mod, fn)
    finally:
        t.uninstall()
    for mod in modules:
        assert dict(vars(sys.modules["csd." + mod])) == before[mod], mod


def test_traced_search_counts_bend_sites(a2, a2_diagram):
    # the tracer counts calls of the module-level allowed_bends by that name
    t = tracer.Tracer()
    t.install()
    t.active = True
    try:
        brokenline.allowed_bends(a2, a2_diagram, (Fraction(0), Fraction(-2)), (1, 0), 6)
    finally:
        t.active = False
        t.uninstall()
    assert t.counts["brokenline.bend_sites"] == 1
