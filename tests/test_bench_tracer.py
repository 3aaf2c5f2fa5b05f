"""The benchmark's tracer wraps csd functions by name; each must exist."""

import os
import sys

import csd.cli  # noqa: F401  (loads every csd module the tracer patches)

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
