import ast
import re
from pathlib import Path

import loc

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os


class A:
    """Class docstring."""

    def f(self):
        """Function docstring

        with a blank line inside."""
        x = """not a docstring"""  # trailing comment
        return x
'''


def test_count_fixture():
    assert loc.count(SOURCE) == {"code": 5, "docstring": 6, "comment": 1, "blank": 4}


def test_count_empty_module():
    assert loc.count("") == {"code": 0, "docstring": 0, "comment": 0, "blank": 0}


ROOT = Path(__file__).resolve().parent.parent


def _definitions(tree, module):
    """(name, dotted path, line) of each function, class and method in the
    tree, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                path = prefix + child.name
                out.append((child.name, "%s.%s" % (module, path), child.lineno))
                visit(child, path + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def unreferenced(sources, texts):
    """The definitions in sources ({module: source}) that nothing uses.

    A definition is used when a name, an attribute or an import anywhere in
    sources reads its name, or a word of one of texts spells it.  Dunder
    methods are called by Python itself and always count as used.  Each
    unused one comes back as "module.path (line n)".
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add((node.asname or node.name).rsplit(".", 1)[-1])
    for text in texts:
        used.update(re.findall(r"\w+", text))
    return ["%s (line %d)" % (path, line)
            for module, tree in trees.items()
            for name, path, line in _definitions(tree, module)
            if name not in used and not (name.startswith("__") and name.endswith("__"))]


SCANNED = '''
import os
from math import gcd as g


def used():
    return helper()


def helper():
    def inner():
        pass
    return inner


def unused():
    pass


def in_the_docs():
    pass


class Point:
    def __init__(self):
        self.x = os.sep

    def norm(self):
        return g(1, 2)

    def spare(self):
        pass
'''


def test_unreferenced_fixture():
    assert unreferenced({"m": SCANNED}, ["call in_the_docs() or used()"]) == [
        "m.unused (line 16)", "m.Point (line 24)", "m.Point.norm (line 28)",
        "m.Point.spare (line 31)"]
    assert unreferenced({"m": SCANNED, "n": "from m import Point\nPoint().norm()\n"},
                        []) == ["m.used (line 6)", "m.unused (line 16)",
                                "m.in_the_docs (line 20)", "m.Point.spare (line 31)"]


def test_src_defines_only_what_the_program_uses():
    # a definition in src/csd that only tests reach belongs with those tests;
    # the benchmark scripts and the README count as users of the program
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "csd").glob("*.py"))}
    texts = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text())
    unused = unreferenced(sources, texts)
    assert not unused, "used by nothing in src/csd, bench/*.py or README.md: " + ", ".join(unused)


def imports(sources):
    """The internal import graph of a package, {module: set of modules}, and
    the imports made inside a function or class body, as "module (line n)".

    An internal import is a relative one: "from .x import y" reads module x,
    and "from . import x" reads x too."""
    graph, nested = {}, []

    def visit(node, module, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if inside:
                    nested.append("%s (line %d)" % (module, child.lineno))
                if isinstance(child, ast.ImportFrom) and child.level:
                    graph[module].update([child.module] if child.module
                                         else [a.name for a in child.names])
            visit(child, module, inside or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))

    for module, source in sources.items():
        graph[module] = set()
        visit(ast.parse(source), module, False)
    return graph, nested


def cycle(graph):
    """A list of modules that import each other in a ring, or None."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):]
        if module in done:
            return None
        path.append(module)
        for dep in sorted(graph.get(module, ())):
            found = visit(dep)
            if found:
                return found
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        found = visit(module)
        if found:
            return found
    return None


LAYERED = {
    "a": "from math import gcd\n",
    "b": "from .a import x\nfrom . import c\n",
    "c": "import os\nfrom .a import y\n\n\ndef f():\n    from .d import z\n",
    "d": "class K:\n    import json\n",
}


def test_import_graph_fixture():
    graph, nested = imports(LAYERED)
    assert graph == {"a": set(), "b": {"a", "c"}, "c": {"a", "d"}, "d": set()}
    assert nested == ["c (line 6)", "d (line 2)"]
    assert cycle(graph) is None
    assert cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c"]


def test_src_imports_form_one_chain():
    # every import sits at module level, so the package imports in one
    # order, lattice and geometry first and the cli last
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "csd").glob("*.py"))}
    graph, nested = imports(sources)
    assert not nested, "imports inside a function or class body: " + ", ".join(nested)
    assert cycle(graph) is None, "import cycle: " + " -> ".join(cycle(graph))
    assert "brokenline" not in graph["scattering"]


CACHES = {"thetas", "products", "alphas"}


def cache_readers(sources, owner):
    """Where a module other than owner reads a diagram's expansion caches
    (an attribute thetas, products or alphas, read rather than assigned) or
    names the cache key _pair_key, as "module (line n)"."""
    out = []
    for module, source in sources.items():
        if module == owner:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                read = node.attr == "_pair_key" or (
                    node.attr in CACHES and isinstance(node.ctx, ast.Load))
            else:
                # a Name has an id, an imported alias a name
                read = getattr(node, "id", getattr(node, "name", None)) == "_pair_key"
            if read:
                out.append("%s (line %d)" % (module, node.lineno))
    return sorted(set(out))


def test_cache_readers_fixture():
    sources = {
        "owner": "def f(d):\n    return d.products, _pair_key\n",
        "index": "class D:\n    def __init__(self):\n        self.thetas = {}\n",
        "scan": "from .owner import f, _pair_key\n\n\ndef g(d):\n    return d.alphas.get(1)\n",
        "other": "import owner\nk = owner._pair_key\nx = d.one_cone\n",
    }
    assert cache_readers(sources, "owner") == ["other (line 2)", "scan (line 1)", "scan (line 5)"]


def test_only_constructions_reads_the_expansion_caches():
    # the layout of the theta, product and alpha caches is known to
    # constructions alone; Diagram only creates them
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "csd").glob("*.py"))}
    readers = cache_readers(sources, "constructions")
    assert not readers, "expansion caches read outside constructions: " + ", ".join(readers)
