"""The product rule on the cluster complex: Diagram.one_cone and its guard.

The oracle multiplies theta functions from the broken-line search with
lp_mul and never goes through the rule.
"""

import itertools
import json

import pytest

from csd import cli, serialize
from csd.brokenline import theta
from csd.constructions import alpha_table, EXPANSION_ENDPOINT
from csd.geometry import vadd
from csd.lattice import FixedData
from csd.scattering import Diagram, complete_rank2, search_form
from csd.series import lp_mul

FINITE = {"A2": ([[0, 1], [-1, 0]], [1, 1]), "B2": ([[0, 2], [-1, 0]], [1, 2]),
          "G2": ([[0, 3], [-1, 0]], [1, 3])}
# each finite type and its transpose, whose multipliers come in reverse
ORIENTED = dict(FINITE)
ORIENTED.update({name + "^T": ([[0, ex[1][0]], [ex[0][1], 0]], d[::-1])
                 for name, (ex, d) in FINITE.items()})
INFINITE = {"Kronecker": ([[0, 2], [-2, 0]], [1, 1]), "(1,4)": ([[0, 4], [-1, 0]], [1, 4]),
            "(3,3)": ([[0, 3], [-3, 0]], [1, 1])}
POINTS = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)]
PAIRS = list(itertools.combinations_with_replacement(POINTS, 2))


def _form(exchange, d, order):
    fd = FixedData(exchange, d)
    return search_form(fd, complete_rank2(fd, order))


@pytest.mark.parametrize("order,K", [(6, 6), (8, 3), (5, 1)])
@pytest.mark.parametrize("name", sorted(ORIENTED))
def test_pairs_in_one_cone_multiply_to_one_theta(name, order, K):
    fd = FixedData(*ORIENTED[name])
    diagram = complete_rank2(fd, order)
    form = search_form(fd, diagram)
    z0 = EXPANSION_ENDPOINT
    thetas = {}

    def th(m):
        if m not in thetas:
            thetas[m] = theta(fd, diagram, m, z0, K)
        return thetas[m]

    accepted = 0
    for p, q in PAIRS:
        same = lp_mul(fd, th(p), th(q)).terms == th(vadd(p, q)).terms
        if form.one_cone(p, q):
            accepted += 1
            assert same, (p, q)
        elif K == 6:
            # at this order the product of every other pair shows a second term
            assert not same, (p, q)
    assert accepted > len(PAIRS) // 3


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_rule_is_off_on_truncated_g2(order):
    # below order 5 the G2 diagram misses half-lines, so its chambers are not
    # the cluster cones
    form = _form(*FINITE["G2"], order)
    assert len(form._halves) < 8
    assert not any(form.one_cone(p, p) for p in POINTS)


def test_rule_is_on_for_complete_g2():
    form = _form(*FINITE["G2"], 5)
    assert all(form.one_cone(p, p) for p in POINTS)
    # the origin lies in every closed chamber
    assert all(form.one_cone((0, 0), p) for p in POINTS)


@pytest.mark.parametrize("name", sorted(INFINITE))
def test_rule_is_off_on_infinite_types(name):
    form = _form(*INFINITE[name], 6)
    assert not form.one_cone((1, -1), (1, -1))
    assert not form.one_cone((1, -1), (2, -2))
    assert not any(form.one_cone(p, q) for p, q in PAIRS)


def _run_multiply(path, p, q):
    """Run `csd multiply` in-process; it must exit 0."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["multiply", "--diagram", str(path), "-p", p, "-q", q])
    assert exit_info.value.code == 0


def test_edited_diagram_keeps_the_series_path(tmp_path, capsys, monkeypatch):
    fd = FixedData(*FINITE["A2"])
    doc = serialize.diagram_to_json(complete_rank2(fd, 6))
    # a loaded copy of the complete diagram keeps the rule: walls compare by value
    loaded = serialize.diagram_from_json(doc)
    assert search_form(loaded.fd, loaded).one_cone((-2, -1), (0, -2))
    (ray,) = [w for w in doc["walls"] if w["support"]["kind"] == "ray"]
    ray["func"]["coeffs"] = ["2"]
    edited = serialize.diagram_from_json(doc)
    assert not search_form(edited.fd, edited).one_cone((-2, -1), (0, -2))
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    _run_multiply(path, "-2,-1", "0,-2")
    out = capsys.readouterr().out
    # the same run with the rule switched off is the series path
    monkeypatch.setattr(Diagram, "one_cone", lambda self, p, q: False)
    _run_multiply(path, "-2,-1", "0,-2")
    assert capsys.readouterr().out == out
    # and the edit shows: the rule's answer would have been wrong here
    assert out != "r=(-2,-3): 1\n"
    assert alpha_table(edited.fd, edited, (-2, -1), (0, -2)) != {(-2, -3): 1}
