"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs a short round of every workload, confirms that its checks accept the
real outputs, then corrupts the outputs (a changed coefficient, a swapped
verdict, a wrong alpha, a broken witness, a failing exit code) and confirms
that every corruption is rejected.  A check that cannot fail would let a
wrong answer pass silently.  Exits nonzero if any corruption is accepted.
"""

import copy
import json
import os
import sys

import run


def _rejected(work, state, outputs, what, failures):
    found = work.check(state, outputs)
    status = "rejected" if found else "ACCEPTED"
    print("%-9s %-60s %s" % (type(work).__name__, what, status))
    if not found:
        failures.append(what)


def _accepts(work, state, outputs, failures):
    found = work.check(state, outputs)
    for _, problem in found:
        print("unexpected problem on real outputs: %s" % problem)
    if found:
        failures.append("%s rejects real outputs" % type(work).__name__)


def _round(work):
    state = work.setup()
    return state, [op() for _, op in work.operations(state)]


def verdicts(workloads, failures):
    work = workloads.Verdicts(seed=1)
    work.POLYGONS = 48
    state, outputs = _round(work)
    _accepts(work, state, outputs, failures)

    def first(pred, what):
        for i, (blc, pos) in enumerate(outputs):
            if pred(blc, pos):
                return i
        failures.append("no polygon for: %s" % what)
        print("missing case: %s" % what)
        return None

    i = first(lambda b, p: b.verdict is True and p.verdict is True, "convex polygon")
    if i is not None:
        bad = copy.deepcopy(outputs)
        bad[i][1].verdict = False
        _rejected(work, state, bad, "positivity verdict of a convex polygon swapped", failures)
        bad = copy.deepcopy(outputs)
        bad[i][0].verdict = False
        _rejected(work, state, bad, "convexity verdict of a convex polygon swapped", failures)
    i = first(lambda b, p: p.verdict is False and p.witnesses[0]["p"] != (0, 0)
              and p.witnesses[0]["q"] != (0, 0), "positivity witness with p, q != 0")
    if i is not None:
        bad = copy.deepcopy(outputs)
        bad[i][1].witnesses[0]["alpha"] += 1
        _rejected(work, state, bad, "witness alpha increased by one", failures)
        bad = copy.deepcopy(outputs)
        w = bad[i][1].witnesses[0]
        w["r"] = tuple(x + y for x, y in zip(w["p"], w["q"]))
        _rejected(work, state, bad, "witness r moved to p + q", failures)
    i = first(lambda b, p: b.verdict is False and p.verdict is True,
              "non-convex polygon that passes the bounded scan")
    if i is not None:
        bad = copy.deepcopy(outputs)
        bad[i][0].witnesses = []
        _rejected(work, state, bad, "convexity witness segment dropped", failures)
        bad = copy.deepcopy(outputs)
        seg = bad[i][0].witnesses[0]
        seg.pieces[0].exponent = tuple(2 * x for x in seg.pieces[0].exponent)
        _rejected(work, state, bad, "convexity witness segment bent", failures)


def cli(workloads, failures):
    import checks  # needs the path set by run._import_csd
    work = workloads.Cli(seed=1, workdir=run.OUT)
    work.THETAS, work.PRODUCTS, work.HULLS = 2, 1, 1
    state, outputs = _round(work)
    try:
        _accepts(work, state, outputs, failures)
        kinds = [c[0] for c in state["commands"]]

        def corrupt(kind, what, edit, pred=lambda c: True):
            for i, c in enumerate(state["commands"]):
                if c[0] == kind and pred(c):
                    bad = list(outputs)
                    bad[i] = edit(*outputs[i])
                    _rejected(work, state, bad, what, failures)
                    return
            failures.append("no command for: %s" % what)

        corrupt("theta", "theta coefficient made negative",
                lambda code, out, err: (code, "-2 " + out, err))

        def corrupt_theta(what, edit):
            """Edits a term other than z^m of the second theta of a pair."""
            for i, (kind, _, extra, argv) in enumerate(state["commands"]):
                if kind != "theta" or extra is not None:
                    continue
                code, out, err = outputs[i]
                m = tuple(int(x) for x in argv[argv.index("--direction") + 1].split(","))
                terms = checks.parse_theta(out)
                others = sorted(e for e in terms if e != m)
                if others:
                    edit(terms, others[0])
                    bad = list(outputs)
                    bad[i] = (code, " + ".join("%s z^(%d,%d)" % (c, e[0], e[1])
                                               for e, c in terms.items()), err)
                    _rejected(work, state, bad, what, failures)
                    return
            failures.append("no command for: %s" % what)

        corrupt_theta("theta coefficient increased by one",
                      lambda terms, e: terms.__setitem__(e, terms[e] + 1))
        corrupt_theta("theta coefficient halved",
                      lambda terms, e: terms.__setitem__(e, terms[e] / 2))
        corrupt_theta("theta term dropped", lambda terms, e: terms.pop(e))
        corrupt("multiply", "G2 product coefficient changed",
                lambda code, out, err: (code, out.replace(": 1", ": 2", 1), err),
                lambda c: c[2] is not None)
        corrupt("multiply", "product coefficient made fractional",
                lambda code, out, err: (code, out.replace("\n", "/2\n", 1), err))
        corrupt("check-positive", "check-positive verdict swapped",
                lambda code, out, err: (code, out.replace("True", "False", 1), err))
        corrupt("theta", "nonzero exit code",
                lambda code, out, err: (2, out, err))
        i = kinds.index("hull")
        hull_path = state["commands"][i][2][1]
        with open(hull_path) as fh:
            hull = json.load(fh)
        with open(hull_path, "w") as fh:
            json.dump(hull[:1], fh)
        _rejected(work, state, outputs, "hull file cut to one vertex", failures)
        with open(hull_path, "w") as fh:
            json.dump(hull, fh)
        name = state["commands"][i][1]
        with open(state["built"][name]) as fh:
            doc = json.load(fh)
        doc["walls"] = doc["walls"][:-1]
        with open(state["built"][name], "w") as fh:
            json.dump(doc, fh)
        _rejected(work, state, outputs, "built diagram lost a wall", failures)
    finally:
        work.teardown(state)


def main():
    run._import_csd()
    sys.set_int_max_str_digits(0)
    os.makedirs(run.OUT, exist_ok=True)
    import workloads
    failures = []
    for test in (verdicts, cli):
        test(workloads, failures)
    for f in failures:
        print("FAILED: %s" % f)
    print("selftest: %s" % ("ok" if not failures else "%d failures" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
