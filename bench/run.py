"""Benchmark of the csd engine, stdlib only.

    python3 bench/run.py --workload verdicts --seed 1 --trace 0
    python3 bench/run.py --seed 1

With ``--workload`` the workload runs in this interpreter, in a single
thread.  Without it every workload runs in turn, each in a fresh interpreter.

A run sets the workload up five times and reports the median set-up time
plus the import time of csd as ``setup_s``.  The first set-up feeds the
round; the others are spread through it, outside the timed operations.
A run is one round: a fixed list of operations made from the seed, on
freshly completed diagrams with empty caches.  It is never cut short and
never depends on how fast the run goes, so two versions of the program do
the same work with the same cache warm-up.  ``--seconds`` is accepted for
callers that pass a run length and does not change the work.  The outputs
are checked after the timed phase.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run sets up once with
every traced csd function wrapped, reports the per-layer metrics, and writes
its spans and per-operation times to ``bench/out/``.  The exit status is
nonzero when an output check fails.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verdicts", "cli")
SETUPS = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="accepted; a run is one fixed round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_csd():
    """Import csd from this checkout's src/ and the workloads; returns seconds."""
    if not os.path.isfile(os.path.join(SRC, "csd", "__init__.py")):
        raise SystemExit("error: %s holds no csd package" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    start = time.perf_counter()
    import csd
    import workloads  # noqa: F401
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(csd.__file__)) != os.path.join(SRC, "csd"):
        raise SystemExit("error: csd was imported from %s" % csd.__file__)
    return elapsed


def _make(name, seed):
    import workloads
    if name == "verdicts":
        return workloads.Verdicts(seed)
    os.makedirs(OUT, exist_ok=True)
    return workloads.Cli(seed, OUT)


def run_workload(name, seed, trace):
    import_s = _import_csd()
    # exact piece coefficients can be huge binomials
    sys.set_int_max_str_digits(0)
    work = _make(name, seed)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = True

    def timed_setup():
        start = time.perf_counter()
        state = work.setup()
        return state, time.perf_counter() - start

    state, first = timed_setup()
    setups = [first]
    ops = work.operations(state)
    # further set-ups, thrown away, are spread through the round, so that
    # their median samples the whole run as the operations do
    probes = set() if trace else {len(ops) * k // SETUPS for k in range(1, SETUPS)}
    outputs, op_times, problems, bad = [], [], [], set()
    cpu = 0.0
    for i, (kind, op) in enumerate(ops):
        if i in probes:
            extra, elapsed = timed_setup()
            setups.append(elapsed)
            work.teardown(extra)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            outputs.append(op())
        except Exception as e:  # a failing operation is counted, not fatal
            outputs.append(None)
            bad.add(i)
            problems.append("operation %d (%s) raised %r" % (i, kind, e))
        op_times.append(time.perf_counter() - start)
        cpu += time.process_time() - cpu_start
    timed = sum(op_times)
    if tracer:
        tracer.active = False
    if not bad:
        found = work.check(state, outputs)
        problems += [p for _, p in found]
        bad |= {i for i, _ in found if i is not None}
    work.teardown(state)
    attempted, failed = len(ops), len(bad)

    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    ops_per_s = attempted / timed
    if trace:
        metrics = tracer.metrics()
        tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "trace-%s-%d.json" % (name, seed))
        with open(path, "w") as fh:
            json.dump({"workload": name, "seed": seed, "traced_ops_per_s": ops_per_s,
                       "setup_s": setups[0],
                       "operations": [{"kind": k, "s": t} for (k, _), t in zip(ops, op_times)],
                       "metrics": {k: v for k, (v, _) in metrics.items()},
                       "spans": tracer.span_records()}, fh)
        print("trace written to %s" % os.path.relpath(path, ROOT))
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for p in problems[:20]:
        print("problem: %s" % p)
    print("%s seed=%d operations=%d timed=%.3fs cpu=%.3fs import=%.3fs "
          "setups=%s" % (name, seed, attempted, timed, cpu, import_s,
                         " ".join("%.3f" % s for s in setups)))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed, trace):
    """Every workload in turn, each in its own interpreter."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False}
        for metric, m in sorted(results[name].get("metrics", {}).items()):
            print("%-10s %-34s %14.6g %s" % (name, metric, m["value"], m["unit"]))
        print("%-10s attempted=%s failed=%s correct=%s" % (
            name, results[name].get("attempted"), results[name].get("failed"),
            results[name].get("correct")))
        if proc.returncode != 0 or not results[name].get("correct"):
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None):
    args = _parse(argv)
    if args.workload is None:
        return run_all(args.seed, args.trace)
    return run_workload(args.workload, args.seed, args.trace)


if __name__ == "__main__":
    sys.exit(main())
