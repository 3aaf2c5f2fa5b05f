"""Each benchmark round runs and passes its own output checks."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.mark.parametrize("workload", ["cli", "verdicts"])
def test_bench_round_is_correct(workload):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           "--workload", workload, "--seed", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
