"""The benchmark's own test: traced counters repeat exactly.

Runs each workload twice under --trace 1 (short --seconds, so each
invocation makes the minimum number of runs) and asserts that both
invocations pass every check and report identical deterministic counters.
Within one invocation, run.py already fails if a counter differs between
runs.  Slow (about a minute and a half); run it on its own:

    python3 -m pytest perfbench/test_counters.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import COUNTER_SUFFIXES  # noqa: E402

WORKLOADS = ("mc_universal", "ce4_structure", "gauge_ce4")


def traced_result(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=300, check=False)
    assert proc.returncode == 0
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_across_invocations(workload):
    first = traced_result(workload, 0)
    second = traced_result(workload, 0)
    assert first["correct"] and second["correct"]
    counters = {k: v["value"] for k, v in first["metrics"].items()
                if k.endswith(COUNTER_SUFFIXES)}
    assert counters and any(counters.values())
    assert counters == {k: second["metrics"][k]["value"] for k in counters}
