"""The benchmark's output pins, checked in-process.

For every seed pinned in perfbench/pins.json, each workload of
perfbench/workloads.py goes through its set-up (writing into a temporary
directory), its input checks, one run and its oracles, and the sha256 of
the run's canonical bytes must equal the pin.  This is what
`perfbench/run.py --seed S` checks before it times anything, without the
timing: so a plain pytest run sees a changed tau, gauge witness or
structure report.  Nothing under perfbench/ is written.
"""

import hashlib
import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
dont_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
try:
    import workloads
finally:
    sys.dont_write_bytecode = dont_write_bytecode

with open(os.path.join(PERFBENCH, "pins.json"), encoding="utf-8") as fh:
    PINS = json.load(fh)["outputs"]

CASES = [(name, int(seed)) for name in sorted(PINS) for seed in sorted(PINS[name], key=int)]


def test_every_workload_is_pinned_at_ten_seeds():
    assert set(PINS) == set(workloads.WORKLOADS)
    assert all(sorted(map(int, seeds)) == list(range(10)) for seeds in PINS.values())


@pytest.mark.parametrize("name,seed", CASES, ids=["%s-%d" % case for case in CASES])
def test_workload_output_matches_its_pin(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed, str(tmp_path))
    for label, ok in wl.precheck(state):
        assert ok, label
    out = wl.run(state)
    for label, ok in wl.check(state, out):
        assert ok, label
    assert hashlib.sha256(out["blob"]).hexdigest() == PINS[name][str(seed)]
