#!/usr/bin/env python3
"""Benchmark of the dgla engine: one workload per invocation, in one process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json): mc_universal,
ce4_structure, gauge_ce4.  The library is imported from ./src; nothing is
installed or built.

Order of work:
  1. guard: the bytes of `dgla selftest --format json`, run in a child
     process, must hash to the value pinned in pins.json;
  2. set-up is repeated (at least SETUP_MIN_REPS times and SETUP_SECONDS
     long) and setup_s is its median; the last state is kept;
  3. one-off input checks (precheck), outside every timing;
  4. --trace 0: timed runs until --seconds is spent (at least MIN_RUNS),
     each followed, outside its timing, by the workload's oracles and the
     output hash check;
     --trace 1: the same runs without the tracer for half of --seconds,
     then under the tracer (tracer.py) for the other half; the per-layer
     figures come from the traced runs and trace.overhead_s is the
     difference of the two medians.
The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A full record (environment stamp, every sample, every check,
and with --trace 1 every span) goes to .perfbench_out/ in the checkout.
The exit code is 0 only if every check passed; 2 means the library could
not be imported.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_MIN_REPS = 5
SETUP_SECONDS = 1.0
MIN_RUNS = 3

# counters that must repeat exactly between runs and invocations
COUNTER_SUFFIXES = (".calls", ".pairs_offered", ".pairs_in_trunc",
                    ".out_monomials", ".monomials", ".cells", ".iterations",
                    ".bytes", ".generators")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_library():
    """Import dgla from ./src only; None if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import dgla
    except ImportError as e:
        log("perfbench: cannot import dgla from %s: %s" % (SRC, e))
        return None
    if not os.path.abspath(dgla.__file__).startswith(SRC + os.sep):
        log("perfbench: dgla imported from %s, not from %s" % (dgla.__file__, SRC))
        return None
    return dgla


def selftest_sha():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "dgla.cli", "selftest", "--format", "json"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=120, check=False)
    return hashlib.sha256(proc.stdout).hexdigest()


def git_sha():
    """HEAD of a git checkout at ROOT, read from .git; None elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_sha():
    """sha256 over every file under src/, so non-git checkouts are stamped too."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def stamp(dgla):
    backend = getattr(dgla, "kernel_backend", None)
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": backend() if backend else "python",
        "machine": platform.machine(),
    }


def load_pins():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Checks:
    """Whether each check label passed every time; logs its first failure."""

    def __init__(self):
        self.results = {}

    def add(self, label, ok):
        prev = self.results.get(label, True)
        self.results[label] = prev and bool(ok)
        if not ok and prev:
            log("perfbench: check failed: %s" % label)
        return bool(ok)

    def all_ok(self):
        return all(self.results.values())


def timed_setups(wl, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    times = []
    state = None
    begin = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - begin < SETUP_SECONDS:
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed, OUT_DIR)
        times.append(time.perf_counter() - t0)
    return state, times


def run_phase(wl, state, seconds, min_runs, checks, expect_sha, tracer=None):
    """Runs until the next one would overrun `seconds`; returns per-run records."""
    records = []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if len(records) >= min_runs:
            last = records[-1]["run_s"]
            if elapsed + last > seconds:
                break
        run_id = len(records)
        gc.collect()
        ok = True
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(state)
            else:
                out = tracer.run(run_id, lambda: wl.run(state))
            dt = time.perf_counter() - t0
        except Exception:  # a failed run is counted, not fatal
            dt = time.perf_counter() - t0
            traceback.print_exc()
            checks.add("run-raised", False)
            records.append({"run_s": dt, "ok": False, "sha256": None})
            continue
        for label, good in wl.check(state, out):
            ok = checks.add(label, good) and ok
        sha = hashlib.sha256(out["blob"]).hexdigest()
        if expect_sha is not None:
            ok = checks.add("output-sha256-pinned", sha == expect_sha) and ok
        records.append({"run_s": dt, "ok": ok, "sha256": sha})
        del out
    return records


def layer_metrics(tracer, runs, untraced_s, checks):
    """Per-layer metrics: median times over the traced runs, exact counters."""
    per_run = [tracer.run_metrics(rid) for rid in range(len(runs))]
    counter_keys = [k for k in per_run[0] if k.endswith(COUNTER_SUFFIXES)]
    for k in counter_keys:
        checks.add("counter-repeats:" + k, all(m.get(k) == per_run[0][k] for m in per_run))
    out = {k: per_run[0][k] if k in counter_keys
           else statistics.median(m.get(k, 0) for m in per_run) for k in per_run[0]}
    traced_s = statistics.median(r["run_s"] for r in runs)
    out["trace.run_s"] = traced_s
    out["trace.untraced_run_s"] = untraced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.unaccounted_s"] = untraced_s - out["trace.layer_self_s"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    dgla = import_library()
    if dgla is None:
        return 2
    sys.path.insert(0, HERE)
    import tracer as tracer_mod
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        log("perfbench: unknown workload %r (have %s)"
            % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    pins = load_pins()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    checks = Checks()

    sha = selftest_sha()
    checks.add("selftest-sha256-pinned", sha == pins["selftest_sha256"])

    state, setup_times = timed_setups(wl, args.seed)
    for label, ok in wl.precheck(state):
        checks.add("precheck:" + label, ok)
    expect = pins["outputs"].get(wl.name, {}).get(str(args.seed))

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp(dgla),
              "setup_s_samples": setup_times}
    if args.trace == 0:
        runs = run_phase(wl, state, args.seconds, MIN_RUNS, checks, expect)
        attempted = len(runs)
        failed = sum(not r["ok"] for r in runs)
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in runs),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
        }
        declared = spec["end_to_end"]
    else:
        plain = run_phase(wl, state, args.seconds / 2, 1, checks, expect)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            traced = run_phase(wl, state, args.seconds / 2, 2, checks, expect,
                               tracer=tracer)
        finally:
            tracer.uninstall()
        for layer in tracer.missing:
            log("perfbench: layer %s not found; its metrics read 0" % layer)
        runs = plain + traced
        attempted = len(runs)
        failed = sum(not r["ok"] for r in runs)
        metrics = layer_metrics(
            tracer, traced, statistics.median(r["run_s"] for r in plain), checks)
        record["spans"] = tracer.span_dump()
        declared = spec["per_layer"]

    checks.add("output-sha256-repeats", len({r["sha256"] for r in runs}) == 1)
    correct = checks.all_ok() and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in declared},
    }
    record.update(result=result, runs=runs, checks=checks.results,
                  all_metrics=metrics)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (wl.name, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
