"""In-memory span tracing of the dgla layers, installed from outside the library.

install() wraps the functions and methods listed in LAYERS and rebinds every
name under which a dgla module looks them up (module globals such as
dgla.algebra.bracket_convolve, class attributes such as
FormalElement.__add__), so calls made inside the library are seen too.
Each call of a wrapped target while the tracer is active records a span
[layer, start, end, parent span, run id] and bumps the layer's counters.
uninstall() puts every original back.

Layer names follow the src/dgla module that does the work; one layer may
cover several targets (formal.arith is FormalElement + - scale ==).
"""

import importlib
import os
import sys
from collections import Counter
from functools import wraps
from time import perf_counter


def _convolve_counts(counts, args, out):
    u, v, _, trunc, _ = args
    counts["pairs_offered"] += len(u) * len(v)
    vdeg = Counter(sum(m) for m in v)
    for du, nu in Counter(sum(m) for m in u).items():
        counts["pairs_in_trunc"] += nu * sum(
            nv for dv, nv in vdeg.items() if du + dv <= trunc)
    counts["out_monomials"] += len(out)


def _matvec_counts(counts, args, out):
    counts["monomials"] += len(args[0])


def _validate_counts(counts, args, out):
    counts["generators"] += len(args[0].generators)


def _rref_counts(counts, args, out):
    counts["cells"] += len(args[0]) * args[1]


def _fixed_point_counts(counts, args, out):
    counts["iterations"] += out[1]


def _load_counts(counts, args, out):
    counts["bytes"] += os.path.getsize(args[0])


def _json_counts(counts, args, out):
    counts["bytes"] += len(out)


# (layer, candidate modules, attribute names, counter hook).  A dotted
# attribute is a method on a class of that module.  The first module that
# has every attribute wins, so a kernel that moves out of dgla.backend is
# still found in dgla._kernels.
LAYERS = (
    ("kernels.bracket_convolve", ("dgla.backend", "dgla._kernels"),
     ("bracket_convolve",), _convolve_counts),
    ("kernels.matvec_terms", ("dgla.backend", "dgla._kernels"),
     ("matvec_terms",), _matvec_counts),
    ("algebra.validate_dgla", ("dgla.algebra",), ("validate_dgla",),
     _validate_counts),
    ("algebra.apply_bracket", ("dgla.algebra",), ("DGLA.apply_bracket",), None),
    ("formal.arith", ("dgla.formal",),
     ("FormalElement.__add__", "FormalElement.__sub__",
      "FormalElement.scale", "FormalElement.__eq__"), None),
    ("graded.apply_element", ("dgla.graded",),
     ("GradedLinearMap.apply_element",), None),
    ("graded.compose", ("dgla.graded",),
     ("GradedLinearMap.__matmul__", "GradedLinearMap.__add__",
      "GradedLinearMap.__eq__"), None),
    ("linalg.rref_rows", ("dgla.linalg",), ("rref_rows",), _rref_counts),
    ("linalg.solve_linear", ("dgla.linalg",), ("solve_linear",), None),
    ("sdr.build_splitting", ("dgla.sdr",), ("build_splitting",), None),
    ("sdr.build_contraction", ("dgla.sdr",), ("build_contraction",), None),
    ("sdr.verify_sdr", ("dgla.sdr",), ("verify_sdr",), None),
    ("hodge.checks", ("dgla.selftest",), ("hodge_checks",), None),
    ("hodge.check_cartan", ("dgla.hodge",), ("check_cartan",), None),
    ("deform.fixed_point", ("dgla.deform",), ("_fixed_point",),
     _fixed_point_counts),
    ("deform.recursion", ("dgla.deform",), ("solve_by_recursion",), None),
    ("deform.kuranishi", ("dgla.deform",), ("kuranishi_map",), None),
    ("deform.gauge_act", ("dgla.deform",), ("gauge_act",), None),
    ("deform.gauge_equivalent", ("dgla.deform",), ("gauge_equivalent",), None),
    ("docio.load_dgla", ("dgla.docio",), ("load_dgla",), _load_counts),
    ("report.canonical_json", ("dgla.report",), ("canonical_json",),
     _json_counts),
)

ROOT = "bench.run"


class Tracer:
    """Span and counter store for one traced benchmark invocation."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index, run id]
        self.counts = {}         # run id -> Counter of "layer.counter"
        self.missing = []        # layers whose targets were not found
        self._stack = []
        self._depth = Counter()  # layer -> open spans, to spot nesting
        self._run = None
        self._restore = []

    # recording

    def _open(self, layer):
        span = [layer, perf_counter(), None,
                self._stack[-1] if self._stack else -1, self._run,
                self._depth[layer] > 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._depth[layer] += 1
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def run(self, run_id, fn):
        """Call fn() under a root span with tracing on; returns its value."""
        self._run = run_id
        self.counts[run_id] = Counter()
        root = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(root)
            self._run = None

    def _wrap(self, layer, fn, hook):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if tracer._run is None:
                return fn(*args, **kwargs)
            span = tracer._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                sub = Counter()
                hook(sub, args, out)
                counts = tracer.counts[tracer._run]
                for key, n in sub.items():
                    counts[layer + "." + key] += n
            return out

        return traced

    # installation

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "dgla" or name.startswith("dgla."))]
        for layer, modnames, attrs, hook in LAYERS:
            owner = _find_owner(modnames, attrs)
            if owner is None:
                self.missing.append(layer)
                continue
            for attr in attrs:
                if "." in attr:
                    cls = getattr(owner, attr.split(".")[0])
                    name = attr.split(".")[1]
                    orig = cls.__dict__[name]
                    setattr(cls, name, self._wrap(layer, orig, hook))
                    self._restore.append((cls, name, orig))
                    continue
                orig = getattr(owner, attr)
                traced = self._wrap(layer, orig, hook)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, traced)
                            self._restore.append((mod, key, orig))

    def uninstall(self):
        for obj, name, orig in reversed(self._restore):
            setattr(obj, name, orig)
        self._restore = []

    # analysis

    def run_metrics(self, run_id):
        """Flat metrics of one run: per layer s (outermost spans), self_s and
        calls, the hook counters, and the self time inside and outside layers."""
        idx = [k for k, s in enumerate(self.spans) if s[4] == run_id]
        child = Counter()
        for k in idx:
            s = self.spans[k]
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        rows = {layer: {"s": 0.0, "self_s": 0.0, "calls": 0}
                for layer in [ROOT] + [spec[0] for spec in LAYERS]}
        for k in idx:
            layer, start, end, _, _, nested = self.spans[k]
            row = rows[layer]
            row["calls"] += 1
            row["self_s"] += end - start - child[k]
            if not nested:
                row["s"] += end - start
        out = Counter()
        for layer, row in rows.items():
            if layer != ROOT:
                for key, val in row.items():
                    out[layer + "." + key] = val
        out.update(self.counts[run_id])
        offered = out["kernels.bracket_convolve.pairs_offered"]
        out["kernels.bracket_convolve.kept_ratio"] = (
            out["kernels.bracket_convolve.pairs_in_trunc"] / offered if offered else 0.0)
        out["trace.layer_self_s"] = sum(
            row["self_s"] for layer, row in rows.items() if layer != ROOT)
        out["trace.glue_self_s"] = rows[ROOT]["self_s"]
        return dict(out)

    def span_dump(self):
        """Spans as compact JSON-ready rows, times in ns from the first span."""
        names = sorted({s[0] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[code[s[0]], round((s[1] - t0) * 1e9), round((s[2] - t0) * 1e9),
                 s[3], s[4]] for s in self.spans]
        return {"names": names,
                "columns": ["name", "start_ns", "end_ns", "parent", "run"],
                "spans": rows}


def _find_owner(modnames, attrs):
    for modname in modnames:
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            continue
        if all(_has(mod, attr) for attr in attrs):
            return mod
    return None


def _has(mod, attr):
    if "." in attr:
        cls_name, name = attr.split(".")
        cls = getattr(mod, cls_name, None)
        return cls is not None and name in vars(cls)
    return callable(getattr(mod, attr, None))
