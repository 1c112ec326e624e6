"""Run reports: a stage-structured result record with canonical serialization.

A RunReport holds only JSON-ready data (strings, ints, bools, lists, dicts);
rationals travel as exact "p/q" strings and a zero formal element as the
string "0".  Canonical JSON uses sorted keys and minimal separators, so the
same report always serializes to byte-identical output.
"""

import json
from fractions import Fraction
from math import gcd


def int_str(n):
    """The decimal digits of the int n, however many: str() refuses an int
    of more digits than sys.get_int_max_str_digits() (4300 by default), so a
    longer one is split at a power of ten into halves that are rendered the
    same way.  The interpreter's limit is left as it is."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + int_str(-n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(n, 10 ** k)
    return int_str(high) + int_str(low).rjust(k, "0")


def rational_str(c):
    """Exact decimal-free rendering, e.g. 1/2 -> "1/2", 3 -> "3"."""
    c = Fraction(c)
    return _ratio_str(c.numerator, c.denominator)


def basis_data(basis):
    """Each basis vector rendered from its integer form nums / den."""
    return [[_ratio_str(c, den) for c in nums] for den, nums in basis.ints]


def _ratio_str(p, q):
    """rational_str(Fraction(p, q)) for ints p and q > 0, without the
    Fraction: lowest terms by one gcd, then "p/q", "p" or "0"."""
    if not p:
        return "0"
    g = gcd(p, q)
    if g == q:
        return int_str(p // q)
    return "%s/%s" % (int_str(p // g), int_str(q // g))


def element_data(elem):
    """FormalElement -> "0" or {"degree": d, "terms": {mono: [coeffs]}},
    each coefficient rendered from the element's integers num / den."""
    if elem.is_zero():
        return "0"
    den = elem.den
    mono_str, mono = elem.ring.mono_str, elem.ring.mono
    return {"degree": elem.degree,
            "terms": {mono_str(mono(key)): [_ratio_str(c, den) for c in vec]
                      for key, vec in elem.graded_nums()}}


def matrix_data(mat):
    """Dense row-major string form (small blocks only), each cell rendered
    from the matrix's integers num / den."""
    nums, den = mat.nums, mat.den
    return [[_ratio_str(nums.get((i, j), 0), den) for j in range(mat.cols)]
            for i in range(mat.rows)]


def graded_map_data(gmap):
    return {
        "%d->%d" % key: matrix_data(gmap.blocks[key]) for key in sorted(gmap.blocks)
    }


class RunReport:
    """Ordered stages, each with a data payload and pass/fail checks."""

    def __init__(self, input_info=None, options=None):
        self.input_info = dict(input_info) if input_info else None
        self.options = dict(options) if options else None
        self.stages = []

    def add_stage(self, name, data=None, checks=None):
        stage = {"stage": name, "data": data or {}, "checks": []}
        for cname, ok in checks or ():
            stage["checks"].append({"name": cname, "pass": bool(ok)})
        self.stages.append(stage)
        return stage

    def all_pass(self):
        return all(c["pass"] for s in self.stages for c in s["checks"])

    def failed_checks(self):
        return [
            (s["stage"], c["name"])
            for s in self.stages
            for c in s["checks"]
            if not c["pass"]
        ]

    def to_data(self):
        data = {"stages": self.stages}
        if self.input_info is not None:
            data["input"] = self.input_info
        if self.options is not None:
            data["options"] = self.options
        return data

    def __repr__(self):
        return "RunReport(%d stage(s), %s)" % (
            len(self.stages), "all pass" if self.all_pass() else "FAILURES")


def canonical_json(data):
    """Stable key order, minimal separators, trailing newline."""
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _render_value(value, indent):
    pad = " " * indent
    lines = []
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v:
                lines.append("%s%s:" % (pad, k))
                lines.extend(_render_value(v, indent + 2))
            else:
                lines.append("%s%s: %s" % (pad, k, json.dumps(v)))
    elif isinstance(value, list):
        simple = all(not isinstance(x, (dict, list)) for x in value)
        if simple:
            lines.append("%s%s" % (pad, json.dumps(value)))
        else:
            for x in value:
                lines.extend(_render_value(x, indent))
    else:
        lines.append("%s%s" % (pad, json.dumps(value)))
    return lines


def emit_report(r, fmt, color=False):
    """Serialize a report: canonical json bytes, or a plain-text summary."""
    if fmt == "json":
        return canonical_json(r.to_data())
    if fmt != "text":
        raise ValueError("unknown report format %r" % (fmt,))
    ok_mark, bad_mark = "PASS", "FAIL"
    if color:
        ok_mark = "\x1b[32mPASS\x1b[0m"
        bad_mark = "\x1b[31mFAIL\x1b[0m"
    lines = []
    if r.input_info:
        for k in sorted(r.input_info):
            lines.append("%s: %s" % (k, r.input_info[k]))
    if r.options:
        lines.append("options: " + json.dumps(r.options, sort_keys=True))
    for s in r.stages:
        lines.append("")
        lines.append("== %s ==" % s["stage"])
        if s["data"]:
            lines.extend(_render_value(s["data"], 2))
        for c in s["checks"]:
            lines.append("  [%s] %s" % (ok_mark if c["pass"] else bad_mark, c["name"]))
    lines.append("")
    lines.append("result: %s" % ("all checks passed" if r.all_pass()
                                 else "%d check(s) FAILED" % len(r.failed_checks())))
    return ("\n".join(lines) + "\n").encode("utf-8")
