"""Hostile-input fuzzing of the command line, in process.

Every subcommand that reads a DGLA document (and, where it takes one, an
element file or a direction) is fed documents drawn from a small grammar
with hostile values mixed in: unknown or duplicate generator names, odd
degrees, zero denominators, decimals, booleans, wrong types, structures
that break the axioms (run with and without --allow-invalid), and raw
bytes.  Coefficients, in documents, element files and directions, also
come in every written form: signs, leading zeros, Unicode digits, "p/q",
JSON integers, and integers with more digits than int() converts, both as
strings and as bare JSON literals.  The exit-code contract must hold on
every one of them: the code is 0, 1 or 2 (3 is an internal error, a bug),
and it is 1 exactly when the JSON report holds a failed check.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dgla.cli import main

NAMES = ("x", "y", "c", "b", "a")
RATIONALS = (1, -1, 2, 0, "1/2", "-3/2", "2/3", "0", "7")
LONG = "1" * (sys.get_int_max_str_digits() + 700)
LONG_LITERAL = "<bare JSON integer of %d digits>" % len(LONG)
"""Stands for LONG written as a bare JSON number; payload() puts it in."""
FORMS = ("+3", "-007", "007/010", "-0/5", " 2 ", "٣", "١/٢", "+१२/०१", 10 ** 30,
         -(10 ** 30), "3/1", True, False, LONG, "-" + LONG, "1/" + LONG, LONG_LITERAL)
HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(("", "x", "1/0", "0.5", "1e3", "--1", "1/-2", " 3 ")),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(("gen", "coeff", "name")), st.integers(0, 2),
                    max_size=2),
)


def mostly(good, odds=40):
    """good, and one time in odds a hostile value instead."""
    return st.integers(1, odds).flatmap(lambda n: HOSTILE if n == 1 else good)


def coefficients():
    """Mostly plain rationals, one time in eight another written form."""
    forms = st.integers(1, 8).flatmap(
        lambda n: st.sampled_from(FORMS) if n == 1 else st.sampled_from(RATIONALS))
    return mostly(forms)


def names(pool=NAMES):
    return mostly(st.sampled_from(pool))


@st.composite
def combos(draw, pool):
    return [{"gen": draw(names(pool)), "coeff": draw(coefficients())}
            for _ in range(draw(st.integers(0, 2)))]


@st.composite
def documents(draw):
    """A DGLA document from a small grammar; any part may be hostile, and
    one in four documents has a top-level field dropped or replaced."""
    pool = tuple(draw(st.permutations(NAMES))[:draw(st.integers(1, 4))])
    gens = [{"name": draw(mostly(st.just(name))),
             "degree": draw(mostly(st.sampled_from((0, 1, 1, 2, 2, 3, -1))))}
            for name in pool]
    d = [{"from": draw(mostly(st.just(name))), "to": draw(combos(pool))}
         for name in draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))]
    pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    bracket = [{"left": draw(mostly(st.just(x))), "right": draw(mostly(st.just(y))),
                "result": draw(combos(pool))}
               for x, y in draw(st.lists(pairs, max_size=3, unique=True))]
    doc = {"name": "fuzz", "field": "Q", "generators": gens, "d": d, "bracket": bracket}
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(HOSTILE)
    return doc


@st.composite
def elements(draw):
    """An element literal: degree, monomials and coefficients, any part hostile."""
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        mono = draw(mostly(st.sampled_from(("t", "t^2", "t^3"))).map(str)
                    | st.sampled_from(("1", "s", "t^0", "t^-1", "", "t*t")))
        if draw(st.booleans()):
            coeffs = [draw(coefficients()) for _ in range(draw(st.integers(0, 3)))]
        else:
            coeffs = {draw(st.sampled_from(NAMES + ("", "z"))): draw(coefficients())}
        terms[mono] = draw(mostly(st.just(coeffs)))
    elem = {"degree": draw(mostly(st.sampled_from((1, 1, 0, 2)))), "terms": terms}
    return draw(mostly(st.just(elem)))


def payload(value):
    if isinstance(value, bytes):
        return value
    return json.dumps(value).replace(json.dumps(LONG_LITERAL), LONG).encode("utf-8")


@st.composite
def invocations(draw):
    """(subcommand argv with FILE/ELEM/ELEM2 placeholders, document, elements)."""
    direction = draw(st.sampled_from(("1", "0", "1,1", "1/2", "", "x", "1/0", "2,-1/3",
                                      "+1", "-7", "+007/010", "٣", "١/٢,1", LONG, "1/" + LONG,
                                      "1," + LONG)))
    command = draw(st.sampled_from((
        ["validate"], ["homology"], ["sdr"], ["hodge"], ["universal"],
        ["mc-solve", "--direction", direction],
        ["obstruction", "--direction", direction],
        ["kuranishi", "--input", "ELEM"],
        ["kuranishi", "--inverse", "--input", "ELEM"],
        ["gauge-equiv", "--a", "ELEM", "--b", "ELEM2"],
    )))
    argv = command[:1] + ["FILE"] + command[1:]
    if command[0] not in ("validate",) and draw(st.booleans()):
        argv.append("--allow-invalid")
    if command[0] not in ("validate", "homology", "sdr", "hodge"):
        argv += ["--order", str(draw(st.integers(1, 3)))]
    doc = draw(st.integers(0, 9).flatmap(
        lambda n: st.binary(max_size=8) if n == 0 else HOSTILE if n == 1 else documents()))
    return argv + ["--format", "json"], payload(doc), \
        payload(draw(elements())), payload(draw(elements()))


def run_cli(argv, doc, elem, elem2):
    """Run main on argv with the placeholders pointing at files holding doc,
    elem and elem2; returns (exit code, stdout bytes, stderr text)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for tag, blob in (("FILE", doc), ("ELEM", elem), ("ELEM2", elem2)):
            paths[tag] = os.path.join(tmp, tag.lower() + ".json")
            with open(paths[tag], "wb") as fh:
                fh.write(blob)
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([paths.get(a, a) for a in argv])
        out.flush()
        return code, out.buffer.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 1, 2), err
    if code == 2:
        assert err.startswith("error: ") and not out
        return
    stages = json.loads(out)["stages"]
    failed = any(not c["pass"] for s in stages for c in s["checks"])
    assert (code == 1) == failed


E1 = {"name": "E1", "field": "Q",
      "generators": [{"name": "x", "degree": 1}, {"name": "c", "degree": 1},
                     {"name": "b", "degree": 2}],
      "d": [{"from": "c", "to": [{"gen": "b", "coeff": "1"}]}],
      "bracket": [{"left": "x", "right": "x", "result": [{"gen": "b", "coeff": "1"}]}]}
X = {"degree": 1, "terms": {"t": {"x": 1}}}


def with_coefficient(value):
    """E1 with the coefficient of its one bracket written as value."""
    doc = json.loads(json.dumps(E1))
    doc["bracket"][0]["result"][0]["coeff"] = value
    return doc


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(invocations())
@example((["universal", "FILE", "--order", "3", "--format", "json"],
          payload(E1), payload(X), payload(X)))
@example((["kuranishi", "FILE", "--input", "ELEM", "--order", "2", "--format", "json"],
          payload(E1), payload(X), payload(X)))
@example((["gauge-equiv", "FILE", "--a", "ELEM", "--b", "ELEM2", "--order", "2",
           "--format", "json"], payload(E1), payload(X), payload(X)))
@example((["validate", "FILE", "--format", "json"],
          payload(with_coefficient(LONG)), payload(X), payload(X)))
@example((["validate", "FILE", "--format", "json"],
          payload(with_coefficient(LONG_LITERAL)), payload(X), payload(X)))
@example((["universal", "FILE", "--order", "2", "--format", "json"],
          payload(with_coefficient("+१२/०१")), payload(X), payload(X)))
@example((["mc-solve", "FILE", "--direction", LONG, "--order", "2", "--format", "json"],
          payload(E1), payload(X), payload(X)))
@example((["mc-solve", "FILE", "--direction", "1/" + LONG, "--order", "2",
           "--format", "json"], payload(E1), payload(X), payload(X)))
@example((["kuranishi", "FILE", "--input", "ELEM", "--order", "2", "--format", "json"],
          payload(E1), payload({"degree": 1, "terms": {"t": {"x": LONG}}}), payload(X)))
@example((["gauge-equiv", "FILE", "--a", "ELEM", "--b", "ELEM2", "--order", "2",
           "--format", "json"], payload(E1), payload(X),
          payload({"degree": 1, "terms": {"t": [LONG_LITERAL, 0]}})))
def test_exit_code_contract_on_hostile_input(case):
    assert_contract(*run_cli(*case))
