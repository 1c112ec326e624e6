import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla.algebra import DGLA
from dgla.formal import CoefficientRing, FormalElement
from dgla.report import (
    RunReport,
    canonical_json,
    element_data,
    emit_report,
    rational_str,
)

from reference import reference_element_data


def F(x):
    return Fraction(x)


def test_rational_strings():
    assert rational_str(F("1/2")) == "1/2"
    assert rational_str(F(-3)) == "-3"
    assert rational_str(F(0)) == "0"


def test_element_data_zero_and_terms():
    ring = CoefficientRing.single(3)
    assert element_data(FormalElement.zero(ring, 1, 2)) == "0"
    e = FormalElement(ring, 1, 2, {(2,): (F(0), F("-1/2"))})
    assert element_data(e) == {"degree": 1, "terms": {"t^2": ["0", "-1/2"]}}


RING = CoefficientRing(("t1", "t2"), 3)
MONOMIALS = RING.all_monomials()
# a degree 1 x degree 1 -> degree 2 bracket with fractional constants
QUAD = DGLA([("x", 1), ("y", 1), ("b", 2), ("e", 2)],
            bracket={("x", "x"): [("b", Fraction(1, 2))],
                     ("x", "y"): [("b", Fraction(-2, 3)), ("e", 3)],
                     ("y", "x"): [("b", Fraction(-2, 3)), ("e", 3)],
                     ("y", "y"): [("e", Fraction(-5, 7))]},
            name="quad")


@st.composite
def elements(draw):
    """A degree 1 element of QUAD over RING: integer-only (den 1) or
    fractional coefficients, negative numerators and zero slots."""
    whole = draw(st.booleans())
    den = st.just(1) if whole else st.sampled_from((1, 2, 3, 6, 9))
    coeff = st.builds(Fraction, st.integers(-9, 9), den)
    monos = draw(st.lists(st.sampled_from(MONOMIALS), max_size=6, unique=True))
    return FormalElement(RING, 1, 2, {m: (draw(coeff), draw(coeff)) for m in monos})


@settings(max_examples=200, deadline=None)
@given(elements(), elements(), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)))
@example(FormalElement(RING, 1, 2, {(1, 0): (Fraction(-4), Fraction(0))}),
         FormalElement(RING, 1, 2, {(0, 1): (Fraction(0), Fraction(3, 2))}),
         Fraction(-1))
def test_element_data_renders_the_integers_as_fractions(x, y, c):
    produced = [x, y, x + y, x - x, x - y, x.scale(c), y.scale(Fraction(1, 6)),
                QUAD.apply_bracket(x, y), QUAD.apply_bracket(x, x),
                QUAD.bracket_sum(RING, 2, symmetric=[(x, y)], squares=[y]),
                QUAD.bracket_sum(RING, 2, ordered=[(x, y), (y, x)], den=6)]
    for e in produced:
        assert element_data(e) == reference_element_data(e)


def test_empty_report_canonical_form():
    r = RunReport()
    assert emit_report(r, "json") == b'{"stages":[]}\n'


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, {"z": "0", "y": "1/3"}]})
    b = canonical_json({"a": [2, {"y": "1/3", "z": "0"}], "b": 1})
    assert a == b


def test_report_round_trip():
    r = RunReport(input_info={"path": "p", "sha256": "00"},
                  options={"order": 4})
    r.add_stage("s1", data={"k": ["1/2", "3"]},
                checks=[("alpha", True), ("beta", False)])
    r.add_stage("s2", data={}, checks=[])
    blob = emit_report(r, "json")
    assert json.loads(blob) == r.to_data()
    assert canonical_json(json.loads(blob)) == blob
    assert not r.all_pass()
    assert r.failed_checks() == [("s1", "beta")]


def test_text_format_marks_and_result():
    r = RunReport()
    r.add_stage("probe", data={"value": "1/2"},
                checks=[("good", True), ("bad", False)])
    text = emit_report(r, "text").decode()
    assert "[PASS] good" in text
    assert "[FAIL] bad" in text
    assert "== probe ==" in text
    assert "FAILED" in text
    plain = emit_report(r, "text", color=False).decode()
    assert "\x1b[" not in plain
    colored = emit_report(r, "text", color=True).decode()
    assert "\x1b[" in colored


def test_all_pass_on_empty_and_passing():
    r = RunReport()
    assert r.all_pass()
    r.add_stage("s", data={}, checks=[("ok", True)])
    assert r.all_pass()
