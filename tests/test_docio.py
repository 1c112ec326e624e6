import json
from fractions import Fraction

import pytest

from dgla import BUILTIN_NAMES, builtin_example, validate_dgla
from dgla.docio import (
    DocumentError,
    dgla_to_document,
    document_to_dgla,
    load_dgla,
    parse_document,
    parse_element,
    parse_rational,
    save_dgla,
)
from dgla.formal import CoefficientRing


def F(x):
    return Fraction(x)


def doc_e1():
    return {
        "name": "E1",
        "field": "Q",
        "generators": [
            {"name": "x", "degree": 1},
            {"name": "c", "degree": 1},
            {"name": "b", "degree": 2},
        ],
        "d": [{"from": "c", "to": [{"gen": "b", "coeff": "1"}]}],
        "bracket": [
            {"left": "x", "right": "x", "result": [{"gen": "b", "coeff": "1"}]},
        ],
    }


def test_parse_rational():
    assert parse_rational("1") == F(1)
    assert parse_rational("-3/7") == F("-3/7")
    assert parse_rational(5) == F(5)
    with pytest.raises(DocumentError):
        parse_rational("0.5")
    with pytest.raises(DocumentError):
        parse_rational("1/0")
    with pytest.raises(DocumentError):
        parse_rational(True)
    with pytest.raises(DocumentError):
        parse_rational(1.5)


def test_decimal_literal_rejected_with_message():
    doc = doc_e1()
    doc["bracket"][0]["result"][0]["coeff"] = "0.5"
    with pytest.raises(DocumentError, match="exact rationals only"):
        document_to_dgla(doc)
    with pytest.raises(DocumentError, match="exact rationals only"):
        parse_document('{"generators": [], "d": [], "bracket": [], "x": 0.5}')


def test_parse_error_reports_position():
    with pytest.raises(DocumentError, match="line 1"):
        parse_document('{"name": ')


def test_document_round_trip_matches_catalog():
    L = document_to_dgla(doc_e1())
    assert L == builtin_example("E1")
    doc2 = dgla_to_document(L)
    assert document_to_dgla(doc2) == L


def test_save_load_round_trip(tmp_path):
    for name in BUILTIN_NAMES:
        L = builtin_example(name)
        path = tmp_path / ("%s.json" % name)
        save_dgla(L, str(path))
        L2, rep = load_dgla(str(path))
        assert rep.ok
        assert L2 == L


def test_load_rejects_invalid_unless_allowed(tmp_path):
    doc = doc_e1()
    doc["bracket"][0]["result"] = [{"gen": "c", "coeff": "1"}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DocumentError, match="bracket degree violation"):
        load_dgla(str(path))
    L, rep = load_dgla(str(path), allow_invalid=True)
    assert not rep.ok
    assert not validate_dgla(L).ok


def test_field_must_be_q():
    doc = doc_e1()
    doc["field"] = "R"
    with pytest.raises(DocumentError):
        document_to_dgla(doc)


def test_unknown_generator_reference():
    doc = doc_e1()
    doc["d"].append({"from": "zz", "to": []})
    with pytest.raises(DocumentError):
        document_to_dgla(doc)


def test_inconsistent_redundant_bracket_pair():
    doc = doc_e1()
    # closure forces [c, x'] from [x', c]; supplying a wrong redundant pair fails
    doc["bracket"] = [
        {"left": "x", "right": "c", "result": [{"gen": "b", "coeff": "1"}]},
        {"left": "c", "right": "x", "result": [{"gen": "b", "coeff": "-1"}]},
    ]
    with pytest.raises(DocumentError):
        document_to_dgla(doc)


def test_duplicate_entries_rejected():
    doc = doc_e1()
    doc["generators"].append({"name": "x", "degree": 1})
    with pytest.raises(DocumentError):
        document_to_dgla(doc)
    doc = doc_e1()
    doc["d"].append({"from": "c", "to": [{"gen": "b", "coeff": "2"}]})
    with pytest.raises(DocumentError):
        document_to_dgla(doc)


@pytest.mark.parametrize("key, value", [("d", 5), ("bracket", None)])
def test_non_list_d_or_bracket_rejected(key, value):
    doc = doc_e1()
    doc[key] = value
    with pytest.raises(DocumentError, match="%s must be a list" % key):
        document_to_dgla(doc)


def test_empty_document_gives_zero_dgla():
    doc = {"name": "zero", "field": "Q", "generators": [], "d": [], "bracket": []}
    L = document_to_dgla(doc)
    assert L.dims == {}
    assert validate_dgla(L).ok


def test_parse_element_forms():
    L = builtin_example("E1")
    ring = CoefficientRing.single(3)
    dense = parse_element(L, ring, {"degree": 1, "terms": {"t": ["1", "0"]}})
    named = parse_element(L, ring, {"degree": 1, "terms": {"t": {"x": "1"}}})
    assert dense == named
    from_str = parse_element(L, ring, '{"degree": 1, "terms": {"t": {"x": 1}}}')
    assert from_str == dense
    assert dense.coefficient((1,)) == (F(1), F(0))


def test_parse_element_validation():
    L = builtin_example("E1")
    ring = CoefficientRing.single(3)
    with pytest.raises(DocumentError):
        parse_element(L, ring, {"degree": 1, "terms": {"t": ["1"]}})
    with pytest.raises(DocumentError):
        parse_element(L, ring, {"degree": 1, "terms": {"t": {"b": "1"}}})
    with pytest.raises(DocumentError):
        parse_element(L, ring, {"degree": 1, "terms": {"u": ["1", "0"]}})
    with pytest.raises(DocumentError):
        parse_element(L, ring, {"degree": 2, "terms": {}}, expect_degree=1)
    with pytest.raises(DocumentError):
        parse_element(L, ring, {"degree": 1, "terms": {"t": ["1", "0.5"]}})


@pytest.mark.parametrize("text", [
    "+3", "-0/5", "007/010", " 3 ", "-12/18", "٣/٤", "+१२/०१"])
def test_parse_rational_matches_fraction_of_text(text):
    # the integers of the matched text, not Fraction(text), build the value
    got = parse_rational(text)
    assert type(got) is Fraction and got == Fraction(text)


@pytest.mark.parametrize("text", [
    "1/0", "007/000", "٣/٠", "0.5", "1/-2", "1e3", "", "/3", "3/", "1_000",
    "3 /4", "0x10"])
def test_parse_rational_rejections_kept(text):
    with pytest.raises(DocumentError):
        parse_rational(text)
