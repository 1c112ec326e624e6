import json
import os
import sys
from fractions import Fraction
from random import Random

import pytest

from dgla import BUILTIN_NAMES, DGLA, antisymmetric_closure, builtin_example, validate_dgla
from dgla.cli import main
from dgla.docio import (
    DocumentError,
    _coefficient,
    document_to_dgla,
    load_dgla,
    parse_document,
    parse_element,
    parse_rational,
)
from dgla.formal import CoefficientRing

from test_benchmark_pins import workloads


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


# Two strings naming one monomial are refused, not added or overwritten,
# whichever order they come in and even where one vector is all zero.
@pytest.mark.parametrize("variables, terms", [
    (("t",), {"t": ["1", "0"], "t^1": ["5", "0"]}),
    (("t",), {"t": ["1", "0"], "t^1": ["0", "0"]}),
    (("t",), {"t^1": ["0", "0"], "t": ["1", "0"]}),
    (("t",), {"t*t": ["1", "0"], "t^2": {"x": "2"}}),
    (("t1", "t2"), {"t1*t2": ["1", "0"], "t2*t1": ["0", "1"]}),
    (("t1", "t2"), {"t1*t2": ["0", "0"], " t2 * t1 ": ["0", "0"]}),
])
def test_parse_element_refuses_a_repeated_monomial(variables, terms):
    L = builtin_example("E1")
    ring = CoefficientRing(variables, 3)
    with pytest.raises(DocumentError, match="are the same"):
        parse_element(L, ring, {"degree": 1, "terms": terms})


# A JSON key repeated in one object of an element literal is refused, not
# kept at its last value, at any depth of the literal.
@pytest.mark.parametrize("text, key", [
    ('{"degree": 1, "terms": {"t": [1, 0], "t": [5, 0]}}', "t"),
    ('{"degree": 1, "terms": {"t": [1, 0], "t": [1, 0]}}', "t"),
    ('{"degree": 1, "terms": {"t": {"x": 1, "x": 5}}}', "x"),
    ('{"degree": 1, "terms": {"t": {"x": 1}}, "terms": {}}', "terms"),
    ('{"degree": 1, "degree": 1, "terms": {}}', "degree"),
    # two keys repeated: the one whose repeat comes first is named
    ('{"degree": 1, "terms": {"t": {"x": 1, "c": 2, "c": 3, "x": 4}}}', "c"),
    ('{"terms": {}, "degree": 1, "terms": {}, "degree": 1}', "terms"),
])
def test_parse_element_refuses_a_repeated_key(text, key):
    L = builtin_example("E1")
    ring = CoefficientRing.single(3)
    with pytest.raises(DocumentError, match="key %r is repeated" % key):
        parse_element(L, ring, text)


# A DGLA document refuses a repeated key at any depth, as element literals
# do (SINGLE_FAULTS has one at the top and one nested): keeping the last
# value would load E3 with its bracket entry emptied, and `universal` would
# then call the obstructed direction flat.
def test_repeated_key_in_a_document_exits_two(tmp_path, capsys):
    with open(os.path.join(CORPUS_DIR, "E3.json"), encoding="utf-8") as fh:
        text = json.dumps(json.load(fh))
    old = '"result": [{"gen": "b", "coeff": "1"}]'
    assert text.count(old) == 1
    path = tmp_path / "E3.json"
    path.write_text(text.replace(old, '"result": [{"gen": "b", "coeff": 1}], "result": []'))
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert not out.out
    assert out.err == "error: load: key 'result' is repeated in one object\n"


# A name that is not printable text is refused wherever a document gives
# one (SINGLE_FAULTS has each field), and shown through %r, so no control
# character reaches the terminal.
def test_unprintable_name_exits_two_on_one_line(tmp_path, capsys):
    # a degree fault alone would be reported; the name is refused first
    bad = "a\x1b[31mRED\nfake: line"
    doc = {"name": "E", "field": "Q",
           "generators": [{"name": bad, "degree": 1}, {"name": "b", "degree": 3}],
           "bracket": [{"left": bad, "right": bad,
                        "result": [{"gen": "b", "coeff": 1}]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "homology"):
        assert main([command, str(path)]) == 2
        out = capsys.readouterr()
        assert not out.out
        assert out.err.count("\n") == 1 and out.err.endswith("\n")
        assert "\x1b" not in out.err
        assert out.err.startswith("error: load: generator 'name' field must be printable")


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


CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "corpus")
LONG = "1" * (sys.get_int_max_str_digits() + 700)


def api_twin(doc):
    """The DGLA of a well-formed document built through the Python API, with
    every coefficient read by Fraction."""
    gens = [(g["name"], g["degree"]) for g in doc["generators"]]

    def combo(ents):
        return [(e["gen"], Fraction(e["coeff"])) for e in ents]

    d = {e["from"]: combo(e["to"]) for e in doc["d"]}
    pairs = {(e["left"], e["right"]): combo(e["result"]) for e in doc["bracket"]}
    return DGLA(gens, d=d, bracket=antisymmetric_closure(gens, pairs), name=doc["name"])


def summed_by_hand(doc):
    """d and every bracket pair of a document, summed in Fractions, with the
    reverse of each supplied pair filled in by the sign rule."""
    degree = {g["name"]: g["degree"] for g in doc["generators"]}

    def total(ents):
        out = {}
        for e in ents:
            out[e["gen"]] = out.get(e["gen"], 0) + Fraction(e["coeff"])
        return {g: c for g, c in out.items() if c}

    d = {e["from"]: total(e["to"]) for e in doc["d"]}
    bracket = {}
    for e in doc["bracket"]:
        x, y = e["left"], e["right"]
        bracket[(x, y)] = total(e["result"])
        s = 1 if degree[x] % 2 and degree[y] % 2 else -1
        bracket.setdefault((y, x), {g: s * c for g, c in bracket[(x, y)].items()})
    return d, bracket


# the ways one coefficient may be written: (JSON value, its value)
FORMS = [(3, 3), (-2, -2), ("7", 7), ("+3", 3), ("-007", -7), ("0", 0), (0, 0),
         ("-0/5", 0), ("1/2", Fraction(1, 2)), ("-3/7", Fraction(-3, 7)),
         ("007/010", Fraction(7, 10)), (" 4/6 ", Fraction(2, 3)), ("٣", 3),
         ("١/٢", Fraction(1, 2)), (10 ** 30, 10 ** 30), ("6/3", 2)]


def random_document(seed):
    """A seeded well-formed document mixing integer and fractional
    coefficients in every written form, with zero coefficients, repeated
    terms that cancel to zero, and bracket pairs supplied in both orders
    (the second order written with its terms split and reordered)."""
    rng = Random(seed)
    names = ["g%d" % i for i in range(rng.randint(2, 6))]
    degree = {n: rng.choice((0, 1, 1, 2, 3)) for n in names}

    def combo():
        ents = []
        for _ in range(rng.randint(0, 3)):
            g, (text, value) = rng.choice(names), rng.choice(FORMS)
            ents.append({"gen": g, "coeff": text})
            if rng.random() < 0.3:      # the same term again, and its negative
                ents += [{"gen": g, "coeff": text},
                         {"gen": g, "coeff": str(-2 * Fraction(value))}]
        rng.shuffle(ents)
        return ents

    doc = {"name": "random%d" % seed, "field": "Q",
           "generators": [{"name": n, "degree": degree[n]} for n in names],
           "d": [{"from": n, "to": combo()} for n in names if rng.random() < 0.5],
           "bracket": []}
    for i, x in enumerate(names):
        for y in names[i:]:
            if rng.random() < 0.5:
                continue
            ents = combo()
            doc["bracket"].append({"left": x, "right": y, "result": ents})
            if x != y and rng.random() < 0.4:
                s = 1 if degree[x] % 2 and degree[y] % 2 else -1
                back = [{"gen": e["gen"], "coeff": str(s * Fraction(e["coeff"]) / 2)}
                        for e in ents for _ in range(2)]
                back.append({"gen": rng.choice(names), "coeff": "0"})
                rng.shuffle(back)
                doc["bracket"].append({"left": y, "right": x, "result": back})
    rng.shuffle(doc["bracket"])
    return doc


def test_coefficients_parse_to_int_or_fraction():
    for text, value in FORMS:
        got = _coefficient(text)
        assert got == value and type(got) is (Fraction if "/" in str(text) else int)
        assert type(parse_rational(text)) is Fraction and parse_rational(text) == value


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_loader_agrees_with_the_python_api_on_the_corpus(name):
    with open(os.path.join(CORPUS_DIR, "%s.json" % name), encoding="utf-8") as fh:
        doc = json.load(fh)
    L = document_to_dgla(doc)
    assert L == api_twin(doc) == builtin_example(name)


def test_loader_agrees_with_the_python_api_on_random_documents():
    seen = set()
    for seed in range(150):
        doc = random_document(seed)
        L = document_to_dgla(json.loads(json.dumps(doc)))
        assert L == api_twin(doc), seed
        d, bracket = summed_by_hand(doc)
        names = [g["name"] for g in doc["generators"]]
        for x in names:
            assert dict(L.differential_of(x)) == d.get(x, {}), (seed, x)
            for y in names:
                assert dict(L.bracket_of(x, y)) == bracket.get((x, y), {}), (seed, x, y)
        coeffs = [Fraction(e["coeff"])
                  for entry in doc["bracket"] for e in entry["result"]]
        seen.update({"fraction" for c in coeffs if c.denominator > 1}
                    | {"zero" for c in coeffs if not c}
                    | {"both orders" for e in doc["bracket"]
                       if e["left"] != e["right"] and any(
                           (f["left"], f["right"]) == (e["right"], e["left"])
                           for f in doc["bracket"])})
    assert seen == {"fraction", "zero", "both orders"}


def test_an_integer_document_loads_without_a_fraction(monkeypatch):
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    L, rep = load_dgla(os.path.join(CORPUS_DIR, "E2.json"))
    assert rep.ok and L.bracket_pairs()
    assert built == []


E1_TEXT = json.dumps(doc_e1())

# one fault per document, with the exact message it is reported with; the
# coefficient faults come after the d entry's "1" has been parsed (true
# equals 1, and is still refused)
SINGLE_FAULTS = [
    ('"coeff": "1"}]}]}', '"coeff": "0.5"}]}]}', "exact rationals only (got '0.5')"),
    ('"coeff": "1"}]}]}', '"coeff": "1/0"}]}]}', "zero denominator in '1/0'"),
    ('"coeff": "1"}]}]}', '"coeff": true}]}]}', "not a rational: True"),
    ('"coeff": "1"}]}]}', '"coeff": null}]}]}', "exact rationals only (got None)"),
    ('"coeff": "1"}]}]}', '"coeff": ["1"]}]}]}', "exact rationals only (got ['1'])"),
    ('"field": "Q"', '"field": "R"', 'unsupported base field \'R\' (only "Q")'),
    ('"name": "E1"', '"name": 3', "name must be a string"),
    ('{"name": "b", "degree": 2}', '{"name": "b", "degree": "2"}',
     "generator 'b' needs an integer degree"),
    ('{"name": "b", "degree": 2}', '{"name": "x", "degree": 2}',
     "duplicate generator 'x'"),
    ('"d": [', '"d": [{"from": "c", "to": []}, ', "duplicate d entry for 'c'"),
    ('"d": [', '"d": [{"from": "x", "to": 5}, ', "d entry for 'x' must be a list"),
    ('"d": [', '"d": [{"from": "zz", "to": []}, ',
     "unknown generator 'zz' in differential"),
    ('"d": [', '"d": [{"from": "x", "to": [{"gen": "zz", "coeff": 1}]}, ',
     "unknown generator 'zz' in differential"),
    ('"bracket": [', '"bracket": [{"left": "x", "right": "x", "result": []}, ',
     "duplicate bracket entry for (x, x)"),
    ('"bracket": [', '"bracket": [{"left": "x", "right": "zz", "result": []}, ',
     "bracket references unknown generator in ('x', 'zz')"),
    ('"bracket": [', '"bracket": [{"left": "zz", "right": "zz", "result": []}, ',
     "unknown generator 'zz' in bracket"),
    ('"bracket": [', '"bracket": [{"left": "c", "right": "c", '
     '"result": [{"gen": "zz", "coeff": 1}]}, ', "unknown generator 'zz' in bracket"),
    ('"bracket": [', '"bracket": [{"left": "x", "right": "c", '
     '"result": [{"gen": "b", "coeff": "1/2"}]}, {"left": "c", "right": "x", '
     '"result": [{"gen": "b", "coeff": "-1/3"}, {"gen": "b", "coeff": "-1/6"}]}, ',
     "bracket pair (c, x) inconsistent with antisymmetry of (x, c)"),
    ('"name": "E1"', '"name": "E1", "name": "E"', "key 'name' is repeated in one object"),
    ('"result": [', '"result": [], "result": [', "key 'result' is repeated in one object"),
    ('"name": "E1"', '"name": "E\\u0007"', "name must be printable (got 'E\\x07')"),
    ('{"name": "b", "degree": 2}', '{"name": "b\\t", "degree": 2}',
     "generator 'name' field must be printable (got 'b\\t')"),
    ('"from": "c"', '"from": "c\\u2028"',
     "d entry 'from' field must be printable (got 'c\\u2028')"),
    ('"left": "x"', '"left": "x\\u0000"',
     "bracket entry 'left' field must be printable (got 'x\\x00')"),
    ('"right": "x"', '"right": "\\u00adx"',
     "bracket entry 'right' field must be printable (got '\\xadx')"),
    ('"to": [{"gen": "b"', '"to": [{"gen": "b\\r"',
     "d entry for 'c' 'gen' field must be printable (got 'b\\r')"),
    # a JSON list or object where a name belongs: refused, never looked up
    ('"from": "c"', '"from": ["c"]', "d entry needs a nonempty string 'from' field"),
    ('"left": "x"', '"left": {"x": 1}', "bracket entry needs a nonempty string 'left' field"),
    ('"right": "x"', '"right": ["x"]', "bracket entry needs a nonempty string 'right' field"),
    ('"to": [{"gen": "b"', '"to": [{"gen": {"b": 1}',
     "d entry for 'c' needs a nonempty string 'gen' field"),
    ('"result": [{"gen": "b"', '"result": [{"gen": ["b"]',
     "bracket entry (x, x) needs a nonempty string 'gen' field"),
]


@pytest.mark.parametrize("old, new, message", SINGLE_FAULTS,
                         ids=[m for _, _, m in SINGLE_FAULTS])
def test_single_fault_messages(old, new, message, tmp_path, capsys):
    assert E1_TEXT.count(old) == 1
    with pytest.raises(DocumentError) as info:
        document_to_dgla(parse_document(E1_TEXT.replace(old, new)))
    assert str(info.value) == message
    path = tmp_path / "E1.json"
    path.write_text(E1_TEXT.replace(old, new), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: load: %s\n" % message


def ce4_doc():
    """The benchmark's twisted CE_4 document (seed 0): 60 generators and
    hundreds of "1" and "-1" coefficients."""
    return workloads.ce4_document(*workloads.ce4_parts(0, "ce4_structure"))


# A fault in the last term of the last bracket entry, after every good
# coefficient and declared name has been read, is reported as in E1.
@pytest.mark.parametrize("field, value, message", [
    ("coeff", "1.0", "exact rationals only (got '1.0')"),
    ("coeff", "1/0", "zero denominator in '1/0'"),
    ("coeff", True, "not a rational: True"),
    ("coeff", ["1"], "exact rationals only (got ['1'])"),
    ("gen", ["e1"], "bracket entry (%s, %s) needs a nonempty string 'gen' field"),
    ("gen", "zz", "unknown generator 'zz' in bracket"),
], ids=["decimal", "zero-den", "bool", "list", "gen-list", "gen-unknown"])
def test_a_fault_after_many_good_entries_is_reported(field, value, message):
    doc = ce4_doc()
    last = doc["bracket"][-1]
    assert sum(ent["coeff"] == "1" for e in doc["bracket"] for ent in e["result"]) > 300
    last["result"][-1][field] = value
    with pytest.raises(DocumentError) as info:
        document_to_dgla(doc)
    assert str(info.value) == message.replace("%s, %s", "%s, %s" % (last["left"], last["right"]))


def test_a_large_document_names_its_first_repeated_key():
    # gen and coeff are both repeated in the last object; gen repeats first
    text = json.dumps(ce4_doc())
    assert text.endswith('"}]}]}')
    text = text[:-len('}]}]}')] + ', "gen": "e1", "coeff": "1"}]}]}'
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    assert str(info.value) == "key 'gen' is repeated in one object"


@pytest.mark.parametrize("text", [LONG, "-" + LONG, LONG + "/3", "3/" + LONG, " " + LONG],
                         ids=["p", "-p", "p/3", "3/p", "space-p"])
def test_over_long_integers_are_bad_input(text):
    with pytest.raises(DocumentError, match="more digits than the"):
        parse_rational(text)
    doc = doc_e1()
    doc["bracket"][0]["result"][0]["coeff"] = text
    head = r"^coefficient %s\.\.\. has" % text.strip()[:12]
    with pytest.raises(DocumentError, match=head):
        document_to_dgla(doc)


def test_over_long_integer_literals_are_bad_input():
    L = builtin_example("E1")
    ring = CoefficientRing.single(3)
    for blob in (E1_TEXT.replace('"coeff": "1"}]}]}', '"coeff": %s}]}]}' % LONG),
                 E1_TEXT.replace('"degree": 2', '"degree": %s' % LONG),
                 '{"degree": 1, "terms": {"t": {"x": %s}}}' % LONG,
                 '{"degree": 1, "terms": {"t": [%s, 0]}}' % LONG):
        with pytest.raises(DocumentError, match=r"^integer literal 1{12}\.\.\. has"):
            parse_document(blob)
    for coeffs in ({"x": LONG}, [LONG, "0"], ["0", "1/" + LONG]):
        with pytest.raises(DocumentError, match="more digits than the"):
            parse_element(L, ring, {"degree": 1, "terms": {"t": coeffs}})
