"""Reading DGLA description files and element literals.

The on-disk format is JSON:

    {
      "name": "E1",
      "field": "Q",
      "generators": [{"name": "x", "degree": 1}, ...],
      "d":        [{"from": "c", "to": [{"gen": "b", "coeff": "1"}]}],
      "bracket":  [{"left": "x", "right": "x",
                    "result": [{"gen": "b", "coeff": "1"}]}]
    }

Coefficients are exact rationals: integers or "p/q" strings.  Decimal
literals are rejected outright (a parse_float hook raises, so "0.5" can not
sneak in anywhere), and so is an integer with more digits than int()
converts, written as a string or as a bare JSON number (a parse_int hook
raises).  Each coefficient is parsed once: JSON ints and integral text
become ints, and only "p/q" text becomes a Fraction, so a document of
integer coefficients builds no Fraction at all.  Bracket entries are
expected for pairs in declaration order (left index <= right index); the
remaining pairs follow by graded antisymmetry, and a redundant supplied pair
that contradicts the implied one is an error.  document_to_dgla hands the
parsed values to antisymmetric_closure, which mirrors each pair by negating
its coefficients, and to the DGLA constructor, which sums them straight into
its integer store.
"""

import json
import re
import sys
from fractions import Fraction

from .algebra import DGLA, antisymmetric_closure, validate_dgla
from .formal import FormalElement

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class DocumentError(ValueError):
    """Malformed input document or failed validation at load time."""


def _too_long(what, text):
    return DocumentError(
        "%s %s... has %d characters, more digits than the %d an integer may have"
        % (what, text[:12], len(text), sys.get_int_max_str_digits()))


def _coefficient(value):
    """An exact rational as parsed once: an int from a JSON int or from
    integral text, a Fraction only from "p/q" text."""
    if isinstance(value, bool):
        raise DocumentError("not a rational: %r" % (value,))
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise DocumentError("exact rationals only (got %r)" % (value,))
        p, _, q = text.partition("/")
        try:
            num, den = int(p), int(q or 1)
        except ValueError:  # more digits than int() converts
            raise _too_long("coefficient", text) from None
        if not den:
            raise DocumentError("zero denominator in %r" % (value,))
        return Fraction(num, den) if q else num
    raise DocumentError("exact rationals only (got %r)" % (value,))


def parse_rational(value):
    """Exact rationals only: int, or a "p/q" / "p" string, as a Fraction."""
    return Fraction(_coefficient(value))


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise _too_long("integer literal", text) from None


def _reject_float(text):
    raise DocumentError("exact rationals only (decimal literal %r rejected)" % text)


def parse_document(text):
    """JSON text -> document dict, with position info on parse errors."""
    try:
        doc = json.loads(text, parse_float=_reject_float, parse_int=_parse_int)
    except json.JSONDecodeError as e:
        raise DocumentError(
            "parse error at line %d column %d: %s" % (e.lineno, e.colno, e.msg)
        ) from None
    except RecursionError:
        raise DocumentError("parse error: document nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    return doc


def _str_field(entry, key, where):
    value = entry.get(key)
    if not isinstance(value, str) or not value:
        raise DocumentError("%s needs a nonempty string %r field" % (where, key))
    return value


def _list_field(doc, key, default=None):
    value = doc.get(key, default)
    if not isinstance(value, list):
        raise DocumentError("%s must be a list" % key)
    return value


def document_to_dgla(doc):
    """Build the DGLA described by a parsed document (no axiom checking)."""
    field = doc.get("field")
    if field != "Q":
        raise DocumentError('unsupported base field %r (only "Q")' % (field,))
    name = doc.get("name", "dgla")
    if not isinstance(name, str):
        raise DocumentError("name must be a string")

    generators = []
    for entry in _list_field(doc, "generators"):
        if not isinstance(entry, dict):
            raise DocumentError("each generator must be an object")
        gname = _str_field(entry, "name", "generator")
        degree = entry.get("degree")
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise DocumentError("generator %r needs an integer degree" % gname)
        generators.append((gname, degree))

    def parse_combo(entries, where):
        combo = []
        if not isinstance(entries, list):
            raise DocumentError("%s must be a list" % where)
        for ent in entries:
            if not isinstance(ent, dict):
                raise DocumentError("%s entries must be objects" % where)
            combo.append((_str_field(ent, "gen", where), _coefficient(ent.get("coeff"))))
        return combo

    d = {}
    for entry in _list_field(doc, "d", []):
        if not isinstance(entry, dict):
            raise DocumentError("each d entry must be an object")
        src = _str_field(entry, "from", "d entry")
        if src in d:
            raise DocumentError("duplicate d entry for %r" % src)
        d[src] = parse_combo(entry.get("to"), "d entry for %r" % src)

    pairs = {}
    for entry in _list_field(doc, "bracket", []):
        if not isinstance(entry, dict):
            raise DocumentError("each bracket entry must be an object")
        left = _str_field(entry, "left", "bracket entry")
        right = _str_field(entry, "right", "bracket entry")
        if (left, right) in pairs:
            raise DocumentError("duplicate bracket entry for (%s, %s)" % (left, right))
        pairs[(left, right)] = parse_combo(
            entry.get("result"), "bracket entry (%s, %s)" % (left, right)
        )

    try:
        bracket = antisymmetric_closure(generators, pairs)
        return DGLA(generators, d=d, bracket=bracket, name=name)
    except ValueError as e:
        raise DocumentError(str(e)) from None


def parse_dgla(raw, allow_invalid=False):
    """Parse and validate the bytes of a DGLA file; returns (DGLA,
    ValidationReport).

    Unless allow_invalid is set, axiom violations make the parse fail.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DocumentError("file is not UTF-8 text: %s" % e) from None
    L = document_to_dgla(parse_document(text))
    rep = validate_dgla(L)
    if not rep.ok and not allow_invalid:
        raise DocumentError(str(rep))
    return L, rep


def load_dgla(path, allow_invalid=False):
    """Read, parse and validate a DGLA file; returns (DGLA, ValidationReport)."""
    with open(path, "rb") as fh:
        return parse_dgla(fh.read(), allow_invalid=allow_invalid)


def parse_element(L, ring, data, expect_degree=None):
    """An element literal -> FormalElement.

    data is {"degree": d, "terms": {mono: coeffs}} where mono strings follow
    the ring's variables ("t", "t^2", "t1*t2") and coeffs is either a dense
    list over the degree-d generator basis or an object {generator: coeff}.
    Two strings that name one monomial ("t" and "t^1", "t1*t2" and
    "t2*t1") are bad input, even where a vector is all zero.
    """
    if isinstance(data, str):
        data = parse_document(data)
    if not isinstance(data, dict):
        raise DocumentError("element must be a JSON object")
    degree = data.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise DocumentError("element needs an integer degree")
    if expect_degree is not None and degree != expect_degree:
        raise DocumentError("element has degree %d, expected %d" % (degree, expect_degree))
    dim = L.dim(degree)
    names = L.basis_names(degree)
    terms = {}
    texts = {}  # monomial -> the string that named it
    raw_terms = data.get("terms", {})
    if not isinstance(raw_terms, dict):
        raise DocumentError("element terms must be an object")
    for mono_text, coeffs in raw_terms.items():
        try:
            mono = ring.parse_mono(mono_text)
        except ValueError as e:
            raise DocumentError("bad monomial %r: %s" % (mono_text, e)) from None
        if mono in texts:
            raise DocumentError("monomials %r and %r are the same"
                                % (texts[mono], mono_text))
        texts[mono] = mono_text
        if isinstance(coeffs, list):
            if len(coeffs) != dim:
                raise DocumentError(
                    "coefficient list for %r has length %d, need %d (basis %s)"
                    % (mono_text, len(coeffs), dim, ", ".join(names))
                )
            vec = [parse_rational(c) for c in coeffs]
        elif isinstance(coeffs, dict):
            vec = [Fraction(0)] * dim
            for gname, c in coeffs.items():
                if gname not in names:
                    raise DocumentError(
                        "generator %r is not in degree %d (basis %s)"
                        % (gname, degree, ", ".join(names) or "empty")
                    )
                vec[names.index(gname)] += parse_rational(c)
        else:
            raise DocumentError("coefficients for %r must be a list or object" % mono_text)
        if any(vec):
            terms[mono] = tuple(vec)
    try:
        return FormalElement(ring, degree, dim, terms)
    except ValueError as e:
        raise DocumentError(str(e)) from None
