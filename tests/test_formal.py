from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla.algebra import DGLA
from dgla.formal import CoefficientRing, FormalElement

from reference import (
    fraction_add,
    fraction_scale,
    fraction_select,
    naive_bracket_terms,
    naive_differential_terms,
)


def F(x):
    return Fraction(x)


def test_ring_rejects_bad_input():
    with pytest.raises(ValueError):
        CoefficientRing((), 3)
    with pytest.raises(ValueError):
        CoefficientRing(("t", "t"), 3)
    with pytest.raises(ValueError):
        CoefficientRing(("t",), 0)
    with pytest.raises(ValueError):
        CoefficientRing(("2t",), 3)


def test_ring_monomials_count():
    # degree-d monomials in k variables: C(d+k-1, k-1)
    r = CoefficientRing(("t1", "t2", "t3"), 5)
    assert len(r.monomials(1)) == 3
    assert len(r.monomials(2)) == 6
    assert len(r.monomials(4)) == 15


def test_ring_monomials_exclude_constants():
    r = CoefficientRing(("t",), 3)
    assert all(sum(m) >= 1 for m in r.all_monomials())
    with pytest.raises(ValueError):
        r.check_mono((0,))


def test_mono_str_round_trip():
    r = CoefficientRing(("t1", "t2"), 6)
    for m in r.all_monomials():
        assert r.parse_mono(r.mono_str(m)) == m
    assert r.mono_str((2, 1)) == "t1^2*t2"
    with pytest.raises(ValueError):
        r.parse_mono("1")
    with pytest.raises(ValueError):
        r.parse_mono("u")


def test_element_truncates_on_construction():
    r = CoefficientRing(("t",), 2)
    e = FormalElement(r, 1, 1, {(1,): (F(1),), (3,): (F(5),)})
    assert e.support() == ((1,),)


def test_element_validates_monomials_above_the_order():
    r = CoefficientRing(("t",), 2)
    with pytest.raises(ValueError, match="wrong length"):
        FormalElement(r, 1, 2, {(3,): (1,)})


def test_element_converts_coefficients_above_the_order():
    r = CoefficientRing(("t",), 2)
    with pytest.raises(ValueError):
        FormalElement(r, 1, 1, {(3,): ("junk",)})


def test_element_drops_zero_vectors():
    r = CoefficientRing(("t",), 3)
    e = FormalElement(r, 1, 2, {(1,): (F(0), F(0))})
    assert e.is_zero()
    assert e.support() == ()


def test_element_rejects_degree_zero_monomial():
    r = CoefficientRing(("t",), 3)
    with pytest.raises(ValueError):
        FormalElement(r, 1, 1, {(0,): (F(1),)})


def test_element_arithmetic():
    r = CoefficientRing(("t",), 4)
    a = FormalElement(r, 1, 2, {(1,): (F(1), F(2))})
    b = FormalElement(r, 1, 2, {(1,): (F(1), F(0)), (2,): (F(3), F(1))})
    s = a + b
    assert s.coefficient((1,)) == (F(2), F(2))
    assert s.coefficient((2,)) == (F(3), F(1))
    assert (s - b) == a
    assert a.scale(F("1/2")).coefficient((1,)) == (F("1/2"), F(1))
    assert (a - a).is_zero()


def test_element_homogeneous_part():
    r = CoefficientRing(("t1", "t2"), 4)
    a = FormalElement(r, 1, 1, {(1, 0): (F(1),), (1, 1): (F(2),), (0, 3): (F(3),)})
    part2 = a.homogeneous_part(2)
    assert part2.support() == ((1, 1),)
    assert a.homogeneous_part(4).is_zero()
    assert a == a.homogeneous_part(1) + part2 + a.homogeneous_part(3)


def test_element_to_order():
    r = CoefficientRing(("t",), 5)
    a = FormalElement(r, 1, 1, {(1,): (F(1),), (4,): (F(7),)})
    low = a.to_order(2)
    assert low.ring.order == 2
    assert low.support() == ((1,),)
    high = low.to_order(6)
    assert high.coefficient((1,)) == (F(1),)


def test_element_compat_errors():
    r = CoefficientRing(("t",), 3)
    r2 = CoefficientRing(("t",), 4)
    a = FormalElement(r, 1, 1, {(1,): (F(1),)})
    with pytest.raises(ValueError):
        a + FormalElement(r2, 1, 1)
    with pytest.raises(ValueError):
        a + FormalElement(r, 2, 1)
    with pytest.raises(ValueError):
        a + FormalElement(r, 1, 2)
    with pytest.raises(ValueError):
        FormalElement(r, 1, 1, {(1,): (F(1), F(2))})


def test_support_graded_lex_order():
    r = CoefficientRing(("t1", "t2"), 3)
    a = FormalElement(r, 1, 1, {
        (0, 2): (F(1),), (1, 0): (F(1),), (2, 0): (F(1),), (0, 1): (F(1),),
    })
    assert a.support() == ((0, 1), (1, 0), (0, 2), (2, 0))


def test_addition_associative_random():
    rng = Random(11)
    r = CoefficientRing(("t1", "t2"), 3)
    monos = r.all_monomials()

    def rand_elem():
        terms = {}
        for m in monos:
            if rng.random() < 0.5:
                terms[m] = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
        return FormalElement(r, 1, 2, terms)

    for _ in range(50):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + (-a) == FormalElement.zero(r, 1, 2)


# The integer representation against plain Fraction terms maps (exponent
# tuple -> coefficient tuple) computed by tests/reference.py.  Denominators
# are distinct primes, so sums need a common denominator and leave common
# factors to divide out; the second operand may negate parts of the first,
# so whole vectors cancel; monomials of degree order + 1 test the dropping.

RING = CoefficientRing(("t1", "t2"), 3)
MONOMIALS = RING.all_monomials() + RING.monomials(RING.order + 1)
PRIMES = (1, 2, 3, 5, 7, 11, 13)

# structure constants with denominators, so the bracket table and the
# differential are scaled too; apply_bracket and apply_differential need no
# DGLA axiom, only degree-preserving maps
FRACTIONAL = DGLA(
    [("a", 0), ("x", 1), ("y", 1), ("b", 2), ("c", 2)],
    d={"a": [("x", Fraction(2, 3))], "x": [("b", Fraction(-1, 5))],
       "y": [("b", Fraction(3, 7)), ("c", Fraction(1, 2))]},
    bracket={("x", "y"): [("b", Fraction(1, 3)), ("c", Fraction(-2, 5))],
             ("y", "x"): [("b", Fraction(1, 3)), ("c", Fraction(-2, 5))],
             ("x", "x"): [("c", Fraction(3, 7))],
             ("a", "x"): [("y", Fraction(5, 2))],
             ("x", "a"): [("y", Fraction(-5, 2))],
             ("a", "y"): [("x", Fraction(-1, 6)), ("y", Fraction(4))],
             ("y", "a"): [("x", Fraction(1, 6)), ("y", Fraction(-4))]},
    name="fractional",
)


def fractions():
    return st.builds(Fraction, st.integers(-6, 6), st.sampled_from(PRIMES))


@st.composite
def fraction_maps(draw, dim):
    monos = draw(st.lists(st.sampled_from(MONOMIALS), max_size=5, unique=True))
    return {m: tuple(draw(st.lists(fractions(), min_size=dim, max_size=dim)))
            for m in monos}


@st.composite
def element_pairs(draw):
    """Two Fraction terms maps of one degree; parts of the second may be
    the first negated."""
    degree = draw(st.sampled_from((0, 1)))
    dim = FRACTIONAL.dim(degree)
    s = draw(fraction_maps(dim))
    t = draw(fraction_maps(dim))
    for mono in draw(st.lists(st.sampled_from(sorted(s) or [None]), unique=True)):
        if mono is not None:
            t[mono] = tuple(-c for c in s[mono])
    return degree, s, t


def assert_canonical(e):
    assert type(e.den) is int and e.den > 0
    # gcd(den) == den, so the zero element must have den == 1
    assert gcd(e.den, *(c for vec in e.nums.values() for c in vec)) == 1
    for mono, vec in e.nums.items():
        assert 1 <= sum(mono) <= e.ring.order
        assert len(vec) == e.dim
        assert all(type(c) is int for c in vec) and any(vec)


def matches(e, terms):
    """e is canonical and has the value of the Fraction terms map."""
    assert_canonical(e)
    assert e.fraction_terms() == terms
    assert all(type(c) is Fraction for vec in terms.values() for c in vec)
    return True


def cleaned(s, order=RING.order):
    return fraction_select(s, lambda deg: deg <= order)


@settings(max_examples=300, deadline=None)
@given(element_pairs(), fractions(), st.integers(1, 4))
@example((1, {(1, 0): (Fraction(1, 6), Fraction(0))},
          {(1, 0): (Fraction(1, 3), Fraction(0))}), Fraction(1), 2)
@example((1, {(1, 0): (Fraction(1, 2), Fraction(0)), (1, 1): (Fraction(1), Fraction(0))},
          {}), Fraction(2), 2)
def test_arithmetic_matches_fraction_reference(case, c, k):
    degree, s, t = case
    dim = FRACTIONAL.dim(degree)
    x = FormalElement(RING, degree, dim, s)
    y = FormalElement(RING, degree, dim, t)
    s, t = cleaned(s), cleaned(t)
    assert matches(x, s) and matches(y, t)
    assert matches(x + y, fraction_add(s, t))
    assert matches(x - y, fraction_add(s, fraction_scale(-1, t)))
    assert matches(-x, fraction_scale(-1, s))
    assert matches(x.scale(c), fraction_scale(c, s))
    assert matches(x.homogeneous_part(k), fraction_select(s, lambda deg: deg == k))
    low = x.to_order(k)
    assert low.ring.order == k
    assert matches(low, cleaned(s, k))
    assert matches(low.to_order(RING.order), cleaned(s, k))
    # equal values compare equal however they were built
    assert (x == y) == (s == t)
    assert x.scale(3).scale(Fraction(1, 3)) == x
    assert (x + y) - y == x
    assert FormalElement(RING, degree, dim, x.fraction_terms()) == x
    if c:
        assert x.scale(c).scale(1 / c) == x
    assert x.homogeneous_part(k) + (x - x.homogeneous_part(k)) == x


@settings(max_examples=60, deadline=None)
@given(element_pairs(), element_pairs())
@example((1, {(1, 0): (Fraction(1, 2), Fraction(0))}, {(1, 0): (Fraction(-1, 2), Fraction(0))}),
         (1, {}, {(0, 1): (Fraction(1, 3), Fraction(1))}))
def test_summed_matches_fraction_reference(case1, case2):
    """The n-ary sum, with overlapping, cancelling and empty parts."""
    degree, s, t = case1
    dim = FRACTIONAL.dim(degree)
    parts = [s, t]
    if case2[0] == degree:
        parts += [case2[1], case2[2]]
    elems = [FormalElement(RING, degree, dim, p) for p in parts]
    want = {}
    for p in parts:
        want = fraction_add(want, cleaned(p))
    assert matches(FormalElement.summed(RING, degree, dim, elems), want)
    assert matches(FormalElement.summed(RING, degree, dim, []), {})


def test_summed_rejects_incompatible_parts():
    r = CoefficientRing(("t",), 3)
    a = FormalElement(r, 1, 1, {(1,): (F(1),)})
    for bad in (FormalElement(CoefficientRing(("t",), 4), 1, 1),
                FormalElement(r, 2, 1), FormalElement(r, 1, 2)):
        with pytest.raises(ValueError):
            FormalElement.summed(r, 1, 1, [a, bad])


@settings(max_examples=200, deadline=None)
@given(element_pairs(), element_pairs())
def test_structure_maps_match_fraction_reference(case1, case2):
    p, s, _ = case1
    q, t, _ = case2
    u = FormalElement(RING, p, FRACTIONAL.dim(p), s)
    v = FormalElement(RING, q, FRACTIONAL.dim(q), t)
    s, t = cleaned(s), cleaned(t)
    assert matches(FRACTIONAL.apply_bracket(u, v),
                   naive_bracket_terms(FRACTIONAL, p, s, q, t, RING.order))
    assert matches(FRACTIONAL.apply_differential(u),
                   naive_differential_terms(FRACTIONAL, p, s))
