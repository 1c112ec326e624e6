from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla.algebra import DGLA
from dgla.deform import MCSolution
from dgla.docio import parse_element
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


def test_reprs_write_out_coefficients_of_any_length():
    # str() refuses an int past 4,300 digits; the reprs render each
    # coefficient from the element's integers through report.int_str
    r = CoefficientRing.single(2)
    assert repr(FormalElement(r, 1, 2, {(1,): (F("1/2"), F(-3)), (2,): (F(0), F(7))})) \
        == "FormalElement(deg=1, {t: (1/2, -3), t^2: (0, 7)})"
    big = 10**5000
    tau = FormalElement(r, 1, 1, {(1,): (big,), (2,): (Fraction(-1, big),)})
    digits = "1" + "0" * 5000
    want = "FormalElement(deg=1, {t: (%s), t^2: (-1/%s)})" % (digits, digits)
    assert repr(tau) == want
    zero = FormalElement.zero(r, 2, 1)
    sol = MCSolution(tau, tau, zero, zero, 4)
    assert repr(sol) == "MCSolution(tau=%s, flat=True, iterations=4)" % want


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


# The monomial key: the exponents as digits in base N + 1, over every
# monomial of 1-4 variables and orders 1-8.
@pytest.mark.parametrize("nvars", (1, 2, 3, 4))
@pytest.mark.parametrize("order", range(1, 9))
def test_monomial_keys(nvars, order):
    r = CoefficientRing(["t%d" % i for i in range(1, nvars + 1)], order)
    monos = r.all_monomials()
    keys = [r.key(m) for m in monos]
    assert [r.mono(k) for k in keys] == monos
    assert len(set(keys)) == len(keys)
    assert [r.degree(k) for k in keys] == [sum(m) for m in monos]
    for m1, k1 in zip(monos, keys):
        for m2, k2 in zip(monos, keys):
            product = tuple(a + b for a, b in zip(m1, m2))
            if sum(product) <= order:
                assert k1 + k2 == r.key(product)
    assert sorted(keys, key=lambda k: (r.degree(k), k)) == keys


# A monomial above the order has no key: in base 3, t2^3 = (0, 3) would
# share the key 3 of t1 = (1, 0).
def test_monomials_above_the_order_are_zero():
    r = CoefficientRing(("t1", "t2"), 2)
    e = FormalElement(r, 1, 2, {(1, 0): (5, 0)})
    assert e.coefficient((1, 0)) == (5, 0)
    assert e.coefficient((0, 3)) == (0, 0)
    assert FormalElement(r, 1, 1, {(0, 3): (1,)}).is_zero()
    parsed = parse_element(FRACTIONAL, r, {"degree": 1, "terms": {"t2^3": [1, 0]}})
    assert parsed.is_zero()


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
    ring = e.ring
    for key, vec in e.nums.items():
        # a valid ring key: of a monomial of degree 1..N, and it round-trips
        mono = ring.mono(key)
        assert 1 <= sum(mono) <= ring.order and ring.degree(key) == sum(mono)
        assert type(key) is int and ring.key(mono) == key
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


def refuse(*args):
    raise AssertionError("a difference took a second pass")


@settings(max_examples=200, deadline=None)
@given(element_pairs())
@example((1, {(1, 0): (Fraction(1, 6), Fraction(2, 5)), (0, 2): (Fraction(3), Fraction(0))},
          {(1, 0): (Fraction(1, 6), Fraction(2, 5)), (1, 1): (Fraction(1, 7), Fraction(1))}))
@example((1, {(1, 0): (Fraction(1, 2), Fraction(1, 3))},
          {(1, 0): (Fraction(1, 2), Fraction(1, 3))}))
def test_difference_matches_fraction_reference_in_one_pass(case):
    """a - b without building -b or calling +: with different
    denominators, with whole vectors and whole elements cancelling."""
    degree, s, t = case
    dim = FRACTIONAL.dim(degree)
    x = FormalElement(RING, degree, dim, s)
    y = FormalElement(RING, degree, dim, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FormalElement, "__neg__", refuse)
        mp.setattr(FormalElement, "__add__", refuse)
        diffs = (x - y, y - x, x - x)
    s, t = cleaned(s), cleaned(t)
    assert matches(diffs[0], fraction_add(s, fraction_scale(-1, t)))
    assert matches(diffs[1], fraction_add(t, fraction_scale(-1, s)))
    assert matches(diffs[2], {}) and diffs[2].den == 1


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


# Every element that leaves the integer paths comes out canonical: den > 0,
# gcd(den, numerators) = 1 (so den = 1 for zero) and no all-zero vector,
# with the value of the Fraction reference.  The bracket sums reduce inside
# the kernel (_kernels.bracket_sums), the rest through linalg.lowest_terms;
# a path that skipped its division would hand on a den with a factor left.
# The DGLAs bracket degree 1 (x1, x2) into degree 2 with one output slot or
# two, through integer tables that may be all even (so a halved
# self-bracket can be even again), one-sided, or antisymmetric (so a
# self-bracket cancels to zero); coefficients reach 2^63 and 10^60, of
# either sign.

def canonical_dgla(out_dim, table, diff):
    gens = [("x1", 1), ("x2", 1)] + [("b%d" % k, 2) for k in range(out_dim)]
    return DGLA(gens,
                d={"x%d" % (i + 1): [("b%d" % k, c) for k, c in ents]
                   for i, ents in enumerate(diff) if ents},
                bracket={("x%d" % (i + 1), "x%d" % (j + 1)): [("b%d" % k, c) for k, c in ents]
                         for (i, j), ents in table.items() if ents},
                name="canonical")


def wide_coefficients():
    near = st.sampled_from((2**63, 10**60))
    return st.one_of(
        st.builds(Fraction, st.integers(-6, 6), st.sampled_from(PRIMES)),
        st.builds(lambda n, k, p: Fraction(n + k, p), near, st.integers(-2, 2),
                  st.sampled_from((1, 2, 3))),
        st.builds(lambda n, k: Fraction(-n - k), near, st.integers(-2, 2)))


@st.composite
def canonical_cases(draw):
    out_dim = draw(st.sampled_from((1, 2)))
    even = draw(st.booleans())
    entry = st.integers(-3, 3).map(lambda c: 2 * c if even else c)

    def ents():
        return tuple((k, c) for k in range(out_dim) if (c := draw(entry)))

    table = {(i, j): ents() for i in range(2) for j in range(2)}
    if draw(st.booleans()):  # antisymmetric: every self-bracket cancels
        table[(1, 0)] = tuple((k, -c) for k, c in table[(0, 1)])
        table[(0, 0)] = table[(1, 1)] = ()
    diff = (ents(), ents())

    def terms():
        monos = draw(st.lists(st.sampled_from(MONOMIALS), max_size=4, unique=True))
        return {m: (draw(wide_coefficients()), draw(wide_coefficients())) for m in monos}

    s = terms()
    t = {m: tuple(-c for c in vec) for m, vec in s.items()} if draw(st.booleans()) \
        else terms()
    return canonical_dgla(out_dim, table, diff), s, t, draw(st.integers(-3, -1))


@settings(max_examples=200, deadline=None)
@given(canonical_cases())
@example((canonical_dgla(1, {(0, 0): ((0, 4),)}, ((), ())),
          {(1, 0): (Fraction(1, 2), Fraction(0)), (0, 1): (Fraction(1, 2), Fraction(0))},
          {}, -1))
@example((canonical_dgla(2, {(0, 0): ((0, 4), (1, -2)), (0, 1): ((1, 2),)},
                         (((0, 2),), ((1, 6),))),
          {(1, 0): (Fraction(2**63 + 1, 2), Fraction(-3, 2)), (0, 1): (Fraction(1, 2), Fraction(5))},
          {(2, 0): (Fraction(10**60), Fraction(-10**60 - 1, 3))}, -2))
@example((canonical_dgla(2, {(0, 1): ((0, 1), (1, -3)), (1, 0): ((0, -1), (1, 3))},
                         ((), ())),
          {(1, 0): (Fraction(1, 3), Fraction(2)), (1, 1): (Fraction(-7), Fraction(1, 5))},
          {(1, 0): (Fraction(-1, 3), Fraction(-2)), (1, 1): (Fraction(7), Fraction(-1, 5))}, -3))
def test_integer_paths_hand_on_canonical_elements(case):
    L, s, t, c = case
    u = FormalElement(RING, 1, 2, s)
    v = FormalElement(RING, 1, 2, t)
    w = u.scale(c)  # a negative scale of u
    s, t = cleaned(s), cleaned(t)
    sc = fraction_scale(c, s)

    def br(a, b):
        return naive_bracket_terms(L, 1, a, 1, b, RING.order)

    def both(a, b):
        return fraction_add(br(a, b), br(b, a))

    produced = [
        (L.bracket_sum(RING, 2, squares=(u,)), br(s, s)),
        (L.bracket_sum(RING, 2, squares=(w,)), br(sc, sc)),
        (L.bracket_sum(RING, 2, symmetric=[(u, v)], squares=[v]),
         fraction_add(both(s, t), br(t, t))),
        (L.bracket_sum(RING, 2, symmetric=[(u, w), (v, u)], squares=[w, u]),
         fraction_add(fraction_add(both(s, sc), both(t, s)),
                      fraction_add(br(sc, sc), br(s, s)))),
        (L.bracket_sum(RING, 2, ordered=[(u, v), (w, u)], den=3),
         fraction_scale(Fraction(1, 3), fraction_add(br(s, t), br(sc, s)))),
        (L.bracket_sum(RING, 2, ordered=[(v, w)], symmetric=[(u, v)], squares=[w]),
         fraction_add(fraction_add(br(t, sc), both(s, t)), br(sc, sc))),
        (L.apply_bracket(u, u), br(s, s)),
        (L.apply_bracket(u, v), br(s, t)),
        (L.apply_bracket(w, v), br(sc, t)),
        (L.differential.apply_element(u, 1), naive_differential_terms(L, 1, s)),
        (L.differential.apply_element(w, 1), naive_differential_terms(L, 1, sc)),
        (FormalElement.summed(RING, 1, 2, [u, v, w]),
         fraction_add(fraction_add(s, t), sc)),
        (FormalElement.summed(RING, 1, 2, [u, w.scale(Fraction(1, c))]),
         fraction_scale(2, s)),
        (u - v, fraction_add(s, fraction_scale(-1, t))),
        (w - u, fraction_add(sc, fraction_scale(-1, s))),
        (u - u, {}),
    ]
    for e, want in produced:
        assert matches(e, want)
        if not want:
            assert e.den == 1
