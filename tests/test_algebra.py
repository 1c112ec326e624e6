from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgla import (
    BUILTIN_NAMES,
    DGLA,
    antisymmetric_closure,
    build_contraction,
    build_splitting,
    builtin_example,
    check_cartan,
    koszul_sign,
    validate_dgla,
)
from dgla.formal import CoefficientRing

from conftest import degree_faults_case
from reference import reference_store


def F(x):
    return Fraction(x)


def test_koszul_sign():
    assert koszul_sign(1, 1) == -1
    assert koszul_sign(2, 1) == 1
    assert koszul_sign(1, 2) == 1
    assert koszul_sign(3, 3) == -1


def test_corpus_validates_clean():
    for name in BUILTIN_NAMES:
        rep = validate_dgla(builtin_example(name))
        assert rep.ok, "%s: %s" % (name, rep)
        assert rep.issues == ()


def test_antisymmetric_closure_fills_swapped_pair():
    # [y, x] = -(-1)^{|y||x|} [x, y]: -b for degrees (2, 1), +b for (1, 1)
    gens = [("x", 1), ("y", 2), ("b", 3)]
    closed = antisymmetric_closure(gens, {("x", "y"): [("b", 1)]})
    assert dict(closed[("y", "x")]) == {"b": F(-1)}
    gens2 = [("x", 1), ("y", 1), ("b", 2)]
    closed2 = antisymmetric_closure(gens2, {("x", "y"): [("b", 1)]})
    assert dict(closed2[("y", "x")]) == {"b": F(1)}


def test_antisymmetric_closure_rejects_inconsistent_redundant_pair():
    gens = [("x", 1), ("y", 1), ("b", 2)]
    with pytest.raises(ValueError):
        antisymmetric_closure(
            gens, {("x", "y"): [("b", 1)], ("y", "x"): [("b", -1)]})


def test_differential_must_be_degree_one():
    L = DGLA([("x", 1), ("y", 1)], d={"x": [("y", 1)]})
    rep = validate_dgla(L)
    assert not rep.ok
    assert any(i.axiom == "differential-degree" for i in rep.issues)
    with pytest.raises(ValueError):
        L.differential


def test_differential_squared_detected():
    L = DGLA(
        [("a", 0), ("x", 1), ("b", 2)],
        d={"a": [("x", 1)], "x": [("b", 1)]},
    )
    rep = validate_dgla(L)
    assert any(i.axiom == "differential-squared" for i in rep.issues)


def test_corrupted_bracket_degree_witness():
    # [x, x] redirected into degree 1: bracket-degree flags the (x, x) pair
    L = DGLA(
        [("x", 1), ("c", 1), ("b", 2)],
        d={"c": [("b", 1)]},
        bracket={("x", "x"): [("c", 1)]},
    )
    rep = validate_dgla(L)
    assert not rep.ok
    issues = {i.axiom: i for i in rep.issues}
    assert issues["bracket-degree"].witness == ("x", "x")
    assert "(x, x)" in issues["bracket-degree"].detail


def scanned_table(L, p, q):
    """The bracket of g^p x g^q by a scan of every bracket pair, as
    (i, j) -> ((k, Fraction), ...) in degree-local positions."""
    table = {}
    for x, y in L.bracket_pairs():
        (dx, ix), (dy, iy) = L.basis_position(x), L.basis_position(y)
        if (dx, dy) == (p, q):
            table[(ix, iy)] = tuple((L.basis_position(z)[1], c)
                                    for z, c in L.bracket_of(x, y))
    return table


def table_fractions(L, p, q):
    """_integer_table(p, q) divided by its denominator, keyed as scanned_table."""
    D, T = L._integer_table(p, q)
    return {(i, j): tuple((k, Fraction(n, D)) for k, n in ents)
            for i, row in T.items() for j, ents in row.items()}


def test_bracket_tables_match_a_scan_per_degree_pair():
    for name in BUILTIN_NAMES:
        L = builtin_example(name)
        for p in L.degrees:
            for q in L.degrees:
                assert table_fractions(L, p, q) == scanned_table(L, p, q), (name, p, q)


def test_bracket_table_order_follows_the_stored_keys():
    L = DGLA([("x", 1), ("y", 1), ("a", 0), ("b", 2)],
             bracket={("y", "x"): [("b", 2)], ("a", "y"): [("y", 1)],
                      ("x", "x"): [("b", 1)], ("x", "y"): [("b", 2)]})
    D, T = L._integer_table(1, 1)
    assert [(i, j) for i, row in T.items() for j in row] == [(1, 0), (0, 0), (0, 1)]
    assert L._integer_table(0, 1) == (1, {0: {1: ((1, 1),)}})
    assert L._integer_table(2, 2) == (1, {})


def test_a_bracket_leaving_its_degree_fails_only_its_own_table():
    L = DGLA([("x", 1), ("c", 1), ("b", 2), ("a", 0)],
             bracket={("x", "x"): [("c", 1)], ("a", "x"): [("x", 1)]})
    for _ in range(2):
        with pytest.raises(ValueError, match=r"bracket \[x, x\] does not preserve"):
            L._integer_table(1, 1)
    assert L._integer_table(0, 1) == (1, {0: {0: ((0, 1),)}})
    # faults in d and in two bracket pairs: each faulty pair's table raises
    # on every call, naming its first faulty key in store order, and no
    # other pair's table raises
    L = degree_faults_case()
    faulty = {(1, 1): "bracket [y, x]", (0, 1): "bracket [a, x]"}
    for p in L.degrees:
        for q in L.degrees:
            for _ in range(2):
                if (p, q) not in faulty:
                    L._integer_table(p, q)
                    continue
                with pytest.raises(ValueError) as err:
                    L._integer_table(p, q)
                assert str(err.value) == (faulty[(p, q)] + " does not preserve total "
                                          "degree; run validate_dgla")
    assert L._integer_table(1, 0)[1] == {1: {0: ((1, -1),)}}
    # d names the first faulty generator in store order, not in sorted order
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^differential of y is not homogeneous"):
            L.differential
    # check_cartan meets (0, 1) first and raises its table's message; M has
    # no d, so every block of h is zero and only the degree guard can raise
    M = DGLA(L.generators)
    with pytest.raises(ValueError) as err:
        check_cartan(L, build_contraction(M, build_splitting(M)))
    assert str(err.value) == faulty[(0, 1)] + " does not preserve total degree; run validate_dgla"


def test_a_bracket_into_an_empty_degree_is_refused():
    # x in degree 1 with [x, x] = x and no generator of degree 2: nothing of
    # the bracket could land, yet every bracket of the pair raises, where a
    # lawful pair into the empty degree still gives zero
    L = DGLA([("x", 1), ("a", 0)], bracket={("x", "x"): [("x", 1)]})
    M = DGLA([("x", 1), ("a", 0)])
    ring = CoefficientRing.single(3)
    x = L.generator_element(ring, "x")
    message = r"^bracket \[x, x\] does not preserve total degree"
    for call in (lambda: L.bracket_vectors(1, (1,), 1, (1,)),
                 lambda: L.apply_bracket(x, x),
                 lambda: L.bracket_sum(ring, 2, ordered=[(x, x)]),
                 lambda: L.bracket_sum(ring, 2, symmetric=[(x, x)]),
                 lambda: L.curvature(x),
                 lambda: check_cartan(L, build_contraction(M, build_splitting(M)))):
        with pytest.raises(ValueError, match=message):
            call()
    assert L.bracket_vectors(0, (1,), 1, (1,)) == (0,)
    assert L.bracket_sum(ring, 2, squares=[x.scale(0)]).is_zero()
    assert M.bracket_vectors(1, (1,), 1, (1,)) == ()
    assert M.apply_bracket(x, x).is_zero()


def test_bracket_sum_cuts_at_the_order_it_is_given():
    # top drops every product above it, as truncating the full sum would;
    # above the ring's order a key could spell another monomial's
    L = DGLA([("x", 1), ("y", 1), ("b", 2)],
             bracket={("x", "y"): [("b", 2)], ("y", "x"): [("b", F("1/3"))],
                      ("y", "y"): [("b", -1)]})
    ring = CoefficientRing(("s", "t"), 4)
    u = L.generator_element(ring, "x", (1, 0)) + L.generator_element(ring, "y", (0, 2), 3)
    v = L.generator_element(ring, "y", (1, 1), F("1/2")) + L.generator_element(ring, "x", (0, 1))
    sums = {"ordered": [(u, v)], "symmetric": [(u, v)], "squares": [u, v]}
    full = L.bracket_sum(ring, 2, **sums)
    assert full.homogeneous_part(4).nums
    for top in range(5):
        assert L.bracket_sum(ring, 2, top=top, **sums) == full.truncated(top)
    for top in (-1, 5):
        with pytest.raises(ValueError, match=r"cut at an order in 0\.\.4"):
            L.bracket_sum(ring, 2, top=top, **sums)


def test_structure_constants_are_stored_canonically():
    # the same DGLA given three ways: keys in another order, one term split
    # into two parts, zero sums; fractional constants, so D != 1
    gens = [("a", 0), ("x", 1), ("y", 1), ("b", 2)]
    L = DGLA(gens,
             d={"a": [("x", F("1/2")), ("y", F("-2/3"))], "x": [("b", F("3/4"))]},
             bracket={("a", "x"): [("x", F("1/3"))], ("x", "a"): [("x", F("-1/3"))],
                      ("x", "y"): [("b", F("5/6"))], ("y", "x"): [("b", F("5/6"))],
                      ("x", "x"): [("b", 2)]})
    M = DGLA(gens,
             d={"x": [("b", "3/4")],
                "a": [("y", "-1/3"), ("x", "1/2"), ("y", "-1/3"), ("b", 0)]},
             bracket={("x", "x"): [("b", 3), ("b", -1)], ("y", "y"): [("b", 1), ("b", -1)],
                      ("y", "x"): [("b", "5/6")], ("x", "y"): [("b", "1/2"), ("b", "1/3")],
                      ("x", "a"): [("x", "-1/3")], ("a", "x"): [("x", "1/3")]})
    assert L == M
    assert (M._d_den, M._bracket_den) == (12, 6)
    assert M._d_nums == {0: ((1, 6), (2, -8)), 1: ((3, 9),)}
    assert M.bracket_pairs() == L.bracket_pairs()
    names = [n for n, _ in gens]
    for x in names:
        assert M.differential_of(x) == L.differential_of(x)
        for y in names:
            assert M.bracket_of(x, y) == L.bracket_of(x, y)
    u = {0: (F("2/5"),), 1: (F("1/7"), F(-3)), 2: (F(0),)}
    for p in L.degrees:
        for q in L.degrees:
            assert M._integer_table(p, q) == L._integer_table(p, q)
            assert M.bracket_vectors(p, u[p], q, u[q]) == L.bracket_vectors(p, u[p], q, u[q])
    # [u, u] = 2/49 b + 2 (1/7)(-3)(5/6) b
    assert L.bracket_vectors(1, u[1], 1, u[1]) == (Fraction(-33, 49),)


STORE_GENS = [("a", 0), ("x", 1), ("y", 1), ("b", 2)]
store_names = st.sampled_from([name for name, _ in STORE_GENS])
# ints, Fractions and "p/q" text, zero among them
store_coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 6)))
# terms that may repeat a name, a term with its negative (they cancel), or
# one zero term alone; each entry flagged to be handed over as a one-shot
# generator
store_entries = st.tuples(
    st.one_of(
        st.builds(lambda terms, pair: terms + [t for n, c in pair
                                               for t in ((n, c), (n, -Fraction(c)))],
                  st.lists(st.tuples(store_names, store_coefficients), max_size=4),
                  st.lists(st.tuples(store_names, store_coefficients), max_size=1)),
        st.builds(lambda n, zero: [(n, zero)], store_names, st.sampled_from([0, "0/5"]))),
    st.booleans())


def given_once(combos):
    """The entries, each as a list or as a one-shot generator as flagged."""
    return {key: (t for t in terms) if one_shot else terms
            for key, (terms, one_shot) in combos.items()}


@settings(max_examples=200, deadline=None)
@given(d=st.dictionaries(store_names, store_entries, max_size=4),
       bracket=st.dictionaries(st.tuples(store_names, store_names), store_entries,
                               max_size=10))
def test_integer_store_matches_a_fraction_reference(d, bracket):
    # D, the numerators and the key order, one-term entries included
    L = DGLA(STORE_GENS, d=given_once(d), bracket=given_once(bracket))
    for den, store, combos, pairs in ((L._d_den, L._d_nums, d, False),
                                      (L._bracket_den, L._bracket_nums, bracket, True)):
        D, want = reference_store(
            STORE_GENS, {key: terms for key, (terms, _) in combos.items()}, pairs)
        assert (den, list(store.items())) == (D, list(want.items()))


@pytest.mark.parametrize("d, bracket, message", [
    ({"zz": [("b", 1)]}, {}, "unknown generator 'zz' in differential"),
    ({"a": [("zz", 0)]}, {}, "unknown generator 'zz' in differential"),
    ({"a": [("x", 1), ("zz", "1/2")]}, {}, "unknown generator 'zz' in differential"),
    ({}, {("x", "zz"): [("b", 1)]}, "unknown generator 'zz' in bracket"),
    ({}, {("x", "y"): [("zz", 0)]}, "unknown generator 'zz' in bracket"),
    ({}, {("x", "y"): [("b", 1), ("zz", F("1/3"))]}, "unknown generator 'zz' in bracket"),
])
def test_an_unknown_name_in_the_store_is_refused(d, bracket, message):
    # a one-term entry, even a zero one, resolves its name as a longer one does
    with pytest.raises(ValueError) as info:
        DGLA(STORE_GENS, d=d, bracket=bracket)
    assert str(info.value) == message


def test_leibniz_violation_detected():
    # dx = 0, [x, x] = b, db = w: then d[x, x] = w while
    # [dx, x] - [x, dx] = 0, so Leibniz fails at (x, x)
    gens = [("x", 1), ("b", 2), ("w", 3)]
    L = DGLA(
        gens,
        d={"b": [("w", 1)]},
        bracket=antisymmetric_closure(gens, {("x", "x"): [("b", 1)]}),
    )
    rep = validate_dgla(L)
    assert any(i.axiom == "leibniz" and i.witness == ("x", "x")
               for i in rep.issues)


def test_jacobi_violation_detected():
    # [e,[f,h]] + [f,[h,e]] + [h,[e,f]] = h + h + 0 = 2h for this table
    gens = [("e", 0), ("f", 0), ("h", 0)]
    bad = antisymmetric_closure(gens, {
        ("e", "f"): [("h", 1)],
        ("e", "h"): [("e", 1)],
        ("f", "h"): [("f", 1)],
    })
    rep = validate_dgla(DGLA(gens, bracket=bad))
    assert any(i.axiom == "jacobi" for i in rep.issues)
    # standard sl2 passes: [e,f] = h, [e,h] = -2e, [f,h] = 2f
    good = antisymmetric_closure(gens, {
        ("e", "f"): [("h", 1)],
        ("e", "h"): [("e", -2)],
        ("f", "h"): [("f", 2)],
    })
    assert validate_dgla(DGLA(gens, bracket=good)).ok


def test_antisymmetry_of_generated_table():
    # even-degree generator: [y, y] = -[y, y] forces zero, validator catches it
    L = DGLA([("y", 2), ("z", 4)], bracket={("y", "y"): [("z", 1)]})
    rep = validate_dgla(L)
    assert any(i.axiom == "antisymmetry" for i in rep.issues)


def test_duplicate_generator_rejected():
    with pytest.raises(ValueError):
        DGLA([("x", 1), ("x", 2)])


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        DGLA([("x", 1)], d={"y": [("x", 1)]})
    with pytest.raises(ValueError):
        DGLA([("x", 1)], d={"x": [("y", 1)]})


def test_structural_equality_ignores_name():
    a = builtin_example("E1")
    b = DGLA(
        [("x", 1), ("c", 1), ("b", 2)],
        d={"c": [("b", 1)]},
        bracket=antisymmetric_closure(
            [("x", 1), ("c", 1), ("b", 2)], {("x", "x"): [("b", 1)]}),
        name="renamed",
    )
    assert a == b
    c = DGLA([("x", 1), ("c", 1), ("b", 2)], d={"c": [("b", 2)]})
    assert a != c


def test_apply_differential_and_bracket_match_generators():
    L = builtin_example("E1")
    ring = CoefficientRing.single(3)
    x = L.generator_element(ring, "x")
    c = L.generator_element(ring, "c")
    assert L.apply_differential(x).is_zero()
    dc = L.apply_differential(c)
    assert dc.coefficient((1,)) == (F(1),)
    xx = L.apply_bracket(x, x)
    assert xx.coefficient((2,)) == (F(1),)


def test_bracket_truncation():
    L = builtin_example("E3")
    ring = CoefficientRing.single(2)
    x = L.generator_element(ring, "x", mono=(2,))
    # product monomial t^4 exceeds order 2, so the bracket truncates to zero
    assert L.apply_bracket(x, x).is_zero()


def test_curvature_flat_and_nonflat():
    L = builtin_example("E3")
    ring = CoefficientRing.single(4)
    x = L.generator_element(ring, "x")
    cur = L.curvature(x)
    assert cur.coefficient((2,)) == (F("1/2"),)
    Lz = builtin_example("E0")
    z = Lz.generator_element(ring, "x1")
    assert Lz.curvature(z).is_zero()


def test_curvature_requires_degree_one():
    L = builtin_example("E4")
    ring = CoefficientRing.single(2)
    a = L.generator_element(ring, "a")
    with pytest.raises(ValueError):
        L.curvature(a)


def test_bracket_degree_zero_map():
    # degree of [,] is 0: |[x, y]| = |x| + |y| on every corpus pair
    for name in BUILTIN_NAMES:
        L = builtin_example(name)
        for xn, yn in L.bracket_pairs():
            want = L.degree_of(xn) + L.degree_of(yn)
            for tn, _ in L.bracket_of(xn, yn):
                assert L.degree_of(tn) == want


def test_differential_squares_to_zero_on_formal_basis():
    ring = CoefficientRing.single(3)
    for name in BUILTIN_NAMES:
        L = builtin_example(name)
        for deg in L.degrees:
            for gen in L.basis_names(deg):
                for mono in ring.all_monomials():
                    e = L.generator_element(ring, gen, mono=mono)
                    assert L.apply_differential(L.apply_differential(e)).is_zero()


def test_graded_leibniz_on_formal_elements():
    ring = CoefficientRing.single(3)
    for name in BUILTIN_NAMES:
        L = builtin_example(name)
        for p in L.degrees:
            for q in L.degrees:
                for gu in L.basis_names(p):
                    for gv in L.basis_names(q):
                        u = L.generator_element(ring, gu)
                        v = L.generator_element(ring, gv, mono=(2,))
                        lhs = L.apply_differential(L.apply_bracket(u, v))
                        rhs = L.apply_bracket(L.apply_differential(u), v) + \
                            L.apply_bracket(u, L.apply_differential(v)).scale(
                                F((-1) ** p))
                        assert lhs == rhs, (name, gu, gv)


def test_curvature_equals_d_plus_half_bracket():
    ring = CoefficientRing.single(4)
    for name in BUILTIN_NAMES:
        L = builtin_example(name)
        if 1 not in L.degrees:
            continue
        for gen in L.basis_names(1):
            A = L.generator_element(ring, gen) + \
                L.generator_element(ring, gen, mono=(2,), coeff=F("1/3"))
            want = L.apply_differential(A) + \
                L.apply_bracket(A, A).scale(F("1/2"))
            assert L.curvature(A) == want
