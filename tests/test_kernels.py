import gc
import weakref
from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla import BUILTIN_NAMES, builtin_example, gauge_act
from dgla import _kernels
from dgla._kernels import (
    KernelView,
    Packing,
    Table,
    bracket_sums,
    compile_rows,
    matvec_terms,
    symmetric_table,
)
from dgla.formal import CoefficientRing, FormalElement
from dgla.linalg import Matrix

from reference import (
    fraction_add,
    fraction_scale,
    integer_rows,
    integer_table,
    naive_bracket,
    naive_convolve,
    naive_differential,
    naive_matvec,
)


def F(*args):
    return Fraction(*args)


def integer_terms(terms):
    """(D, terms scaled by D to ints), D the lcm of the denominators and
    all-zero vectors dropped: the form the kernels read."""
    D = lcm(*{c.denominator for vec in terms.values() for c in vec})
    return D, {m: tuple(c.numerator * (D // c.denominator) for c in vec)
               for m, vec in terms.items() if any(vec)}


def over(terms, D):
    """An integer terms map divided by D, back in Fractions."""
    return {m: tuple(Fraction(c, D) for c in vec) for m, vec in terms.items()}


def kernel_sums(pairs, squares, trunc, out_dim, den=1):
    """bracket_sums on terms maps and integer tables as the tests hold them:
    each map laid out once, as a KernelView packed in base trunc + 1, and
    each table made a Table; a view or a Table is passed as it stands."""
    packing, views = Packing(max(trunc, 0) + 1), {}

    def view(x):
        if type(x) is KernelView:
            return x
        if id(x) not in views:
            views[id(x)] = KernelView(x, packing)
        return views[id(x)]

    def table(t):
        return t if type(t) is Table else Table(t)

    return bracket_sums([(view(u), view(v), table(t), s) for u, v, t, s in pairs],
                        [(view(y), table(t), s) for y, t, s in squares],
                        trunc, out_dim, den)


def ordered_fractions(u, v, table, trunc, out_dim):
    """[u, v] by bracket_sums with the one pair (u, v) through the table,
    on Fraction inputs: scale, convolve, divide."""
    Du, iu = integer_terms(u)
    Dv, iv = integer_terms(v)
    Dt, it = integer_table(table)
    return lowest_over(kernel_sums([(iu, iv, it, 1)], (), trunc, out_dim, Du * Dv * Dt))


def lowest_over(result):
    """A bracket_sums result (den, terms), checked to be in lowest terms,
    back in Fractions."""
    den, w = result
    assert_integer_terms(w)
    assert den > 0 and gcd(den, *[c for vec in w.values() for c in vec]) == 1
    return over(w, den)


def square_fractions(terms, table, trunc, out_dim):
    """[y, y] by bracket_sums with the one square y, on Fraction inputs:
    scale, convolve, divide."""
    D, it = integer_terms(terms)
    Dt, itable = integer_table(table)
    return lowest_over(kernel_sums((), ((it, symmetric_table(itable), 1),),
                                   trunc, out_dim, D * D * Dt))


def bracket_sum_fractions(u, v, table, trunc, out_dim):
    """[u, v] + [v, u] by bracket_sums with the one pair (u, v) through
    symmetric_table, on Fraction inputs."""
    Du, iu = integer_terms(u)
    Dv, iv = integer_terms(v)
    Dt, itable = integer_table(table)
    return lowest_over(kernel_sums([(iu, iv, symmetric_table(itable), 1)], (),
                                   trunc, out_dim, Du * Dv * Dt))


def matvec_fractions(terms, rows, out_dim):
    """matvec_terms on Fraction inputs: scale, apply, divide."""
    Dv, iv = integer_terms(terms)
    Dm, irows = integer_rows(rows)
    w = matvec_terms(iv, compile_rows(irows, out_dim))
    assert_integer_terms(w)
    return over(w, Dm * Dv)


def assert_integer_terms(terms):
    for vec in terms.values():
        assert all(type(c) is int for c in vec) and any(vec), vec


def assert_fraction_accessors(elem):
    for mono, vec in elem.fraction_terms().items():
        assert all(type(c) is Fraction for c in vec), vec
        assert elem.coefficient(mono) == vec
        assert all(type(c) is Fraction for c in elem.coefficient(mono))


def random_element(L, ring, deg, rng):
    n = L.dim(deg)
    terms = {}
    for mono in ring.all_monomials():
        if rng.random() < 0.6:
            v = tuple(F(rng.randint(-6, 6)) for _ in range(n))
            if any(v):
                terms[mono] = v
    return FormalElement(ring, deg, n, terms)


def test_bracket_matches_naive_reference():
    rng = Random(41)
    for name in BUILTIN_NAMES:
        L = builtin_example(name)
        ring = CoefficientRing(("t1", "t2"), 3)
        for p in L.degrees:
            for q in L.degrees:
                u = random_element(L, ring, p, rng)
                v = random_element(L, ring, q, rng)
                w = L.apply_bracket(u, v)
                assert w == naive_bracket(L, u, v), (name, p, q)
                assert_fraction_accessors(w)


def test_differential_matches_naive_reference():
    rng = Random(43)
    for name in BUILTIN_NAMES:
        L = builtin_example(name)
        ring = CoefficientRing.single(4)
        for p in L.degrees:
            u = random_element(L, ring, p, rng)
            assert L.apply_differential(u) == naive_differential(L, u), \
                (name, p)


def test_kernels_match_reference_randomized():
    rng = Random(47)
    nonzero = 0
    for _ in range(60):
        nv = rng.randint(1, 3)
        dim_u, dim_v, out_dim = (rng.randint(1, 5) for _ in range(3))
        trunc = rng.randint(1, 5)

        def rand_terms(dim):
            t = {}
            for _ in range(rng.randint(0, 6)):
                m = tuple(rng.randint(0, 3) for _ in range(nv))
                if sum(m) == 0:
                    continue
                t[m] = tuple(F(rng.randint(-9, 9), rng.randint(1, 4))
                             for _ in range(dim))
            return t

        u, v = rand_terms(dim_u), rand_terms(dim_v)
        table = {}
        for i in range(dim_u):
            for j in range(dim_v):
                if rng.random() < 0.5:
                    table[(i, j)] = tuple(
                        (rng.randrange(out_dim), F(rng.randint(-3, 3)))
                        for _ in range(rng.randint(1, 2)))
        w = ordered_fractions(u, v, table, trunc, out_dim)
        assert w == naive_convolve(u, v, table, trunc, out_dim)
        nonzero += bool(w)
        rows = tuple(
            tuple((c, F(rng.randint(-5, 5), rng.randint(1, 3)))
                  for c in range(dim_u) if rng.random() < 0.6)
            for _ in range(out_dim))
        assert matvec_fractions(u, rows, out_dim) == \
            naive_matvec(u, rows, out_dim)
    assert nonzero >= 10  # the comparison is not vacuous


def test_truncation_drops_high_monomials():
    u = {(2,): (1,)}
    v = {(3,): (2,)}
    table = {0: {0: ((0, 3),)}}
    assert kernel_sums([(u, v, table, 1)], (), 4, 1) == (1, {})
    assert kernel_sums([(u, v, table, 1)], (), 5, 1) == (1, {(5,): (6,)})


def test_zero_results_are_dropped():
    u = {(1,): (1, -1)}
    v = {(1,): (1, 1)}
    # [e0, e1] = +g, [e1, e0] = +g: contributions cancel exactly
    table = {0: {1: ((0, 1),)}, 1: {0: ((0, 1),)}}
    assert kernel_sums([(u, v, table, 1)], (), 4, 1) == (1, {})
    assert matvec_terms(u, compile_rows((), 2)) == {}
    assert matvec_terms(u, compile_rows(((0, ((0, 1), (1, 1))),), 1)) == {}


def test_symmetric_table_adds_the_transpose():
    # [e0, e1] one-sided, [e1, e1] on the diagonal, [e0, e2] + [e2, e0] = 0
    table = {0: {1: ((0, 3),), 2: ((1, 2),)}, 1: {1: ((1, 5),)},
             2: {0: ((1, -2),)}}
    assert symmetric_table(table) == {
        0: {1: ((0, 3),)}, 1: {0: ((0, 3),), 1: ((1, 10),)}}
    assert symmetric_table({}) == {}


def test_self_convolve_walks_each_unordered_pair_once():
    # three monomials of degree 1, 1 and 2 at trunc 3: the pairs within the
    # cut are (a, a), (a, b), (a, c), (b, b), (b, c); each off-diagonal
    # pair is counted twice, through T + T^t
    terms = {(1, 0): (1,), (0, 1): (2,), (2, 0): (5,)}
    table = {0: {0: ((0, 1),)}}
    sym = symmetric_table(table)
    assert kernel_sums((), ((terms, sym, 1),), 3, 1) == (1, {
        (2, 0): (1,), (1, 1): (4,), (3, 0): (10,), (0, 2): (4,),
        (2, 1): (20,)})
    assert kernel_sums((), (({}, sym, 1),), 3, 1) == (1, {})


def test_integer_forms_of_table_and_rows():
    half, third = F(1, 2), F(-2, 3)
    table = {(0, 1): ((0, half), (1, third)), (1, 1): ()}
    assert integer_table(table) == (6, {0: {1: ((0, 3), (1, -4))}})
    assert integer_table({}) == (1, {})
    rows = Matrix(3, 3, {(1, 0): half, (1, 2): third, (2, 1): F(3)})
    assert rows.integer_rows() == (6, ((1, ((0, 3), (2, -4))), (2, ((1, 18),))))


# Property tests: generated Fraction inputs, scaled to the kernels' integer
# form, against the plain references; each result, divided by the product
# of the scales, must equal the reference exactly.  The coefficient
# denominators are distinct primes, so the scales grow large; a table entry
# or matrix row may carry every term twice with opposite signs, so whole
# vectors cancel exactly; every monomial has total degree 0..trunc+1, so
# pairs land on both sides of the cut.

PRIMES = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def coefficients():
    return st.builds(Fraction, st.integers(-9, 9), st.sampled_from(PRIMES))


@st.composite
def monomials(draw, nvars, trunc):
    degree = draw(st.integers(0, trunc + 1))
    cuts = sorted(draw(st.lists(st.integers(0, degree),
                                min_size=nvars - 1, max_size=nvars - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


@st.composite
def terms_maps(draw, nvars, trunc, dim):
    return {draw(monomials(nvars, trunc)):
            tuple(draw(st.lists(coefficients(), min_size=dim, max_size=dim)))
            for _ in range(draw(st.integers(0, 5)))}


@st.composite
def entry_lists(draw, width):
    """((index, coeff), ...), perhaps followed by the same terms negated."""
    ents = draw(st.lists(st.tuples(st.integers(0, width - 1), coefficients()),
                         max_size=3))
    if draw(st.booleans()):
        ents += [(k, -c) for k, c in ents]
    return tuple(ents)


@st.composite
def convolve_cases(draw):
    nvars = draw(st.integers(1, 3))
    trunc = draw(st.integers(0, 4))
    dim_u, dim_v, out_dim = (draw(st.integers(1, 4)) for _ in range(3))
    u = draw(terms_maps(nvars, trunc, dim_u))
    v = draw(terms_maps(nvars, trunc, dim_v))
    table = {(i, j): draw(entry_lists(out_dim))
             for i in range(dim_u) for j in range(dim_v) if draw(st.booleans())}
    return u, v, table, trunc, out_dim


@st.composite
def matvec_cases(draw):
    nvars = draw(st.integers(1, 3))
    dim, out_dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    terms = draw(terms_maps(nvars, 3, dim))
    rows = tuple(draw(entry_lists(dim)) for _ in range(out_dim))
    return terms, rows, out_dim


# Explicit cases: an empty side or table; a product one past the cut, one
# exactly at it from either side, one that cancels; and the products (1, 0)
# and (0, 2) at trunc 2, which must stay two monomials.
@settings(max_examples=300, deadline=None)
@given(convolve_cases())
@example(({}, {(1,): (F(1),)}, {(0, 0): ((0, F(1)),)}, 3, 1))
@example(({(1,): (F(1),)}, {(1,): (F(1),)}, {}, 3, 1))
@example(({(0, 2): (F(1, 2),)}, {(1, 0): (F(1, 3),)}, {(0, 0): ((0, F(1, 5)),)}, 2, 1))
@example(({(0,): (F(1, 7),)}, {(3,): (F(-2, 11),)}, {(0, 0): ((0, F(1, 13)),)}, 3, 1))
@example(({(3,): (F(1),)}, {(0,): (F(1),)},
          {(0, 0): ((0, F(1, 3)), (0, F(-1, 3)))}, 3, 1))
@example(({(0, 0): (F(1),)}, {(1, 0): (F(1),), (0, 2): (F(1),)},
          {(0, 0): ((0, F(1)),)}, 2, 1))
def test_ordered_bracket_property(case):
    u, v, table, trunc, out_dim = case
    assert ordered_fractions(u, v, table, trunc, out_dim) == \
        naive_convolve(u, v, table, trunc, out_dim)


@st.composite
def square_cases(draw, nmaps):
    """nmaps terms maps of one dimension and a square table (one degree
    against itself), then trunc and out_dim; the table may set [e_i, e_j]
    without [e_j, e_i], or both and unequal."""
    nvars = draw(st.integers(1, 3))
    trunc = draw(st.integers(0, 4))
    dim, out_dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maps = tuple(draw(terms_maps(nvars, trunc, dim)) for _ in range(nmaps))
    table = {(i, j): draw(entry_lists(out_dim))
             for i in range(dim) for j in range(dim) if draw(st.booleans())}
    return maps + (table, trunc, out_dim)


# Explicit cases: an empty and a single-monomial map; a one-sided entry on a
# pair at the cut; monomials at trunc and trunc + 1 beside a constant one;
# an antisymmetric table (an even-degree self-bracket, so zero); and
# denominators whose lcm exceeds 10^4 (101 * 103 * 107).
@settings(max_examples=300, deadline=None)
@given(square_cases(1))
@example(({}, {(0, 0): ((0, F(1)),)}, 3, 1))
@example(({(1,): (F(1, 3), F(2))}, {(0, 1): ((0, F(1, 5)),)}, 2, 1))
@example(({(1, 0): (F(1), F(0)), (0, 1): (F(0), F(1))},
          {(0, 1): ((0, F(1)),)}, 2, 1))
@example(({(0, 0): (F(1, 2),), (0, 3): (F(1, 3),), (2, 2): (F(1, 5),)},
          {(0, 0): ((0, F(1, 7)),)}, 3, 1))
@example(({(1,): (F(1), F(2)), (2,): (F(3), F(-1))},
          {(0, 1): ((0, F(1)),), (1, 0): ((0, F(-1)),)}, 4, 1))
@example(({(1,): (F(1, 101), F(2, 103)), (2,): (F(-3, 107), F(1))},
          {(0, 1): ((0, F(1, 101)),), (1, 0): ((1, F(5, 103)),),
           (1, 1): ((0, F(1, 107)),)}, 4, 2))
def test_self_convolve_property(case):
    terms, table, trunc, out_dim = case
    assert square_fractions(terms, table, trunc, out_dim) == \
        naive_convolve(terms, terms, table, trunc, out_dim)


# Explicit cases: an empty side; one-sided [e0, e1] with both orders of the
# pair present; products at and past the cut; denominators whose lcm
# exceeds 10^4.
@settings(max_examples=300, deadline=None)
@given(square_cases(2))
@example(({}, {(1,): (F(1),)}, {(0, 0): ((0, F(1)),)}, 3, 1))
@example(({(1,): (F(1), F(0))}, {(1,): (F(0), F(1))},
          {(0, 1): ((0, F(1, 3)),)}, 2, 1))
@example(({(0,): (F(1, 7),), (4,): (F(1),)}, {(3,): (F(-2, 11),)},
          {(0, 0): ((0, F(1, 13)),)}, 3, 1))
@example(({(1, 1): (F(1, 101), F(2, 103))}, {(2, 0): (F(-3, 107), F(1))},
          {(0, 1): ((0, F(1, 101)),), (1, 0): ((1, F(5, 103)),)}, 4, 2))
def test_bracket_sum_property(case):
    u, v, table, trunc, out_dim = case
    assert bracket_sum_fractions(u, v, table, trunc, out_dim) == fraction_add(
        naive_convolve(u, v, table, trunc, out_dim),
        naive_convolve(v, u, table, trunc, out_dim))


# Each view is shared between several brackets of the one accumulation, so
# a view laid out partly by one bracket is extended by the next.
@settings(max_examples=80, deadline=None)
@given(square_cases(3), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@example(({(1,): (F(1, 2),)}, {(2,): (F(1, 3),)}, {(1,): (F(1),), (3,): (F(2),)},
          {(0, 0): ((0, F(1)),)}, 4, 1), [1, 1, 1, 1])
@example(({(1, 0): (F(1), F(0))}, {(0, 1): (F(0), F(1))}, {},
          {(0, 1): ((0, F(1, 3)),), (1, 1): ((0, F(1)),)}, 2, 1), [2, -1, 1, 3])
def test_bracket_sums_property(case, scales):
    a, b, c, table, trunc, out_dim = case
    s1, s2, s3, s4 = scales
    Dt, it = integer_table(table)
    (Da, ia), (Db, ib), (Dc, ic) = (integer_terms(m) for m in (a, b, c))
    sym = symmetric_table(it)
    w = lowest_over(kernel_sums([(ia, ib, sym, s1), (ib, ic, sym, s2)],
                                [(ic, sym, s3), (ia, sym, s4)], trunc, out_dim))

    def both(u, v):
        return fraction_add(naive_convolve(u, v, table, trunc, out_dim),
                            naive_convolve(v, u, table, trunc, out_dim))

    want = {}
    for f, part in ((s1 * Da * Db, both(a, b)), (s2 * Db * Dc, both(b, c)),
                    (s3 * Dc * Dc, naive_convolve(c, c, table, trunc, out_dim)),
                    (s4 * Da * Da, naive_convolve(a, a, table, trunc, out_dim))):
        want = fraction_add(want, fraction_scale(f * Dt, part))
    assert w == want


# One call mixes every kind of source: an ordered pair through T, a pair
# through T + T^t that shares a view with it, and squares, or none (a call
# with no square accumulates once, with one twice), put over a den that may
# share factors with the sum.
@settings(max_examples=150, deadline=None)
@given(square_cases(3), st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.booleans(), st.sampled_from((1, 2, 3, 6, 12, 35)))
@example(({(1,): (F(1, 2),)}, {(1,): (F(1, 3),)}, {(1,): (F(1),)},
          {(0, 0): ((0, F(1)),)}, 2, 1), [1, 1, 1, 1], True, 6)
@example(({(1,): (F(1), F(2))}, {(1,): (F(3), F(1))}, {(2,): (F(1), F(-1))},
          {(0, 1): ((0, F(1)), (1, F(2))), (1, 0): ((1, F(2)),)}, 3, 2),
         [2, -1, 3, 1], False, 12)
def test_one_call_mixes_ordered_pairs_symmetric_pairs_and_squares(
        case, scales, with_squares, den):
    a, b, c, table, trunc, out_dim = case
    s1, s2, s3, s4 = scales
    Dt, it = integer_table(table)
    T = Table(it)
    sym = symmetric_table(T)
    (Da, ia), (Db, ib), (Dc, ic) = (integer_terms(m) for m in (a, b, c))
    squares = [(ic, sym, s3), (ia, sym, s4)] if with_squares else []
    w = lowest_over(kernel_sums([(ia, ib, T, s1), (ib, ic, sym, s2)], squares,
                                trunc, out_dim, den))

    def naive(x, y):
        return naive_convolve(x, y, table, trunc, out_dim)

    parts = [(s1 * Da * Db, naive(a, b)),
             (s2 * Db * Dc, fraction_add(naive(b, c), naive(c, b)))]
    if with_squares:
        parts += [(s3 * Dc * Dc, naive(c, c)), (s4 * Da * Da, naive(a, a))]
    want = {}
    for f, part in parts:
        want = fraction_add(want, fraction_scale(F(f * Dt, den), part))
    assert w == want


# The reduction of bracket_sums, branch by branch.  A pair alone
# accumulates the sum once (f = 1), a square twice (f = 2).  The decode
# divides by g = gcd(f den, packed integers) when there is one slot or g is
# f; otherwise it divides by f and linalg.lowest_terms reduces.  At W = 64
# the packed integer of the slots (1, 2) is 1 + 2^65, a multiple of 3 that
# neither slot is: a den of 3 must then go through lowest_terms and stay 3.
# Each case is [t, t] with t^1 of coefficient 1 (a square) or (x, 1) (a
# pair) and [e_0, e_0] = sum c_k e_k; divisor is what the decode divides by.
@pytest.mark.parametrize("square, x, cs, den, want, divisor, reduced", [
    (False, 3, (2,), 4, (2, (3,)), 2, False),
    (False, 1, (1, 2), 5, (5, (1, 2)), 1, False),
    (False, 1, (2, 6), 4, (2, (1, 3)), 1, True),
    (False, 1, (1, 2), 3, (3, (1, 2)), 1, True),
    (False, 1, (3, -6), 1, (1, (3, -6)), 1, False),
    (True, 1, (3,), 6, (2, (1,)), 6, False),
    (True, 1, (1, 2), 5, (5, (1, 2)), 2, False),
    (True, 1, (2, 6), 4, (2, (1, 3)), 2, True),
    (True, 1, (1, 2), 3, (3, (1, 2)), 2, True),
    (True, 1, (3, -6), 1, (1, (3, -6)), 2, False),
])
def test_bracket_sums_reduction_branches(monkeypatch, square, x, cs, den, want,
                                         divisor, reduced):
    calls = {"_decode": [], "lowest_terms": []}
    for name in calls:
        def recorded(*args, name=name, fn=getattr(_kernels, name)):
            calls[name].append(args)
            return fn(*args)

        monkeypatch.setattr(_kernels, name, recorded)
    table = {0: {0: tuple(enumerate(cs))}}
    out_dim = len(cs)
    if square:
        got = kernel_sums((), (({(1,): (1,)}, symmetric_table(table), 1),), 2, out_dim, den)
    else:
        got = kernel_sums([({(1,): (x,)}, {(1,): (1,)}, table, 1)], (), 2, out_dim, den)
    assert got == (want[0], {(2,): want[1]})
    assert [args[-1] for args in calls["_decode"]] == [divisor]
    assert bool(calls["lowest_terms"]) == reduced


# A view keeps the contracted rows of each Table apart (KernelView.rows):
# the same two views go through T, then T + T^t, then both again, with a
# self-bracket of the left one in between.
@settings(max_examples=80, deadline=None)
@given(square_cases(2))
@example(({(1,): (F(1), F(2))}, {(1,): (F(3), F(1))},
          {(0, 1): ((0, F(1)),), (1, 0): ((1, F(2)),)}, 2, 2))
def test_view_rows_kept_per_table(case):
    u, v, table, trunc, out_dim = case
    Dt, it = integer_table(table)
    it = Table(it)
    sym = symmetric_table(it)
    (Du, iu), (Dv, iv) = integer_terms(u), integer_terms(v)
    packing = Packing(max(trunc, 0) + 1)
    vu, vv = KernelView(iu, packing), KernelView(iv, packing)
    uv = naive_convolve(u, v, table, trunc, out_dim)
    both = fraction_add(uv, naive_convolve(v, u, table, trunc, out_dim))
    for _ in range(2):
        assert lowest_over(kernel_sums([(vu, vv, it, 1)], (), trunc, out_dim,
                                       Du * Dv * Dt)) == uv
        assert lowest_over(kernel_sums([(vu, vv, sym, 1)], (), trunc, out_dim,
                                       Du * Dv * Dt)) == both
        assert lowest_over(kernel_sums((), ((vu, sym, 1),), trunc, out_dim,
                                       Du * Du * Dt)) == \
            naive_convolve(u, u, table, trunc, out_dim)


@settings(max_examples=300, deadline=None)
@given(matvec_cases())
@example(({}, (((0, F(1, 2)),),), 1))
@example(({(1,): (F(1, 3),)}, ((), ()), 2))
@example(({(1,): (F(1, 3), F(2, 5))}, (((0, F(1, 7)), (0, F(-1, 7))),), 1))
def test_matvec_terms_property(case):
    terms, rows, out_dim = case
    assert matvec_fractions(terms, rows, out_dim) == \
        naive_matvec(terms, rows, out_dim)


# Compiled rows (compile_rows) against the dense reference: no rows at all
# and rows with no entry, rows of one column (entries 1, -1 and others,
# which the compiled source writes differently), a column named twice in
# one row, once cancelling, one output slot, and a row of 5,000 entries,
# whose sum compiles flat.
TERMS = {(1, 0): (F(1, 2), F(-3)), (0, 2): (F(0), F(5, 7)), (2, 1): (F(4), F(0))}


@pytest.mark.parametrize("rows, out_dim", [
    ((), 0),
    (((), ()), 2),
    ((((0, F(1)),), ((1, F(-1)),), ((1, F(3, 2)),)), 3),
    ((((1, F(-7)),),), 1),
    ((((0, F(2)), (0, F(5))), ((1, F(1)), (1, F(-1)))), 2),
    ((((0, F(1, 3)), (1, F(-2)), (0, F(1))),), 1),
    (((), ((0, F(10**60)), (1, F(-(2**63)))), ()), 3),
    ((tuple((k % 2, F(k % 7 - 3, 2)) for k in range(5000)),), 1),
])
def test_compiled_rows_match_the_reference(rows, out_dim):
    assert matvec_fractions(TERMS, rows, out_dim) == naive_matvec(TERMS, rows, out_dim)
    assert matvec_terms({}, compile_rows(integer_rows(rows)[1], out_dim)) == {}


# Packed slots: _convolve holds each output vector as one integer of signed
# W-bit slots, W proved from the operands on every call.  Coefficients and
# table entries up to 10^60 of either sign, one output slot and several,
# through bracket_sums with one ordered pair, with one square alone (halved)
# and with pairs and squares at once, with plain integer inputs against the
# Fraction references.
def big_coefficients():
    return st.one_of(st.integers(-10**60, 10**60), st.integers(-3, 3))


@st.composite
def big_cases(draw):
    nvars = draw(st.integers(1, 2))
    trunc = draw(st.integers(0, 3))
    dim, out_dim = draw(st.integers(1, 3)), draw(st.sampled_from((1, 2, 5)))

    def terms():
        return {draw(monomials(nvars, trunc)):
                tuple(draw(st.lists(big_coefficients(), min_size=dim, max_size=dim)))
                for _ in range(draw(st.integers(0, 4)))}

    u, v = terms(), terms()
    table = {(i, j): tuple((draw(st.integers(0, out_dim - 1)), draw(big_coefficients()))
                           for _ in range(draw(st.integers(1, 3))))
             for i in range(dim) for j in range(dim) if draw(st.booleans())}
    return u, v, table, trunc, out_dim


BIG = 10**60


@settings(max_examples=150, deadline=None)
@given(big_cases(), st.integers(-3, 3))
@example(({(1,): (BIG, -BIG)}, {(1,): (-BIG, BIG - 1)},
          {(0, 1): ((0, BIG),), (1, 0): ((0, -BIG),), (1, 1): ((0, BIG),)}, 2, 1), 2)
@example(({(1, 0): (BIG, 1), (0, 1): (-BIG, -BIG)}, {(1, 1): (BIG, -7)},
          {(0, 0): ((0, -BIG), (4, BIG)), (1, 0): ((2, BIG), (2, BIG))}, 2, 5), -3)
def test_packed_slots_exact_on_big_coefficients(case, s):
    u, v, table, trunc, out_dim = case
    _, it = integer_table(table)
    sym = symmetric_table(it)

    def naive(x, y):
        return naive_convolve(x, y, table, trunc, out_dim)

    assert lowest_over(kernel_sums([(u, v, it, 1)], (), trunc, out_dim)) == naive(u, v)
    assert lowest_over(kernel_sums((), ((u, sym, 1),), trunc, out_dim)) == naive(u, u)
    w = lowest_over(kernel_sums([(u, v, sym, s)], [(v, sym, 1), (u, sym, s)],
                                trunc, out_dim))
    assert w == fraction_add(
        fraction_add(fraction_scale(s, fraction_add(naive(u, v), naive(v, u))),
                     naive(v, v)),
        fraction_scale(s, naive(u, u)))


# (rows n, dim_u, dim_v, P, C, Q): u has n monomials of one variable, each
# with every entry P, v has every entry Q and every table entry [e_i, e_j]
# is C e_k, one output slot k.  Slot k of the last product monomial then
# gets n * dim_v * (dim_u P C) * Q, exactly the bound _slot_width proves
# (rows, partner dimension, row peak, partner peak), of one sign, and every
# other slot 0.  The bounds sit at and just past a multiple of 64 bits,
# where the width must grow by a word for the sign bit; slot k is the
# lowest, whose overflow would carry into the next, or the highest.
AT_THE_BOUND = [
    (1, 1, 1, 1, 1, 2**63 - 1),  # 2^63 - 1, the largest slot of W = 64
    (2, 2, 2, 2**30, 2**30, 1),  # 2^63, which needs W = 128
    (3, 17, 5, 257 * 641, 65537, 6700417),  # 2^64 - 1
    (2, 2, 2, 2**62, 2**62, 1),  # 2^127, which needs W = 192
]


@pytest.mark.parametrize("k", ("lowest", "highest"))
@pytest.mark.parametrize("out_dim", (2, 3))
@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("case", AT_THE_BOUND)
def test_packed_slot_at_the_proved_bound(case, sign, out_dim, k):
    n, dim_u, dim_v, P, C, Q = case
    k = 0 if k == "lowest" else out_dim - 1
    trunc = n - 1
    u = {(r,): (sign * P,) * dim_u for r in range(n)}
    v = {(r,): (Q,) * dim_v for r in range(n)}
    table = {(i, j): ((k, C),) for i in range(dim_u) for j in range(dim_v)}
    _, it = integer_table(table)
    den, w = kernel_sums([(u, v, it, 1)], (), trunc, out_dim)
    assert den == 1
    want = [0] * out_dim
    want[k] = sign * n * dim_v * dim_u * P * C * Q
    assert w[(trunc,)] == tuple(want)
    assert w == naive_convolve(u, v, table, trunc, out_dim)


# A table entry may name an output twice: its peak is the sum of the two
# |c|, which the slot reaches when both have one sign (2^63 here).
@pytest.mark.parametrize("sign", (1, -1))
def test_packed_slot_bound_counts_a_repeated_output(sign):
    table = {(0, 0): ((1, sign * 2**61), (1, sign * 2**61), (0, 1))}
    _, it = integer_table(table)
    u, v = {(1,): (2,)}, {(0,): (1,)}
    den, w = kernel_sums([(u, v, it, 1)], (), 1, 2)
    assert (den, w) == (1, {(1,): (2, sign * 2**63)})
    assert w == naive_convolve(u, v, table, 1, 2)


# The self walk: y at t^0..t^3 with trunc 3 walks rows t^0 and t^1, which
# meet t^3 and t^2 at 2s.  With every entry of y P and every entry of T
# C e_k, sym = T + T^t is 2C e_k everywhere, each row's peak is 2 dim P C,
# and before the halving slot k of t^3 is rows * dim * (2 dim P C) * 2 * P,
# the bound: 2^63 for dim 2 and P = 2^29, one past W = 64.
@pytest.mark.parametrize("k", (0, 2))
@pytest.mark.parametrize("sign", (1, -1))
def test_packed_self_slot_at_the_proved_bound(sign, k):
    dim, out_dim, P, C = 2, 3, 2**29, sign
    y = {(r,): (P,) * dim for r in range(4)}
    table = {(i, j): ((k, C),) for i in range(dim) for j in range(dim)}
    _, it = integer_table(table)
    den, w = kernel_sums((), ((y, symmetric_table(it), 1),), 3, out_dim)
    assert den == 1
    want = [0] * out_dim
    want[k] = sign * 2**62
    assert w[(3,)] == tuple(want)
    assert w == naive_convolve(y, y, table, 3, out_dim)


# One view bracketed through one Table at three slot widths: against a
# small partner (W = 64), one with coefficients near 10^60 (W >= 128) and
# the small one again.  The view keeps its rows of the table and contracts
# them again at each new W from the table's pack of that width; u has
# one-term and multi-term vectors, and [e_0, e_1] names one output twice.
def test_kept_rows_follow_the_slot_width(monkeypatch):
    widths = []
    slot_width = _kernels._slot_width

    def recorded(sources):
        widths.append(slot_width(sources))
        return widths[-1]

    monkeypatch.setattr(_kernels, "_slot_width", recorded)
    table = {(0, 0): ((0, 3), (1, -2)), (0, 1): ((2, 2), (2, 7)),
             (1, 0): ((1, 5), (2, 1)), (1, 1): ((0, -1), (2, 4))}
    _, it = integer_table(table)
    T = Table(it)
    u = {(1, 0): (2, -1), (0, 1): (1, 0), (1, 1): (-3, 4), (0, 2): (0, 6)}
    small = {(1, 0): (1, 2), (0, 1): (-1, 1)}
    big = {(1, 0): (BIG - 1, -BIG), (0, 1): (BIG, 3)}
    view = KernelView(u, Packing(4))
    kept = view.rows(T)
    for v in (small, big, small, big):
        assert kernel_sums([(view, v, T, 1)], (), 3, 3) == \
            (1, naive_convolve(u, v, table, 3, 3))
    assert view.rows(T) is kept
    assert widths[0] == widths[2] == 64 and widths[1] == widths[3] >= 128


@st.composite
def bound_cases(draw):
    """An integer table {i: {j: ((k, c), ...)}} whose entries may name one
    output twice, and a sparse vector ((i, c), ...), distinct i ascending,
    some of them perhaps outside the table."""
    dim, out_dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    table = {}
    for i in range(dim):
        for j in range(draw(st.integers(0, 3))):
            ents = draw(st.lists(st.tuples(st.integers(0, out_dim - 1),
                                           big_coefficients()), min_size=1, max_size=4))
            if draw(st.booleans()):
                ents += [(k, draw(big_coefficients())) for k, _ in ents]
            table.setdefault(i, {})[j] = tuple(ents)
    u = draw(st.dictionaries(st.integers(0, dim), big_coefficients().filter(bool),
                             max_size=dim + 1))
    return table, tuple(sorted(u.items())), out_dim


def signed_slots(q, W, n):
    """The n signed W-bit digits of q = sum c_k 2^(W k)."""
    out = []
    for _ in range(n):
        r = q & ((1 << W) - 1)
        r -= (r >> (W - 1)) << W
        out.append(r)
        q = (q - r) >> W
    assert q == 0
    return out


# Table.bound(u), sum |u_i| p_i, is never below the exact peak of the
# contracted row (the largest sum of |slot| over one generator), and the
# packed row Table.row gives, at a width past the bound, decodes to that
# row exactly.
@settings(max_examples=300, deadline=None)
@given(bound_cases())
@example(({0: {0: ((1, 2**61), (1, 2**61), (0, 1))}}, ((0, 2),), 2))
@example(({0: {0: ((0, 5),)}, 1: {0: ((0, -5),)}}, ((0, 1), (1, 1)), 1))
def test_row_bound_covers_the_exact_peak(case):
    table, u, out_dim = case
    exact = {}
    for i, c in u:
        for j, ents in table.get(i, {}).items():
            row = exact.setdefault(j, [0] * out_dim)
            for k, e in ents:
                row[k] += c * e
    peak = max([sum(map(abs, row)) for row in exact.values()], default=0)
    T = Table(table)
    bound = T.bound(u)
    assert bound >= peak
    W = -(-(bound.bit_length() + 1) // 64) * 64
    row = T.row(u, W)
    if not any(i in table for i, _ in u):
        assert row is None
        return
    f, packed = row
    assert {j: signed_slots(f * q, W, out_dim) for j, q in packed.items()} == \
        {j: row for j, row in exact.items() if any(row)}


# The packed forms of a DGLA's tables live on the tables, which the DGLA
# keeps: once the DGLA and the elements it bracketed are gone, so are the
# tables, and the kernel module holds no cache of its own.
def test_tables_die_with_their_dgla():
    rng = Random(1)
    L = builtin_example("E2")
    ring = CoefficientRing(("t1", "t2"), 4)
    a, A = random_element(L, ring, 0, rng), random_element(L, ring, 1, rng)
    assert not L.curvature(gauge_act(L, a, A)).is_zero()
    table, sym = L._integer_table(0, 1)[1], L._symmetric_table(1)
    assert type(table) is Table and type(sym) is Table
    refs = [weakref.ref(x) for x in (L, table, sym)]
    del L, a, A, table, sym
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3
    assert not [name for name, val in vars(_kernels).items()
                if not name.startswith("__") and isinstance(val, (dict, list, set))]
