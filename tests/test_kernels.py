from fractions import Fraction
from math import lcm
from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla import BUILTIN_NAMES, builtin_example
from dgla._kernels import (
    KernelView,
    Packing,
    bracket_convolve,
    bracket_sums,
    matvec_terms,
    self_convolve,
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


def convolve_fractions(u, v, table, trunc, out_dim):
    """bracket_convolve on Fraction inputs: scale, convolve, divide."""
    Du, iu = integer_terms(u)
    Dv, iv = integer_terms(v)
    Dt, it = integer_table(table)
    w = bracket_convolve(iu, iv, it, trunc, out_dim)
    assert_integer_terms(w)
    return over(w, Du * Dv * Dt)


def self_convolve_fractions(terms, table, trunc, out_dim):
    """self_convolve on Fraction inputs: scale, convolve, divide."""
    D, it = integer_terms(terms)
    Dt, itable = integer_table(table)
    w = self_convolve(it, symmetric_table(itable), trunc, out_dim)
    assert_integer_terms(w)
    return over(w, D * D * Dt)


def bracket_sum_fractions(u, v, table, trunc, out_dim):
    """bracket_convolve through symmetric_table on Fraction inputs."""
    Du, iu = integer_terms(u)
    Dv, iv = integer_terms(v)
    Dt, itable = integer_table(table)
    w = bracket_convolve(iu, iv, symmetric_table(itable), trunc, out_dim)
    assert_integer_terms(w)
    return over(w, Du * Dv * Dt)


def matvec_fractions(terms, rows, out_dim):
    """matvec_terms on Fraction inputs: scale, apply, divide."""
    Dv, iv = integer_terms(terms)
    Dm, irows = integer_rows(rows)
    w = matvec_terms(iv, irows, out_dim)
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
        w = convolve_fractions(u, v, table, trunc, out_dim)
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
    assert bracket_convolve(u, v, table, 4, 1) == {}
    assert bracket_convolve(u, v, table, 5, 1) == {(5,): (6,)}


def test_zero_results_are_dropped():
    u = {(1,): (1, -1)}
    v = {(1,): (1, 1)}
    # [e0, e1] = +g, [e1, e0] = +g: contributions cancel exactly
    table = {0: {1: ((0, 1),)}, 1: {0: ((0, 1),)}}
    assert bracket_convolve(u, v, table, 4, 1) == {}
    assert matvec_terms(u, (), 2) == {}
    assert matvec_terms(u, ((0, ((0, 1), (1, 1))),), 1) == {}


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
    assert self_convolve(terms, symmetric_table(table), 3, 1) == {
        (2, 0): (1,), (1, 1): (4,), (3, 0): (10,), (0, 2): (4,),
        (2, 1): (20,)}
    assert self_convolve({}, symmetric_table(table), 3, 1) == {}


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
def test_bracket_convolve_property(case):
    u, v, table, trunc, out_dim = case
    assert convolve_fractions(u, v, table, trunc, out_dim) == \
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
    assert self_convolve_fractions(terms, table, trunc, out_dim) == \
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
    packing = Packing(max(trunc, 0) + 1)
    va, vb, vc = (KernelView(m, packing) for m in (ia, ib, ic))
    w = bracket_sums([(va, vb, s1), (vb, vc, s2)], [(vc, s3), (va, s4)],
                     symmetric_table(it), trunc, out_dim)
    assert_integer_terms(w)

    def both(u, v):
        return fraction_add(naive_convolve(u, v, table, trunc, out_dim),
                            naive_convolve(v, u, table, trunc, out_dim))

    want = {}
    for f, part in ((s1 * Da * Db, both(a, b)), (s2 * Db * Dc, both(b, c)),
                    (s3 * Dc * Dc, naive_convolve(c, c, table, trunc, out_dim)),
                    (s4 * Da * Da, naive_convolve(a, a, table, trunc, out_dim))):
        want = fraction_add(want, fraction_scale(f * Dt, part))
    assert over(w, 1) == want


# A view keeps the contracted rows of each table apart (KernelView.rows):
# the same two views go through T, then T + T^t, then both again, with a
# self-bracket of the left one in between.
@settings(max_examples=80, deadline=None)
@given(square_cases(2))
@example(({(1,): (F(1), F(2))}, {(1,): (F(3), F(1))},
          {(0, 1): ((0, F(1)),), (1, 0): ((1, F(2)),)}, 2, 2))
def test_view_rows_kept_per_table(case):
    u, v, table, trunc, out_dim = case
    Dt, it = integer_table(table)
    sym = symmetric_table(it)
    (Du, iu), (Dv, iv) = integer_terms(u), integer_terms(v)
    packing = Packing(max(trunc, 0) + 1)
    vu, vv = KernelView(iu, packing), KernelView(iv, packing)
    uv = naive_convolve(u, v, table, trunc, out_dim)
    both = fraction_add(uv, naive_convolve(v, u, table, trunc, out_dim))
    for _ in range(2):
        assert over(bracket_convolve(vu, vv, it, trunc, out_dim),
                    Du * Dv * Dt) == uv
        assert over(bracket_convolve(vu, vv, sym, trunc, out_dim),
                    Du * Dv * Dt) == both
        assert over(self_convolve(vu, sym, trunc, out_dim),
                    Du * Du * Dt) == naive_convolve(u, u, table, trunc, out_dim)


@settings(max_examples=300, deadline=None)
@given(matvec_cases())
@example(({}, (((0, F(1, 2)),),), 1))
@example(({(1,): (F(1, 3),)}, ((), ()), 2))
@example(({(1,): (F(1, 3), F(2, 5))}, (((0, F(1, 7)), (0, F(-1, 7))),), 1))
def test_matvec_terms_property(case):
    terms, rows, out_dim = case
    assert matvec_fractions(terms, rows, out_dim) == \
        naive_matvec(terms, rows, out_dim)
