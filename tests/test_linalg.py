from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla.linalg import (
    Matrix,
    SubspaceBasis,
    common_factor,
    complement_basis,
    image_basis,
    invert,
    kernel_basis,
    lowest,
    rank,
    rref_rows,
    scaled,
    solve_linear,
    vec,
)
from dgla.report import matrix_data

from reference import (
    fraction_complement,
    fraction_image,
    fraction_invert,
    fraction_kernel,
    fraction_matmul,
    fraction_rref,
    greedy_complement,
)


def F(x):
    return Fraction(x)


def test_solve_identity():
    A = Matrix.identity(2)
    assert solve_linear(A, vec(F("1/2"), -3)) == vec(F("1/2"), -3)


def test_solve_inconsistent():
    A = Matrix.from_rows([[1, 1], [2, 2]])
    assert solve_linear(A, vec(1, 3)) is None


def test_solve_underdetermined_free_vars_zero():
    # hand echelon: x1 + x2 = 1 with x2 free -> (1, 0)
    A = Matrix.from_rows([[1, 1], [2, 2]])
    assert solve_linear(A, vec(1, 2)) == vec(1, 0)


def test_solve_dimension_mismatch():
    A = Matrix.from_rows([[1, 1]])
    with pytest.raises(ValueError):
        solve_linear(A, vec(1, 2))


def test_kernel_zero_matrix():
    K = kernel_basis(Matrix.zero(2, 2))
    assert K.vectors == (vec(1, 0), vec(0, 1))


def test_kernel_identity():
    assert kernel_basis(Matrix.identity(3)).vectors == ()


def test_kernel_one_equation():
    # x1 + x2 = 0, normalized so the first nonzero coordinate is 1
    K = kernel_basis(Matrix.from_rows([[1, 1]]))
    assert K.vectors == (vec(1, -1),)


def test_image_zero_and_identity():
    assert image_basis(Matrix.zero(3, 2)).vectors == ()
    assert image_basis(Matrix.identity(2)).vectors == (vec(1, 0), vec(0, 1))


def test_image_single_column():
    assert image_basis(Matrix.from_rows([[1], [2]])).vectors == (vec(1, 2),)


def test_complement_standard():
    S = SubspaceBasis(2, [vec(1, 0)])
    assert complement_basis(S).vectors == (vec(0, 1),)


def test_complement_of_full_space_is_empty():
    S = SubspaceBasis(2, [vec(1, 0), vec(0, 1)])
    assert complement_basis(S).vectors == ()


def test_complement_greedy_picks_e1():
    S = SubspaceBasis(2, [vec(1, 1)])
    assert complement_basis(S).vectors == (vec(1, 0),)


def test_complement_inside_subspace():
    inside = SubspaceBasis(3, [vec(1, 0, 0), vec(0, 1, 0)])
    S = SubspaceBasis(3, [vec(1, 1, 0)])
    T = complement_basis(S, inside)
    assert T.vectors == (vec(1, 0, 0),)


def test_complement_containment_violation():
    inside = SubspaceBasis(3, [vec(1, 0, 0)])
    S = SubspaceBasis(3, [vec(0, 1, 0)])
    with pytest.raises(ValueError):
        complement_basis(S, inside)


def _small_vectors(n, max_size):
    entry = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 1, 2, 3)))
    return st.lists(st.tuples(*[entry] * n), max_size=max_size)


@st.composite
def complement_cases(draw):
    """(n, S, inside) with inside independent or None; S is a few small
    combinations of inside (or of anything) plus perhaps a stray vector, so
    dependent S and S outside inside both come up."""
    n = draw(st.integers(0, 4))
    inside = None
    if draw(st.booleans()):
        # the independent vectors of a random list, kept greedily
        inside = greedy_complement(n, [], draw(_small_vectors(n, n)))
    span = inside if inside is not None else draw(_small_vectors(n, n))
    S = []
    for _ in range(draw(st.integers(0, len(span)))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(span),
                               max_size=len(span)))
        S.append(tuple(sum((c * v[i] for c, v in zip(coeffs, span)), Fraction(0))
                       for i in range(n)))
    S += draw(_small_vectors(n, 1))
    return n, S, inside


@settings(max_examples=300, deadline=None)
@given(complement_cases())
@example((2, [vec(1, 1), vec(2, 2)], None))
@example((3, [vec(0, 1, 0)], [vec(1, 0, 0)]))
@example((3, [vec(1, 1, 0)], [vec(1, 0, 0), vec(0, 1, 0)]))
def test_complement_matches_greedy_reference(case):
    n, S, inside = case
    Sb = SubspaceBasis.from_integers(n, [scaled(v) for v in S])
    ib = None if inside is None else SubspaceBasis(n, inside)
    try:
        want = greedy_complement(n, S, inside)
    except ValueError:
        with pytest.raises(ValueError):
            complement_basis(Sb, ib)
        return
    assert list(complement_basis(Sb, ib).vectors) == want


def _random_matrix(rng, rows, cols, density=0.5):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Matrix(rows, cols, entries)


def test_rank_nullity_randomized():
    rng = Random(7)
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        A = _random_matrix(rng, rows, cols)
        assert kernel_basis(A).dim + image_basis(A).dim == cols


def test_kernel_vectors_are_killed_and_image_is_reachable():
    rng = Random(11)
    for _ in range(40):
        A = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for v in kernel_basis(A):
            assert not any(A.mul_vec(v))
        for w in image_basis(A):
            assert solve_linear(A, w) is not None


def test_solve_agrees_with_membership_oracle():
    # independent oracle: b lies in im(A) iff rank([A|b]) == rank(A)
    rng = Random(13)
    for _ in range(80):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = _random_matrix(rng, rows, cols)
        b = tuple(Fraction(rng.randint(-3, 3)) for _ in range(rows))
        entries = {(i, j): A.entry(i, j) for i in range(rows) for j in range(cols)}
        entries.update({(i, cols): x for i, x in enumerate(b)})
        aug = Matrix(rows, cols + 1, entries)
        solvable = rank(aug) == rank(A)
        x = solve_linear(A, b)
        assert (x is not None) == solvable
        if x is not None:
            assert A.mul_vec(x) == b


def test_complement_spans_disjointly():
    rng = Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        A = _random_matrix(rng, n, rng.randint(1, 6))
        S = image_basis(A)
        T = complement_basis(S)
        assert S.dim + T.dim == n
        joint = Matrix.from_columns(n, list(S.vectors) + list(T.vectors))
        assert rank(joint) == n


def test_invert_roundtrip():
    M = Matrix.from_rows([[1, 2], [3, 4]])
    assert invert(M) @ M == Matrix.identity(2)
    with pytest.raises(ValueError):
        invert(Matrix.from_rows([[1, 1], [2, 2]]))


def test_matrix_algebra_basics():
    A = Matrix.from_rows([[1, 0], [0, 2]])
    B = Matrix.from_rows([[0, 1], [1, 0]])
    assert (A @ B) == Matrix.from_rows([[0, 1], [2, 0]])
    assert (A + B) - B == A
    assert A.scale(Fraction(1, 2)).mul_vec(vec(2, 2)) == vec(1, 2)
    assert not A.is_zero() and Matrix.zero(2, 2).is_zero()


def test_matrix_rejects_an_entry_outside_its_shape_even_zero():
    with pytest.raises(ValueError):
        Matrix(2, 2, {(5, 5): 0})


def test_subspace_basis_rejects_a_dependent_family():
    with pytest.raises(ValueError):
        SubspaceBasis(2, [vec(1, 2), vec(2, 4)])


# The integer form linalg owns, against Fraction: scaled, lowest and
# common_factor give the one canonical (den > 0, nums) of a rational vector.
rationals = st.one_of(st.integers(-10**6, 10**6),
                      st.fractions(max_denominator=10**12))


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals, max_size=6))
@example([])
@example([0, Fraction(0)])
@example([Fraction(-3, 4), 6, Fraction(5, 6)])
def test_scaled_is_the_canonical_integer_form(values):
    den, nums = scaled(values)
    assert type(den) is int and type(nums) is tuple
    assert all(type(n) is int for n in nums)
    assert den == lcm(*[Fraction(v).denominator for v in values]) > 0
    assert gcd(den, *nums) == 1
    assert [Fraction(n, den) for n in nums] == [Fraction(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**9, 10**9).filter(bool),
       st.lists(st.integers(-10**9, 10**9), max_size=6))
@example(1, [])
@example(-7, [])
@example(-5, [0, 0])
@example(-4, [2, -6])
@example(6, [4, 0, -10])
def test_lowest_is_the_canonical_form_of_nums_over_den(den, nums):
    d, out = lowest(den, nums)
    assert d > 0 and type(out) is tuple and gcd(d, *out) == 1
    assert [Fraction(x, d) for x in out] == [Fraction(x, den) for x in nums]
    assert (d, out) == scaled([Fraction(x, den) for x in nums])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**9),
       st.lists(st.lists(st.integers(-10**6, 10**6), max_size=4), max_size=5))
@example(1, [])
@example(12, [[0, 0], [18], [-8]])
def test_common_factor_is_the_gcd(den, vectors):
    assert common_factor(den, vectors) == gcd(den, *[x for v in vectors for x in v])


def test_common_factor_reads_no_vector_once_at_one():
    # gcd(15, 3, 5) = 1: the next vector is never read
    assert common_factor(15, [(3, 5), ("never read",)]) == 1
    assert common_factor(1, [("never read",)]) == 1


def test_coordinates_of():
    S = SubspaceBasis(3, [vec(1, 0, 0), vec(1, 1, 0)])
    assert S.coordinates_of(vec(2, 1, 0)) == vec(1, 1)
    assert S.coordinates_of(vec(0, 0, 1)) is None
    empty = SubspaceBasis(2, [])
    assert empty.coordinates_of(vec(0, 0)) == ()
    assert empty.coordinates_of(vec(1, 0)) is None


# The integer linear algebra against the Fraction oracles of reference.py:
# random fractional matrices with signed entries, rows that are
# combinations of earlier rows (rank deficiency), empty shapes, and in a
# third of the cases denominators near 2^40 to 2^61.

SMALL_DENS = (1, 2, 3, 7)
LARGE_DENS = (2**61 - 1, 10**12 + 39, 3**30, 1)


def _oracle_matrix(rng, rows, cols, dens):
    dense = []
    for i in range(rows):
        if i >= 2 and rng.random() < 0.3:
            a, b = rng.sample(range(i), 2)
            ca, cb = (Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in "ab")
            dense.append([ca * x + cb * y for x, y in zip(dense[a], dense[b])])
        else:
            dense.append([Fraction(rng.randint(-9, 9), rng.choice(dens))
                          if rng.random() < 0.6 else Fraction(0)
                          for _ in range(cols)])
    return Matrix(rows, cols, {(i, j): x for i, row in enumerate(dense)
                               for j, x in enumerate(row)}), dense


def _oracle_cases(seed, count, square=False):
    rng = Random(seed)
    for k in range(count):
        rows = rng.randint(0, 6)
        cols = rows if square else rng.randint(0, 6)
        yield rng, _oracle_matrix(rng, rows, cols,
                                  LARGE_DENS if k % 3 == 0 else SMALL_DENS)


def test_matrix_is_canonical_and_renders_like_fraction():
    for _, (A, dense) in _oracle_cases(19, 150):
        assert A.dense_rows() == dense
        assert A.den == lcm(*{x.denominator for row in dense for x in row})
        assert gcd(A.den, *A.nums.values()) == 1 and all(A.nums.values())
        assert matrix_data(A) == [[str(x) for x in row] for row in dense]
        assert A == Matrix.from_integers(A.rows, A.cols, 6 * A.den,
                                         {k: 6 * n for k, n in A.nums.items()})


def test_rref_rows_matches_fraction_oracle():
    for _, (A, dense) in _oracle_cases(23, 150):
        rows = A.row_maps()
        before = [dict(row) for row in rows]
        R, pivots = rref_rows(rows, A.cols)
        want, want_pivots = fraction_rref(dense, A.cols)
        assert rows == before and pivots == want_pivots
        for k, row in enumerate(R):
            if k < len(pivots):
                assert all(type(x) is int for x in row.values())
                assert gcd(*row.values()) == 1
                lead = row[pivots[k]]
                assert [Fraction(row.get(j, 0), lead) for j in range(A.cols)] == want[k]
            else:
                assert not row and not any(want[k])


def test_bases_match_fraction_oracle():
    for rng, (A, _) in _oracle_cases(29, 150):
        Z = kernel_basis(A)
        assert list(Z.vectors) == fraction_kernel(A)
        assert SubspaceBasis(A.cols, Z.vectors) == Z
        B = image_basis(A)
        assert list(B.vectors) == fraction_image(A)
        assert list(complement_basis(B).vectors) == fraction_complement(A.rows, B.vectors)
        # S: a few combinations of the kernel vectors, complemented inside it
        combos = [tuple(sum((rng.randint(-2, 2) * x for x in xs), Fraction(0))
                        for xs in zip(*Z.vectors))
                  for _ in range(rng.randint(0, Z.dim))] if Z.dim else []
        S = SubspaceBasis.from_integers(A.cols, [scaled(v) for v in combos])
        try:
            want = fraction_complement(A.cols, S.vectors, Z.vectors)
        except ValueError:
            with pytest.raises(ValueError):
                complement_basis(S, Z)
        else:
            assert list(complement_basis(S, Z).vectors) == want


def test_invert_and_product_match_fraction_oracle():
    for rng, (A, _) in _oracle_cases(31, 150, square=True):
        try:
            want = fraction_invert(A)
        except ValueError:
            with pytest.raises(ValueError):
                invert(A)
        else:
            assert invert(A).dense_rows() == want
        B = _oracle_matrix(rng, A.cols, rng.randint(0, 5), LARGE_DENS)[0]
        assert (A @ B).dense_rows() == fraction_matmul(A, B)
        assert (A @ B) == Matrix(A.rows, B.cols, {
            (i, j): x for i, row in enumerate(fraction_matmul(A, B))
            for j, x in enumerate(row)})
