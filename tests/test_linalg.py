from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla.linalg import (
    Matrix,
    SubspaceBasis,
    complement_basis,
    image_basis,
    invert,
    kernel_basis,
    rank,
    solve_linear,
    vec,
)

from reference import greedy_complement


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
    Sb = SubspaceBasis(n, S, check=False)
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
        aug = Matrix(rows, cols + 1, dict(A.entries))
        for i, x in enumerate(b):
            if x:
                aug.entries[(i, cols)] = x
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


def test_coordinates_of():
    S = SubspaceBasis(3, [vec(1, 0, 0), vec(1, 1, 0)])
    assert S.coordinates_of(vec(2, 1, 0)) == vec(1, 1)
    assert S.coordinates_of(vec(0, 0, 1)) is None
    empty = SubspaceBasis(2, [])
    assert empty.coordinates_of(vec(0, 0)) == ()
    assert empty.coordinates_of(vec(1, 0)) is None
