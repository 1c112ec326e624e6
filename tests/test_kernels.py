from fractions import Fraction
from random import Random

from dgla import BUILTIN_NAMES, builtin_example
from dgla._kernels import bracket_convolve, matvec_terms
from dgla.formal import CoefficientRing, FormalElement

from reference import (
    naive_bracket,
    naive_convolve,
    naive_differential,
    naive_matvec,
)


def F(*args):
    return Fraction(*args)


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
                assert L.apply_bracket(u, v) == naive_bracket(L, u, v), \
                    (name, p, q)


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
        w = bracket_convolve(u, v, table, trunc, out_dim)
        assert w == naive_convolve(u, v, table, trunc, out_dim)
        nonzero += bool(w)
        rows = tuple(
            tuple((c, F(rng.randint(-5, 5), rng.randint(1, 3)))
                  for c in range(dim_u) if rng.random() < 0.6)
            for _ in range(out_dim))
        assert matvec_terms(u, rows, out_dim) == \
            naive_matvec(u, rows, out_dim)
    assert nonzero >= 10  # the comparison is not vacuous


def test_truncation_drops_high_monomials():
    u = {(2,): (F(1),)}
    v = {(3,): (F(1),)}
    table = {(0, 0): ((0, F(1)),)}
    assert bracket_convolve(u, v, table, 4, 1) == {}
    assert bracket_convolve(u, v, table, 5, 1) == {(5,): (F(1),)}


def test_zero_results_are_dropped():
    u = {(1,): (F(1), F(-1))}
    v = {(1,): (F(1), F(1))}
    # [e0, e1] = +g, [e1, e0] = -g: contributions cancel exactly
    table = {(0, 1): ((0, F(1)),), (1, 0): ((0, F(1)),)}
    assert bracket_convolve(u, v, table, 4, 1) == {}
    assert matvec_terms(u, ((), ()), 2) == {}
