from functools import lru_cache

import pytest

from dgla import (
    BUILTIN_NAMES,
    DGLA,
    build_contraction,
    build_splitting,
    builtin_example,
    validate_dgla,
)
from dgla.graded import GradedLinearMap
from dgla.linalg import Matrix
from dgla.sdr import SDRData


@lru_cache(maxsize=None)
def contraction_for(name):
    L = builtin_example(name)
    return L, build_contraction(L, build_splitting(L))


@pytest.fixture(params=BUILTIN_NAMES)
def corpus_case(request):
    return contraction_for(request.param)


def chain_case():
    """d a = b, d c = e and [x, x] = e: degree 1 holds a boundary b, a
    harmonic x and a complement c = h e at once."""
    L = DGLA([("a", 0), ("x", 1), ("b", 1), ("c", 1), ("e", 2)],
             d={"a": [("b", 1)], "c": [("e", 1)]},
             bracket={("x", "x"): [("e", 1)]}, name="chain")
    assert validate_dgla(L).ok
    return L, build_contraction(L, build_splitting(L))


def degree_faults_case():
    """Degree faults in d, at y (d y hits x and a) then a (d a hits b) in
    store order, and in the bracket pairs (1, 1), at [y, x] then [x, y] (it
    hits x and a) in store order, and (0, 1), at [a, x]; every other stored
    term keeps its degree."""
    gens = [("a", 0), ("x", 1), ("y", 1), ("b", 2), ("c", 2)]
    return DGLA(gens, d={"y": [("x", 1), ("c", 1), ("a", 3)], "x": [("b", 1)],
                         "a": [("b", 2)]},
                bracket={("y", "x"): [("a", 1)], ("x", "y"): [("b", 1), ("x", 2), ("a", 3)],
                         ("y", "y"): [("c", 1)], ("a", "x"): [("b", 1)],
                         ("a", "y"): [("y", 1)], ("y", "a"): [("y", -1)],
                         ("a", "b"): [("c", 1)]}, name="degree-faults")


def perturbed(R, **maps):
    fields = dict(splitting=R.splitting, h=R.h, projection=R.projection,
                  inclusion=R.inclusion, pi_B=R.pi_B,
                  differential=R.differential)
    fields.update(maps)
    return SDRData(**fields)


def one_entry(src_dims, dst_dims, src, dst, i, j):
    """The graded map with one entry 1, row i and column j of block (src, dst)."""
    return GradedLinearMap(src_dims, dst_dims, {(src, dst): Matrix(
        dst_dims[dst], src_dims[src], {(i, j): 1})})
