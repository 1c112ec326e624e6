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
