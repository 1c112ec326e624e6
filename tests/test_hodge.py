from fractions import Fraction

from dgla import check_cartan, hodge_decompose
from dgla.graded import GradedLinearMap
from dgla.hodge import hodge_checks
from dgla.linalg import vec, vec_add, zero_vec
from dgla.sdr import SDRData

from conftest import contraction_for


def F(x):
    return Fraction(x)


def test_star_pinned_values_e1():
    L, R = contraction_for("E1")
    star = R.star
    # basis order in degree 1 is (x, c): *(x) = x, *(c) = b, *(b) = c
    assert star.block(1, 1).column(0) == vec(1, 0)
    assert star.block(1, 2).column(1) == vec(1)
    assert star.block(2, 1).column(0) == vec(0, 1)


def test_star_identity_on_e0():
    L, R = contraction_for("E0")
    star = R.star
    assert star == GradedLinearMap.identity({1: 2})


def test_star_involution(corpus_case):
    L, R = corpus_case
    star = R.star
    assert star @ star == R.identity


def test_codifferential_is_h(corpus_case):
    L, R = corpus_case
    star = R.star
    assert star @ R.differential @ star == R.h


def test_codifferential_pinned_path_e1():
    L, R = contraction_for("E1")
    star = R.star
    d = R.differential
    sds = star @ d @ star
    # (*d*)(b) = *(d(c)) = *(b) = c and (*d*)(x) = 0
    assert sds.block(2, 1).column(0) == vec(0, 1)
    assert sds.block(1, 2).is_zero() or sds.block(1, 2).column(0) == vec(0)
    assert sds.block(1, 1).is_zero() or sds.block(1, 1).column(0) == vec(0, 0)


def test_laplacian_pinned_values():
    L, R = contraction_for("E1")
    lap = R.laplacian
    # Delta(x) = 0, Delta(c) = c, Delta(b) = b
    assert lap.block(1, 1).column(0) == vec(0, 0)
    assert lap.block(1, 1).column(1) == vec(0, 1)
    assert lap.block(2, 2).column(0) == vec(1)
    for name in ("E0", "E3"):
        _, R = contraction_for(name)
        assert R.laplacian.is_zero()


def test_laplacian_identities(corpus_case):
    L, R = corpus_case
    lap = R.laplacian
    dh = R.differential @ R.h + R.h @ R.differential
    assert lap == dh
    assert lap == R.identity - R.inclusion @ R.projection
    # projection: P^2 = P
    assert lap @ lap == lap


def test_laplacian_kernel_is_harmonic(corpus_case):
    L, R = corpus_case
    lap = R.laplacian
    for deg in L.degrees:
        block = lap.block(deg, deg)
        H = R.splitting.harmonic[deg]
        for v in H.vectors:
            assert block.mul_vec(v) == zero_vec(L.dim(deg))
        # kernel dimension equals dim H (rank-nullity on the block)
        from dgla.linalg import rank
        assert L.dim(deg) - rank(block) == H.dim


def test_hodge_decompose_pinned_e1():
    L, R = contraction_for("E1")
    # v = b in degree 2 is pure boundary; x harmonic; c = h(b) in B*
    vB, vH, vBs = hodge_decompose(R, 2, vec(1))
    assert (vB, vH, vBs) == (vec(1), vec(0), vec(0))
    vB, vH, vBs = hodge_decompose(R, 1, vec(1, 0))
    assert (vB, vH, vBs) == (vec(0, 0), vec(1, 0), vec(0, 0))
    vB, vH, vBs = hodge_decompose(R, 1, vec(0, 1))
    assert (vB, vH, vBs) == (vec(0, 0), vec(0, 0), vec(0, 1))


def test_hodge_decompose_zero():
    L, R = contraction_for("E1")
    assert hodge_decompose(R, 1, vec(0, 0)) == (vec(0, 0), vec(0, 0), vec(0, 0))


def test_hodge_decompose_reconstructs_basis(corpus_case):
    L, R = corpus_case
    for deg in L.degrees:
        n = L.dim(deg)
        for i in range(n):
            v = tuple(F(1) if j == i else F(0) for j in range(n))
            vB, vH, vBs = hodge_decompose(R, deg, v)
            assert vec_add(vec_add(vB, vH), vBs) == v
            assert R.splitting.boundaries[deg].contains(vB)
            assert R.splitting.harmonic[deg].contains(vH)
            assert R.splitting.complement[deg].contains(vBs)


def test_d_injective_on_bstar_h_injective_on_b(corpus_case):
    L, R = corpus_case
    for deg in L.degrees:
        d_block = R.differential.block(deg, deg + 1)
        for v in R.splitting.complement[deg].vectors:
            assert d_block.mul_vec(v) != zero_vec(L.dim(deg + 1)) or not any(v)
        h_block = R.h.block(deg, deg - 1)
        for v in R.splitting.boundaries[deg].vectors:
            assert h_block.mul_vec(v) != zero_vec(L.dim(deg - 1)) or not any(v)


def test_check_cartan_corpus(corpus_case):
    L, R = corpus_case
    ok, witnesses = check_cartan(L, R)
    assert ok
    assert witnesses == []


def test_hodge_checks_flag_broken_convention():
    L, R = contraction_for("E1")
    bad = SDRData(
        splitting=R.splitting,
        h=R.h.scale(F(3)),
        projection=R.projection,
        inclusion=R.inclusion,
        pi_B=R.pi_B,
        differential=R.differential,
    )
    checks, _ = hodge_checks(L, bad)
    failed = {label for label, ok in checks if not ok}
    assert {"codifferential-identity", "laplacian-identity"} <= failed
