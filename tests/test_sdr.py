from fractions import Fraction

import pytest

from dgla import (
    DGLA,
    antisymmetric_closure,
    build_contraction,
    build_splitting,
    builtin_example,
    verify_sdr,
)
from dgla.graded import GradedLinearMap
from dgla.linalg import Matrix, SubspaceBasis, vec
from dgla.sdr import SDR_CHECK_LABELS, SDRData, Splitting, sdr_checks

from conftest import chain_case, contraction_for, perturbed


def F(x):
    return Fraction(x)


def test_homology_pinned_values():
    S = build_splitting(builtin_example("E1"))
    # Z^1 = span{x}, H^1 = span{x}, H^2 = 0
    assert S.betti() == {1: 1, 2: 0}
    assert S.cycles[1].vectors == (vec(1, 0),)
    assert S.harmonic[1].vectors == (vec(1, 0),)
    assert S.harmonic[2].vectors == ()
    assert S.boundaries[2].vectors == (vec(1),)
    S0 = build_splitting(builtin_example("E0"))
    assert S0.harmonic[1].vectors == (vec(1, 0), vec(0, 1))
    S3 = build_splitting(builtin_example("E3"))
    assert S3.betti() == {1: 1, 2: 1}


def test_splitting_pinned_complements():
    S1 = build_splitting(builtin_example("E1"))
    # Z^1 = span{x}, greedy extension picks c
    assert S1.complement[1].vectors == (vec(0, 1),)
    assert S1.complement[2].vectors == ()
    S0 = build_splitting(builtin_example("E0"))
    assert all(S0.complement[d].dim == 0 for d in S0.dims)
    S3 = build_splitting(builtin_example("E3"))
    assert all(S3.complement[d].dim == 0 for d in S3.dims)


def test_splitting_dimensions_add_up(corpus_case):
    L, R = corpus_case
    S = R.splitting
    for d in L.degrees:
        assert S.boundaries[d].dim + S.harmonic[d].dim + S.complement[d].dim \
            == L.dim(d)


def test_contraction_pinned_values():
    _, R = contraction_for("E1")
    # h(b) = c, h(x) = h(c) = 0
    assert R.h.block(2, 1).column(0) == vec(0, 1)
    assert R.h.block(1, 0).is_zero()
    for name in ("E0", "E3"):
        _, R = contraction_for(name)
        assert R.h.is_zero()


def test_verify_sdr_clean_on_corpus(corpus_case):
    L, R = corpus_case
    rep = verify_sdr(L, R)
    assert rep.ok, str(rep)


def test_verify_sdr_labels():
    L, R = contraction_for("E1")
    labels = {
        "homotopy-identity", "boundary-retraction", "boundary-section",
        "h-squared", "retract-identity", "side-condition-h-nabla",
        "side-condition-pi-h", "harmonic-killed",
    }
    rep = verify_sdr(L, R)
    assert rep.ok
    assert {i.axiom for i in rep.issues} == set()
    # corrupting h(b) = 2c must at least break the boundary section dh(z) = z
    bad = SDRData(
        splitting=R.splitting,
        h=R.h.scale(F(2)),
        projection=R.projection,
        inclusion=R.inclusion,
        pi_B=R.pi_B,
        differential=R.differential,
    )
    rep = verify_sdr(L, bad)
    assert not rep.ok
    broken = {i.axiom for i in rep.issues}
    assert "boundary-section" in broken
    assert "homotopy-identity" in broken
    assert broken <= labels
    # sdr_checks reports exactly the axioms verify_sdr flags, none dropped
    assert {label for label, ok in sdr_checks(L, bad) if not ok} == broken


def test_homotopy_identity_matrices(corpus_case):
    L, R = corpus_case
    d, h = R.differential, R.h
    lhs = d @ h + h @ d
    assert lhs == R.identity - R.inclusion @ R.projection


def test_h_inverts_d_on_boundaries(corpus_case):
    L, R = corpus_case
    d, h = R.differential, R.h
    for deg in L.degrees:
        for b in R.splitting.boundaries[deg].vectors:
            db = d.block(deg - 1, deg)
            hb = h.block(deg, deg - 1).mul_vec(b)
            assert db.mul_vec(hb) == b


def test_betti_invariant_under_generator_permutation():
    # same structure constants, generators listed in a different order
    gens = [("b", 2), ("c", 1), ("x", 1)]
    L = DGLA(
        gens,
        d={"c": [("b", 1)]},
        bracket=antisymmetric_closure(gens, {("x", "x"): [("b", 1)]}),
    )
    R = build_contraction(L, build_splitting(L))
    assert R.splitting.betti() == {1: 1, 2: 0}
    assert verify_sdr(L, R).ok
    # the complement now picks c by greedy order on the permuted basis
    assert R.splitting.complement[1].dim == 1


def test_degree_gap_produces_empty_blocks():
    # zero-dimensional middle degree: no errors, empty blocks
    L = DGLA([("x", 1), ("w", 3)])
    R = build_contraction(L, build_splitting(L))
    assert verify_sdr(L, R).ok
    assert R.splitting.betti() == {1: 1, 3: 1}
    assert R.h.is_zero()


def test_contract_on_formal_elements():
    from dgla.formal import CoefficientRing

    L, R = contraction_for("E1")
    ring = CoefficientRing.single(3)
    b = L.generator_element(ring, "b", mono=(2,))
    hb = R.contract(b)
    assert hb.degree == 1
    assert hb.coefficient((2,)) == (F(0), F(1))
    # harmonic projection kills the correction direction
    assert R.harmonic_projection(L.apply_differential(hb)).is_zero()


def test_projection_inclusion_is_identity_on_h(corpus_case):
    L, R = corpus_case
    composite = R.projection @ R.inclusion
    hdims = {d: R.splitting.harmonic[d].dim for d in R.splitting.dims}
    assert composite == GradedLinearMap.identity(hdims)


def _one(src_dims, dst_dims, src, dst, i, j):
    """The graded map with one entry 1, row i and column j of block (src, dst)."""
    return GradedLinearMap(src_dims, dst_dims, {(src, dst): Matrix(
        dst_dims[dst], src_dims[src], {(i, j): 1})})


def _resplit(R, degree, **bases):
    """R over a splitting whose degree-`degree` bases named in `bases` are
    replaced; every map of R is kept."""
    S = R.splitting
    parts = dict(cycles=S.cycles, boundaries=S.boundaries,
                 harmonic=S.harmonic, complement=S.complement)
    for part, vectors in bases.items():
        parts[part] = {**parts[part], degree: SubspaceBasis(S.dims[degree], vectors)}
    return perturbed(R, splitting=Splitting(S.dims, **parts))


# One hand-built SDRData per label on the chain case (g^1 = x, b, c with x
# harmonic, b = da a boundary, c = h e the complement), and every label it
# fails.  Four labels fail on their own.  h-squared, retract-identity and
# the two side conditions fail here only together with homotopy-identity:
# no change of one or two entries of h, pi, nabla or pi_B by +-1 on this
# case makes any of them fail alone.
LABEL_FAILURES = {
    "homotopy-identity": (
        lambda R: perturbed(R, projection=R.projection + _one(
            R.dims, R.splitting.harmonic_dims(), 1, 1, 0, 1)),    # pi b = 1
        {"homotopy-identity"}),
    "boundary-retraction": (
        lambda R: perturbed(R, pi_B=R.pi_B + R.pi_H),             # pi_B x = x
        {"boundary-retraction"}),
    "boundary-section": (
        lambda R: _resplit(R, 1, boundaries=[vec(1, 0, 0)]),      # B^1 = x
        {"boundary-section"}),
    "h-squared": (
        lambda R: perturbed(R, h=R.h + _one(R.dims, R.dims, 1, 0, 0, 2)),  # h c = a
        {"h-squared", "homotopy-identity"}),
    "retract-identity": (
        lambda R: perturbed(R, projection=R.projection.scale(F(2))),
        {"retract-identity", "homotopy-identity"}),
    "side-condition-h-nabla": (
        lambda R: perturbed(R, inclusion=R.inclusion + _one(
            R.splitting.harmonic_dims(), R.dims, 1, 1, 1, 0)),    # nabla = x + b
        {"side-condition-h-nabla", "homotopy-identity"}),
    "side-condition-pi-h": (
        lambda R: perturbed(R, h=R.h + _one(R.dims, R.dims, 2, 1, 0, 0)),  # h e = c + x
        {"side-condition-pi-h", "homotopy-identity"}),
    "harmonic-killed": (
        lambda R: _resplit(R, 1, harmonic=[vec(0, 0, 1)]),        # H^1 = c
        {"harmonic-killed"}),
}


@pytest.mark.parametrize("label", SDR_CHECK_LABELS)
def test_each_sdr_label_can_fail(label):
    L, R = chain_case()
    assert all(ok for _, ok in sdr_checks(L, R))
    build, failing = LABEL_FAILURES[label]
    assert {name for name, ok in sdr_checks(L, build(R)) if not ok} == failing
