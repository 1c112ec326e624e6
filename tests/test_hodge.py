from fractions import Fraction

import pytest

import dgla.hodge
from dgla import (DGLA, antisymmetric_closure, build_splitting, builtin_example,
                  check_cartan, validate_dgla)
from dgla.docio import document_to_dgla
from dgla.graded import GradedLinearMap
from dgla.hodge import hodge_checks
from dgla.linalg import Matrix, SubspaceBasis, scaled, vec
from dgla.sdr import SDRData, Splitting, build_contraction

from conftest import chain_case, contraction_for, one_entry, perturbed
from reference import (
    fraction_split,
    in_span,
    reference_cartan,
    reference_hodge_checks,
    vec_add,
    zero_vec,
)
from test_benchmark_pins import workloads


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
    assert fraction_split(R, 2, vec(1)) == (vec(1), vec(0), vec(0))
    assert fraction_split(R, 1, vec(1, 0)) == (vec(0, 0), vec(1, 0), vec(0, 0))
    assert fraction_split(R, 1, vec(0, 1)) == (vec(0, 0), vec(0, 0), vec(0, 1))


def test_hodge_decompose_reconstructs_basis(corpus_case):
    # pi_B and pi_H split every basis vector along g = B + H + C
    L, R = corpus_case
    split = R.splitting
    for deg in L.degrees:
        n = L.dim(deg)
        spaces = (split.boundaries[deg], split.harmonic[deg], split.complement[deg])
        for i in range(n):
            v = tuple(F(1) if j == i else F(0) for j in range(n))
            for S, part in zip(spaces, fraction_split(R, deg, v)):
                assert in_span(S.vectors, part)


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


# One hand-built SDRData per hodge_checks label on the chain case (g^1 = x,
# b, c with x harmonic, b = da a boundary, c = h e the complement), and
# every label it fails.  The Laplacian (d + h)^2 and the star pi_H + d + h
# read d, h and pi_H together, so only hodge-decomposition fails on its
# own: no change of one entry of h, pi, nabla, pi_B or the carried d by
# +-1, and no scaling of one of them by 2, 3, -1 or 0, makes another label
# fail alone.
HODGE_LABEL_FAILURES = {
    "star-involution": (
        lambda R: perturbed(R, projection=R.projection.scale(F(2))),  # pi x = 2
        {"star-involution", "laplacian-identity", "hodge-decomposition"}),
    "codifferential-identity": (
        lambda R: perturbed(R, differential=R.differential + one_entry(
            R.dims, R.dims, 0, 1, 0, 0)),                         # d a = b + x
        {"codifferential-identity", "laplacian-identity", "star-involution"}),
    "laplacian-identity": (
        lambda R: perturbed(R, projection=R.projection.scale(F(-1))),  # pi x = -1
        {"laplacian-identity", "hodge-decomposition"}),
    "double-projection-idempotent": (
        lambda R: perturbed(R, h=R.h + one_entry(
            R.dims, R.dims, 1, 0, 0, 2)),                         # h c = a
        {"double-projection-idempotent", "laplacian-identity", "star-involution"}),
    "laplacian-kernel": (
        lambda R: perturbed(R, h=R.h + one_entry(
            R.dims, R.dims, 1, 0, 0, 0)),                         # h x = a
        {"laplacian-kernel", "laplacian-identity", "star-involution"}),
    "hodge-decomposition": (
        lambda R: perturbed(R, pi_B=R.pi_B + R.pi_H),             # pi_B x = x
        {"hodge-decomposition"}),
    "cartan-condition": (
        lambda R: perturbed(R, h=R.h + one_entry(
            R.dims, R.dims, 2, 1, 0, 0)),                         # h e = c + x
        {"cartan-condition", "laplacian-identity", "star-involution"}),
}


def test_hodge_label_table_covers_every_label():
    L, R = chain_case()
    assert [label for label, _ in hodge_checks(L, R)[0]] == list(HODGE_LABEL_FAILURES)


@pytest.mark.parametrize("label", list(HODGE_LABEL_FAILURES))
def test_each_hodge_label_can_fail(label):
    L, R = chain_case()
    assert all(ok for _, ok in hodge_checks(L, R)[0])
    build, failing = HODGE_LABEL_FAILURES[label]
    assert label in failing
    assert {name for name, ok in hodge_checks(L, build(R))[0] if not ok} == failing


# hodge_checks against the membership-by-solve reference


def case(name):
    return chain_case() if name == "chain" else contraction_for(name)


def shifted_complement(R, degree, shift):
    """R over a splitting whose first degree-`degree` complement vector is
    moved by `shift`; every map of R is kept."""
    S = R.splitting
    C = list(S.complement[degree].vectors)
    C[0] = vec_add(C[0], shift)
    complement = dict(S.complement)
    complement[degree] = SubspaceBasis(S.dims[degree], C)
    return perturbed(R, splitting=Splitting(
        S.dims, S.cycles, S.boundaries, S.harmonic, complement))


PERTURBATIONS = {
    "none": lambda R: R,
    "h*3": lambda R: perturbed(R, h=R.h.scale(F(3))),
    "pi_B*2": lambda R: perturbed(R, pi_B=R.pi_B.scale(F(2))),
    "pi_B=0": lambda R: perturbed(R, pi_B=GradedLinearMap(R.dims, R.dims)),
    "projection*2": lambda R: perturbed(R, projection=R.projection.scale(F(2))),
}


def compare_with_reference(L, R):
    """Both check lists; they agree exactly once the decomposition passes,
    and otherwise the new one fails the decomposition too."""
    new, new_w = hodge_checks(L, R)
    old, old_w = reference_hodge_checks(L, R)
    assert [label for label, _ in new] == [label for label, _ in old]
    if dict(old)["hodge-decomposition"]:
        assert (new, new_w) == (old, old_w)
    else:
        assert not dict(new)["hodge-decomposition"]
        assert new[:5] == old[:5]
    return ({label for label, ok in new if not ok},
            {label for label, ok in old if not ok})


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
@pytest.mark.parametrize("name", ["E0", "E1", "E2", "E3", "E4", "chain"])
def test_hodge_checks_match_reference(name, perturbation):
    L, R = case(name)
    failed_new, failed_old = compare_with_reference(L, PERTURBATIONS[perturbation](R))
    assert failed_new == failed_old


def test_hodge_checks_match_reference_on_cartan_failure():
    # h e = c + x leaves B*: both flag the Cartan pair (x, x)
    L, R = chain_case()
    assert L.basis_names(1) == ("x", "b", "c")
    into_H = Matrix.from_columns(3, [vec(1, 0, 0)])
    bad = perturbed(R, h=R.h + GradedLinearMap(R.dims, R.dims, {(2, 1): into_H}))
    failed_new, failed_old = compare_with_reference(L, bad)
    assert failed_new == failed_old == {
        "star-involution", "laplacian-identity", "cartan-condition"}
    assert hodge_checks(L, bad)[1] == [(1, 0, 1, 0)]


def counted_brackets(monkeypatch):
    """The list each check_cartan call of bracket_vector is appended to."""
    calls = []
    real = dgla.hodge.bracket_vector

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dgla.hodge, "bracket_vector", counting)
    return calls


def twisted_ce4():
    """The benchmark's ce4_structure DGLA (seed 0), loaded from its document."""
    return document_to_dgla(workloads.ce4_document(*workloads.ce4_parts(0, "ce4_structure")))


@pytest.mark.parametrize("make", [lambda: builtin_example("E2"), twisted_ce4],
                         ids=["E2", "twisted-CE4"])
def test_check_cartan_brackets_nothing_where_every_block_is_zero(monkeypatch, make):
    # every block (pi_B + pi_H) h is zero here, so no pair can be a witness,
    # and on a fresh L the Hodge checks cut no bracket table
    L = make()
    R = build_contraction(L, build_splitting(L))
    calls = counted_brackets(monkeypatch)
    checks, witnesses = hodge_checks(L, R)
    assert all(ok for _, ok in checks) and witnesses == []
    assert L._tables == {}
    assert check_cartan(L, R) == reference_cartan(L, R) == (True, [])
    assert calls == []


def test_check_cartan_brackets_where_a_block_is_nonzero(monkeypatch):
    # the hand-built h of the Cartan failure above: the pairs are walked
    L, R = chain_case()
    into_H = Matrix.from_columns(3, [vec(1, 0, 0)])
    bad = perturbed(R, h=R.h + GradedLinearMap(R.dims, R.dims, {(2, 1): into_H}))
    calls = counted_brackets(monkeypatch)
    assert check_cartan(L, bad) == reference_cartan(L, bad) == (False, [(1, 0, 1, 0)])
    assert calls


@pytest.mark.parametrize("name, shift", [
    ("E1", vec(1, 0)),          # c + x: shifted by the harmonic x
    ("chain", vec(1, 0, 0)),    # c + x
    ("chain", vec(0, 1, 0)),    # c + b: shifted by the boundary b
], ids=["E1-harmonic", "chain-harmonic", "chain-boundary"])
def test_hodge_checks_shifted_complement(name, shift):
    # pi_B and pi_H still project along the old complement, so both flag
    # the decomposition.  The reference also flags the Cartan condition,
    # since h[x, x] = c left the new span; the new check reads membership
    # off R's projections, which still see c as a complement vector.
    L, R = case(name)
    failed_new, failed_old = compare_with_reference(L, shifted_complement(R, 1, shift))
    assert failed_new == {"hodge-decomposition"}
    assert failed_old == {"hodge-decomposition", "cartan-condition"}


def test_hodge_checks_singular_basis_change():
    # B^1 = (b, 2b) and C^1 = (): pi_B and pi_H still fix B and H column by
    # column, and only the rank of P = (B | H | C) shows that c is missing
    L, R = chain_case()
    S = R.splitting
    b = S.boundaries[1].vectors[0]
    boundaries = dict(S.boundaries)
    boundaries[1] = SubspaceBasis.from_integers(
        3, [scaled(b), scaled([2 * t for t in b])])
    complement = dict(S.complement)
    complement[1] = SubspaceBasis(3, [])
    bad = perturbed(R, splitting=Splitting(
        S.dims, S.cycles, boundaries, S.harmonic, complement))
    failed_new, failed_old = compare_with_reference(L, bad)
    assert failed_new == {"hodge-decomposition"}
    assert failed_old == {"hodge-decomposition", "cartan-condition"}


def fractional_case():
    """d a = 3/2 b, d c = 2/5 e, [x, x] = -5/3 e, [x, y] = 3/4 e, over a
    hand-built splitting whose harmonic reps x + b/2, y - 2b/3 and
    complement b/5 + 5c/2 are fractional."""
    gens = [("a", 0), ("x", 1), ("y", 1), ("b", 1), ("c", 1), ("e", 2)]
    L = DGLA(gens, d={"a": [("b", F(3) / 2)], "c": [("e", F(2) / 5)]},
             bracket=antisymmetric_closure(gens, {
                 ("x", "x"): [("e", F(-5) / 3)],
                 ("x", "y"): [("e", F(3) / 4)],
             }), name="fractional")
    assert validate_dgla(L).ok
    assert L.basis_names(1) == ("x", "y", "b", "c")
    half, third = F(1) / 2, F(1) / 3
    S = Splitting(
        L.dims,
        cycles={0: SubspaceBasis(1, []),
                1: SubspaceBasis(4, [vec(1, 0, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 1, 0)]),
                2: SubspaceBasis(1, [vec(1)])},
        boundaries={0: SubspaceBasis(1, []),
                    1: SubspaceBasis(4, [vec(0, 0, 3 * half, 0)]),
                    2: SubspaceBasis(1, [vec(F(2) / 5)])},
        harmonic={0: SubspaceBasis(1, []),
                  1: SubspaceBasis(4, [vec(1, 0, half, 0), vec(0, 1, -2 * third, 0)]),
                  2: SubspaceBasis(1, [])},
        complement={0: SubspaceBasis(1, [vec(1)]),
                    1: SubspaceBasis(4, [vec(0, 0, F(1) / 5, 5 * half)]),
                    2: SubspaceBasis(1, [])},
    )
    return L, build_contraction(L, S)


def test_check_cartan_matches_reference_on_fractional_data():
    L, R = fractional_case()
    assert check_cartan(L, R) == reference_cartan(L, R) == (True, [])


def test_check_cartan_matches_reference_on_fractional_failure():
    # h e gains x/3 + b/6 = (x + b/2)/3, a harmonic rep: every pair whose
    # bracket has an e component leaves B*; [y - 2b/3, y - 2b/3] = 0 stays
    L, R = fractional_case()
    into_H = Matrix.from_columns(4, [vec(F(1) / 3, 0, F(1) / 6, 0)])
    bad = perturbed(R, h=R.h + GradedLinearMap(R.dims, R.dims, {(2, 1): into_H}))
    assert check_cartan(L, bad) == reference_cartan(L, bad) == (
        False, [(1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 1, 0)])
