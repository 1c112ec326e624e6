import hashlib
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest

import dgla.algebra
import dgla.deform
from dgla import (
    BUILTIN_NAMES,
    DGLA,
    antisymmetric_closure,
    build_contraction,
    build_splitting,
    builtin_example,
    gauge_act,
    gauge_equivalent,
    gauge_fix,
    kuranishi_map,
    solve_linear,
    solve_mc_ivp,
    validate_dgla,
)
from dgla import _kernels
from dgla.deform import NotFlatError
from dgla.formal import CoefficientRing, FormalElement
from dgla.report import canonical_json, element_data

from conftest import contraction_for
from reference import reference_gauge_act


def F(x):
    return Fraction(x)


def random_gauge_element(L, ring, rng, lo=-5, hi=5):
    n = L.dim(0)
    terms = {}
    for mono in ring.all_monomials():
        v = tuple(F(rng.randint(lo, hi)) for _ in range(n))
        if any(v):
            terms[mono] = v
    return FormalElement(ring, 0, n, terms)


def test_gauge_act_pinned_e4():
    L = builtin_example("E4")
    ring = CoefficientRing(("s",), 3)
    a = L.generator_element(ring, "a")
    zero = FormalElement.zero(ring, 1, 1)
    acted = gauge_act(L, a, zero)
    # brackets vanish, so the action is A - da = -s x
    assert acted.support() == ((1,),)
    assert acted.coefficient((1,)) == (F(-1),)


def test_gauge_act_identity_element():
    L = builtin_example("E4")
    ring = CoefficientRing(("s",), 3)
    A = L.generator_element(ring, "x", coeff=F("2/7"))
    a0 = FormalElement.zero(ring, 0, 1)
    assert gauge_act(L, a0, A) == A


def test_gauge_act_degree_checks():
    L = builtin_example("E4")
    ring = CoefficientRing(("s",), 3)
    A = L.generator_element(ring, "x")
    with pytest.raises(ValueError):
        gauge_act(L, A, A)
    a = L.generator_element(ring, "a")
    with pytest.raises(ValueError):
        gauge_act(L, a, a)


def test_gauge_equivalent_pinned_e4():
    L, R = contraction_for("E4")
    ring = CoefficientRing(("s",), 3)
    zero = FormalElement.zero(ring, 1, 1)
    target = L.generator_element(ring, "x", coeff=F(-1))
    a = gauge_equivalent(L, R, zero, target)
    assert a is not None
    assert a.support() == ((1,),)
    assert a.coefficient((1,)) == (F(1),)
    assert gauge_act(L, a, zero) == target


def test_gauge_equivalent_same_input_zero_witness():
    L, R = contraction_for("E4")
    ring = CoefficientRing(("s",), 4)
    # every degree-1 element of E4 is flat: g^2 = 0 and the bracket vanishes
    A = L.generator_element(ring, "x") - \
        L.generator_element(ring, "x", mono=(3,), coeff=F("5/2"))
    assert L.curvature(A).is_zero()
    a = gauge_equivalent(L, R, A, A)
    assert a is not None and a.is_zero()
    assert gauge_act(L, a, A) == A


def test_gauge_equivalent_none_when_orbits_differ():
    L, R = contraction_for("E0")
    ring = CoefficientRing.single(3)
    A = L.generator_element(ring, "x1")
    B = L.generator_element(ring, "x2")
    # d = 0 and bracket = 0: every orbit is a single point
    assert gauge_equivalent(L, R, A, B) is None
    assert gauge_equivalent(L, R, A, A) is not None


def test_gauge_equivalent_rejects_non_flat():
    L, R = contraction_for("E3")
    ring = CoefficientRing.single(3)
    x = L.generator_element(ring, "x")
    with pytest.raises(ValueError):
        gauge_equivalent(L, R, x, x)


def test_flatness_preserved_100_random_gauge_elements():
    L, R = contraction_for("E4")
    ring = CoefficientRing(("s",), 4)
    rng = Random(17)
    flats = [
        FormalElement.zero(ring, 1, 1),
        # x s^k is d(a s^k), hence flat; combinations below too
        L.generator_element(ring, "x") -
        L.generator_element(ring, "x", mono=(2,), coeff=F(3)),
    ]
    for A in flats:
        assert L.curvature(A).is_zero()
    for trial in range(100):
        a = random_gauge_element(L, ring, rng)
        A = flats[trial % len(flats)]
        acted = gauge_act(L, a, A)
        assert L.curvature(acted).is_zero(), trial


def test_flatness_preserved_with_nontrivial_bracket():
    # E2 has d = 0 and a real bracket: the action is pure conjugation
    L, R = contraction_for("E2")
    ring = CoefficientRing.single(3)
    names = L.basis_names(1)
    vec = [F(0)] * 9
    vec[names.index("m12_3")] = F(1)
    A = FormalElement(ring, 1, 9, {(1,): tuple(vec)})
    assert L.curvature(A).is_zero()
    rng = Random(29)
    for trial in range(25):
        a = random_gauge_element(L, ring, rng, lo=-2, hi=2)
        acted = gauge_act(L, a, A)
        assert L.curvature(acted).is_zero(), trial


def test_gauge_witness_soundness_random():
    # whenever a witness comes back, it must act correctly
    L, R = contraction_for("E4")
    ring = CoefficientRing(("s",), 4)
    rng = Random(31)
    zero = FormalElement.zero(ring, 1, 1)
    for _ in range(25):
        a = random_gauge_element(L, ring, rng)
        target = gauge_act(L, a, zero)
        w = gauge_equivalent(L, R, zero, target)
        assert w is not None
        assert gauge_act(L, w, zero) == target


def test_gauge_fix_pinned():
    L, R = contraction_for("E4")
    ring = CoefficientRing(("s",), 3)
    sx = L.generator_element(ring, "x")
    assert gauge_fix(R, sx).is_zero()
    L1, R1 = contraction_for("E1")
    tau = L1.generator_element(ring, "x") - \
        L1.generator_element(ring, "c", mono=(2,), coeff=F("1/2"))
    assert gauge_fix(R1, tau) == tau
    assert gauge_fix(R1, FormalElement.zero(ring, 1, 2)).is_zero()


def test_gauge_fix_idempotent(corpus_case):
    L, R = corpus_case
    if 1 not in L.degrees:
        return
    ring = CoefficientRing.single(3)
    rng = Random(37)
    n = L.dim(1)
    for _ in range(20):
        terms = {}
        for mono in ring.all_monomials():
            v = tuple(F(rng.randint(-4, 4)) for _ in range(n))
            if any(v):
                terms[mono] = v
        A = FormalElement(ring, 1, n, terms)
        once = gauge_fix(R, A)
        assert gauge_fix(R, once) == once
        assert R.boundary_projection(once).is_zero()


def test_kuranishi_shadow_of_gauge_fix():
    # for flat A, the image of the fixed representative under the
    # Kuranishi map has no boundary component
    for name in ("E1", "E4", "E2"):
        L, R = contraction_for(name)
        ring = CoefficientRing.single(4)
        H1 = R.splitting.harmonic.get(1)
        flats = [FormalElement.zero(ring, 1, L.dim(1))]
        if H1 is not None and H1.dim:
            sol = solve_mc_ivp(
                L, R,
                FormalElement(ring, 1, L.dim(1), {(1,): H1.vectors[0]}))
            if sol.is_flat():
                flats.append(sol.tau)
        if name == "E4":
            flats.append(L.generator_element(ring, "x"))
        for A in flats:
            assert L.curvature(A).is_zero()
            shadow = kuranishi_map(L, R, gauge_fix(R, A))
            assert R.boundary_projection(shadow).is_zero(), name


@lru_cache(maxsize=None)
def twisted_e2():
    """E2 twisted by mu = m12_3 + m23_1 - m13_2, the bracket of so(3) on
    k^3: mu is Maurer-Cartan (d = 0 and [mu, mu] = 0), so the same bracket
    with d_mu = [mu, -] is a DGLA.  Unlike E0..E4 it has both a nonzero d on
    g^0 and a nonzero bracket g^0 x g^1 -> g^1."""
    E2 = builtin_example("E2")
    mu = [F(0)] * E2.dim(1)
    for name, c in (("m12_3", 1), ("m23_1", 1), ("m13_2", -1)):
        mu[E2.basis_names(1).index(name)] = F(c)
    d = {}
    for p in E2.degrees:
        for pos, name in enumerate(E2.basis_names(p)):
            e = [F(0)] * E2.dim(p)
            e[pos] = F(1)
            image = E2.bracket_vectors(1, mu, p, e)
            ents = [(n, c) for n, c in zip(E2.basis_names(p + 1), image) if c]
            if ents:
                d[name] = ents
    bracket = {pair: E2.bracket_of(*pair) for pair in E2.bracket_pairs()}
    L = DGLA(E2.generators, d=d, bracket=bracket, name="E2_mu")
    return L, build_contraction(L, build_splitting(L))


def test_twisted_e2_is_a_dgla_with_gauge_terms():
    L, _ = twisted_e2()
    assert validate_dgla(L).ok
    assert L.dims == {0: 9, 1: 9, 2: 3}
    assert sum(L.degree_of(x) == 0 and L.degree_of(y) == 1
               for x, y in L.bracket_pairs()) == 45
    assert not L.differential.block(0, 1).is_zero()


def free_zero_gauge_element(L, ring, rng):
    """A degree-0 element whose coefficient at each monomial is the
    solution of d0 x = d0 v that solve_linear gives (free components 0)."""
    d0 = L.differential.block(0, 1)
    terms = {}
    for mono in ring.all_monomials():
        dv = d0.mul_vec([F(rng.randint(-2, 2)) for _ in range(L.dim(0))])
        if any(dv):
            terms[mono] = solve_linear(d0, dv)
    return FormalElement(ring, 0, L.dim(0), terms)


@pytest.mark.parametrize("a_orders,nonzero_A", [
    ((1,), False),
    ((1, 2, 3, 4), False),
    ((1, 2, 3, 4), True),
], ids=["a-order-1", "a-every-order", "a-every-order-nonzero-A"])
def test_gauge_act_matches_reference_twisted_e2(a_orders, nonzero_A):
    L, _ = twisted_e2()
    ring = CoefficientRing(("t1", "t2"), 4)
    rng = Random(41)

    def random_element(degree, monos):
        return FormalElement(ring, degree, L.dim(degree), {
            m: [F(rng.randint(-2, 2)) for _ in range(L.dim(degree))]
            for m in monos})

    a = random_element(0, [m for m in ring.all_monomials()
                           if sum(m) in a_orders])
    A = random_element(1, ring.all_monomials() if nonzero_A else ())
    acted = gauge_act(L, a, A)
    assert acted == reference_gauge_act(L, a, A)
    assert len(acted.nums) == len(ring.all_monomials())


# sha256 of canonical_json(element_data(x)) for x = gauge_act(L, a, A) and
# for L.curvature(x) on twisted E2, with a and A dense at every monomial of
# (t1, t2) up to the order and entries drawn from [-lim, lim]: each part of
# a is a multi-term vector, so the g^0 x g^1 rows of the gauge series and
# the g^1 x g^1 self rows of the curvature are contracted from several
# table rows.  At order 5 and lim 3 every kernel call packs its slots at
# 64 bits; at order 4 and lim 10^15 they take 128 to 384.
GAUGE_BYTE_PINS = {
    (5, 3): ("78a1cb96b1e5eeedc34ef68a0945ac977af1ef2a0e440f51bbcd2f9367a93300",
             "5350cc1ebae22f50b2983343307aceada3ecc1a9e557e29ccf185f854870a37d"),
    (4, 10**15): ("ca6e8dda113debf0680b62de67984feed1cad0d41b0cc033c5e8434acb6c507d",
                  "69a078c70f270c254c86e8e8e3cb490438850bc6069c9945a5a2c1ce46560ffb"),
}


def dense_gauge_digests(order, lim):
    """The two digests GAUGE_BYTE_PINS pins at (order, lim)."""
    L, _ = twisted_e2()
    ring = CoefficientRing(("t1", "t2"), order)
    rng = Random(2024)

    def dense_element(degree):
        return FormalElement(ring, degree, L.dim(degree), {
            m: [F(rng.randint(-lim, lim)) for _ in range(L.dim(degree))]
            for m in ring.all_monomials()})

    a = dense_element(0)
    A = dense_element(1)
    assert all(sum(map(bool, vec)) > 1 for vec in a.nums.values())
    moved = gauge_act(L, a, A)
    return tuple(hashlib.sha256(canonical_json(element_data(x))).hexdigest()
                 for x in (moved, L.curvature(moved)))


@pytest.mark.parametrize("order,lim", sorted(GAUGE_BYTE_PINS))
def test_gauge_act_and_curvature_bytes_pinned_twisted_e2(order, lim):
    assert dense_gauge_digests(order, lim) == GAUGE_BYTE_PINS[(order, lim)]


def test_each_table_keeps_one_pack(monkeypatch):
    # the big-coefficient pin packs one table at several slot widths; a
    # Table keeps the pack of the width asked for last and no other
    widths = []
    slot_width = _kernels._slot_width

    def recorded(sources):
        widths.append(slot_width(sources))
        return widths[-1]

    monkeypatch.setattr(_kernels, "_slot_width", recorded)
    assert dense_gauge_digests(4, 10**15) == GAUGE_BYTE_PINS[(4, 10**15)]
    assert {128, 192, 256} <= set(widths)
    L, _ = twisted_e2()
    tables = list(L._tables.values()) + list(L._sym_tables.values())
    assert all(len(T._packs) <= 1 for T in tables)
    assert any(W > 64 for T in tables for W in T._packs)


def test_gauge_equivalent_returns_seeded_witness_twisted_e2():
    L, R = twisted_e2()
    ring = CoefficientRing(("t1", "t2"), 4)
    zero = FormalElement.zero(ring, 1, L.dim(1))
    for seed in range(3):
        a = free_zero_gauge_element(L, ring, Random(seed))
        assert {sum(m) for m in a.support()} == {1, 2, 3, 4}
        moved = gauge_act(L, a, zero)
        assert L.curvature(moved).is_zero()
        assert gauge_equivalent(L, R, zero, moved) == a


def test_gauge_equivalent_sums_the_series_once(monkeypatch):
    # the witness is checked against the pieces of its own series pass, not
    # by acting with it again: one _gauge_series per call, found or not
    calls = []
    series = dgla.deform._gauge_series

    def counted(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(dgla.deform, "_gauge_series", counted)
    L, R = twisted_e2()
    ring = CoefficientRing(("t1", "t2"), 4)
    zero = FormalElement.zero(ring, 1, L.dim(1))
    a = free_zero_gauge_element(L, ring, Random(7))
    moved = gauge_act(L, a, zero)
    del calls[:]
    w = gauge_equivalent(L, R, zero, moved)
    assert len(calls) == 1
    assert w == a
    assert gauge_act(L, w, zero) == moved

    L, R = contraction_for("E0")
    ring = CoefficientRing.single(3)
    del calls[:]
    assert gauge_equivalent(L, R, L.generator_element(ring, "x1"),
                            L.generator_element(ring, "x2")) is None
    assert len(calls) == 1


def test_gauge_act_sums_each_order_in_one_pass_per_sum(monkeypatch):
    # at order b, sum_i [a_i, A_{b-i}] is one kernel pass and each
    # c_k[b] = (1/k) sum_i [a_i, c_{k-1}[b-i]] another: with a in every
    # order up to 5 and A = 0 that is one pass per c_k[b], 2 <= k <= b,
    # 1 + 2 + 3 + 4 = 10 over orders 2 to 5, and none for [a_i, A]
    calls = []
    bracket_sums = _kernels.bracket_sums

    def counted(*args):
        calls.append(args)
        return bracket_sums(*args)

    L, _ = twisted_e2()
    ring = CoefficientRing(("t1", "t2"), 5)
    a = free_zero_gauge_element(L, ring, Random(7))
    zero = FormalElement.zero(ring, 1, L.dim(1))
    monkeypatch.setattr(dgla.algebra, "bracket_sums", counted)
    moved = gauge_act(L, a, zero)
    assert len(calls) == 10
    assert moved == reference_gauge_act(L, a, zero)


@pytest.mark.parametrize("name", list(BUILTIN_NAMES) + ["twisted_E2"])
def test_contraction_is_the_free_zero_solve_on_boundaries(name):
    # gauge_equivalent solves d a_b = X_b as a_b = h(X_b): complement_basis
    # makes C^0 the span of the standard vectors at the pivot columns of d
    # on g^0, so on B^1 h is the solve with every free component zero
    L, R = twisted_e2() if name == "twisted_E2" else contraction_for(name)
    d0 = L.differential.block(0, 1)
    h10 = R.h.block(1, 0)
    for i in range(L.dim(0)):
        b = d0.column(i)
        assert h10.mul_vec(b) == solve_linear(d0, b), (name, i)
    if name == "twisted_E2":  # d on g^0 has a kernel, so free components exist
        assert 0 < len(R.splitting.cycles[0]) < L.dim(0)


def test_gauge_equivalent_names_the_input_that_is_not_flat():
    L, R = contraction_for("E3")
    ring = CoefficientRing.single(3)
    x = L.generator_element(ring, "x")
    zero = FormalElement.zero(ring, 1, 1)
    for index, pair in enumerate(((x, zero), (zero, x))):
        with pytest.raises(NotFlatError) as e:
            gauge_equivalent(L, R, *pair)
        assert e.value.index == index
        assert str(e.value).endswith(("A", "Aprime")[index] + " is not flat")
    assert issubclass(NotFlatError, ValueError)


@lru_cache(maxsize=None)
def d8_case():
    """a in degree 0, x in degree 1, d = 0, [a, x] = x, at order 3: A = t x
    and B = exp(t a) . A = t x + t^2 x + 1/2 t^3 x."""
    gens = [("a", 0), ("x", 1)]
    L = DGLA(gens, bracket=antisymmetric_closure(gens, {("a", "x"): [("x", 1)]}),
             name="D8")
    R = build_contraction(L, build_splitting(L))
    ring = CoefficientRing.single(3)
    A = L.generator_element(ring, "x")
    B = FormalElement(ring, 1, 1, {(1,): (1,), (2,): (1,), (3,): (F("1/2"),)})
    return L, R, L.generator_element(ring, "a"), A, B


def test_d8_gauge_act_pinned():
    L, _, a, A, B = d8_case()
    assert gauge_act(L, a, A) == B


@pytest.mark.xfail(strict=True, reason="ROADMAP D8")
def test_d8_gauge_equivalent_finds_the_witness():
    L, R, _, A, B = d8_case()
    assert gauge_equivalent(L, R, A, B) is not None
