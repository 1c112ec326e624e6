import hashlib
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dgla._kernels
from dgla import (
    BUILTIN_NAMES,
    DGLA,
    build_contraction,
    build_splitting,
    builtin_example,
    contraction_step,
    kuranishi_inverse,
    kuranishi_map,
    obstruction,
    solve_by_recursion,
    solve_mc_ivp,
    universal_solution,
)
from dgla.deform import _fixed_point, _recursion
from dgla.formal import CoefficientRing, FormalElement
from dgla.report import canonical_json, element_data

from conftest import contraction_for
from reference import naive_bracket, reference_fixed_point


def F(x):
    return Fraction(x)


def direction(L, R, i, ring):
    eta = R.splitting.harmonic[1].vectors[i]
    return FormalElement(ring, 1, L.dim(1), {(1,) + (0,) * (ring.nvars - 1): eta})


def test_e1_worked_example():
    L, R = contraction_for("E1")
    ring = CoefficientRing.single(3)
    x = L.generator_element(ring, "x")
    sol = solve_mc_ivp(L, R, x)
    # tau = x t - 1/2 c t^2 exactly, flat, unobstructed
    assert sol.tau.support() == ((1,), (2,))
    assert sol.tau.coefficient((1,)) == (F(1), F(0))
    assert sol.tau.coefficient((2,)) == (F(0), F("-1/2"))
    assert sol.residual.is_zero()
    assert sol.obstruction.is_zero()
    assert sol.is_flat()
    assert sol.kur_member()
    assert sol.iterations == 2


def test_e3_worked_example():
    L, R = contraction_for("E3")
    ring = CoefficientRing.single(2)
    x = L.generator_element(ring, "x")
    sol = solve_mc_ivp(L, R, x)
    # h = 0 gives no correction; the obstruction survives in H^2
    assert sol.tau == x
    assert sol.residual.coefficient((2,)) == (F("1/2"),)
    assert sol.obstruction.coefficient((2,)) == (F("1/2"),)
    assert not sol.is_flat()
    assert not sol.kur_member()


def test_e0_trivial_solution():
    L, R = contraction_for("E0")
    ring = CoefficientRing.single(4)
    x = L.generator_element(ring, "x1") + \
        L.generator_element(ring, "x2", coeff=F("2/3"))
    sol = solve_mc_ivp(L, R, x)
    assert sol.tau == x
    assert sol.residual.is_zero()
    assert sol.iterations == 1


@pytest.mark.parametrize("solver", [solve_mc_ivp, solve_by_recursion],
                         ids=lambda f: f.__name__)
def test_non_cocycle_direction_rejected(solver):
    L, R = contraction_for("E1")
    ring = CoefficientRing.single(3)
    c = L.generator_element(ring, "c")
    with pytest.raises(ValueError, match="not a cocycle"):
        solver(L, R, c)


def test_obstructed_direction_still_solved():
    L, R = contraction_for("E3")
    ring = CoefficientRing.single(5)
    sol = solve_mc_ivp(L, R, L.generator_element(ring, "x"))
    assert sol.tau == L.generator_element(ring, "x")
    assert not sol.is_flat()


def test_mc_residual_pinned():
    L, R = contraction_for("E1")
    ring = CoefficientRing.single(3)
    x = L.generator_element(ring, "x")
    tau = x - L.generator_element(ring, "c", mono=(2,), coeff=F("1/2"))
    assert L.curvature(tau).is_zero()
    L3 = builtin_example("E3")
    assert L3.curvature(L3.generator_element(ring, "x")) \
        .coefficient((2,)) == (F("1/2"),)
    assert L.curvature(FormalElement.zero(ring, 1, 2)).is_zero()
    with pytest.raises(ValueError, match="degree 1"):
        L.curvature(L.generator_element(ring, "b"))


def test_kuranishi_map_pinned():
    L, R = contraction_for("E1")
    ring = CoefficientRing.single(3)
    x = L.generator_element(ring, "x")
    tau = x - L.generator_element(ring, "c", mono=(2,), coeff=F("1/2"))
    assert kuranishi_map(L, R, tau) == x
    L0, R0 = contraction_for("E0")
    y = L0.generator_element(ring, "x2", mono=(2,), coeff=F(5))
    assert kuranishi_map(L0, R0, y) == y
    L3, R3 = contraction_for("E3")
    y3 = L3.generator_element(ring, "x")
    assert kuranishi_map(L3, R3, y3) == y3


def test_kuranishi_inverse_pinned():
    L, R = contraction_for("E1")
    ring = CoefficientRing.single(3)
    x = L.generator_element(ring, "x")
    inv = kuranishi_inverse(L, R, x)
    assert inv == x - L.generator_element(ring, "c", mono=(2,), coeff=F("1/2"))
    assert kuranishi_inverse(L, R, FormalElement.zero(ring, 1, 2)).is_zero()


def test_exp_log_round_trip_all_corpus_orders_2_to_5():
    for name in BUILTIN_NAMES:
        L, R = contraction_for(name)
        H1 = R.splitting.harmonic.get(1)
        if H1 is None or H1.dim == 0:
            continue
        for N in (2, 3, 4, 5):
            ring = CoefficientRing.single(N)
            for i in range(H1.dim):
                x = direction(L, R, i, ring)
                sol = solve_mc_ivp(L, R, x)
                assert kuranishi_map(L, R, sol.tau) == x, (name, N, i)
                assert sol.iterations <= N, (name, N, i)
                y = kuranishi_inverse(L, R, x)
                assert y == sol.tau
                assert kuranishi_inverse(L, R, kuranishi_map(L, R, sol.tau)) \
                    == sol.tau


def test_recursion_agrees_with_fixed_point(corpus_case):
    L, R = corpus_case
    H1 = R.splitting.harmonic.get(1)
    if H1 is None or H1.dim == 0:
        return
    for N in (2, 4):
        ring = CoefficientRing.single(N)
        for i in range(H1.dim):
            x = direction(L, R, i, ring)
            a = solve_mc_ivp(L, R, x)
            b = solve_by_recursion(L, R, x)
            assert a.tau == b.tau
            assert a.residual == b.residual
            assert a.obstruction == b.obstruction


def test_iterates_stabilize_below_order():
    # h-adic contraction: iterate n and n+1 agree below order n+1
    L, R = contraction_for("E1")
    ring = CoefficientRing.single(6)
    x = L.generator_element(ring, "x")
    y = x
    for n in range(1, 6):
        nxt = contraction_step(L, R, x, y)
        for b in range(1, n + 1):
            assert nxt.homogeneous_part(b) == y.homogeneous_part(b), (n, b)
        y = nxt


def test_kuranishi_equals_two_x_minus_step():
    # F(x) = 2x - C_x(x) symbolically on random corpus elements
    rng = Random(5)
    ring = CoefficientRing.single(4)
    for name in BUILTIN_NAMES:
        L, R = contraction_for(name)
        n = L.dim(1)
        for _ in range(5):
            terms = {}
            for k in range(1, 5):
                v = tuple(F(rng.randint(-4, 4)) for _ in range(n))
                if any(v):
                    terms[(k,)] = v
            x = FormalElement(ring, 1, n, terms)
            lhs = kuranishi_map(L, R, x)
            rhs = x.scale(F(2)) - contraction_step(L, R, x, x)
            assert lhs == rhs, name


def test_correction_is_minus_half_h(corpus_case):
    # the solvers' -1/2 h is one map with the factor in its integer rows;
    # applied once it equals h followed by the scaling, in every degree
    L, R = corpus_case
    rng = Random(11)
    ring = CoefficientRing(("s", "t"), 3)
    assert R.corrective is R.corrective
    for deg in L.degrees:
        for _ in range(4):
            terms = {m: tuple(F(rng.randint(-7, 7)) / rng.choice((1, 2, 3, 5))
                              for _ in range(L.dim(deg)))
                     for m in ring.all_monomials() if rng.random() < 0.5}
            v = FormalElement(ring, deg, L.dim(deg), terms)
            assert R.correction(v) == R.contract(v).scale(F("-1/2"))


def test_universal_solution_pinned():
    L, R = contraction_for("E1")
    u = universal_solution(L, R, 3)
    assert u.tau.ring.variables == ("t1",)
    assert u.tau.coefficient((1,)) == (F(1), F(0))
    assert u.tau.coefficient((2,)) == (F(0), F("-1/2"))
    assert u.tau.coefficient((3,)) == (F(0), F(0))
    assert u.is_flat()

    L0, R0 = contraction_for("E0")
    u0 = universal_solution(L0, R0, 3)
    assert u0.tau.ring.variables == ("t1", "t2")
    assert u0.tau.support() == ((0, 1), (1, 0))
    assert u0.tau.coefficient((1, 0)) == (F(1), F(0))
    assert u0.tau.coefficient((0, 1)) == (F(0), F(1))

    L3, R3 = contraction_for("E3")
    u3 = universal_solution(L3, R3, 4)
    assert u3.tau.support() == ((1,),)
    assert u3.obstruction.coefficient((2,)) == (F("1/2"),)
    assert not u3.kur_member()


def universal_dgla(k=4):
    """x1..xk and c in degree 1, b in degree 2, dc = b, every degree-1
    bracket b: h(b) = c feeds the fixed point forever.  At k = 4 this is
    the DGLA of the mc_universal benchmark, unpermuted."""
    gens = [("x%d" % i, 1) for i in range(1, k + 1)] + [("c", 1), ("b", 2)]
    ones = [g for g, deg in gens if deg == 1]
    return DGLA(gens, d={"c": [("b", 1)]},
                bracket={(u, v): [("b", 1)] for u in ones for v in ones},
                name="universal-%d" % k)


def test_universal_solution_fractional_bytes_pinned():
    # tau picks up denominators up to 16 by order 7
    L = universal_dgla()
    R = build_contraction(L, build_splitting(L))
    tau = universal_solution(L, R, 7).tau
    assert tau.coefficient((7, 0, 0, 0)) == (0, 0, 0, 0, Fraction(33, 16))
    digest = hashlib.sha256(canonical_json(element_data(tau))).hexdigest()
    assert digest == \
        "36e81b81c9871b8a1cf9c77b012bda872fafebf850c0dd7ff6f6fd1e61d2b7ca"


def test_universal_solve_encodes_only_the_direction(monkeypatch):
    # below the public API a monomial is its key: a whole solve encodes the
    # direction's monomials and decodes none, and rendering tau decodes
    # each of its monomials once
    L = universal_dgla()
    R = build_contraction(L, build_splitting(L))
    calls = {"key": [], "mono": []}
    for name, log in calls.items():
        def counted(self, arg, fn=getattr(CoefficientRing, name), log=log):
            log.append(arg)
            return fn(self, arg)

        monkeypatch.setattr(CoefficientRing, name, counted)
    sol = universal_solution(L, R, 6)
    encoded, decoded = list(calls["key"]), list(calls["mono"])
    assert not decoded
    assert len(encoded) == 4
    assert sorted(encoded) == sorted(sol.direction.support())
    calls["mono"].clear()
    element_data(sol.tau)
    assert len(sol.tau.nums) == 209  # every monomial of degree 1..6
    assert sorted(calls["mono"]) == sorted(sol.tau.nums)


def test_universal_solution_no_harmonic_directions():
    L, R = contraction_for("E4")
    u = universal_solution(L, R, 3)
    assert u.tau.is_zero()
    assert u.residual.is_zero()
    assert u.obstruction.is_zero()


def test_universal_matches_specialization():
    # substituting unit directions into the universal solution recovers
    # the single-direction solves
    L, R = contraction_for("E2")
    N = 3
    u = universal_solution(L, R, N)
    ring1 = CoefficientRing.single(N)
    for i in range(9):
        x = direction(L, R, i, ring1)
        sol = solve_mc_ivp(L, R, x)
        # collapse the universal tau at t_j = t delta_{ij}
        for k in range(1, N + 1):
            mono = tuple(k if j == i else 0 for j in range(9))
            assert u.tau.coefficient(mono) == sol.tau.coefficient((k,)), (i, k)


def test_obstruction_pinned():
    L, R = contraction_for("E3")
    ring = CoefficientRing.single(4)
    x = L.generator_element(ring, "x")
    ob = obstruction(L, R, x)
    assert ob.coefficient((2,)) == (F("1/2"),)
    L1, R1 = contraction_for("E1")
    x1 = L1.generator_element(ring, "x")
    assert obstruction(L1, R1, x1).is_zero()
    L0, R0 = contraction_for("E0")
    assert obstruction(L0, R0, L0.generator_element(ring, "x1")).is_zero()


def test_obstruction_two_paths_agree(corpus_case):
    L, R = corpus_case
    H1 = R.splitting.harmonic.get(1)
    if H1 is None or H1.dim == 0:
        return
    ring = CoefficientRing.single(4)
    for i in range(H1.dim):
        x = direction(L, R, i, ring)
        via_inverse = obstruction(L, R, x)
        via_solver = solve_mc_ivp(L, R, x).obstruction
        assert via_inverse == via_solver


def test_residual_obstruction_coherence(corpus_case):
    L, R = corpus_case
    H1 = R.splitting.harmonic.get(1)
    if H1 is None or H1.dim == 0:
        return
    ring = CoefficientRing.single(4)
    for i in range(H1.dim):
        sol = solve_mc_ivp(L, R, direction(L, R, i, ring))
        assert sol.residual.is_zero() == sol.obstruction.is_zero()
        assert R.boundary_projection(sol.residual).is_zero()


def test_solver_over_two_variable_ring():
    L, R = contraction_for("E1")
    ring = CoefficientRing(("s", "t"), 3)
    x = L.generator_element(ring, "x", mono=(1, 0)) + \
        L.generator_element(ring, "x", mono=(0, 1), coeff=F(2))
    sol = solve_mc_ivp(L, R, x)
    assert sol.is_flat()
    # correction is -1/2 c (s + 2t)^2
    assert sol.tau.coefficient((2, 0)) == (F(0), F("-1/2"))
    assert sol.tau.coefficient((1, 1)) == (F(0), F(-2))
    assert sol.tau.coefficient((0, 2)) == (F(0), F(-2))
    assert kuranishi_map(L, R, sol.tau) == x


# Self-brackets on tables only the Python API reaches: docio refuses a
# bracket that breaks graded antisymmetry, but DGLA(...) takes any table.

def one_sided_dgla():
    """[x, y] without [y, x], [x, x] and [c, x] unequal to their mirrors, a
    degree-0 self-bracket [a, a] = b; dc = z, so h(z) = c feeds the fixed
    point while w stays harmonic."""
    return DGLA(
        [("a", 0), ("b", 0), ("x", 1), ("y", 1), ("c", 1), ("z", 2), ("w", 2)],
        d={"c": [("z", 1)]},
        bracket={("x", "y"): [("z", 1)],
                 ("x", "x"): [("z", 1), ("w", Fraction(1, 3))],
                 ("y", "c"): [("w", 1)], ("c", "x"): [("z", 2)],
                 ("a", "a"): [("b", 1)], ("a", "b"): [("a", 1)],
                 ("b", "a"): [("b", Fraction(1, 2))]},
        name="one-sided")


def random_element(L, ring, deg, rng):
    n = L.dim(deg)
    terms = {}
    for mono in ring.all_monomials():
        vec = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 7))
                    for _ in range(n))
        if rng.random() < 0.6 and any(vec):
            terms[mono] = vec
    return FormalElement(ring, deg, n, terms)


def test_self_bracket_exact_on_one_sided_table():
    L = one_sided_dgla()
    rng = Random(53)
    ring = CoefficientRing(("s", "t"), 4)
    for deg in (0, 1):
        for _ in range(5):
            y = random_element(L, ring, deg, rng)
            assert L.apply_bracket(y, y) == naive_bracket(L, y, y), deg


def test_recursion_agrees_on_one_sided_table():
    L = one_sided_dgla()
    R = build_contraction(L, build_splitting(L))
    sol = universal_solution(L, R, 5)
    assert solve_by_recursion(L, R, sol.direction).tau == sol.tau
    # both pins computed with the ordered-pair kernel
    assert sol.iterations == 5
    digest = hashlib.sha256(canonical_json(element_data(sol.tau))).hexdigest()
    assert digest == \
        "bf925815d3f7b446a7216b651f222f5b2da848cf1200f83f6851dbb1bab8c766"


def test_curvature_takes_the_self_path(monkeypatch):
    L = one_sided_dgla()
    R = build_contraction(L, build_splitting(L))
    tau = universal_solution(L, R, 5).tau
    want = L.apply_differential(tau) + \
        naive_bracket(L, tau, tau).scale(Fraction(1, 2))

    def refuse(*args):
        raise AssertionError("a self-bracket walked a pair of two elements")

    monkeypatch.setattr(dgla._kernels, "_cross_rows", refuse)
    assert L.curvature(tau) == want


def feedback_dgla():
    """universal_dgla over x1, x2: h(b) = c and [c, c] = b, so the
    fixed-point step delta brackets with itself within the truncation (on
    the corpus and the one-sided table [delta, delta] is zero)."""
    return universal_dgla(2)


EXTRA_CASES = {"feedback": feedback_dgla, "one-sided": one_sided_dgla,
               "mc_universal": universal_dgla}
CASE_NAMES = tuple(EXTRA_CASES) + BUILTIN_NAMES


@lru_cache(maxsize=None)
def case_contraction(name):
    if name not in EXTRA_CASES:
        return contraction_for(name)
    L = EXTRA_CASES[name]()
    return L, build_contraction(L, build_splitting(L))


def t_ring(nvars, order):
    return CoefficientRing(tuple("t%d" % (i + 1) for i in range(nvars)), order)


# The carried S = [y, y] of the fixed point against the full-order iteration
# with every bracket expanded by hand.  x is any degree-1 element with parts
# at several orders (kuranishi_inverse takes non-cocycles too); the one-sided
# table is where [y, delta] + [delta, y] and 2[y, delta] differ, the
# feedback DGLA where [delta, delta] is not zero.
@st.composite
def fixed_point_cases(draw):
    name = draw(st.sampled_from(CASE_NAMES))
    L, _ = case_contraction(name)
    nvars = draw(st.integers(1, 2))
    order = draw(st.integers(1, 5))
    ring = t_ring(nvars, order)
    coeff = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 5))
    terms = {}
    for mono in ring.all_monomials():
        if draw(st.booleans()):
            terms[mono] = tuple(draw(coeff) for _ in range(L.dim(1)))
    return name, nvars, order, terms


def fixed_point_passes(L, R, x):
    """_fixed_point(L, R, x) and the (iterate, delta) of each of its
    kernel passes, in order.  A pass brackets the iterate with delta, so
    only calls with pairs are passes: a self-bracket alone (apply_bracket
    of an element with itself) is none."""
    passes = []
    bracket_sum = DGLA.bracket_sum

    def recorded(self, ring, degree, **sums):
        if sums.get("symmetric"):
            passes.append(sums["symmetric"][0])
        return bracket_sum(self, ring, degree, **sums)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DGLA, "bracket_sum", recorded)
        return _fixed_point(L, R, x), passes


def assert_iterates_within_reach(x, passes):
    """From the second pass on, the iterate handed to the kernel holds no
    monomial above N - 1 - low(delta of the pass before): none that a later
    delta could pair with inside the truncation N.  An iterate that neither
    lost nor gained a monomial is handed on as the same object."""
    N = x.ring.order
    for (y, _), (prev_y, prev_delta) in zip(passes[1:], passes):
        reach = N - 1 - min(map(sum, prev_delta.support()))
        assert all(sum(m) <= reach for m in y.support()), (reach, y.support()[-1])
        if y == prev_y:
            assert y is prev_y


@settings(max_examples=150, deadline=None)
@given(fixed_point_cases())
@example(("E1", 1, 5, {(1,): (1, 0), (2,): (0, 1), (4,): (1, 1)}))
@example(("one-sided", 1, 5, {(1,): (1, 1, 0), (2,): (0, 1, 1)}))
@example(("one-sided", 2, 4, {(1, 0): (1, 0, 0), (0, 1): (0, 1, 0),
                              (1, 1): (0, 0, 1)}))
@example(("feedback", 1, 5, {(1,): (1, 0, 0), (3,): (0, 1, 0)}))
# no order-1 part: each delta starts two orders above the one before
@example(("feedback", 2, 8, {(2, 0): (1, 0, 0), (1, 1): (0, 1, 1),
                             (0, 3): (1, 0, 1), (5, 0): (0, 1, 0)}))
# parts at orders >= N - 1 only: [x, x] is zero inside the truncation
@example(("feedback", 1, 6, {(5,): (1, 1, 0), (6,): (0, 1, 1)}))
# an order-1 part and parts at N - 1 and N, which fall out of the kept
# iterate after the first step and must still be in tau
@example(("feedback", 1, 6, {(1,): (1, 0, 1), (5,): (0, 1, 0), (6,): (1, 1, 1)}))
# the mc_universal benchmark's solve: the universal direction at order 9
@example(("mc_universal", 4, 9, {tuple(int(i == j) for j in range(4)):
                                 tuple(int(i == j) for j in range(5))
                                 for i in range(4)}))
def test_fixed_point_carries_the_self_bracket(case):
    name, nvars, order, terms = case
    L, R = case_contraction(name)
    x = FormalElement(t_ring(nvars, order), 1, L.dim(1), terms)
    (tau, n, S), passes = fixed_point_passes(L, R, x)
    assert (tau, n) == reference_fixed_point(L, R, x)
    assert S == naive_bracket(L, tau, tau)
    assert_iterates_within_reach(x, passes)
    if name == "mc_universal" and order == 9:
        assert n == 9


# The reach on the universal solves: the corpus, the one-sided and feedback
# tables, and the mc_universal benchmark's DGLA at its order 9, where the
# full iterate would be handed on from the fourth pass.
@pytest.mark.parametrize("name,order", [
    ("E0", 7), ("E1", 7), ("E2", 4), ("E3", 7), ("E4", 7),
    ("one-sided", 7), ("feedback", 8), ("mc_universal", 9)])
def test_fixed_point_keeps_the_iterate_within_reach(name, order):
    L, R = case_contraction(name)
    x = universal_solution(L, R, order).direction
    (tau, n, S), passes = fixed_point_passes(L, R, x)
    assert (tau, S) == _recursion(L, R, x)
    assert len(passes) == n - 1
    assert_iterates_within_reach(x, passes)
    if name == "mc_universal":
        assert n == 9 and max(len(y.nums) for y, _ in passes[3:]) <= 69


# kuranishi_inverse and obstruction run the order-by-order recursion, which
# needs no cocycle condition: on any x it reaches the fixed point of C_x, and
# the obstruction is read off the [tau, tau] that the recursion carries.
@settings(max_examples=100, deadline=None)
@given(fixed_point_cases())
@example(("feedback", 1, 5, {(1,): (1, 0, 0), (3,): (0, 1, 0)}))
@example(("one-sided", 2, 4, {(1, 0): (1, 0, 0), (0, 1): (0, 1, 0),
                              (1, 1): (0, 0, 1)}))
def test_recursion_paths_match_the_fixed_point(case):
    name, nvars, order, terms = case
    L, R = case_contraction(name)
    x = FormalElement(t_ring(nvars, order), 1, L.dim(1), terms)
    tau = reference_fixed_point(L, R, x)[0]
    assert kuranishi_inverse(L, R, x) == tau
    assert obstruction(L, R, x) == R.harmonic_projection(
        naive_bracket(L, tau, tau).scale(Fraction(1, 2)))


# The solvers build the residual from the [tau, tau] they carry; an
# independent full bracket of tau must give the same residual and obstruction.
@pytest.mark.parametrize("name", CASE_NAMES)
def test_residual_is_the_curvature_of_tau(name):
    L, R = case_contraction(name)
    for N in range(1, 8):
        sol = universal_solution(L, R, N)
        for s in (sol, solve_by_recursion(L, R, sol.direction)):
            curv = L.curvature(s.tau)
            assert s.residual == curv, (name, N)
            assert s.obstruction == R.harmonic_projection(curv), (name, N)
