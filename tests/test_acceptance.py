"""Acceptance gate: one test per top-level criterion.

Every identity is exact (Fraction arithmetic, zero tolerance).  Each test
prints a single criterion line, PASS or FAIL, in addition to the usual
pytest verdict.  Timed criteria build everything inside the timed window.
"""

import hashlib
import time
from fractions import Fraction
from random import Random

from dgla import (
    BUILTIN_NAMES,
    build_contraction,
    build_splitting,
    builtin_example,
    gauge_act,
    gauge_equivalent,
    gauge_fix,
    kuranishi_map,
    obstruction,
    solve_by_recursion,
    solve_mc_ivp,
    universal_solution,
    verify_sdr,
)
from dgla.formal import CoefficientRing, FormalElement
from dgla.report import canonical_json
from dgla.selftest import run_selftest

from conftest import contraction_for
from reference import fraction_matvec, fraction_rank, fraction_split, in_span, zero_vec
from test_catalog import _jacobiator, _mu_of_pairs


def F(x):
    return Fraction(x)


def _report(number, label, body):
    try:
        body()
    except BaseException:
        print("criterion %d (%s): FAIL" % (number, label))
        raise
    print("criterion %d (%s): PASS" % (number, label))


def _fresh(name):
    L = builtin_example(name)
    return L, build_contraction(L, build_splitting(L))


def _h1_directions(L, R, ring):
    H1 = R.splitting.harmonic.get(1)
    if H1 is None:
        return []
    return [FormalElement(ring, 1, L.dim(1), {(1,): eta}) for eta in H1.vectors]


def test_criterion_1_sdr_suite():
    def body():
        t0 = time.perf_counter()
        for name in BUILTIN_NAMES:
            L, R = _fresh(name)
            rep = verify_sdr(L, R)
            assert rep.ok, "%s: %s" % (name, rep)
            # the homotopy identity and the boundary retraction, spelled out
            d, h = R.differential, R.h
            assert d @ h + h @ d == R.identity - R.inclusion @ R.projection
            assert (d @ h + h @ d) @ R.pi_B == R.pi_B
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, "SDR suite took %.3fs" % elapsed

    _report(1, "SDR identities on the whole corpus", body)


def test_criterion_2_hodge_suite():
    def body():
        t0 = time.perf_counter()
        for name in BUILTIN_NAMES:
            L, R = _fresh(name)
            star = R.star
            assert star @ star == R.identity
            assert star @ R.differential @ star == R.h
            lap = R.laplacian
            assert lap == R.differential @ R.h + R.h @ R.differential
            assert lap == R.identity - R.inclusion @ R.projection
            split = R.splitting
            for deg in L.degrees:
                block = lap.block(deg, deg)
                H = split.harmonic[deg]
                assert L.dim(deg) - fraction_rank(block) == H.dim
                for v in H.vectors:
                    assert fraction_matvec(block, v) == zero_vec(L.dim(deg))
                n = L.dim(deg)
                spaces = (split.boundaries[deg], H, split.complement[deg])
                for i in range(n):
                    e = tuple(F(1) if j == i else F(0) for j in range(n))
                    for S, part in zip(spaces, fraction_split(R, deg, e)):
                        assert in_span(S.vectors, part)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, "Hodge suite took %.3fs" % elapsed

    _report(2, "Hodge package identities on the whole corpus", body)


def test_criterion_3_exp_log_round_trip():
    def body():
        t0 = time.perf_counter()
        for name in BUILTIN_NAMES:
            L, R = contraction_for(name)
            for N in (2, 3, 4, 5):
                ring = CoefficientRing.single(N)
                for x in _h1_directions(L, R, ring):
                    sol = solve_mc_ivp(L, R, x)
                    assert kuranishi_map(L, R, sol.tau) == x, (name, N)
                    assert sol.iterations <= N, (name, N)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, "round trips took %.3fs" % elapsed

    _report(3, "exp/log round trip, all corpus directions, orders 2-5", body)


def test_criterion_4_worked_examples():
    def body():
        # E1: tau = x t - 1/2 c t^2, flat and unobstructed
        L, R = contraction_for("E1")
        ring = CoefficientRing.single(3)
        sol = solve_mc_ivp(L, R, L.generator_element(ring, "x"))
        assert sol.tau.coefficient((1,)) == (F(1), F(0))
        assert sol.tau.coefficient((2,)) == (F(0), F("-1/2"))
        assert sol.tau.support() == ((1,), (2,))
        assert sol.residual.is_zero()
        assert sol.obstruction.is_zero()

        # E3: obstruction 1/2 b t^2, not in the Kuranishi functor
        L3, R3 = contraction_for("E3")
        sol3 = solve_mc_ivp(L3, R3, L3.generator_element(ring, "x"))
        assert sol3.obstruction.coefficient((2,)) == (F("1/2"),)
        assert not sol3.kur_member()

        # E4: witness a = s a carries 0 to -s x, verified by acting
        L4, R4 = contraction_for("E4")
        ring_s = CoefficientRing(("s",), 3)
        zero = FormalElement.zero(ring_s, 1, 1)
        target = L4.generator_element(ring_s, "x", coeff=F(-1))
        a = gauge_equivalent(L4, R4, zero, target)
        assert a is not None
        assert a == L4.generator_element(ring_s, "a")
        assert gauge_act(L4, a, zero) == target

    _report(4, "worked examples E1, E3, E4", body)


def test_criterion_5_obstruction_oracle_e2():
    def body():
        L, R = contraction_for("E2")
        ring = CoefficientRing.single(2)
        names = L.basis_names(1)
        vec = [F(0)] * 9
        vec[names.index("m12_3")] = F(1)
        vec[names.index("m13_1")] = F(1)
        x = FormalElement(ring, 1, 9, {(1,): tuple(vec)})
        got = obstruction(L, R, x).coefficient((2,))
        mu = _mu_of_pairs({
            (0, 1): (F(0), F(0), F(1)),
            (0, 2): (F(1), F(0), F(0)),
        })
        want = _jacobiator(mu, (0, 1, 2))
        assert want == (F(0), F(0), F(-1))
        assert got == want

    _report(5, "E2 obstruction equals brute-force Jacobiator", body)


def test_criterion_6_solver_cross_check():
    def body():
        for name in BUILTIN_NAMES:
            L, R = contraction_for(name)
            for N in (2, 3, 4, 5):
                ring = CoefficientRing.single(N)
                for x in _h1_directions(L, R, ring):
                    a = solve_mc_ivp(L, R, x)
                    b = solve_by_recursion(L, R, x)
                    assert a.tau == b.tau, (name, N)
                    assert a.residual == b.residual
                    assert a.obstruction == b.obstruction
            u = universal_solution(L, R, 3)
            ur = solve_by_recursion(L, R, u.direction)
            assert u.tau == ur.tau, name

    _report(6, "fixed point agrees with order recursion everywhere", body)


def test_criterion_7_gauge_coherence():
    def body():
        L, R = contraction_for("E4")
        ring = CoefficientRing(("s",), 4)
        rng = Random(99)
        flats = [
            FormalElement.zero(ring, 1, 1),
            L.generator_element(ring, "x") -
            L.generator_element(ring, "x", mono=(3,), coeff=F(2)),
        ]
        for A in flats:
            assert L.curvature(A).is_zero()
        for trial in range(100):
            terms = {}
            for mono in ring.all_monomials():
                v = (F(rng.randint(-9, 9)),)
                if any(v):
                    terms[mono] = v
            a = FormalElement(ring, 0, 1, terms)
            acted = gauge_act(L, a, flats[trial % 2])
            assert L.curvature(acted).is_zero(), trial

        # gauge_fix is idempotent on every corpus degree-1 space
        for name in BUILTIN_NAMES:
            Ln, Rn = contraction_for(name)
            if 1 not in Ln.degrees:
                continue
            n = Ln.dim(1)
            for i in range(n):
                e = tuple(F(1) if j == i else F(0) for j in range(n))
                A = FormalElement(ring, 1, n, {(1,): e})
                once = gauge_fix(Rn, A)
                assert gauge_fix(Rn, once) == once

        # the Kuranishi image of a fixed flat element has no boundary part
        for A in flats:
            shadow = kuranishi_map(L, R, gauge_fix(R, A))
            assert R.boundary_projection(shadow).is_zero()

    _report(7, "gauge action coherence", body)


SELFTEST_SHA256 = "afabf177c00c6ee278172a4cef1d8294865a18e89aa8627296f2869e12ee806f"


def test_criterion_8_selftest_determinism():
    def body():
        a = canonical_json(run_selftest(order=4).to_data())
        b = canonical_json(run_selftest(order=4).to_data())
        assert a == b
        assert b"stages" in a
        # pinned: a basis or sign change anywhere in the corpus pipeline moves it
        assert hashlib.sha256(a).hexdigest() == SELFTEST_SHA256

    _report(8, "selftest reports are byte-identical", body)


def test_selftest_all_checks_pass():
    rep = run_selftest(order=4)
    assert rep.all_pass(), rep.failed_checks()
