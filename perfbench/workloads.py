"""The three benchmark workloads, each driven through the public dgla API.

A workload has
  setup(seed, workdir) -> state   input generation, DGLA construction, warm-up
  precheck(state)      -> checks  one-off input checks, outside every timing
  run(state)           -> output  the timed library calls, ending in canonical
                                  JSON bytes
  check(state, output) -> checks  oracles on one run's output, outside timing
where checks is a list of (label, ok).  run() looks every library function up
through its module at call time, so the tracer's rebinding sees the calls.

The oracles do not come from the code under test: closed-form monomial
counts, Betti numbers from twisted_ce's own ranks mod a prime and the Euler
characteristic, and the seeded gauge element.
"""

import json
import os
import random
from fractions import Fraction
from math import comb

import dgla
import dgla.deform
import dgla.docio
import dgla.report
import dgla.sdr
import dgla.selftest
from dgla import DGLA, CoefficientRing, FormalElement

import twisted_ce


def _rng(workload, seed):
    return random.Random("%s/%d" % (workload, seed))


def _permuted(gens, rng):
    gens = list(gens)
    rng.shuffle(gens)
    return gens


# mc_universal ---------------------------------------------------------------

MC_ORDER = 9


def mc_dgla(seed):
    """x1..x4, c in degree 1, b in degree 2, dc = b, every degree-1 bracket b.

    All brackets land in g^2 and g^3 = 0, so the axioms hold trivially,
    while h(b) = c keeps feeding the fixed point: the universal series over
    the 4 harmonic directions never terminates.  The seed permutes the
    generator order.
    """
    gens = _permuted([("x%d" % i, 1) for i in range(1, 5)]
                     + [("c", 1), ("b", 2)], _rng("mc_universal", seed))
    ones = [g for g, deg in gens if deg == 1]
    bracket = {(u, v): [("b", 1)] for u in ones for v in ones}
    return DGLA(gens, d={"c": [("b", 1)]}, bracket=bracket, name="mc_universal")


class MCUniversal:
    name = "mc_universal"

    def setup(self, seed, workdir):
        L = mc_dgla(seed)
        R = dgla.sdr.build_contraction(L, dgla.sdr.build_splitting(L))
        dgla.deform.universal_solution(L, R, 2)  # fills the structure caches
        return {"L": L, "R": R, "order": MC_ORDER}

    def precheck(self, state):
        return [("validate", dgla.validate_dgla(state["L"]).ok)]

    def run(self, state):
        L, R = state["L"], state["R"]
        sol = dgla.deform.universal_solution(L, R, state["order"])
        rec = dgla.deform.solve_by_recursion(L, R, sol.direction)
        back = dgla.deform.kuranishi_map(L, R, sol.tau)
        blob = dgla.report.canonical_json({
            "tau": dgla.report.element_data(sol.tau),
            "residual": dgla.report.element_data(sol.residual),
            "iterations": sol.iterations,
        })
        return {"sol": sol, "rec": rec, "back": back, "blob": blob}

    def check(self, state, out):
        sol = out["sol"]
        N = state["order"]
        return [
            ("fixed-point-equals-recursion", out["rec"].tau == sol.tau),
            ("kuranishi-round-trip", out["back"] == sol.direction),
            ("residual-zero", sol.residual.is_zero()),
            ("tau-support-C(N+4,4)-1",
             len(sol.tau.support()) == comb(N + 4, 4) - 1),
        ]


# ce4_structure --------------------------------------------------------------

CE_N = 4
CE4_BETTI = {0: 7, 1: 6, 2: 5, 3: 2}
"""H^{k+1}(L_4, L_4) of the filiform algebra, as twisted_ce's rank count gives."""


def ce4_parts(seed, workload):
    """Generators (seed-permuted), bracket table and d of twisted CE_4."""
    gens = _permuted([(n, deg) for n, deg, _, _ in twisted_ce.basis(CE_N)],
                     _rng(workload, seed))
    bracket = twisted_ce.bracket_table(CE_N)
    L0 = DGLA(gens, bracket=bracket)
    mu = twisted_ce.mu_element(CE_N, twisted_ce.FILIFORM4)
    return gens, bracket, twisted_ce.twisted_differential(L0, mu)


def ce4_document(gens, bracket, d):
    """The DGLA document: bracket pairs in declaration order only."""
    def combo(ents):
        return [{"gen": g, "coeff": str(c)} for g, c in ents]

    return {
        "name": "ce4_filiform",
        "field": "Q",
        "generators": [{"name": n, "degree": deg} for n, deg in gens],
        "d": [{"from": n, "to": combo(d[n])} for n, _ in gens if n in d],
        "bracket": [{"left": x, "right": y, "result": combo(bracket[(x, y)])}
                    for k, (x, _) in enumerate(gens) for y, _ in gens[k:]
                    if (x, y) in bracket],
    }


class CE4Structure:
    name = "ce4_structure"

    def setup(self, seed, workdir):
        gens, bracket, d = ce4_parts(seed, self.name)
        path = os.path.join(workdir, "ce4_structure-seed%d.json" % seed)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ce4_document(gens, bracket, d), fh)
        return {"path": path, "gens": gens}

    def precheck(self, state):
        own = twisted_ce.betti_mod_p(
            state["gens"], twisted_ce.own_differential(CE_N, twisted_ce.FILIFORM4))
        state["betti_mod_p"] = own
        chi_dims = sum((-1) ** deg for _, deg in state["gens"])
        chi_betti = sum((-1) ** deg * b for deg, b in own.items())
        return [("betti-mod-p-pinned", own == CE4_BETTI),
                ("euler-characteristic", chi_dims == chi_betti)]

    def run(self, state):
        L, rep = dgla.docio.load_dgla(state["path"])
        S = dgla.sdr.build_splitting(L)
        R = dgla.sdr.build_contraction(L, S)
        sdr = dgla.selftest.sdr_checks(L, R)
        hodge, witnesses = dgla.selftest.hodge_checks(L, R)
        report = dgla.report
        blob = report.canonical_json({
            "betti": {str(k): b for k, b in S.betti().items()},
            "sdr": [[label, ok] for label, ok in sdr],
            "hodge": [[label, ok] for label, ok in hodge],
            "cartan_witnesses": [list(w) for w in witnesses],
            "harmonic": {str(k): report.basis_data(H)
                         for k, H in sorted(S.harmonic.items())},
            "h": report.graded_map_data(R.h),
        })
        return {"rep": rep, "betti": S.betti(), "sdr": sdr, "hodge": hodge,
                "blob": blob}

    def check(self, state, out):
        return [
            ("validates", out["rep"].ok),
            ("sdr-checks-8-pass", len(out["sdr"]) == 8 and all(ok for _, ok in out["sdr"])),
            ("hodge-checks-7-pass",
             len(out["hodge"]) == 7 and all(ok for _, ok in out["hodge"])),
            ("betti-equals-rank-count", out["betti"] == state["betti_mod_p"]),
        ]


# gauge_ce4 ------------------------------------------------------------------

GAUGE_ORDER = 6
GAUGE_VARS = ("t1", "t2", "t3")


class GaugeCE4:
    name = "gauge_ce4"

    def setup(self, seed, workdir):
        rng = _rng(self.name, seed)
        gens, bracket, d = ce4_parts(seed, self.name)
        L = DGLA(gens, d=d, bracket=bracket, name="ce4_filiform")
        R = dgla.sdr.build_contraction(L, dgla.sdr.build_splitting(L))
        ring = CoefficientRing(GAUGE_VARS, GAUGE_ORDER)
        d0 = L.differential.block(0, 1)
        terms = {}
        for i in range(len(GAUGE_VARS)):
            while True:
                v = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(L.dim(0))]
                dv = d0.mul_vec(v)
                if any(dv):
                    break
            mono = tuple(int(j == i) for j in range(len(GAUGE_VARS)))
            terms[mono] = dgla.solve_linear(d0, dv)
        a = FormalElement(ring, 0, L.dim(0), terms)
        zero = FormalElement.zero(ring, 1, L.dim(1))
        # warm-up: fills the bracket tables and the differential blocks
        small = a.to_order(2)
        dgla.deform.gauge_act(L, small, zero.to_order(2))
        return {"L": L, "R": R, "a": a, "zero": zero}

    def precheck(self, state):
        return [("validate", dgla.validate_dgla(state["L"]).ok)]

    def run(self, state):
        L, R, zero = state["L"], state["R"], state["zero"]
        moved = dgla.deform.gauge_act(L, state["a"], zero)
        w = dgla.deform.gauge_equivalent(L, R, zero, moved)
        verified = w is not None and dgla.deform.gauge_act(L, w, zero) == moved
        blob = dgla.report.canonical_json({
            "moved": dgla.report.element_data(moved),
            "witness": None if w is None else dgla.report.element_data(w),
            "verified": verified,
        })
        return {"moved": moved, "w": w, "verified": verified, "blob": blob}

    def check(self, state, out):
        return [
            ("witness-exists", out["w"] is not None),
            ("witness-moves-0-to-target", out["verified"]),
            ("witness-equals-seeded-a", out["w"] == state["a"]),
        ]


WORKLOADS = {w.name: w for w in (MCUniversal(), CE4Structure(), GaugeCE4())}
