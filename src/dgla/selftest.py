"""The corpus invariant suite behind `dgla selftest`.

Runs every exact identity from the contraction, Hodge and deformation layers
over the built-in examples and reports each as a named pass/fail check.  The
contraction and Hodge checks live beside what they check (sdr.sdr_checks,
hodge.hodge_checks); the solver and gauge checks are assembled here.
Everything here is deterministic: fixed corpus order, fixed truncation
order, fixed gauge elements, so two runs serialize to identical bytes.
"""

from fractions import Fraction

from .algebra import validate_dgla
from .catalog import BUILTIN_NAMES, builtin_example
from .deform import (
    contraction_step,
    gauge_act,
    gauge_equivalent,
    gauge_fix,
    kuranishi_inverse,
    kuranishi_map,
    mc_residual,
    solve_by_recursion,
    solve_mc_ivp,
    universal_solution,
)
from .formal import CoefficientRing, FormalElement
from .hodge import hodge_checks
from .report import RunReport, element_data
from .sdr import build_contraction, build_splitting, sdr_checks


def solver_checks(L, R, order):
    """Fixed-point/recursion/Kuranishi identities for every H^1 direction."""
    checks = []
    data = []
    flats = []
    H1 = R.splitting.harmonic.get(1)
    vectors = H1.vectors if H1 is not None else ()
    ring = CoefficientRing(("t",), order)
    for i, eta in enumerate(vectors):
        x = FormalElement(ring, 1, L.dim(1), {(1,): eta})
        sol = solve_mc_ivp(L, R, x)
        rec = solve_by_recursion(L, R, x)
        kur = kuranishi_map(L, R, sol.tau)
        tag = "mc[%d]:" % i
        checks.extend([
            (tag + "converged", sol.iterations <= order),
            (tag + "order-1-matches", sol.tau.homogeneous_part(1) == x),
            (tag + "kuranishi-roundtrip", kur == x),
            (tag + "inverse-roundtrip", kuranishi_inverse(L, R, kur) == sol.tau),
            (tag + "recursion-agreement", rec.tau == sol.tau),
            (tag + "coherence",
             sol.residual.is_zero() == sol.obstruction.is_zero()),
            (tag + "residual-boundary-free",
             R.boundary_projection(sol.residual).is_zero()),
            (tag + "double-identity",
             kuranishi_map(L, R, x) == x.scale(2) - contraction_step(L, R, x, x)),
        ])
        data.append({
            "direction": i,
            "tau": element_data(sol.tau),
            "residual": element_data(sol.residual),
            "obstruction": element_data(sol.obstruction),
            "iterations": sol.iterations,
            "flat": sol.is_flat(),
            "kur_member": sol.kur_member(),
        })
        if sol.is_flat():
            flats.append(sol.tau)

    usol = universal_solution(L, R, order)
    urec = solve_by_recursion(L, R, usol.direction)
    checks.extend([
        ("universal:converged", usol.iterations <= order),
        ("universal:kuranishi-roundtrip",
         kuranishi_map(L, R, usol.tau) == usol.direction),
        ("universal:recursion-agreement", urec.tau == usol.tau),
        ("universal:coherence",
         usol.residual.is_zero() == usol.obstruction.is_zero()),
    ])
    udata = {
        "variables": list(usol.tau.ring.variables),
        "tau": element_data(usol.tau),
        "obstruction": element_data(usol.obstruction),
        "flat": usol.is_flat(),
    }
    return checks, data, udata, flats


def gauge_checks(L, R, order, flats):
    """Gauge action, equivalence and gauge fixing identities."""
    checks = []
    ring = CoefficientRing(("t",), order)
    dim0 = L.dim(0)
    dim1 = L.dim(1)
    zero1 = FormalElement.zero(ring, 1, dim1)
    flat_list = [zero1] + [tau for tau in flats if tau.ring == ring]

    if dim0:
        ones = tuple(Fraction(1) for _ in range(dim0))
        a1 = FormalElement(ring, 0, dim0, {(1,): ones})
        e_first = tuple(Fraction(1 if j == 0 else 0) for j in range(dim0))
        e_last = tuple(Fraction(1 if j == dim0 - 1 else 0) for j in range(dim0))
        a2 = FormalElement(ring, 0, dim0, {(1,): e_first, (2,): e_last})
        for ai, a in enumerate((a1, a2)):
            for fi, A in enumerate(flat_list):
                moved = gauge_act(L, a, A)
                checks.append((
                    "gauge:flatness[%d,%d]" % (ai, fi),
                    mc_residual(L, moved).is_zero(),
                ))
        # orbit soundness, decidable exactly when d has no degree-0 kernel
        moved = gauge_act(L, a1, zero1)
        if R.splitting.cycles[0].dim == 0:
            w = gauge_equivalent(L, R, zero1, moved)
            checks.append(("gauge:witness-found", w is not None))
            checks.append((
                "gauge:witness-verifies",
                w is not None and gauge_act(L, w, zero1) == moved,
            ))

    ok_idem = True
    for k in range(dim1):
        e = tuple(Fraction(1 if j == k else 0) for j in range(dim1))
        v = FormalElement(ring, 1, dim1, {(1,): e})
        fixed = gauge_fix(R, v)
        if gauge_fix(R, fixed) != fixed:
            ok_idem = False
    checks.append(("gauge-fix:idempotent", ok_idem))

    ok_shadow = True
    for A in flat_list:
        fixed = gauge_fix(R, A)
        if not R.boundary_projection(kuranishi_map(L, R, fixed)).is_zero():
            ok_shadow = False
    checks.append(("gauge-fix:kf-shadow", ok_shadow))
    return checks


def run_selftest(order=4):
    """Every library invariant over the whole corpus, as one RunReport."""
    report = RunReport(options={"order": order, "corpus": list(BUILTIN_NAMES)})
    for name in BUILTIN_NAMES:
        L = builtin_example(name)
        rep = validate_dgla(L)
        checks = [("validate", rep.ok)]
        S = build_splitting(L)
        R = build_contraction(L, S)
        checks.extend(("sdr:" + label, ok) for label, ok in sdr_checks(L, R))
        hchecks, witnesses = hodge_checks(L, R)
        checks.extend(("hodge:" + label, ok) for label, ok in hchecks)
        schecks, sdata, udata, flats = solver_checks(L, R, order)
        checks.extend(schecks)
        checks.extend(gauge_checks(L, R, order, flats))
        data = {
            "betti": {str(deg): b for deg, b in S.betti().items()},
            "directions": sdata,
            "universal": udata,
        }
        if witnesses:
            data["cartan_witnesses"] = [list(w) for w in witnesses]
        report.add_stage(name, data=data, checks=checks)
    return report
