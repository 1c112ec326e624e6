"""validate_dgla against the brute-force naive_validate, report for report."""

from collections import Counter
from fractions import Fraction
from random import Random

from dgla import BUILTIN_NAMES, DGLA, antisymmetric_closure, builtin_example, validate_dgla
from reference import naive_validate

COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 7))


def assert_same_report(L, label):
    new, old = validate_dgla(L), naive_validate(L)
    assert new.to_data() == old.to_data(), label
    assert str(new) == str(old), label
    return new


def test_builtins_match_reference():
    for name in BUILTIN_NAMES:
        assert assert_same_report(builtin_example(name), name).ok


def _tables(L, keep):
    """d and bracket of L restricted to the generator names in keep."""
    d = {x: [(t, c) for t, c in L.differential_of(x) if t in keep] for x in keep}
    bracket = {}
    for x, y in L.bracket_pairs():
        if x in keep and y in keep:
            bracket[(x, y)] = [(t, c) for t, c in L.bracket_of(x, y) if t in keep]
    return d, bracket


def _corrupt(gens, d, bracket, rng):
    """One seeded corruption of the tables, in place."""
    degree = dict(gens)
    names = [x for x, _ in gens]
    kind = rng.choice(("bracket", "bracket-degree", "d", "fraction"))
    c = rng.choice(COEFFS)
    x, y = rng.choice(names), rng.choice(names)
    if kind in ("bracket", "bracket-degree"):
        right = [z for z in names if degree[z] == degree[x] + degree[y]]
        z = rng.choice(right if right and kind == "bracket" else names)
        bracket.setdefault((x, y), []).append((z, c))
        if x != y and rng.random() < 0.5:
            # keep antisymmetry so the Leibniz and Jacobi sweeps see the entry
            s = 1 if degree[x] % 2 and degree[y] % 2 else -1
            bracket.setdefault((y, x), []).append((z, s * c))
    elif kind == "d":
        right = [z for z in names if degree[z] == degree[x] + 1]
        z = rng.choice(right if right and rng.random() < 0.5 else names)
        d.setdefault(x, []).append((z, c))
    elif bracket:
        pair = rng.choice(sorted(bracket))
        f = rng.choice(COEFFS[3:])
        for key in {pair, pair[::-1]}:
            if key in bracket:
                bracket[key] = [(t, f * v) for t, v in bracket[key]]


def corrupted(seed):
    """A builtin (E2 cut down to 4-8 generators) with 1-3 seeded corruptions."""
    rng = Random(seed)
    L = builtin_example(BUILTIN_NAMES[seed % len(BUILTIN_NAMES)])
    gens = list(L.generators)
    if len(gens) > 8:
        gens = sorted(rng.sample(gens, rng.randint(4, 8)), key=L.generators.index)
    d, bracket = _tables(L, {x for x, _ in gens})
    for _ in range(rng.randint(1, 3)):
        _corrupt(gens, d, bracket, rng)
    return DGLA(gens, d=d, bracket=bracket, name="%s-corrupt%d" % (L.name, seed))


def test_seeded_corruptions_match_reference():
    seen = Counter()
    for seed in range(300):
        rep = assert_same_report(corrupted(seed), "seed %d" % seed)
        seen.update({i.axiom for i in rep.issues} or {"valid"})
    # every axiom fails somewhere, and some corruptions leave a valid DGLA
    assert set(seen) == {"differential-degree", "differential-squared",
                         "bracket-degree", "antisymmetry", "leibniz", "jacobi",
                         "valid"}, seen


def test_full_ce3_with_fractional_pair_matches_reference():
    L = builtin_example("E2")
    gens = list(L.generators)
    d, bracket = _tables(L, {x for x, _ in gens})
    for seed, f in enumerate(COEFFS[3:]):
        pair = Random(seed).choice(sorted(bracket))
        scaled = dict(bracket)
        scaled[pair] = [(t, f * v) for t, v in bracket[pair]]
        rep = assert_same_report(DGLA(gens, d=d, bracket=scaled), "E2 %s" % (pair,))
        assert any(i.axiom == "jacobi" for i in rep.issues)


def test_fractional_jacobi_failure_detail():
    # [e,f] = h/2, [h,e] = 2e/3, [h,f] = -3f/7:
    # [e,[f,h]] + [f,[h,e]] + [h,[e,f]] = 3h/14 - h/3 + 0 = -5h/42
    gens = [("e", 0), ("f", 0), ("h", 0)]
    L = DGLA(gens, bracket=antisymmetric_closure(gens, {
        ("e", "f"): [("h", Fraction(1, 2))],
        ("h", "e"): [("e", Fraction(2, 3))],
        ("h", "f"): [("f", Fraction(-3, 7))],
    }))
    rep = assert_same_report(L, "fractional sl2")
    jacobi = [i for i in rep.issues if i.axiom == "jacobi"]
    assert [i.witness for i in jacobi] == [
        ("e", "f", "h"), ("e", "h", "f"), ("f", "e", "h"),
        ("f", "h", "e"), ("h", "e", "f"), ("h", "f", "e")]
    assert jacobi[0].detail == "graded Jacobi sum = -5/42*h, expected 0"
    assert jacobi[1].detail == "graded Jacobi sum = 5/42*h, expected 0"
    assert len(jacobi) == len(rep.issues)


def test_fractional_leibniz_failure_on_odd_x_detail():
    # d x = 2/3 z, d y = 1/4 z, [x, y] = 1/2 z, [z, y] = 3/5 w, [x, z] = 5/7 w:
    # d[x, y] = 0 but [dx, y] - [x, dy] = 2/5 w - 5/28 w = 31/140 w, and
    # d[x, x] = 0 but [dx, x] - [x, dx] = 2/3 (-5/7 - 5/7) w = -20/21 w;
    # d u = 0 and [u, z] = 2/9 w, so (u, x) and (u, y) fail through
    # -[u, dy] alone: -4/27 w and -1/18 w
    gens = [("x", 1), ("y", 1), ("u", 1), ("z", 2), ("w", 3)]
    L = DGLA(gens, d={"x": [("z", Fraction(2, 3))], "y": [("z", Fraction(1, 4))]},
             bracket=antisymmetric_closure(gens, {
                 ("x", "y"): [("z", Fraction(1, 2))],
                 ("z", "y"): [("w", Fraction(3, 5))],
                 ("x", "z"): [("w", Fraction(5, 7))],
                 ("u", "z"): [("w", Fraction(2, 9))],
             }))
    rep = assert_same_report(L, "fractional leibniz")
    leibniz = [i for i in rep.issues if i.axiom == "leibniz"]
    assert [(i.witness, i.detail.split(" = ")[-1]) for i in leibniz] == [
        (("x", "x"), "-20/21*w"), (("x", "y"), "31/140*w"),
        (("x", "u"), "-4/27*w"), (("y", "x"), "31/140*w"),
        (("y", "y"), "3/10*w"), (("y", "u"), "-1/18*w"),
        (("u", "x"), "-4/27*w"), (("u", "y"), "-1/18*w")]
    assert leibniz[1].detail == (
        "d[x, y] = 0 but [dx, y] + (-1)^{|x|}[x, dy] = 31/140*w")


def test_jacobi_failure_on_repeated_odd_generator():
    # [a, a] = c and [b, c] = e over odd a, b: J(a, a, b) = -[b, [a, a]] = -e,
    # one cyclic orbit reported at all three of its rotations
    gens = [("a", 1), ("b", 1), ("c", 2), ("e", 3)]
    L = DGLA(gens, bracket=antisymmetric_closure(gens, {
        ("a", "a"): [("c", 1)],
        ("b", "c"): [("e", 1)],
    }))
    rep = assert_same_report(L, "repeated odd generator")
    assert [i.axiom for i in rep.issues] == ["jacobi"] * 3
    assert [i.witness for i in rep.issues] == [
        ("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a")]
    assert {i.detail for i in rep.issues} == {"graded Jacobi sum = -e, expected 0"}


def test_antisymmetry_and_jacobi_failing_at_once():
    # sl2 with [f, e] = h instead of -h: both orders are given, so no
    # closure; antisymmetry fails at (e, f) and Jacobi on triples through it
    gens = [("e", 0), ("f", 0), ("h", 0)]
    L = DGLA(gens, bracket={
        ("e", "f"): [("h", 1)], ("f", "e"): [("h", 1)],
        ("h", "e"): [("e", 2)], ("e", "h"): [("e", -2)],
        ("h", "f"): [("f", -2)], ("f", "h"): [("f", 2)],
    })
    rep = assert_same_report(L, "sl2 with a symmetric [e, f]")
    assert {i.axiom for i in rep.issues} == {"antisymmetry", "jacobi"}
    assert [i.witness for i in rep.issues if i.axiom == "antisymmetry"] == [("e", "f")]


def test_one_sided_fractional_antisymmetry_failure():
    # [x, y] = 2/3 z is given without [y, x]; [y, z] = -3/7 x against a
    # mirror [z, y] = 3/14 x; [x, z] = 1/2 y with its correct mirror.  The
    # sweep compares integers over the lcm 42 of all the denominators.
    gens = [("x", 0), ("y", 0), ("z", 0)]
    L = DGLA(gens, bracket={
        ("x", "y"): [("z", Fraction(2, 3))],
        ("y", "z"): [("x", Fraction(-3, 7))], ("z", "y"): [("x", Fraction(3, 14))],
        ("x", "z"): [("y", Fraction(1, 2))], ("z", "x"): [("y", Fraction(-1, 2))],
    })
    rep = assert_same_report(L, "one-sided fractional bracket")
    assert [(i.witness, i.detail) for i in rep.issues if i.axiom == "antisymmetry"] == [
        (("x", "y"), "[x, y] = 2/3*z but -(-1)^{|x||y|}[y, x] = 0"),
        (("y", "z"), "[y, z] = -3/7*x but -(-1)^{|x||y|}[z, y] = -3/14*x"),
    ]


def antisymmetric_jacobi_breaker(seed):
    """A seeded DGLA whose bracket is filled in by antisymmetric_closure, so
    antisymmetry holds, on 5-7 generators of degrees 0-3 (an odd one at
    least three times); random degree-respecting brackets break Jacobi."""
    rng = Random(seed)
    degs = [1, 1, 1] + [rng.choice((0, 1, 2, 2, 3)) for _ in range(rng.randint(2, 4))]
    rng.shuffle(degs)
    gens = [("g%d" % i, deg) for i, deg in enumerate(degs)]
    pairs = {}
    for _ in range(rng.randint(3, 7)):
        (x, p), (y, q) = sorted(rng.sample(gens, 2) if rng.random() < 0.8
                                else [rng.choice(gens)] * 2)
        targets = [z for z, r in gens if r == p + q]
        if targets and (x != y or p % 2):
            pairs[(x, y)] = [(rng.choice(targets), rng.choice(COEFFS))]
    return DGLA(gens, bracket=antisymmetric_closure(gens, pairs), name="breaker%d" % seed)


def test_jacobi_under_antisymmetry_reports_both_orbits_of_a_triple():
    # with antisymmetry proved, only the orbit with b <= c is summed and a
    # failure on a < b < c is also reported on its mirror (a, c, b), with
    # the sign -(-1)^{|a||b|+|b||c|+|c||a|}: +1 iff two or three are odd
    odd_counts = Counter()
    for seed in range(120):
        L = antisymmetric_jacobi_breaker(seed)
        rep = assert_same_report(L, "seed %d" % seed)
        assert {i.axiom for i in rep.issues} <= {"jacobi"}, seed
        degree = dict(L.generators)
        index = {x: i for i, (x, _) in enumerate(L.generators)}
        failing = {i.witness: i.detail for i in rep.issues}
        for (a, b, c), detail in failing.items():
            if index[a] < index[b] < index[c]:
                assert (a, c, b) in failing, seed
                odd_counts[sum(degree[g] % 2 for g in (a, b, c))] += 1
    # odd-odd-odd and mixed triples, so the mirror takes both signs
    assert odd_counts[3] and odd_counts[2] and odd_counts[1] + odd_counts[0], odd_counts
