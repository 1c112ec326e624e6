"""Built-in example DGLAs: the corpus driven by tests, selftest and the CLI.

E0 "abelian2": g^1 = span{x1, x2}; d = 0; bracket = 0.
E1 "curl":     g^1 = span{x, c}, g^2 = span{b}; d(c) = b; [x, x] = b.
E2 "ce3":      Chevalley-Eilenberg complex of the abelian Lie algebra k^3
               with adjoint (zero) coefficients: g^{n-1} = Hom(Lambda^n k^3,
               k^3) for n = 1, 2, 3; d = 0; bracket = Nijenhuis-Richardson,
               normalized so that 1/2 [m, m] is the Jacobiator of a bilinear
               map m.
E3 "obst":     g^1 = span{x}, g^2 = span{b}; d = 0; [x, x] = b.
E4 "gauge2":   g^0 = span{a}, g^1 = span{x}; d(a) = x; bracket = 0.

E2's generators are the basis maps (S, i), sending e_S = e_{s1} ^ ... ^ e_{sn}
(S sorted) to e_i, named "m<S>_<i>" with 1-based digits: "m12_3" is
e1 ^ e2 -> e3.  Its bracket is generated in closed form, not written down by
hand.  The insertion f o g of two basis maps f = (S, i) and g = (T, j) is one
signed basis map or 0: it is nonzero only if j is in S and rest = S minus j
is disjoint from T; then it is (sorted(T + rest), i), with the sign of
sorting (j, rest) into S times the sign of moving T in front of rest.  The
Nijenhuis-Richardson bracket of maps of degrees p and q is
[f, g] = f o g - (-1)^{pq} g o f.  corpus/E2.json and the spot values in
tests/test_catalog.py, each computed by hand, pin the table; the test suite
also checks it against a brute-force Jacobiator enumeration.
"""

import itertools

from .algebra import DGLA, antisymmetric_closure

BUILTIN_NAMES = ("E0", "E1", "E2", "E3", "E4")


def _insert(f, g):
    """f o g of basis maps f = (S, i), g = (T, j): ((source, i), sign), None if 0."""
    (S, i), (T, j) = f, g
    if j not in S:
        return None
    rest = tuple(s for s in S if s != j)
    if not set(rest).isdisjoint(T):
        return None
    moves = sum(r < j for r in rest) + sum(r < t for t in T for r in rest)
    return (tuple(sorted(T + rest)), i), -1 if moves % 2 else 1


def _ce3():
    maps = [(S, i) for n in (1, 2, 3)
            for S in itertools.combinations(range(3), n) for i in range(3)]
    names = {(S, i): "m%s_%d" % ("".join(str(s + 1) for s in S), i + 1)
             for S, i in maps}
    bracket = {}
    for f in maps:
        for g in maps:
            pq = (len(f[0]) - 1) * (len(g[0]) - 1)
            val = {}
            for term, scale in ((_insert(f, g), 1), (_insert(g, f), -(-1) ** pq)):
                if term is not None:
                    key, sign = term
                    val[key] = val.get(key, 0) + scale * sign
            ents = tuple((names[key], c) for key, c in sorted(val.items()) if c)
            if ents:
                bracket[(names[f], names[g])] = ents
    return DGLA([(names[f], len(f[0]) - 1) for f in maps], bracket=bracket, name="E2")


def builtin_example(name):
    """One of the corpus DGLAs by its catalog name E0..E4."""
    if name == "E0":
        return DGLA([("x1", 1), ("x2", 1)], name="E0")
    if name == "E1":
        return DGLA(
            [("x", 1), ("c", 1), ("b", 2)],
            d={"c": [("b", 1)]},
            bracket=antisymmetric_closure(
                [("x", 1), ("c", 1), ("b", 2)], {("x", "x"): [("b", 1)]}
            ),
            name="E1",
        )
    if name == "E2":
        return _ce3()
    if name == "E3":
        return DGLA(
            [("x", 1), ("b", 2)],
            bracket={("x", "x"): [("b", 1)]},
            name="E3",
        )
    if name == "E4":
        return DGLA([("a", 0), ("x", 1)], d={"a": [("x", 1)]}, name="E4")
    raise ValueError("unknown builtin example %r (have %s)" % (name, ", ".join(BUILTIN_NAMES)))
