"""Twisted Chevalley-Eilenberg DGLAs and an independent Betti-number oracle.

CE_n(g, g) is the complex of alternating maps C^k = Hom(Lambda^k g, g),
k = 1..n, for g = k^n, placed in degree k - 1 and carrying the
Nijenhuis-Richardson bracket (Nijenhuis-Richardson 1967).  A Lie bracket mu
on g is a degree-1 element with [mu, mu] = 0, so d = [mu, -] twists the
complex into a DGLA whose cohomology is the Lie algebra cohomology
H^{*+1}(g, g) with adjoint coefficients.

Everything here is written from the definitions, independently of the
library's own catalog: the bracket of two basis maps is given in closed form
below, the library is only asked (through DGLA.bracket_vectors) to apply
[mu, -] to build d, and the Betti oracle ranks this module's own integer d
modulo a large prime.

A basis map (S, i) sends e_S = e_{s1} ^ ... ^ e_{sk} (S sorted) to e_i and
every other basis wedge to 0; its generator name is "m<S>_<i>" with 1-based
digits, e.g. "m12_3" is the map e1 ^ e2 -> e3.
"""

import itertools
from fractions import Fraction
from math import lcm

PRIME = (1 << 61) - 1

FILIFORM4 = {((0, 1), 2): 1, ((0, 2), 3): 1}
"""The filiform Lie algebra on k^4: [e1, e2] = e3, [e1, e3] = e4."""


def basis(n):
    """[(name, degree, S, i)] for every basis map of CE_n, arity-major."""
    out = []
    for k in range(1, n + 1):
        for S in itertools.combinations(range(n), k):
            for i in range(n):
                name = "m%s_%d" % ("".join(str(s + 1) for s in S), i + 1)
                out.append((name, k - 1, S, i))
    return out


def _insert(f, g):
    """The insertion product f o g of two basis maps, as (T, i, sign) or None.

    (f o g)(x_1..x_{a+b-1}) sums, over the (b, a-1)-shuffles, the shuffle
    sign times f(g(first b arguments), remaining arguments).  On basis
    wedges only one term survives: g's slot must receive exactly g's source
    set, and f's output e_j together with the rest must spell f's source set.
    """
    (S, i), (T, j) = f, g
    if j not in S:
        return None
    rest = tuple(s for s in S if s != j)
    if set(rest) & set(T):
        return None
    # sign of sorting (j, rest...) into S
    sign = -1 if sum(1 for r in rest if r < j) % 2 else 1
    # sign of the shuffle that moves T in front of rest
    if sum(1 for t in T for r in rest if r < t) % 2:
        sign = -sign
    return tuple(sorted(T + rest)), i, sign


def nr_bracket(f, g):
    """[f, g] = f o g - (-1)^{pq} g o f on basis maps: {(T, i): coeff}."""
    p, q = len(f[0]) - 1, len(g[0]) - 1
    out = {}
    for term, scale in ((_insert(f, g), 1), (_insert(g, f), -(-1) ** (p * q))):
        if term is not None:
            T, i, sign = term
            out[(T, i)] = out.get((T, i), 0) + scale * sign
    return {key: c for key, c in out.items() if c}


def bracket_table(n):
    """Full bracket table {(name, name): [(name, coeff)]} of CE_n, all pairs."""
    gens = basis(n)
    name_of = {(S, i): name for name, _, S, i in gens}
    table = {}
    for fname, _, S, i in gens:
        for gname, _, T, j in gens:
            if len(S) + len(T) - 1 > n:
                continue
            val = nr_bracket((S, i), (T, j))
            if val:
                table[(fname, gname)] = sorted(
                    (name_of[key], c) for key, c in val.items())
    return table


def mu_element(n, mu):
    """mu given as {(S, i): coeff} -> {generator name: coeff} in C^2."""
    name_of = {(S, i): name for name, _, S, i in basis(n)}
    return {name_of[key]: c for key, c in mu.items()}


def own_differential(n, mu):
    """d = [mu, -] computed from nr_bracket alone, for the Betti oracle."""
    name_of = {(S, i): name for name, _, S, i in basis(n)}
    d = {}
    for name, _, T, j in basis(n):
        acc = {}
        for (S, i), c in mu.items():
            for key, v in nr_bracket((S, i), (T, j)).items():
                acc[key] = acc.get(key, 0) + c * v
        ents = sorted((name_of[key], c) for key, c in acc.items() if c)
        if ents:
            d[name] = ents
    return d


def twisted_differential(L0, mu_names):
    """d = [mu, -] on every generator, applied through L0.bracket_vectors.

    L0 is the untwisted DGLA (same generators and bracket, d = 0).
    Returns {name: [(name, coeff)]} with zero images omitted.
    """
    deg1 = L0.basis_names(1)
    mu_vec = tuple(Fraction(mu_names.get(name, 0)) for name in deg1)
    d = {}
    for name, deg in L0.generators:
        src = L0.basis_names(deg)
        e = tuple(Fraction(int(s == name)) for s in src)
        img = L0.bracket_vectors(1, mu_vec, deg, e)
        dst = L0.basis_names(deg + 1)
        ents = [(dst[k], c) for k, c in enumerate(img) if c]
        if ents:
            d[name] = ents
    return d


def _rank_mod_p(rows, ncols):
    """Rank of an integer matrix over GF(PRIME), by plain elimination."""
    rows = [[x % PRIME for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], PRIME - 2, PRIME)
        top = [x * inv % PRIME for x in rows[rank]]
        rows[rank] = top
        for r in range(rank + 1, len(rows)):
            f = rows[r][c]
            if f:
                rows[r] = [(x - f * y) % PRIME for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def betti_mod_p(generators, d):
    """Betti numbers from ranks of the denominator-cleared d blocks mod PRIME.

    generators: [(name, degree)]; d: {name: [(name, coeff)]}.  Each row of
    d: C^k -> C^{k+1} is scaled by the lcm of its denominators, which leaves
    the rank unchanged.  Returns {degree: betti}.
    """
    by_deg = {}
    for name, deg in generators:
        by_deg.setdefault(deg, []).append(name)
    ranks = {}
    for deg, src in by_deg.items():
        dst = by_deg.get(deg + 1, [])
        col = {name: k for k, name in enumerate(src)}
        row = {name: k for k, name in enumerate(dst)}
        mat = [[Fraction(0)] * len(src) for _ in dst]
        for name in src:
            for tname, c in d.get(name, ()):
                mat[row[tname]][col[name]] += Fraction(c)
        cleared = []
        for r in mat:
            m = lcm(*(x.denominator for x in r)) if r else 1
            cleared.append([int(x * m) for x in r])
        ranks[deg] = _rank_mod_p(cleared, len(src)) if dst else 0
    return {deg: len(src) - ranks[deg] - ranks.get(deg - 1, 0)
            for deg, src in sorted(by_deg.items())}
