"""Naive reference implementations used to cross-check the package.

Everything here recomputes results from the definitions, generator by
generator, with no sparsity shortcuts and no truncation tricks, so agreement
with the package is meaningful.
"""

from fractions import Fraction
from math import factorial, lcm

from dgla.algebra import ValidationIssue, ValidationReport, koszul_sign
from dgla.formal import FormalElement, mono_key
from dgla.hodge import hodge_decompose
from dgla.linalg import ONE, ZERO, rank


def zero_vec(n):
    return (ZERO,) * n


def vec_add(u, v):
    """The sum of two Fraction vectors of one length."""
    return tuple(a + b for a, b in zip(u, v, strict=True))


def fraction_add(s, t):
    """Sum of two Fraction terms maps (exponent tuple -> coefficient tuple),
    all-zero vectors dropped."""
    out = dict(s)
    for mono, vec in t.items():
        cur = out.get(mono)
        out[mono] = vec if cur is None else tuple(a + b for a, b in zip(cur, vec))
    return {m: v for m, v in out.items() if any(v)}


def fraction_scale(c, s):
    """c times a Fraction terms map, all-zero vectors dropped."""
    return {m: tuple(c * x for x in v) for m, v in s.items() if c and any(v)}


def fraction_select(s, keep):
    """The monomials of a Fraction terms map that keep(total degree) accepts,
    all-zero vectors dropped."""
    return {m: v for m, v in s.items() if keep(sum(m)) and any(v)}


def naive_bracket_terms(L, p, s, q, t, order):
    """[s, t] for Fraction terms maps s in degree p and t in degree q, by
    direct expansion over monomial and generator pairs, truncated at order."""
    dim = L.dim(p + q)
    terms = {}
    for m1, v1 in s.items():
        for m2, v2 in t.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            if sum(mono) > order:
                continue
            acc = terms.setdefault(mono, [Fraction(0)] * dim)
            for i, gi in enumerate(L.basis_names(p)):
                if not v1[i]:
                    continue
                for j, gj in enumerate(L.basis_names(q)):
                    if not v2[j]:
                        continue
                    for name, c in L.bracket_of(gi, gj):
                        k = L.basis_position(name)[1]
                        acc[k] += v1[i] * v2[j] * c
    return {m: tuple(a) for m, a in terms.items() if any(a)}


def naive_bracket(L, u, v):
    """[u, v] by direct expansion over generator pairs."""
    terms = naive_bracket_terms(L, u.degree, u.fraction_terms(),
                                v.degree, v.fraction_terms(), u.ring.order)
    out_deg = u.degree + v.degree
    return FormalElement(u.ring, out_deg, L.dim(out_deg), terms)


def reference_fixed_point(L, R, x):
    """(tau, n): iterate y_1 = x, y_{n+1} = x - 1/2 h[y_n, y_n] at the full
    truncation order, bracketing the whole iterate by direct expansion at
    every step, until y_{n+1} == y_n; n is the index of that first fixed
    iterate."""
    y = x
    n = 1
    while True:
        nxt = x - R.contract(naive_bracket(L, y, y)).scale(Fraction(1, 2))
        if nxt == y:
            return y, n
        y = nxt
        n += 1
        if n > x.ring.order + 1:
            raise RuntimeError("fixed point not reached within the truncation order")


def reference_gauge_act(L, a, A):
    """exp(a) . A = A + sum_{n >= 0} ad_a^n / (n+1)! ([a, A] - da), on the
    whole series at the full truncation order: every bracket and d by
    direct expansion on Fraction terms maps, the terms summed until ad_a^n
    vanishes (it raises the order, so within order + 1 terms)."""
    order = a.ring.order
    s = a.fraction_terms()
    cur = fraction_add(
        naive_bracket_terms(L, 0, s, 1, A.fraction_terms(), order),
        fraction_scale(Fraction(-1), naive_differential_terms(L, 0, s)))
    out = A.fraction_terms()
    k = 1
    while cur:
        out = fraction_add(out, fraction_scale(Fraction(1, factorial(k)), cur))
        cur = naive_bracket_terms(L, 0, s, 1, cur, order)
        k += 1
        if k > order + 2:
            raise RuntimeError("gauge action series failed to terminate")
    return FormalElement(A.ring, 1, A.dim, out)


def reference_element_data(elem):
    """report.element_data through Fractions: every coefficient rendered as
    str(Fraction), monomials in graded lexicographic order."""
    if elem.is_zero():
        return "0"
    coeffs = elem.fraction_terms()
    return {"degree": elem.degree,
            "terms": {elem.ring.mono_str(m): [str(Fraction(c)) for c in coeffs[m]]
                      for m in sorted(coeffs, key=mono_key)}}


def naive_differential_terms(L, p, s):
    """d(s) for a Fraction terms map s in degree p, generator by generator."""
    dim = L.dim(p + 1)
    terms = {}
    for mono, vec in s.items():
        acc = [Fraction(0)] * dim
        for i, gi in enumerate(L.basis_names(p)):
            if not vec[i]:
                continue
            for name, c in L.differential_of(gi):
                k = L.basis_position(name)[1]
                acc[k] += vec[i] * c
        if any(acc):
            terms[mono] = tuple(acc)
    return terms


def naive_differential(L, u):
    """d(u) by direct expansion over generators."""
    terms = naive_differential_terms(L, u.degree, u.fraction_terms())
    return FormalElement(u.ring, u.degree + 1, L.dim(u.degree + 1), terms)


def naive_convolve(uterms, vterms, table, trunc, out_dim):
    """The bracket convolution by definition: expand every monomial pair,
    then keep the product monomials of total degree <= trunc.

    Same data conventions as dgla._kernels.bracket_convolve: terms maps send
    an exponent tuple to a coefficient tuple, table sends (i, j) to
    ((k, c), ...) with [e_i, e_j] = sum c e_k.
    """
    full = {}
    for m1, v1 in uterms.items():
        for m2, v2 in vterms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            acc = full.setdefault(mono, [Fraction(0)] * out_dim)
            for i in range(len(v1)):
                for j in range(len(v2)):
                    for k, c in table.get((i, j), ()):
                        acc[k] += v1[i] * v2[j] * c
    return {m: tuple(a) for m, a in full.items()
            if sum(m) <= trunc and any(a)}


def integer_table(table):
    """(D, integer table) with D * table == the ints, D the lcm of the
    denominators; table sends (i, j) to ((k, Fraction), ...), and the
    result i to {j: ((k, int), ...)}, the form the kernels read."""
    D = lcm(*{c.denominator for ents in table.values() for _, c in ents})
    rows = {}
    for (i, j), ents in table.items():
        ints = tuple((k, c.numerator * (D // c.denominator))
                     for k, c in ents if c)
        if ints:
            rows.setdefault(i, {})[j] = ints
    return D, rows


def integer_rows(rows):
    """(D, integer rows) with D * rows == the ints, D the lcm of the
    denominators; rows holds one ((col, Fraction), ...) tuple per row.
    Every given term keeps its own (col, int), repeated or cancelling
    columns included, so the kernels see rows as written."""
    D = lcm(*{c.denominator for row in rows for _, c in row})
    out = []
    for r, row in enumerate(rows):
        ints = tuple((col, c.numerator * (D // c.denominator))
                     for col, c in row if c)
        if ints:
            out.append((r, ints))
    return D, tuple(out)


def naive_matvec(terms, rows, out_dim):
    """A sparse matrix applied to every coefficient vector, through the dense
    matrix it stands for; monomials whose image is zero are dropped."""
    ncols = max([len(v) for v in terms.values()]
                + [c + 1 for row in rows for c, _ in row], default=0)
    dense = [[Fraction(0)] * ncols for _ in range(out_dim)]
    for r in range(out_dim):
        for c, coeff in rows[r]:
            dense[r][c] += coeff
    out = {}
    for mono, v in terms.items():
        w = tuple(sum((dense[r][c] * v[c] for c in range(ncols)), Fraction(0))
                  for r in range(out_dim))
        if any(w):
            out[mono] = w
    return out


def _scale_combo(c, combo):
    return {k: c * v for k, v in combo.items()}


def _add_combos(*combos):
    out = {}
    for combo in combos:
        for k, v in combo.items():
            out[k] = out.get(k, ZERO) + v
    return {k: v for k, v in out.items() if v}


def _combo_str(names, combo):
    """A Fraction combination {generator index: coeff} as reports write it."""
    if not combo:
        return "0"
    parts = []
    for gi in sorted(combo):
        c, nm = combo[gi], names[gi]
        parts.append(nm if c == 1 else "-%s" % nm if c == -1 else "%s*%s" % (c, nm))
    return " + ".join(parts).replace("+ -", "- ")


def naive_validate(L):
    """validate_dgla by brute force: every generator pair and ordered triple,
    in Fractions, reading L only through bracket_pairs, bracket_of and
    differential_of."""
    issues = []
    gens = L.generators
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]
    index = {nm: i for i, nm in enumerate(names)}
    n = len(gens)

    def combo(ents):
        return {index[t]: c for t, c in ents}

    d = {gi: combo(L.differential_of(names[gi])) for gi in range(n)}
    table = {(index[x], index[y]): combo(L.bracket_of(x, y)) for x, y in L.bracket_pairs()}

    def dmap(x):
        return _add_combos(*[_scale_combo(c, d[g]) for g, c in x.items()])

    def br(x, y):
        return _add_combos(*[_scale_combo(cx * cy, table.get((gi, gj), {}))
                             for gi, cx in x.items() for gj, cy in y.items()])

    for gi in range(n):
        for gj in sorted(d[gi]):
            if degs[gj] != degs[gi] + 1:
                issues.append(ValidationIssue(
                    "differential-degree",
                    (names[gi],),
                    "d(%s) hits %s of degree %d, expected degree %d"
                    % (names[gi], names[gj], degs[gj], degs[gi] + 1),
                ))

    for gi in range(n):
        dd = dmap(dmap({gi: ONE}))
        if dd:
            issues.append(ValidationIssue(
                "differential-squared",
                (names[gi],),
                "d(d(%s)) = %s, expected 0" % (names[gi], _combo_str(names, dd)),
            ))

    for (gi, gj), ents in sorted(table.items()):
        want = degs[gi] + degs[gj]
        for gk in sorted(ents):
            if degs[gk] != want:
                issues.append(ValidationIssue(
                    "bracket-degree",
                    (names[gi], names[gj]),
                    "bracket degree violation at (%s, %s): hits %s of degree %d, "
                    "expected degree %d" % (names[gi], names[gj], names[gk], degs[gk], want),
                ))

    for gi in range(n):
        for gj in range(gi, n):
            lhs = br({gi: ONE}, {gj: ONE})
            rhs = _scale_combo(-koszul_sign(degs[gi], degs[gj]), br({gj: ONE}, {gi: ONE}))
            if lhs != rhs:
                issues.append(ValidationIssue(
                    "antisymmetry",
                    (names[gi], names[gj]),
                    "[%s, %s] = %s but -(-1)^{|x||y|}[%s, %s] = %s"
                    % (names[gi], names[gj], _combo_str(names, lhs),
                       names[gj], names[gi], _combo_str(names, rhs)),
                ))

    for gi in range(n):
        for gj in range(n):
            x = {gi: ONE}
            y = {gj: ONE}
            lhs = dmap(br(x, y))
            rhs = _add_combos(
                br(dmap(x), y),
                _scale_combo(1 if degs[gi] % 2 == 0 else -1, br(x, dmap(y))),
            )
            if lhs != rhs:
                issues.append(ValidationIssue(
                    "leibniz",
                    (names[gi], names[gj]),
                    "d[%s, %s] = %s but [dx, y] + (-1)^{|x|}[x, dy] = %s"
                    % (names[gi], names[gj], _combo_str(names, lhs),
                       _combo_str(names, rhs)),
                ))

    for gi in range(n):
        for gj in range(n):
            for gk in range(n):
                x = {gi: ONE}
                y = {gj: ONE}
                z = {gk: ONE}
                total = _add_combos(
                    _scale_combo(koszul_sign(degs[gi], degs[gk]), br(x, br(y, z))),
                    _scale_combo(koszul_sign(degs[gj], degs[gi]), br(y, br(z, x))),
                    _scale_combo(koszul_sign(degs[gk], degs[gj]), br(z, br(x, y))),
                )
                if total:
                    issues.append(ValidationIssue(
                        "jacobi",
                        (names[gi], names[gj], names[gk]),
                        "graded Jacobi sum = %s, expected 0" % _combo_str(names, total),
                    ))

    return ValidationReport(L.name, issues)


class _Echelon:
    """Incremental rank tracker: feed vectors, learn which ones add rank."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []  # reduced rows, one pivot each
        self.pivots = []

    def try_add(self, v):
        w = list(v)
        for row, p in zip(self.rows, self.pivots):
            if w[p]:
                f = w[p]
                for j in range(self.ncols):
                    if row[j]:
                        w[j] -= f * row[j]
        p = next((j for j in range(self.ncols) if w[j]), None)
        if p is None:
            return False
        inv = Fraction(1) / w[p]
        w = [inv * x for x in w]
        self.rows.append(w)
        self.pivots.append(p)
        return True


def greedy_complement(n, S, inside=None):
    """complement_basis by its definition: walk the candidates (the vectors
    of `inside`, or the standard basis of k^n when it is None) in order and
    keep each one that raises the rank of S plus the vectors kept so far.

    Raises ValueError if S is dependent or not inside span(inside).
    """
    if inside is None:
        candidates = [tuple(Fraction(int(i == j)) for i in range(n))
                      for j in range(n)]
    else:
        span = _Echelon(n)
        for v in inside:
            span.try_add(v)
        if any(span.try_add(s) for s in S):
            raise ValueError("S is not contained in the span of `inside`")
        candidates = list(inside)
    ech = _Echelon(n)
    if not all(ech.try_add(s) for s in S):
        raise ValueError("S is not linearly independent")
    return [c for c in candidates if ech.try_add(c)]


def reference_cartan(L, R):
    """check_cartan by membership: h[u, v] in span(C) by one linear solve
    per nonzero h[u, v] (SubspaceBasis.contains), with no use of R's
    projections."""
    witnesses = []
    harmonic = R.splitting.harmonic
    complement = R.splitting.complement
    degrees = sorted(harmonic)
    for p in degrees:
        for q in degrees:
            if not L.dim(p + q):
                continue
            for iu, u in enumerate(harmonic[p].vectors):
                for iv, v in enumerate(harmonic[q].vectors):
                    w = L.bracket_vectors(p, u, q, v)
                    hw = R.h.block(p + q, p + q - 1).mul_vec(w)
                    if not any(hw):
                        continue
                    Bstar = complement.get(p + q - 1)
                    if Bstar is None or not Bstar.contains(hw):
                        witnesses.append((p, iu, q, iv))
    return not witnesses, witnesses


def reference_hodge_checks(L, R):
    """hodge_checks with the decomposition and Cartan condition decided by
    membership: every standard basis vector is split by hodge_decompose and
    each part is tested against B, H and C with one linear solve apiece."""
    star = R.star
    ok_invol = (star @ star) == R.identity
    ok_codiff = (star @ R.differential @ star) == R.h
    lap = R.laplacian
    ok_lap = lap == R.identity - R.pi_H
    ok_idem = (lap @ lap) == lap

    ok_kernel = True
    ok_decomp = True
    split = R.splitting
    for deg, n in sorted(split.dims.items()):
        block = lap.block(deg, deg)
        if rank(block) != n - split.harmonic[deg].dim:
            ok_kernel = False
        for v in split.harmonic[deg].vectors:
            if any(block.mul_vec(v)):
                ok_kernel = False
        for k in range(n):
            e = tuple(Fraction(int(j == k)) for j in range(n))
            vB, vH, vBs = hodge_decompose(R, deg, e)
            if vec_add(vec_add(vB, vH), vBs) != e:
                ok_decomp = False
            if any(vB) and not split.boundaries[deg].contains(vB):
                ok_decomp = False
            if any(vH) and not split.harmonic[deg].contains(vH):
                ok_decomp = False
            if any(vBs) and not split.complement[deg].contains(vBs):
                ok_decomp = False

    ok_cartan, witnesses = reference_cartan(L, R)
    checks = [
        ("star-involution", ok_invol),
        ("codifferential-identity", ok_codiff),
        ("laplacian-identity", ok_lap),
        ("double-projection-idempotent", ok_idem),
        ("laplacian-kernel", ok_kernel),
        ("hodge-decomposition", ok_decomp),
        ("cartan-condition", ok_cartan),
    ]
    return checks, witnesses


# The Fraction linear algebra of dgla.linalg before it moved to integers,
# kept as oracles: dense rows of Fractions, one Gauss-Jordan elimination.

def fraction_rref(rowdata, ncols):
    """Reduced row echelon form of dense Fraction rows; (rows, pivot_cols).
    The pivot is the first row, top to bottom, with a nonzero entry in the
    current column; each pivot row is scaled to a leading 1."""
    R = [list(row) for row in rowdata]
    pivots = []
    r = 0
    nrows = len(R)
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = ONE / R[r][c]
        R[r] = [inv * x for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def fraction_kernel(A):
    """kernel_basis(A).vectors: one vector per free column, ascending, each
    with its first nonzero coordinate 1."""
    R, pivots = fraction_rref(A.dense_rows(), A.cols)
    out = []
    for f in range(A.cols):
        if f in pivots:
            continue
        v = [ZERO] * A.cols
        v[f] = ONE
        for k, p in enumerate(pivots):
            if p < f and R[k][f]:
                v[p] = -R[k][f]
        lead = next(x for x in v if x)
        out.append(tuple(x / lead for x in v))
    return out


def fraction_image(A):
    """image_basis(A).vectors: the columns of A at the pivot columns."""
    pivots = fraction_rref(A.dense_rows(), A.cols)[1]
    return [A.column(j) for j in pivots]


def fraction_complement(n, S, inside=None):
    """complement_basis by one rref of the columns (S | candidates)."""
    if inside is None:
        candidates = [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
    else:
        candidates = list(inside)
    cols = list(S) + candidates
    pivots = fraction_rref([[col[i] for col in cols] for i in range(n)], len(cols))[1]
    if pivots[:len(S)] != list(range(len(S))):
        raise ValueError("S is not linearly independent")
    if len(pivots) != (n if inside is None else len(inside)):
        raise ValueError("S is not contained in the span of `inside`")
    return [cols[j] for j in pivots[len(S):]]


def fraction_invert(A):
    """The inverse of a square matrix as dense Fraction rows, by one rref
    of (A | Id); raises ValueError if A is singular."""
    n = A.rows
    aug = [row + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(A.dense_rows())]
    R, pivots = fraction_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


def fraction_matmul(A, B):
    """A @ B as dense Fraction rows, entry by entry."""
    a, b = A.dense_rows(), B.dense_rows()
    return [[sum((a[i][k] * b[k][j] for k in range(A.cols)), ZERO)
             for j in range(B.cols)] for i in range(A.rows)]
