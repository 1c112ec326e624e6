"""The hot inner loops of the series arithmetic, on integers only.

bracket_convolve and self_convolve carry every bracket of formal elements
(so the whole Maurer-Cartan solve) and matvec_terms every graded map
applied to one.
Neither touches a Fraction: a FormalElement already stores integer
numerators over one denominator, and the structure table and the matrix
rows come scaled by the lcm of their own denominators (integer_table and
integer_rows, computed once per table or matrix by their owners).  The
caller knows every denominator, so it alone divides: the bracket of u / Du
and v / Dv through a table scaled by Dt is the result over Du * Dv * Dt, a
matrix scaled by Dm applied to v / Dv is the result over Dm * Dv.  This is
the fraction-free idea of Bareiss elimination.  bracket_convolve also
buckets the v monomials by total degree, so it walks only the pairs that
survive the truncation, and puts each u vector of several terms into the
table once, before its pairs, so a pair costs one pass over the v vector.

self_convolve is the self-bracket [y, y].  The pairs (m1, m2) and (m2, m1)
land on the same product monomial with [y_m1, y_m2] + [y_m2, y_m1], which
is y_m1 put through T + T^t against y_m2 (symmetric_table, an integer table
at the same scale Dt as T).  So it walks the degree-sorted monomials once
over unordered pairs p <= q within the truncation: the diagonal pair
through T, each other pair once through T + T^t, about half the pairs of
bracket_convolve(y, y).  Nothing assumes antisymmetry, so the sum, and the
result over the same denominator, is the same exact rational for any
table: one set up through the Python API with [e_i, e_j] but no
[e_j, e_i], or the self-bracket of an even-degree element.  Both kernels
add their pairs in one shared loop (_convolve).  bracket_convolve through
T + T^t is the bracket sum [u, v] + [v, u] of two elements of one degree.
bracket_vector is the same bracket on plain coefficient vectors (one
generator-pair sweep, no series), for DGLA.bracket_vectors and the Cartan
test of the Hodge package.
tests/test_kernels.py checks every kernel against plain Fraction reference
implementations in tests/reference.py.

Conventions:
  * a "terms" map sends an exponent tuple (one entry per ring variable) to a
    dense tuple of int coefficients, none of them all zero,
  * an integer structure table sends i to {j: ((k, int), ...)}, so that
    [e_i, e_j] = sum int e_k,
  * integer matrix rows are ((row, ((col, int), ...)), ...), nonzero rows
    only, columns ascending.
Both kernels return a terms map with every all-zero vector dropped.
"""

from bisect import bisect_right
from math import lcm
from operator import add


def integer_table(table):
    """(D, integer table) with D * table == the ints, D the lcm of the
    denominators; table sends (i, j) to ((k, Fraction), ...)."""
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
    denominators; rows holds one ((col, Fraction), ...) tuple per row."""
    D = lcm(*{c.denominator for row in rows for _, c in row})
    out = []
    for r, row in enumerate(rows):
        ints = tuple((col, c.numerator * (D // c.denominator))
                     for col, c in row if c)
        if ints:
            out.append((r, ints))
    return D, tuple(out)


def integer_vector(v):
    """(D, ints) with D * v == ints, D the lcm of the denominators of v."""
    D = lcm(*{c.denominator for c in v})
    return D, [c.numerator * (D // c.denominator) for c in v]


def bracket_vector(u, v, table, out_dim):
    """[u, v] for integer vectors u, v through an integer table: the list of
    out_dim integer coefficients, at the scale of u times v times the table."""
    out = [0] * out_dim
    for i, row in table.items():
        ci = u[i]
        if ci:
            for j, ents in row.items():
                cj = v[j]
                if cj:
                    f = ci * cj
                    for k, c in ents:
                        out[k] += f * c
    return out


def _packed(mono, base):
    """The exponent tuple as the digits of one integer in the given base.

    Adding two packed monomials packs their product as long as no exponent
    of the product reaches base (Kronecker substitution).
    """
    key = 0
    for e in mono:
        key = key * base + e
    return key


def _sparse(vec):
    return tuple([(i, c) for i, c in enumerate(vec) if c])


def _contracted(u, table):
    """(f, row) with f * row == the sparse vector u = ((i, int), ...) put
    into the first slot of the table: row is {j: ((k, int), ...)} with
    [u, e_j] = f * sum int e_k.  A one-term u reuses its table row."""
    if len(u) == 1:
        i, f = u[0]
        return f, table[i]
    rows = {}
    for i, ui in u:
        for j, ents in table[i].items():
            row = rows.setdefault(j, {})
            for k, c in ents:
                row[k] = row.get(k, 0) + ui * c
    out = {}
    for j, row in rows.items():
        ents = tuple([(k, c) for k, c in row.items() if c])
        if ents:
            out[j] = ents
    return 1, out


def symmetric_table(table):
    """The integer table T + T^t of an integer table T: [e_i, e_j] + [e_j, e_i]
    for every pair, at the same scale as T, all-zero entries dropped."""
    out = {}
    for i, row in table.items():
        for j, ents in row.items():
            if i in out.get(j, ()):
                continue  # summed already, from the mirror pair (j, i)
            mirror = ents if i == j else table.get(j, {}).get(i, ())
            acc = {}
            for k, c in ents + mirror:
                acc[k] = acc.get(k, 0) + c
            ents = tuple([(k, c) for k, c in acc.items() if c])
            if ents:
                out.setdefault(i, {})[j] = ents
                out.setdefault(j, {})[i] = ents
    return out


def _by_degree(terms, base):
    """The monomials of a terms map as (total degree, packed key, exponent
    tuple, sparse vector), in ascending total degree, with the degrees."""
    entries = sorted(((sum(m), _packed(m, base), m, _sparse(vec))
                      for m, vec in terms.items()), key=lambda entry: entry[0])
    return entries, [entry[0] for entry in entries]


def _convolve(rows, out_dim):
    """The pair loop both kernels share.  rows yields (m1, k1, u, table, vs):
    a monomial m1 with packed key k1 and sparse vector u = ((i, int), ...),
    the table to put u through, and the (_, k2, m2, v2) entries of
    _by_degree to pair it with.  Returns sum [u, v2] * m1*m2 over every row
    and pair, added as integers under the packed product key k1 + k2."""
    out = {}    # packed product monomial -> integer accumulator
    monos = {}  # packed product monomial -> exponent tuple
    for m1, k1, u, table, vs in rows:
        u = [(i, ui) for i, ui in u if i in table]
        if not u or not vs:
            continue
        f, urow = _contracted(u, table)
        for _, k2, m2, v2 in vs:
            key = k1 + k2
            acc = out.get(key)
            if acc is None:
                acc = out[key] = [0] * out_dim
                monos[key] = tuple(map(add, m1, m2))
            for j, vj in v2:
                ents = urow.get(j)
                if ents:
                    fv = f * vj
                    for k, c in ents:
                        acc[k] += fv * c
    return {monos[key]: tuple(acc) for key, acc in out.items() if any(acc)}


def bracket_convolve(uterms, vterms, table, trunc, out_dim):
    """Bilinear convolution of two terms maps through an integer table.

    Computes sum over monomial pairs of [u_m1, v_m2] * m1*m2, truncating
    every product monomial whose total degree exceeds trunc.  Each u
    monomial walks only the v monomials of low enough total degree; the
    products that survive have every exponent at most trunc, so they are
    added as integers packed in base trunc + 1.
    """
    base = max(trunc, 0) + 1
    vs, vdegs = _by_degree(vterms, base)

    def rows():
        for m1, u1 in uterms.items():
            stop = bisect_right(vdegs, trunc - sum(m1))
            if stop:
                yield m1, _packed(m1, base), _sparse(u1), table, vs[:stop]

    return _convolve(rows(), out_dim)


def self_convolve(terms, table, sym, trunc, out_dim):
    """bracket_convolve(terms, terms, table, trunc, out_dim), each unordered
    monomial pair walked once.

    sym is symmetric_table(table).  The pair (m1, m1) goes through table;
    a pair m1 != m2 contributes [y_m1, y_m2] + [y_m2, y_m1] to m1*m2, which
    is y_m1 put through table + table^t against y_m2, so it goes through sym
    once.  Monomials are walked in ascending total degree, each against
    itself and the later ones within the truncation, and the walk ends at
    the first monomial with no partner left.
    """
    ys, degs = _by_degree(terms, max(trunc, 0) + 1)

    def rows():
        for p, (deg, k1, m1, y1) in enumerate(ys):
            stop = bisect_right(degs, trunc - deg)
            if stop <= p:
                return
            yield m1, k1, y1, table, ys[p:p + 1]
            yield m1, k1, y1, sym, ys[p + 1:stop]

    return _convolve(rows(), out_dim)


def matvec_terms(terms, rows, out_dim):
    """Apply integer matrix rows to the coefficient vector of every monomial."""
    res = {}
    if not rows:
        return res
    for mono, vec in terms.items():
        out = [0] * out_dim
        for r, row in rows:
            s = 0
            for col, c in row:
                vc = vec[col]
                if vc:
                    s += c * vc
            out[r] = s
        if any(out):
            res[mono] = tuple(out)
    return res
