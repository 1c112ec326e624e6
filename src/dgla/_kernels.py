"""The two hot inner loops of the series arithmetic, on integers only.

bracket_convolve carries every bracket of formal elements (so the whole
Maurer-Cartan solve) and matvec_terms every graded map applied to one.
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
tests/test_kernels.py checks both against plain Fraction reference
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


def bracket_convolve(uterms, vterms, table, trunc, out_dim):
    """Bilinear convolution of two terms maps through an integer table.

    Computes sum over monomial pairs of [u_m1, v_m2] * m1*m2, truncating
    every product monomial whose total degree exceeds trunc.  Each u
    monomial walks only the v monomials of low enough total degree; the
    products that survive have every exponent at most trunc, so they are
    added as integers packed in base trunc + 1.
    """
    base = max(trunc, 0) + 1
    vs = sorted(((sum(m), _packed(m, base), m, _sparse(v))
                 for m, v in vterms.items()), key=lambda entry: entry[0])
    vdegs = [entry[0] for entry in vs]
    out = {}    # packed product monomial -> integer accumulator
    monos = {}  # packed product monomial -> exponent tuple
    for m1, u1 in uterms.items():
        stop = bisect_right(vdegs, trunc - sum(m1))
        if not stop:
            continue
        u = [(i, ui) for i, ui in enumerate(u1) if ui and i in table]
        if not u:
            continue
        f, urow = _contracted(u, table)
        k1 = _packed(m1, base)
        for _, k2, m2, v2 in vs[:stop]:
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
