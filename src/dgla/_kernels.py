"""The two hot inner loops of the series arithmetic, exact over the rationals.

bracket_convolve carries every bracket of formal elements (so the whole
Maurer-Cartan solve) and matvec_terms every graded map applied to one.
Both take and return Fractions, but sum integers inside: each input (the
u and v series, the structure table, the matrix) is scaled by the lcm of
its own denominators, the loop multiplies and adds plain ints, and every
output coefficient is one Fraction(total, common denominator).  This is the
fraction-free idea of Bareiss elimination; the results are the exact
Fractions a Fraction loop would give.  bracket_convolve also buckets the v
monomials by total degree, so it walks only the pairs that survive the
truncation.  tests/test_kernels.py checks both against plain reference
implementations in tests/reference.py.

Conventions:
  * a "terms" map sends an exponent tuple (one entry per ring variable) to a
    dense tuple of Fraction coefficients,
  * a structure table sends (i, j) index pairs to ((k, c), ...) tuples,
  * a sparse matrix is a tuple of rows, each row a ((col, coeff), ...) tuple.
"""

from bisect import bisect_right
from fractions import Fraction
from math import lcm
from operator import add

_ZERO = Fraction(0)


def _common_denominator(coeffs):
    return lcm(*{c.denominator for c in coeffs})


def _scaled_terms(terms):
    """(D, [(mono, ((index, int), ...)), ...]) with D * terms == the ints."""
    D = _common_denominator(c for v in terms.values() for c in v)
    out = []
    for mono, vec in terms.items():
        pairs = tuple((i, c.numerator * (D // c.denominator))
                      for i, c in enumerate(vec) if c)
        if pairs:
            out.append((mono, pairs))
    return D, out


def _scaled_table(table):
    """(D, {i: {j: ((k, int), ...)}}) with D * table == the ints."""
    D = _common_denominator(c for ents in table.values() for _, c in ents)
    rows = {}
    for (i, j), ents in table.items():
        ints = tuple((k, c.numerator * (D // c.denominator))
                     for k, c in ents if c)
        if ints:
            rows.setdefault(i, {})[j] = ints
    return D, rows


def _fractions(acc, D):
    return tuple([Fraction(a, D) if a else _ZERO for a in acc])


def _packed(mono, base):
    """The exponent tuple as the digits of one integer in the given base.

    Adding two packed monomials packs their product as long as no exponent
    of the product reaches base (Kronecker substitution).
    """
    key = 0
    for e in mono:
        key = key * base + e
    return key


def bracket_convolve(uterms, vterms, table, trunc, out_dim):
    """Bilinear convolution of two terms maps through a structure table.

    Computes sum over monomial pairs of [u_m1, v_m2] * m1*m2, truncating
    every product monomial whose total degree exceeds trunc.  Each u
    monomial walks only the v monomials of low enough total degree; the
    products that survive have every exponent at most trunc, so they are
    added as integers packed in base trunc + 1.
    """
    Du, us = _scaled_terms(uterms)
    Dv, vs = _scaled_terms(vterms)
    Dt, rows = _scaled_table(table)
    base = max(trunc, 0) + 1
    vs = sorted(((sum(m), _packed(m, base), m, v) for m, v in vs),
                key=lambda entry: entry[0])
    vdegs = [entry[0] for entry in vs]
    out = {}    # packed product monomial -> integer accumulator
    monos = {}  # packed product monomial -> exponent tuple
    for m1, u1 in us:
        stop = bisect_right(vdegs, trunc - sum(m1))
        if not stop:
            continue
        urows = [(ui, rows[i]) for i, ui in u1 if i in rows]
        if not urows:
            continue
        k1 = _packed(m1, base)
        for _, k2, m2, v2 in vs[:stop]:
            key = k1 + k2
            acc = out.get(key)
            if acc is None:
                acc = out[key] = [0] * out_dim
                monos[key] = tuple(map(add, m1, m2))
            for ui, row in urows:
                for j, vj in v2:
                    ents = row.get(j)
                    if ents:
                        uv = ui * vj
                        for k, c in ents:
                            acc[k] += uv * c
    D = Du * Dv * Dt
    return {monos[key]: _fractions(acc, D)
            for key, acc in out.items() if any(acc)}


def matvec_terms(terms, rows, out_dim):
    """Apply one sparse matrix to the coefficient vector of every monomial."""
    Dm = _common_denominator(c for row in rows for _, c in row)
    irows = []
    for r, row in enumerate(rows):
        ints = tuple((col, c.numerator * (Dm // c.denominator))
                     for col, c in row if c)
        if ints:
            irows.append((r, ints))
    res = {}
    if not irows:
        return res
    Dv = _common_denominator(c for v in terms.values() for c in v)
    D = Dm * Dv
    for mono, vec in terms.items():
        out = [0] * out_dim
        for r, row in irows:
            s = 0
            for col, c in row:
                vc = vec[col]
                if vc:
                    s += c * vc.numerator * (Dv // vc.denominator)
            out[r] = s
        if any(out):
            res[mono] = _fractions(out, D)
    return res
