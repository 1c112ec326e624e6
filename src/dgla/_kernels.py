"""The two hot inner loops of the series arithmetic, in exact Fractions.

bracket_convolve carries every bracket of formal elements (so the whole
Maurer-Cartan solve) and matvec_terms every graded map applied to one.
tests/test_kernels.py checks both against plain reference implementations
in tests/reference.py.

Conventions:
  * a "terms" map sends an exponent tuple (one entry per ring variable) to a
    dense tuple of Fraction coefficients,
  * a structure table sends (i, j) index pairs to ((k, c), ...) tuples,
  * a sparse matrix is a tuple of rows, each row a ((col, coeff), ...) tuple.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def bracket_convolve(uterms, vterms, table, trunc, out_dim):
    """Bilinear convolution of two terms maps through a structure table.

    Computes sum over monomial pairs of [u_m1, v_m2] * m1*m2, truncating
    every product monomial whose total degree exceeds trunc.
    """
    out = {}
    for m1, v1 in uterms.items():
        d1 = sum(m1)
        for m2, v2 in vterms.items():
            if d1 + sum(m2) > trunc:
                continue
            mono = tuple(a + b for a, b in zip(m1, m2))
            acc = out.get(mono)
            if acc is None:
                acc = [_ZERO] * out_dim
                out[mono] = acc
            for i, ui in enumerate(v1):
                if not ui:
                    continue
                for j, vj in enumerate(v2):
                    if not vj:
                        continue
                    ents = table.get((i, j))
                    if not ents:
                        continue
                    uv = ui * vj
                    for k, c in ents:
                        acc[k] += uv * c
    return {m: tuple(v) for m, v in out.items() if any(v)}


def matvec_terms(terms, rows, out_dim):
    """Apply one sparse matrix to the coefficient vector of every monomial."""
    res = {}
    for mono, v in terms.items():
        out = [_ZERO] * out_dim
        nonzero = False
        for r in range(out_dim):
            s = _ZERO
            for c, coeff in rows[r]:
                vc = v[c]
                if vc:
                    s += coeff * vc
            if s:
                out[r] = s
                nonzero = True
        if nonzero:
            res[mono] = tuple(out)
    return res
