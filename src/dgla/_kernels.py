"""The hot inner loops of the series arithmetic, on integers only.

bracket_convolve, self_convolve and bracket_sums carry every bracket of
formal elements (so the whole Maurer-Cartan solve) and matvec_terms every
graded map applied to one.
None touches a Fraction: a FormalElement already stores integer
numerators over one denominator, a Matrix its numerators over one
denominator (Matrix.integer_rows), and a DGLA its bracket as integers
over one denominator D, which DGLA._integer_table cuts into the table of
a degree pair.  The caller knows every denominator, so it alone divides:
the bracket of u / Du and v / Dv through a table over D is the result
over Du * Dv * D, a matrix scaled by Dm applied to v / Dv is the result
over Dm * Dv.  This is the fraction-free idea of Bareiss elimination.

The brackets read a kernel-ready layout of each series, a KernelView, that
a FormalElement builds once and keeps.  It buckets the monomials by total
degree and lays a bucket out only when a truncation can pair it: each
monomial as (total degree, packed key, sparse vector), the packed key being
its exponents as the digits of one integer (Packing, one per ring), and the
same coefficients again by generator, in columns cut by total degree.  A
row of the pair loop (_convolve) puts one monomial's vector into the table
(its contracted row) and then walks, for each generator j it reaches,
column j of the partner straight: a j that reaches one output costs one
multiply-add per pair, added as an integer under the packed product key
k1 + k2.  The view of the left element of a bracket keeps the contracted
row of each laid-out monomial per integer table (KernelView.rows), so an
element bracketed again through the same table, such as each part of a
gauge element in the gauge series or of tau in the recursion, is
contracted once.  Every row of a call shares that one accumulator, so
bracket_sums adds several brackets, each scaled to a common denominator
by an integer, in one pass: a Maurer-Cartan step, or one order of the
recursion, is one kernel call.

self_convolve is the self-bracket [y, y].  The pairs (m1, m2) and (m2, m1)
land on the same product monomial with [y_m1, y_m2] + [y_m2, y_m1], which
is y_m1 put through T + T^t against y_m2 (symmetric_table, an integer table
at the same scale as T).  So it walks the degree-sorted monomials once
over unordered pairs p <= q within the truncation, each monomial
contracted once, through T + T^t, for its row of the walk (which keeps
nothing): as sym(u, u) = 2 T(u, u), the diagonal pair goes at scale 1 and
each other pair at 2, which makes every accumulated integer even and twice
the sum, halved once at the end.  That is about half the pairs of
bracket_convolve(y, y).  Nothing assumes antisymmetry, so the sum, and the
result over the same denominator, is the same exact rational for any
table: one set up through the Python API with [e_i, e_j] but no
[e_j, e_i], or the self-bracket of an even-degree element.  A pair through
T + T^t is the bracket sum [u, v] + [v, u] of two elements of one degree.
bracket_vector is the same bracket on plain coefficient vectors (one
generator-pair sweep, no series), for DGLA.bracket_vectors and the Cartan
test of the Hodge package.
tests/test_kernels.py checks every kernel against plain Fraction reference
implementations in tests/reference.py.

Conventions:
  * a "terms" map sends an exponent tuple (one entry per ring variable) to a
    dense tuple of int coefficients, none of them all zero; a KernelView is
    read as the terms map it lays out,
  * an integer structure table sends i to {j: ((k, int), ...)}, so that
    [e_i, e_j] = sum int e_k,
  * integer matrix rows are ((row, ((col, int), ...)), ...), nonzero rows
    only, columns ascending.
Every kernel returns a terms map with every all-zero vector dropped.
"""

from bisect import bisect_right
from collections import defaultdict
from collections.abc import Mapping
from itertools import chain, compress
from math import lcm


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


class Packing:
    """Exponent tuples packed as the digits of one integer in base, both
    ways, filled on demand: key(mono) is (total degree, packed key) and
    monos(keys) the inverse map.  Adding two packed keys packs the product as
    long as no exponent of the product reaches base (Kronecker
    substitution).  A CoefficientRing owns one, so each of its monomials is
    packed once."""

    __slots__ = ("base", "nvars", "keys", "_monos")

    def __init__(self, base):
        self.base = base
        self.nvars = None
        self.keys = {}
        self._monos = {}

    def key(self, mono):
        dk = self.keys.get(mono)
        if dk is None:
            key = 0
            for e in mono:
                key = key * self.base + e
            dk = self.keys[mono] = (sum(mono), key)
            if dk[0] < self.base:  # every exponent below base: key is unique
                self._monos[key] = mono
            self.nvars = len(mono)
        return dk

    def monos(self, keys):
        """The map packed key -> exponent tuple, holding every key of keys
        (a set-like view of packed keys)."""
        monos = self._monos
        for key in keys - monos.keys():
            digits = []
            k = key
            for _ in range(self.nvars):
                k, e = divmod(k, self.base)
                digits.append(e)
            monos[key] = tuple(reversed(digits))
        return monos


def _contracted(u, table):
    """(f, row) with f * row == the sparse vector u = ((i, int), ...) put
    into the first slot of the table, row being {j: ((k, int), ...)} with
    [u, e_j] = f * sum int e_k; None if no i of u is in the table.  A
    one-term u reuses its table row."""
    u = [(i, ui) for i, ui in u if i in table]
    if not u:
        return None
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


class KernelView(Mapping):
    """A terms map laid out for the pair loop, one total degree at a time.

    upto(deg) lays out every monomial of total degree at most deg and
    returns (entries, degs): one (total degree, packed key, sparse vector)
    per monomial, in ascending total degree (ties in the map's own order),
    and their degrees.  cols holds the same coefficients by generator:
    cols[j] = (kv, ends), kv the (packed key, coefficient) of every laid-out
    monomial whose vector has a nonzero j-th entry, in entry order, and
    ends[d] the number of them of total degree at most d.  So a pair loop
    walks one generator's coefficients straight, cut at a degree by one
    index.  The monomials are bucketed by total degree up front, but a
    bucket is laid out only when first asked for, and then kept: a bracket
    within a truncation never reads the monomials that can find no partner.
    Keys come from packing (one per ring, so a monomial is packed once).  A
    FormalElement keeps its view (FormalElement.view), so an element
    bracketed several times is laid out once.  As a Mapping it reads as the
    terms map it lays out.
    """

    __slots__ = ("terms", "packing", "low", "entries", "degs", "cols",
                 "_buckets", "_rows")

    def __init__(self, terms, packing):
        self.terms = terms
        self.packing = packing
        keys = packing.keys
        buckets = {}
        for m in terms:
            dk = keys.get(m) or packing.key(m)
            buckets.setdefault(dk[0], []).append((dk[1], m))
        self._buckets = sorted(buckets.items(), reverse=True)
        self.low = self._buckets[-1][0] if buckets else None
        self.entries = []
        self.degs = []
        self.cols = {}
        self._rows = {}

    def upto(self, deg):
        buckets = self._buckets
        entries, degs, cols, terms = self.entries, self.degs, self.cols, self.terms
        while buckets and buckets[-1][0] <= deg:
            d, monos = buckets.pop()
            for kv, ends in cols.values():  # the degrees below d with no bucket
                ends += [len(kv)] * (d - len(ends))
            for key, m in monos:
                vec = terms[m]
                u = tuple(compress(enumerate(vec), vec))
                for j, c in u:
                    col = cols.get(j)
                    if col is None:
                        col = cols[j] = ([], [0] * d)
                    col[0].append((key, c))
                entries.append((d, key, u))
            for kv, ends in cols.values():
                ends.append(len(kv))
            degs += [d] * len(monos)
        return entries, degs

    def rows(self, table, n):
        """The first n laid-out monomials put into the integer table
        (_contracted), each contracted once per table and kept.  They are
        keyed by the table's identity, and the table is held with them, so
        that identity is never reused for another table."""
        held = self._rows.get(id(table))
        if held is None:
            held = self._rows[id(table)] = (table, [])
        rows = held[1]
        if len(rows) < n:
            rows += [_contracted(u, table) for _, _, u in self.entries[len(rows):n]]
        return rows

    def __getitem__(self, mono):
        return self.terms[mono]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def _laid_out(terms, trunc):
    """terms as a KernelView packed in base trunc + 1 (itself if it is one)."""
    base = max(trunc, 0) + 1
    if type(terms) is KernelView and terms.packing.base == base:
        return terms
    return KernelView(terms, Packing(base))


def _cross_rows(u, v, table, trunc, s):
    """The rows of s * [u, v] for _convolve: each monomial of the view u
    against every monomial of v within trunc of it."""
    if not u.terms or not v.terms:
        return
    v.upto(trunc - u.low)
    udegs = u.upto(trunc - v.low)[1]
    n = bisect_right(udegs, trunc - v.low)
    for (d, k1, _), row in zip(u.entries[:n], u.rows(table, n)):
        yield k1, row, s, v.cols, None, trunc - d, None


def _self_rows(y, sym, trunc, s):
    """The rows of 2s * [y, y] for _convolve: each monomial through sym
    once, against itself at scale s (sym(u, u) = 2 T(u, u)) and against the
    later ones within trunc of it at 2s, so each unordered pair once.  The
    start of each column is the count of the monomials already walked, kept
    in one dict that each row shares and the next updates."""
    if not y.terms:
        return
    ys, degs = y.upto(trunc - y.low)
    n = bisect_right(degs, trunc // 2)
    walked = dict.fromkeys(y.cols, 0)
    for d, k1, u in ys[:n]:
        for j, _ in u:
            walked[j] += 1
        yield k1, _contracted(u, sym), 2 * s, y.cols, walked, trunc - d, (u, s)


def _convolve(rows, out_dim, packing, half=False):
    """The one pair loop of every kernel.

    rows yields (k1, urow, s, cols, lo, lim, own): the packed key k1 of a
    monomial, its vector put into a table (_contracted: (f, row), or None),
    an integer scale s, and the columns of the view it pairs with
    (KernelView.cols), from column index lo[j] (0 if lo is None) through
    the monomials of total degree at most lim.  For every generator j the
    row reaches, those coefficients of column j are added under the packed
    product keys k1 + k2, a j that reaches one output as one multiply-add
    per pair.  own is None, or (v, so) for the monomial paired with itself:
    urow against its own sparse vector v at scale so, under the key 2 * k1.
    Every row shares one accumulator.  Returns sum s * [u_m1, v_m2] * m1*m2
    over every pair as a terms map, monomials unpacked through
    packing.monos, each integer halved on the way out if half is set.
    """
    out = defaultdict(([0] * out_dim).copy)  # packed product key -> ints
    for k1, urow, s, cols, lo, lim, own in rows:
        if urow is None:
            continue
        f, urow = urow
        if own is not None:
            v, so = own
            acc = out[k1 + k1]
            for j, vj in v:
                ents = urow.get(j)
                if ents:
                    fv = f * so * vj
                    for k, c in ents:
                        acc[k] += fv * c
        f *= s
        for j, ents in urow.items():
            col = cols.get(j)
            if col is None:
                continue
            kv, ends = col
            a = lo[j] if lo else 0
            b = ends[lim] if lim < len(ends) else len(kv)
            if a >= b:
                continue
            if len(ents) == 1:
                (k, c), = ents
                fc = f * c
                for k2, vj in kv[a:b]:
                    out[k1 + k2][k] += fc * vj
            else:
                for k2, vj in kv[a:b]:
                    acc = out[k1 + k2]
                    fv = f * vj
                    for k, c in ents:
                        acc[k] += fv * c
    monos = packing.monos(out.keys())
    if half:
        return {monos[key]: tuple([c // 2 for c in acc])
                for key, acc in out.items() if any(acc)}
    return {monos[key]: tuple(acc) for key, acc in out.items() if any(acc)}


def bracket_convolve(uterms, vterms, table, trunc, out_dim):
    """Bilinear convolution of two terms maps through an integer table.

    Computes sum over monomial pairs of [u_m1, v_m2] * m1*m2, truncating
    every product monomial whose total degree exceeds trunc.  Each u
    monomial walks only the v monomials of low enough total degree; the
    products that survive have every exponent at most trunc, so they are
    added as integers packed in base trunc + 1.  A KernelView in that base
    is read as it stands; any other terms map is laid out first.
    """
    u = _laid_out(uterms, trunc)
    v = _laid_out(vterms, trunc)
    return _convolve(_cross_rows(u, v, table, trunc, 1), out_dim, u.packing)


def self_convolve(terms, sym, trunc, out_dim):
    """bracket_convolve(terms, terms, table, trunc, out_dim), each unordered
    monomial pair walked once.

    sym is symmetric_table(table), the one table read.  A pair m1 != m2 contributes
    [y_m1, y_m2] + [y_m2, y_m1] to m1*m2, which is y_m1 put through
    table + table^t against y_m2, so it goes through sym once; the pair
    (m1, m1) goes through sym too, sym(y_m1, y_m1) being twice
    [y_m1, y_m1] (bracket_sums halves the total).  Monomials are walked in
    ascending total degree, each against itself and the later ones within
    the truncation, and the walk ends at the first monomial with no partner
    left.
    """
    return bracket_sums((), ((terms, 1),), sym, trunc, out_dim)


def bracket_sums(pairs, squares, sym, trunc, out_dim):
    """sum s * ([u, v] + [v, u]) over the (u, v, s) of pairs plus
    sum s * [y, y] over the (y, s) of squares, in one accumulation.

    u, v and y are terms maps of one degree, s integer scales (the caller
    puts every bracket over one common denominator with them) and sym
    symmetric_table(T) for the integer table T of that degree with itself.
    Each monomial of a view is contracted through sym once:
    a pair is one pass, a square walks its unordered pairs once, as in
    self_convolve, its diagonal at scale s (sym(u, u) = 2 T(u, u)) and every
    other pair at 2s.  So the sum is accumulated twice over, every integer
    of it even, and halved as it leaves the pair loop.
    """
    pairs = [(_laid_out(u, trunc), _laid_out(v, trunc), s) for u, v, s in pairs]
    squares = [(_laid_out(y, trunc), s) for y, s in squares]
    if not pairs and not squares:
        return {}
    rows = [_cross_rows(u, v, sym, trunc, 2 * s) for u, v, s in pairs]
    rows += [_self_rows(y, sym, trunc, s) for y, s in squares]
    packing = (pairs[0][0] if pairs else squares[0][0]).packing
    return _convolve(chain.from_iterable(rows), out_dim, packing, half=True)


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
