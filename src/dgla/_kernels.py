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
column j of the partner straight, adding under the packed product key
k1 + k2.  The view of the left element of a bracket keeps the contracted
row of each laid-out monomial per integer table (KernelView.rows), so an
element bracketed again through the same table, such as each part of a
gauge element in the gauge series or of tau in the recursion, is
contracted once.  Every row of a call shares that one accumulator, so
bracket_sums adds several brackets, each scaled to a common denominator
by an integer, in one pass: a Maurer-Cartan step, or one order of the
recursion, is one kernel call.

The accumulator packs the output coordinates too (Kronecker substitution
once more): an output vector of out_dim integers is one integer with
out_dim signed slots of W bits, coordinate k at bit W * k.  A contracted
row's entries for generator j are packed once per row and width into
q_j = sum_k c_k 2^(W k), so a pair costs one multiply-add, q_j times the
partner's coefficient, however many coordinates j reaches.  W is proved on
every call from the operands (_slot_width): a slot of one product
monomial takes at most one partner monomial per row, so at most dim
partner products per row, each at most the row's peak (the largest sum of
|c| over one generator's entries, which also covers an entry that names a
coordinate twice) times |scale| times the partner's largest |coefficient|;
the sum of that over the rows and sources, plus a sign bit, rounded up to
a multiple of 64, is W.  No slot then reaches 2^(W-1) in absolute value,
and since the integer is exact whatever the slots hold, so is every slot:
adding 2^(W-1) to each leaves it in [0, 2^W) with no borrow or carry
between slots, flipping each top bit back gives the slot's W-bit two's
complement, and the bytes of that integer (int.to_bytes) read as out_dim
signed W-bit integers are the coordinates, decoded once per product
monomial.  There is no guessed width and no retry.  One output slot needs
neither bound nor decode: the integer is the coefficient.

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
from itertools import compress
from math import lcm
from operator import itemgetter
from struct import Struct


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


def _abs_sum(ents):
    """sum |c| over ((k, c), ...): at least |the sum of the c of any one k|,
    also where an entry names a k twice."""
    return sum(map(abs, map(itemgetter(1), ents)))


def _peak(rows):
    """The largest |f| * _abs_sum(entries of one generator) over contracted
    rows (f, row), or 0, None rows skipped: a bound on the coefficient any
    row puts on any one output slot through one generator."""
    peak = 0
    for urow in rows:
        if urow is not None:
            f, row = urow
            peak = max(peak, abs(f) * max(map(_abs_sum, row.values()), default=0))
    return peak


def _packed(row, shifts):
    """The contracted row {j: ((k, c), ...)} as {j: q_j} with
    q_j = sum c * 2^shifts[k], every j whose q_j is 0 dropped."""
    out = {}
    for j, ents in row.items():
        if len(ents) == 1:
            (k, c), = ents
            out[j] = c << shifts[k]
        else:
            q = sum([c << shifts[k] for k, c in ents])
            if q:
                out[j] = q
    return out


def _packed_rows(rows, shifts):
    """Each contracted row (f, row) as (f, _packed(row)), None kept as
    None; a row dict that several monomials share (a one-term monomial
    reads its table row) is packed once."""
    memo = {}
    out = []
    for urow in rows:
        if urow is not None:
            f, row = urow
            prow = memo.get(id(row))
            if prow is None:
                prow = memo[id(row)] = _packed(row, shifts)
            urow = f, prow
        out.append(urow)
    return out


class _Kept:
    """The laid-out monomials of one view put into one integer table
    (_contracted), each contracted once and kept, with the largest |f * c|
    over them (_peak) and their packed form at the last shifts asked for
    (_packed_rows), each row scanned and packed once.  It holds the table,
    so the table's identity, by which the view keys it, is never reused."""

    __slots__ = ("table", "rows", "_scanned", "_peak", "_shifts", "_packed")

    def __init__(self, table):
        self.table = table
        self.rows = []
        self._scanned = self._peak = 0
        self._shifts = None
        self._packed = []

    def peak(self):
        if self._scanned < len(self.rows):
            self._peak = max(self._peak, _peak(self.rows[self._scanned:]))
            self._scanned = len(self.rows)
        return self._peak

    def packed(self, shifts):
        if shifts != self._shifts:
            self._shifts, self._packed = shifts, []
        if len(self._packed) < len(self.rows):
            self._packed += _packed_rows(self.rows[len(self._packed):], shifts)
        return self._packed


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
                 "_buckets", "_rows", "_peak")

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
        self._peak = None

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
        """The _Kept rows of table, holding at least the first n laid-out
        monomials put into it, each contracted once per table.  They are
        keyed by the table's identity."""
        kept = self._rows.get(id(table))
        if kept is None:
            kept = self._rows[id(table)] = _Kept(table)
        rows = kept.rows
        if len(rows) < n:
            rows += [_contracted(u, table) for _, _, u in self.entries[len(rows):n]]
        return kept

    def peak(self):
        """The largest absolute value of a coefficient of the map, taken
        once."""
        if self._peak is None:
            vecs = self.terms.values()
            self._peak = max(max(map(max, vecs)), -min(map(min, vecs))) if vecs else 0
        return self._peak

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
    """The source of s * [u, v] for _convolve: each monomial of the view u
    against every monomial of v within trunc of it, its contracted row kept
    in u (KernelView.rows)."""
    if not u.terms or not v.terms:
        return None
    v.upto(trunc - u.low)
    udegs = u.upto(trunc - v.low)[1]
    n = bisect_right(udegs, trunc - v.low)
    kept = u.rows(table, n)
    rows = [(k1, trunc - d, None) for d, k1, _ in u.entries[:n]]
    return rows, s, v, kept.peak, kept.packed


def _self_rows(y, sym, trunc, s):
    """The source of 2s * [y, y] for _convolve: each monomial through sym
    once, against itself at scale s (sym(u, u) = 2 T(u, u)) and against the
    later ones within trunc of it at 2s, so each unordered pair once."""
    if not y.terms:
        return None
    ys, degs = y.upto(trunc - y.low)
    n = bisect_right(degs, trunc // 2)
    contracted = [_contracted(u, sym) for _, _, u in ys[:n]]
    rows = [(k1, trunc - d, u) for d, k1, u in ys[:n]]
    return (rows, s, y, lambda: _peak(contracted),
            lambda shifts: _packed_rows(contracted, shifts))


def _slot_width(sources):
    """W, a multiple of 64 with every accumulated slot below 2^(W-1) in
    absolute value: a slot of one output monomial gets at most one partner
    monomial per row, so at most len(cols) products per row, each at most
    the row's peak times |scale| times the partner's peak (2|s| for a self
    row)."""
    bound = 0
    for rows, s, v, peak, _ in sources:
        scale = 2 * abs(s) if rows[0][2] is not None else abs(s)
        bound += len(rows) * len(v.cols) * peak() * scale * v.peak()
    return -(-(bound.bit_length() + 1) // 64) * 64


def _convolve(sources, out_dim, half=False):
    """The one pair loop of every kernel.

    A source is (rows, s, v, peak, pack): an integer scale s, the view v
    paired with, and rows (k1, lim, own), the packed key k1 of a monomial
    and the highest total degree lim of a partner; pack(shifts) gives each
    row's vector put into a table and packed (_packed), peak() its largest
    coefficient.  own is None for a cross row, which walks every column of v
    from its start, or the monomial's own sparse vector for a self row (v
    the same view), which pairs with itself at scale s under the key 2 * k1
    and walks each column j from the count of the earlier rows with a
    nonzero j-th entry, at 2s.  For every generator j the row reaches, the
    coefficients of column j are added under the packed product keys
    k1 + k2.

    Each output vector is one integer of out_dim signed slots of W bits
    (_slot_width), decoded once per output monomial, as the module
    docstring describes.  Returns sum s * [u_m1, v_m2] * m1*m2 over every
    pair as a terms map, monomials unpacked through the packing of a
    partner view (Packing.monos; every view of one call packs alike), each
    integer halved if half is set.
    """
    sources = [src for src in sources if src is not None and src[0]]
    if not sources:
        return {}
    W = _slot_width(sources) if out_dim > 1 else 0
    shifts = [W * k for k in range(out_dim)]
    out = defaultdict(int)  # packed product key -> packed output vector
    for rows, s, v, _, pack in sources:
        cols = v.cols
        lo = dict.fromkeys(cols, 0) if rows[0][2] is not None else None
        for (k1, lim, own), prow in zip(rows, pack(shifts)):
            if own is not None:
                for j, _ in own:
                    lo[j] += 1
            if prow is None:
                continue
            f, prow = prow
            fs = f * s
            if own is not None:
                out[k1 + k1] += fs * sum([vj * prow[j] for j, vj in own if j in prow])
                fs *= 2
            for j, q in prow.items():
                col = cols.get(j)
                if col is None:
                    continue
                kv, ends = col
                a = lo[j] if lo else 0
                b = ends[lim] if lim < len(ends) else len(kv)
                if a < b:
                    fq = fs * q
                    for k2, vj in kv[a:b]:
                        out[k1 + k2] += fq * vj
    monos = sources[0][2].packing.monos(out.keys())
    h = 1 if half else 0
    if out_dim == 1:
        return {monos[key]: (acc >> h,) for key, acc in out.items() if acc}
    offset = sum([1 << (sh + W - 1) for sh in shifts])
    size = W // 8
    nbytes = size * out_dim
    unpack = Struct("<%dq" % out_dim).unpack if W == 64 else None
    res = {}
    for key, acc in out.items():
        if acc:
            raw = (((acc >> h) + offset) ^ offset).to_bytes(nbytes, "little")
            res[monos[key]] = unpack(raw) if unpack else tuple([
                int.from_bytes(raw[i:i + size], "little", signed=True)
                for i in range(0, nbytes, size)])
    return res


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
    return _convolve([_cross_rows(u, v, table, trunc, 1)], out_dim)


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
    sources = [_cross_rows(_laid_out(u, trunc), _laid_out(v, trunc), sym, trunc, 2 * s)
               for u, v, s in pairs]
    sources += [_self_rows(_laid_out(y, trunc), sym, trunc, s) for y, s in squares]
    return _convolve(sources, out_dim, half=True)


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
