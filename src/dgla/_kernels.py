"""The hot inner loops of the series arithmetic, on integers only.

bracket_sums, the one series bracket kernel, carries every bracket of
formal elements (so the whole Maurer-Cartan solve, the Kuranishi map and
the gauge action) and matvec_terms every graded map applied to one.
None touches a Fraction: a FormalElement, a Matrix (Matrix.integer_rows)
and the bracket of a DGLA, which DGLA._integer_table cuts into the table
of a degree pair, are already held in linalg's integer form, numerators
over one denominator.  The caller knows every denominator: the bracket of
u / Du and v / Dv through a table over D is the result over Du * Dv * D,
a matrix scaled by Dm applied to v / Dv is the result over Dm * Dv.  This
is the fraction-free idea of Bareiss elimination.  matvec_terms hands
back the numerators, which its caller reduces; bracket_sums is given the
denominator and hands its sum back in lowest terms, reduced on the
accumulator as it is decoded, so no bracket is read a second time.
matvec_terms applies rows compiled once per matrix (compile_rows) into
one function of a coefficient vector.

A series is keyed as a FormalElement holds it, by its ring's monomial
keys (formal.CoefficientRing.key): a product within the truncation has
key k1 + k2, and key k has total degree (k - 1) mod N + 1, N the ring's
order.  No kernel sees an exponent tuple.  The brackets read a
kernel-ready layout of each series, a KernelView, that a FormalElement
builds once and keeps.  It buckets the keys by total degree and lays a
bucket out only when a truncation can pair it: each monomial as (total
degree, key, sparse vector), and the same coefficients again by
generator, in columns cut by total degree.  A row of the pair loop
(_convolve) puts one monomial's vector into the table (its contracted
row) and then walks, for each generator j it reaches, column j of the
partner straight, adding under the product key k1 + k2.  The view of the
left element of a bracket keeps the contracted row of each laid-out
monomial per integer table (KernelView.rows), so an element bracketed
again through the same table, such as each part of a gauge element in
the gauge series or of tau in the recursion, is contracted once.  Every
row of a call shares that one accumulator, so
bracket_sums adds several brackets, each scaled to a common denominator
by an integer, in one pass: one bracket [u, v] is a call with one pair,
and each sum of series brackets (DGLA.bracket_sum, its caller) one call.

The accumulator packs the output coordinates too (Kronecker substitution
once more): an output vector of out_dim integers is one integer with
out_dim signed slots of W bits, coordinate k at bit W * k.  The table is
packed alike, P_ij = sum_k c_ijk 2^(W k), at the width of the call, and
the pack of the last width is kept with the table: a Table, which
DGLA._integer_table and _symmetric_table hand out and keep, so a pack
lives as long as the DGLA and no longer.  The contracted row of a
monomial's vector u is then row_j = sum_i u_i P_ij, one multiply-add per
(i, j), a one-term u reading its packed table row as it stands, and a
pair costs one multiply-add, row_j times the partner's coefficient,
however many coordinates j reaches.  W is proved
on every call from the operands (_slot_width) before any row is
contracted: a slot of one product monomial takes at most one partner
monomial per row, so at most dim partner products per row, each at most
the row's bound sum_i |u_i| p_i (p_i = max_j sum_k |c_ijk|, the table's
peak of generator i, so the bound is at least the sum of |slot| of any
row_j, also where an entry names a coordinate twice) times |scale| times
the partner's largest |coefficient|; the sum of that over the rows and
sources, plus a sign bit, rounded up to a multiple of 64, is W.  No slot
then reaches 2^(W-1) in absolute value, and since the integer is exact
whatever the slots hold, so is every slot: adding 2^(W-1) to each leaves
it in [0, 2^W) with no borrow or carry between slots, flipping each top
bit back gives the slot's W-bit two's complement, and the bytes of that
integer (int.to_bytes) read as out_dim signed W-bit integers are the
coordinates, decoded once per product monomial.  There is no guessed
width and no retry.  One output slot needs neither bound nor decode: the
integer is the coefficient.  A view keeps its rows of a table at the
last W and contracts them again only when W changes.

A square y of bracket_sums is the self-bracket [y, y].  The pairs
(m1, m2) and (m2, m1) land on the same product monomial with
[y_m1, y_m2] + [y_m2, y_m1], which is y_m1 put through T + T^t against
y_m2 (symmetric_table, an integer table at the same scale as T).  So it
walks the degree-sorted monomials once over unordered pairs p <= q within
the truncation, each monomial contracted once, through T + T^t, for its
row of the walk (which keeps nothing): as sym(u, u) = 2 T(u, u), the
diagonal pair goes at scale 1 and each other pair at 2, which makes every
accumulated integer even and twice the sum, so a call with a square puts
its pairs in at twice their scale too, and the 2 leaves with the sum's
common factor as it is decoded.  That is about half the pairs of the
ordered pair (y, y) through T.  Nothing assumes
antisymmetry, so the sum, and the result over the same denominator, is
the same exact rational for any table: one set up through the Python API
with [e_i, e_j] but no [e_j, e_i], or the self-bracket of an even-degree
element.  A pair through T + T^t is the bracket sum [u, v] + [v, u] of two
elements of one degree.
bracket_vector is the same bracket on plain coefficient vectors (one
generator-pair sweep, no series), for DGLA.bracket_vectors and the Cartan
test of the Hodge package.
tests/test_kernels.py checks every kernel against plain Fraction reference
implementations in tests/reference.py.

Conventions:
  * a "terms" map sends a monomial key to a dense tuple of int
    coefficients, none of them all zero; the series kernel reads it as a
    KernelView (each FormalElement keeps one),
  * an integer structure table sends i to {j: ((k, int), ...)}, so that
    [e_i, e_j] = sum int e_k; the series kernel reads it as a Table,
  * integer matrix rows are ((row, ((col, int), ...)), ...), nonzero rows
    only, columns ascending (compile_rows reads a column named twice
    twice).
Every terms map a kernel returns has every all-zero vector dropped.
"""

from bisect import bisect_right
from collections import defaultdict
from itertools import compress
from struct import Struct

from .linalg import common_factor, lowest_terms


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


class Table(dict):
    """An integer structure table (see Conventions) with what the pair loop
    reads of it, each built on first use and kept: the peak of each
    generator, p_i = max_j sum_k |c_ijk|, and the table packed at a slot
    width W, P_ij = sum_k c_ijk 2^(W k), for the width asked for last only
    (_packs holds that one pack; a new width replaces it, as a view's kept
    rows restart on one).  DGLA keeps its tables, so the pack lives as long
    as the DGLA and dies with it."""

    __slots__ = ("_peaks", "_packs", "__weakref__")

    def __init__(self, *args):
        super().__init__(*args)
        self._peaks = None
        self._packs = {}  # {W: P} at the last W

    def bound(self, u):
        """sum |u_i| p_i over the sparse vector u = ((i, int), ...): at least
        the sum of |slot| of its contracted row through any one generator."""
        peaks = self._peaks
        if peaks is None:
            peaks = self._peaks = {
                i: max([sum([abs(c) for _, c in ents]) for ents in row.values()])
                for i, row in self.items() if row}
        return sum([abs(c) * peaks.get(i, 0) for i, c in u])

    def row(self, u, W):
        """(f, {j: q_j}) with f * q_j = sum_i u_i P_ij, the contracted row of
        the sparse vector u put into the first slot of the table, each q_j
        packed at width W and none 0; None if no i of u is in the table.  A
        one-term u reuses its packed table row."""
        packed = self._packs.get(W)
        if packed is None:
            packed = {i: {j: q for j, ents in row.items()
                          if (q := sum([c << (W * k) for k, c in ents]))}
                      for i, row in self.items()}
            self._packs = {W: packed}
        u = [(i, c) for i, c in u if i in packed]
        if not u:
            return None
        if len(u) == 1:
            i, f = u[0]
            return f, packed[i]
        acc = {}
        for i, c in u:
            for j, q in packed[i].items():
                acc[j] = acc.get(j, 0) + c * q
        return 1, {j: q for j, q in acc.items() if q}


class _Kept:
    """The laid-out monomials of a view (its entries list, which only grows)
    put into one Table: peak(n) is the largest Table.bound over at least the
    first n, rows(n, W) their contracted rows (Table.row) at width W.  Each
    vector is bounded once and contracted once per width; a new W contracts
    afresh.  It holds the table, so the table's identity, by which a view
    keys it, is never reused."""

    __slots__ = ("table", "entries", "_peak", "_bounded", "_W", "_rows")

    def __init__(self, table, entries):
        self.table = table
        self.entries = entries
        self._peak = self._bounded = 0
        self._W = None
        self._rows = []

    def peak(self, n):
        if self._bounded < n:
            bound = self.table.bound
            self._peak = max(self._peak, *[
                bound(u) for _, _, u in self.entries[self._bounded:n]])
            self._bounded = n
        return self._peak

    def rows(self, n, W):
        if W != self._W:
            self._W, self._rows = W, []
        rows = self._rows
        if len(rows) < n:
            row = self.table.row
            rows += [row(u, W) for _, _, u in self.entries[len(rows):n]]
        return rows


def symmetric_table(table):
    """The integer Table T + T^t of an integer table T: [e_i, e_j] + [e_j, e_i]
    for every pair, at the same scale as T, all-zero entries dropped."""
    out = Table()
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


class KernelView:
    """A terms map laid out for the pair loop, one total degree at a time.

    The keys of terms are those of a ring of the given order (the module
    docstring).  upto(deg) lays out every monomial of total degree at most
    deg and returns (entries, degs): one (total degree, key, sparse vector)
    per monomial, in ascending total degree (ties in the map's own order),
    and their degrees.  cols holds the same coefficients by generator:
    cols[j] = (kv, ends), kv the (key, coefficient) of every laid-out
    monomial whose vector has a nonzero j-th entry, in entry order, and
    ends[d] the number of them of total degree at most d.  So a pair loop
    walks one generator's coefficients straight, cut at a degree by one
    index.  The keys are bucketed by their degree residue up front, but a
    bucket is laid out only when first asked for, and then kept: a bracket
    within a truncation never reads the monomials that can find no partner.
    A FormalElement keeps its view (FormalElement.view), so an element
    bracketed several times is laid out once.
    """

    __slots__ = ("terms", "low", "entries", "degs", "cols",
                 "_buckets", "_kept", "_peak")

    def __init__(self, terms, order):
        self.terms = terms
        buckets = {}
        for key in terms:
            buckets.setdefault((key - 1) % order + 1, []).append(key)
        self._buckets = sorted(buckets.items(), reverse=True)
        self.low = self._buckets[-1][0] if buckets else None
        self.entries = []
        self.degs = []
        self.cols = {}
        self._kept = {}
        self._peak = None

    def upto(self, deg):
        buckets = self._buckets
        entries, degs, cols, terms = self.entries, self.degs, self.cols, self.terms
        while buckets and buckets[-1][0] <= deg:
            d, keys = buckets.pop()
            for kv, ends in cols.values():  # the degrees below d with no bucket
                ends += [len(kv)] * (d - len(ends))
            for key in keys:
                vec = terms[key]
                u = tuple(compress(enumerate(vec), vec))
                for j, c in u:
                    col = cols.get(j)
                    if col is None:
                        col = cols[j] = ([], [0] * d)
                    col[0].append((key, c))
                entries.append((d, key, u))
            for kv, ends in cols.values():
                ends.append(len(kv))
            degs += [d] * len(keys)
        return entries, degs

    def rows(self, table):
        """The laid-out monomials put into the Table table (_Kept), kept per
        table by its identity."""
        kept = self._kept.get(id(table))
        if kept is None:
            kept = self._kept[id(table)] = _Kept(table, self.entries)
        return kept

    def peak(self):
        """The largest absolute value of a coefficient of the map, taken
        once."""
        if self._peak is None:
            vecs = self.terms.values()
            self._peak = max(max(map(max, vecs)), -min(map(min, vecs))) if vecs else 0
        return self._peak


def _cross_rows(u, v, table, trunc, s):
    """The source of s * [u, v] for _convolve: each monomial of the view u
    against every monomial of v within trunc of it, its contracted row kept
    in u (KernelView.rows)."""
    if not u.terms or not v.terms:
        return None
    v.upto(trunc - u.low)
    udegs = u.upto(trunc - v.low)[1]
    n = bisect_right(udegs, trunc - v.low)
    rows = [(k1, trunc - d, None) for d, k1, _ in u.entries[:n]]
    return (rows, s, v, u.rows(table)) if rows else None


def _self_rows(y, sym, trunc, s):
    """The source of 2s * [y, y] for _convolve: each monomial through sym
    once, against itself at scale s (sym(u, u) = 2 T(u, u)) and against the
    later ones within trunc of it at 2s, so each unordered pair once; the
    rows are not kept."""
    if not y.terms:
        return None
    ys, degs = y.upto(trunc - y.low)
    n = bisect_right(degs, trunc // 2)
    rows = [(k1, trunc - d, u) for d, k1, u in ys[:n]]
    return (rows, s, y, _Kept(sym, ys)) if rows else None


def _slot_width(sources):
    """W, a multiple of 64 with every accumulated slot below 2^(W-1) in
    absolute value: a slot of one output monomial gets at most one partner
    monomial per row, so at most len(cols) products per row, each at most
    the rows' peak (_Kept.peak) times |scale| times the partner's peak
    (2|s| for a self row)."""
    bound = 0
    for rows, s, v, kept in sources:
        scale = 2 * abs(s) if rows[0][2] is not None else abs(s)
        bound += len(rows) * len(v.cols) * kept.peak(len(rows)) * scale * v.peak()
    return -(-(bound.bit_length() + 1) // 64) * 64


def _convolve(sources, out_dim):
    """The pair loop of bracket_sums.

    A source is (rows, s, v, kept): an integer scale s, the view v paired
    with, rows (k1, lim, own), the key k1 of a monomial and the
    highest total degree lim of a partner, and kept (_Kept) the rows'
    vectors put into a table, bounded and packed.  own is None for a cross
    row, which walks every column of v from its start, or the monomial's
    own sparse vector for a self row (v the same view), which pairs with
    itself at scale s under the key 2 * k1 and walks each column j from
    the count of the earlier rows with a nonzero j-th entry, at 2s.  For
    every generator j the row reaches, the coefficients of column j are
    added under the product keys k1 + k2.

    Returns (out, W): sum s * [u_m1, v_m2] * m1*m2 over every pair as
    {product key: integer}, each integer out_dim signed slots of W bits
    (_slot_width; the coefficient itself for one slot), for _decode.
    """
    if not sources:
        return {}, 0
    W = _slot_width(sources) if out_dim > 1 else 0
    out = defaultdict(int)  # product key -> packed output vector
    for rows, s, v, kept in sources:
        cols = v.cols
        lo = dict.fromkeys(cols, 0) if rows[0][2] is not None else None
        for (k1, lim, own), prow in zip(rows, kept.rows(len(rows), W)):
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
    return out, W


def _decode(out, W, out_dim, g):
    """The accumulator of _convolve as a terms map, every slot divided by g,
    which must divide each: the packed integer is then divided as it
    stands, since it is the sum of its slots times powers of 2^W, and its
    quotient packs the quotients.  Each output vector is decoded once (the
    module docstring) under its key, and every all-zero one dropped."""
    if not out:
        return {}
    if out_dim == 1:
        return {key: (acc // g,) for key, acc in out.items() if acc}
    offset = sum([1 << (W * k + W - 1) for k in range(out_dim)])
    size = W // 8
    nbytes = size * out_dim
    unpack = Struct("<%dq" % out_dim).unpack if W == 64 else None
    res = {}
    for key, acc in out.items():
        if acc:
            raw = ((acc // g + offset) ^ offset).to_bytes(nbytes, "little")
            res[key] = unpack(raw) if unpack else tuple([
                int.from_bytes(raw[i:i + size], "little", signed=True)
                for i in range(0, nbytes, size)])
    return res


def bracket_sums(pairs, squares, trunc, out_dim, den):
    """(den', terms): sum s * B(u, v) over the (u, v, B, s) of pairs plus
    sum s * [y, y] over the (y, sym, s) of squares, in one accumulation, put
    over den and brought to lowest terms, terms / den' (den' > 0, 1 for
    zero), every product monomial above trunc dropped.

    u, v and y are KernelViews keyed in one ring of order at least trunc
    (so a product key within trunc is the sum of two keys), s integer scales
    (the caller puts every bracket over one common denominator with them)
    and den a positive integer.  A pair brings its own Table B: the
    integer table T of its degree pair for [u, v], or symmetric_table(T)
    for [u, v] + [v, u]; a square brings sym = symmetric_table(T).  All
    land in one degree of out_dim coordinates.  A pair is one pass over the
    rows of u, kept in u per table.  A square walks its unordered pairs
    once, in ascending total degree, each monomial against itself at scale
    s (sym(u, u) = 2 T(u, u)) and against the later ones within the
    truncation at 2s.  So a call that walks a square accumulates every
    bracket twice over, its pairs at 2s: the accumulator is the sum over
    f den, f = 2 with a square and 1 without.  The gcd g of f den and the
    packed integers (linalg.common_factor) is a multiple of the slots'
    common factor with f den, and equal to it for one slot, where the
    integer is the coefficient, or when g is f, which divides every slot.
    Then the decode divides by g; otherwise it divides by f, and the
    decoded sum is reduced (linalg.lowest_terms).
    """
    squares = [src for y, sym, s in squares if (src := _self_rows(y, sym, trunc, s))]
    f = 2 if squares else 1
    sources = [src for u, v, table, s in pairs
               if (src := _cross_rows(u, v, table, trunc, f * s))]
    out, W = _convolve(sources + squares, out_dim)
    g = common_factor(f * den, (out.values(),))
    if out_dim == 1 or g == f:
        return f * den // g, _decode(out, W, out_dim, g)
    return lowest_terms(den, _decode(out, W, out_dim, f))


def compile_rows(rows, out_dim):
    """Integer matrix rows (see Conventions) compiled once into one
    function of a coefficient vector v, returning the tuple of the out_dim
    row sums, 0 where no row is given.  Its source names only indices: each
    sum reads c[n] * v[col] from the tuple c of the row entries, an entry
    of 1 or -1 as v[col] or -v[col], so a coefficient is never written out
    as digits; a column named twice in a row is read twice.  A row of
    several entries is the sum of a tuple display, which compiles flat
    however long the row."""
    consts = []
    sums = ["0"] * out_dim
    for r, row in rows:
        parts = []
        for col, c in row:
            if c == 1 or c == -1:
                parts.append("%sv[%d]" % ("-" if c < 0 else "", col))
            else:
                parts.append("c[%d] * v[%d]" % (len(consts), col))
                consts.append(c)
        if parts:
            sums[r] = parts[0] if len(parts) == 1 else "sum((%s))" % ", ".join(parts)
    source = "lambda c: lambda v: (%s)" % "".join([x + ", " for x in sums])
    return eval(source, {"__builtins__": {"sum": sum}})(tuple(consts))


def matvec_terms(terms, rows):
    """Apply matrix rows compiled by compile_rows to the coefficient vector
    of every monomial: one call per monomial, the monomials whose image is
    all zero dropped."""
    outs = list(map(rows, terms.values()))
    return dict(compress(zip(terms, outs), map(any, outs)))
