"""Finite-dimensional differential graded Lie algebras over the rationals.

A DGLA is presented by structure constants on a finite ordered list of graded
generators: a differential d of degree +1 and a bracket of degree 0, given as
  d(g_i)      = sum_j  c_ij g_j
  [g_i, g_j]  = sum_k  c^k_ij g_k .
The constructor stores d and the bracket once each, as integer numerators
over one denominator (the lcm of the reduced denominators), and everything
below reads that store.  validate_dgla checks every axiom (degrees, d
squared, graded antisymmetry, graded Jacobi, graded Leibniz) and reports
violations with witnessing generators instead of raising.  Its cost
scales with the nonzero structure constants: it visits only the generator
pairs and triples that some d or bracket entry touches, and it sums in
integers, Jacobi each cyclic orbit of triples once, since the signed
cyclic sum is the same three terms for all three rotations, and, once
antisymmetry holds, only one of the two cyclic orbits of an unordered
triple.  Only a failing generator, pair or orbit is turned back into
Fractions for its report line.  apply_differential, apply_bracket and
curvature extend the structure constants to FormalElements, with all
series arithmetic truncated at the ring order by _kernels.bracket_convolve,
which walks only the monomial pairs within the order (bucketed by total
degree).  It reads
the elements' kernel views (FormalElement.view) and the integer table of
a degree pair, cut from the bracket store by _integer_table over the
store's denominator D; apply_bracket puts the result over
u.den * v.den * D.  A self-bracket [y, y] goes through
_kernels.self_convolve instead, which walks each unordered monomial pair
once through T + T^t (cached per degree).  _bracket_sums adds several
bracket sums and self-brackets of one degree in one kernel pass over a
common denominator, for the Maurer-Cartan solvers.

Sign conventions (cohomological grading, d of degree +1):
  [x, y] = -(-1)^{|x||y|} [y, x]
  (-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]] = 0
  d[x, y] = [dx, y] + (-1)^{|x|} [x, dy]
"""

from fractions import Fraction
from math import gcd, lcm

from ._kernels import (
    bracket_convolve,
    bracket_sums,
    bracket_vector,
    integer_vector,
    self_convolve,
    symmetric_table,
)
from .formal import FormalElement
from .graded import GradedLinearMap
from .linalg import Matrix, ZERO

HALF = Fraction(1, 2)


def koszul_sign(p, q):
    """(-1)^{pq} for integer degrees p, q."""
    return -1 if (p % 2) and (q % 2) else 1


def antisymmetric_closure(generators, pairs):
    """Extend a partial bracket table by graded antisymmetry.

    generators is the ordered (name, degree) list; pairs maps (name, name) to
    an iterable of (name, coeff).  Each supplied combination is kept as
    given, terms unsummed.  For every supplied pair (x, y) whose reverse is
    absent, [y, x] = -(-1)^{|x||y|}[x, y] is added: the same terms, with
    each coefficient negated unless x and y are both odd.  Only where both
    orders are supplied are the two sides summed and compared, and if they
    disagree with the sign rule ValueError is raised; diagonal pairs are
    left for validate_dgla to judge.
    """
    degree = {name: int(d) for name, d in generators}
    full = {key: tuple(ents) for key, ents in pairs.items()}
    for (x, y), ents in list(full.items()):
        if x == y:
            continue
        if x not in degree or y not in degree:
            raise ValueError("bracket references unknown generator in (%r, %r)" % (x, y))
        if degree[x] % 2 and degree[y] % 2:
            flipped = ents
        else:
            flipped = tuple([(g, -_rational(c)) for g, c in ents])
        given = full.get((y, x))
        if given is None:
            full[(y, x)] = flipped
        elif _summed(given) != _summed(flipped):
            raise ValueError(
                "bracket pair (%s, %s) inconsistent with antisymmetry of (%s, %s)"
                % (y, x, x, y)
            )
    return full


def _rational(c):
    """c itself if it is an int or a Fraction, else Fraction(c)."""
    return c if type(c) is int or type(c) is Fraction else Fraction(c)


def _summed(ents):
    """The (key, coeff) terms summed per key, zero sums dropped."""
    out = {}
    for k, c in ents:
        out[k] = out.get(k, 0) + _rational(c)
    return {k: c for k, c in out.items() if c}


def _linear(combo, images):
    """sum c * images[g] over the (g, c) of combo, as {k: nonzero int}, for
    images {g: ((k, int), ...)} of one store: d, or the bracket keyed by
    generator pairs."""
    out = {}
    for g, c in combo:
        for k, v in images.get(g, ()):
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


class ValidationIssue:
    """One violated axiom with the witnessing generator tuple."""

    __slots__ = ("axiom", "witness", "detail")

    def __init__(self, axiom, witness, detail):
        self.axiom = axiom
        self.witness = tuple(witness)
        self.detail = detail

    def to_data(self):
        return {"axiom": self.axiom, "witness": list(self.witness), "detail": self.detail}

    def __repr__(self):
        return "ValidationIssue(%s at (%s): %s)" % (self.axiom, ", ".join(self.witness), self.detail)


class ValidationReport:
    """Outcome of validate_dgla: empty issue list means every axiom holds."""

    __slots__ = ("name", "issues")

    def __init__(self, name, issues):
        self.name = name
        self.issues = tuple(issues)

    @property
    def ok(self):
        return not self.issues

    def to_data(self):
        return {"valid": self.ok, "issues": [i.to_data() for i in self.issues]}

    def __str__(self):
        if self.ok:
            return "%s: all DGLA axioms hold" % self.name
        lines = ["%s: %d axiom violation(s)" % (self.name, len(self.issues))]
        for i in self.issues:
            lines.append("  %s at (%s): %s" % (i.axiom, ", ".join(i.witness), i.detail))
        return "\n".join(lines)


class DGLA:
    """A DGLA given by structure constants on named graded generators.

    generators: ordered iterable of (name, degree).
    d: map name -> iterable of (name, coeff); omitted generators map to 0.
    bracket: map (name, name) -> iterable of (name, coeff) for ordered pairs;
        omitted pairs are 0.  Use antisymmetric_closure to fill in reversed
        pairs from a minimal table.

    Coefficients are ints, Fractions, or anything Fraction() reads.  The
    constructor is the one place the structure constants become integers
    (_integer_store): d is stored as _d_nums {i: ((j, int), ...)} over one
    denominator _d_den, the bracket as _bracket_nums {(i, j): ((k, int),
    ...)} over _bracket_den, each the lcm of its reduced denominators, the
    terms of an entry summed and sorted by index, and the keys in the order
    given.  Every table, check and accessor reads these two stores.
    """

    def __init__(self, generators, d=None, bracket=None, name="dgla"):
        self.name = str(name)
        gens = []
        index = {}
        for gname, deg in generators:
            gname = str(gname)
            if not gname:
                raise ValueError("empty generator name")
            if gname in index:
                raise ValueError("duplicate generator %r" % gname)
            index[gname] = len(gens)
            gens.append((gname, int(deg)))
        self.generators = tuple(gens)
        self._index = index

        by_degree = {}
        for gi, (_, deg) in enumerate(self.generators):
            by_degree.setdefault(deg, []).append(gi)
        self._by_degree = {deg: tuple(v) for deg, v in by_degree.items()}
        self._pos = {}
        for deg, idxs in self._by_degree.items():
            for pos, gi in enumerate(idxs):
                self._pos[gi] = (deg, pos)
        self.dims = {deg: len(idxs) for deg, idxs in self._by_degree.items()}
        self.degrees = tuple(sorted(self.dims))

        self._d_den, self._d_nums = self._integer_store(d, "differential")
        self._bracket_den, self._bracket_nums = self._integer_store(
            bracket, "bracket", pairs=True)

        self._diff = None
        self._keys_by_pair = None
        self._tables = {}
        self._sym_tables = {}

    def _integer_store(self, combos, where, pairs=False):
        """(D, store) for combos {key: iterable of (name, coeff)}, keyed by
        generator names, or by pairs of them if pairs is set: store maps
        each key, as generator indices, to ((k, int), ...), the terms summed
        per generator index k, zero sums and empty entries dropped, sorted
        by k, with D * combo = sum int g_k and D the lcm of the reduced
        denominators of the sums, so both are canonical for the values.

        The lcm D0 of the coefficients' denominators comes first; then one
        pass resolves every name and sums each combination straight into
        numerators over D0, and a last division by the gcd of D0 and all
        numerators, which only a fractional table can need, brings D0 down
        to D.
        """
        combos = [(key, tuple(ents)) for key, ents in (combos or {}).items()]
        D = lcm(*{_rational(c).denominator for _, ents in combos for _, c in ents
                  if type(c) is not int})
        index = self._index
        store = {}
        for key, ents in combos:
            try:
                key = (index[key[0]], index[key[1]]) if pairs else index[key]
            except KeyError:
                key = ((self._lookup(key[0], where), self._lookup(key[1], where))
                       if pairs else self._lookup(key, where))
            acc = {}
            for name, c in ents:
                k = index.get(name)
                if k is None:
                    k = self._lookup(name, where)
                if type(c) is int:
                    c *= D
                else:
                    c = _rational(c)
                    c = c.numerator * (D // c.denominator)
                acc[k] = acc.get(k, 0) + c
            combo = tuple(sorted([t for t in acc.items() if t[1]]))
            if combo:
                store[key] = combo
        if D > 1:
            g = gcd(D, *[n for combo in store.values() for _, n in combo])
            if g > 1:
                D //= g
                store = {key: tuple([(k, n // g) for k, n in combo])
                         for key, combo in store.items()}
        return D, store

    def _lookup(self, name, where):
        gi = self._index.get(str(name))
        if gi is None:
            raise ValueError("unknown generator %r in %s" % (name, where))
        return gi

    # introspection

    def dim(self, degree):
        return self.dims.get(degree, 0)

    def degree_of(self, name):
        return self.generators[self._lookup(name, "lookup")][1]

    def basis_names(self, degree):
        return tuple(self.generators[gi][0] for gi in self._by_degree.get(degree, ()))

    def basis_position(self, name):
        """(degree, position within that degree) of a generator."""
        return self._pos[self._lookup(name, "lookup")]

    def differential_of(self, name):
        """d(generator) as a tuple of (name, coeff), in declaration order."""
        D = self._d_den
        return tuple((self.generators[gj][0], Fraction(n, D))
                     for gj, n in self._d_nums.get(self._lookup(name, "lookup"), ()))

    def bracket_of(self, xname, yname):
        """[x, y] as a tuple of (name, coeff), in declaration order."""
        key = (self._lookup(xname, "lookup"), self._lookup(yname, "lookup"))
        D = self._bracket_den
        return tuple((self.generators[gk][0], Fraction(n, D))
                     for gk, n in self._bracket_nums.get(key, ()))

    def bracket_pairs(self):
        """Ordered generator-name pairs with a nonzero bracket."""
        return tuple(
            (self.generators[i][0], self.generators[j][0])
            for i, j in sorted(self._bracket_nums)
        )

    def __eq__(self, other):
        """Structural equality: same generators and structure constants."""
        if not isinstance(other, DGLA):
            return NotImplemented
        return (
            self.generators == other.generators
            and (self._d_den, self._d_nums) == (other._d_den, other._d_nums)
            and (self._bracket_den, self._bracket_nums)
            == (other._bracket_den, other._bracket_nums)
        )

    def __repr__(self):
        dims = ", ".join("g^%d:%d" % (d, self.dims[d]) for d in self.degrees)
        return "DGLA(%s; %s)" % (self.name, dims or "zero")

    # structure maps

    @property
    def differential(self):
        """d as a GradedLinearMap of degree +1 (raises if degrees are off)."""
        if self._diff is None:
            entries = {}
            for gi, ents in self._d_nums.items():
                sdeg, spos = self._pos[gi]
                for gj, n in ents:
                    tdeg, tpos = self._pos[gj]
                    if tdeg != sdeg + 1:
                        raise ValueError(
                            "differential of %s is not homogeneous of degree +1; "
                            "run validate_dgla" % self.generators[gi][0]
                        )
                    entries.setdefault((sdeg, tdeg), {})[(tpos, spos)] = n
            blocks = {
                key: Matrix.from_integers(self.dims[key[1]], self.dims[key[0]],
                                          self._d_den, nums)
                for key, nums in entries.items()
            }
            self._diff = GradedLinearMap(self.dims, self.dims, blocks)
        return self._diff

    def _integer_table(self, p, q):
        """(D, T): the bracket store cut to g^p x g^q -> g^{p+q}, over its
        one denominator D, in degree-local positions, as _kernels reads it:
        T sends i to {j: ((k, int), ...)} with D [e_i, e_j] = sum int e_k.

        The first call buckets every stored key by its degree pair in one
        pass; each table is then cut from its own bucket, in key order, once.
        A key that leaves degree p + q makes its own table raise, on every
        call, and no other.
        """
        table = self._tables.get((p, q))
        if table is None:
            pos = self._pos
            if self._keys_by_pair is None:
                keys = self._keys_by_pair = {}
                for gi, gj in self._bracket_nums:
                    keys.setdefault((pos[gi][0], pos[gj][0]), []).append((gi, gj))
            table = {}
            for gi, gj in self._keys_by_pair.get((p, q), ()):
                ents = []
                for gk, n in self._bracket_nums[(gi, gj)]:
                    deg, k = pos[gk]
                    if deg != p + q:
                        raise ValueError(
                            "bracket [%s, %s] does not preserve total degree; "
                            "run validate_dgla"
                            % (self.generators[gi][0], self.generators[gj][0]))
                    ents.append((k, n))
                table.setdefault(pos[gi][1], {})[pos[gj][1]] = tuple(ents)
            self._tables[(p, q)] = table
        return self._bracket_den, table

    def _symmetric_table(self, p):
        """(D, _integer_table(p, p)[1] plus its transpose), over the same D;
        cached per degree."""
        sym = self._sym_tables.get(p)
        if sym is None:
            sym = self._sym_tables[p] = symmetric_table(self._integer_table(p, p)[1])
        return self._bracket_den, sym

    # action on formal elements

    def generator_element(self, ring, name, mono=None, coeff=1):
        """coeff * (generator) * mono as a FormalElement.

        mono defaults to the single variable of a one-variable ring.
        """
        deg, pos = self.basis_position(name)
        if mono is None:
            if ring.nvars != 1:
                raise ValueError("mono is required for multivariate rings")
            mono = (1,)
        return FormalElement.single(ring, deg, self.dim(deg), mono, pos, coeff)

    def apply_differential(self, v):
        """d extended coefficient-wise to a FormalElement."""
        if self.dim(v.degree) != v.dim:
            raise ValueError("element dimension does not match g^%d" % v.degree)
        return self.differential.apply_element(v, 1)

    def apply_bracket(self, u, v):
        """[u, v], the bilinear extension over monomials, truncated.

        A self-bracket (u is v) walks each unordered monomial pair once
        (_kernels.self_convolve); the result is the same exact element.
        Both kernels read the elements' kernel views and put the result over
        u.den * v.den * Dt, Dt the denominator of the bracket store.
        """
        self._check_elements((u, v), u.ring)
        out_deg = u.degree + v.degree
        out_dim = self.dim(out_deg)
        if out_dim and u.nums and v.nums:
            trunc = u.ring.order
            if u is v:
                Dt, sym = self._symmetric_table(u.degree)
                nums = sym and self_convolve(u.view(), sym, trunc, out_dim)
            else:
                Dt, table = self._integer_table(u.degree, v.degree)
                nums = table and bracket_convolve(u.view(), v.view(), table,
                                                  trunc, out_dim)
            if nums:
                return FormalElement.from_integers(
                    u.ring, out_deg, out_dim, u.den * v.den * Dt, nums)
        return FormalElement.zero(u.ring, out_deg, out_dim)

    def _bracket_sums(self, ring, degree, pairs, squares):
        """sum ([u, v] + [v, u]) over the (u, v) of pairs plus sum [y, y]
        over the y of squares, for elements of one degree over ring.

        One kernel pass (_kernels.bracket_sums) adds every bracket into one
        integer accumulator, over the common denominator D * Dt with D the
        lcm of the u.den * v.den and y.den ** 2: each bracket is scaled by
        D over its own denominator.  Nothing assumes antisymmetry.
        """
        elems = [e for pair in pairs for e in pair] + list(squares)
        if any(e.degree != degree for e in elems):
            raise ValueError("the bracket sums need elements of degree %d" % degree)
        self._check_elements(elems, ring)
        pairs = [(u, v) for u, v in pairs if u.nums and v.nums]
        squares = [y for y in squares if y.nums]
        out_deg = 2 * degree
        out_dim = self.dim(out_deg)
        if out_dim and (pairs or squares):
            Dt, sym = self._symmetric_table(degree)
            if sym:
                D = lcm(*[u.den * v.den for u, v in pairs],
                        *[y.den ** 2 for y in squares])
                nums = bracket_sums(
                    [(u.view(), v.view(), D // (u.den * v.den)) for u, v in pairs],
                    [(y.view(), D // y.den ** 2) for y in squares],
                    sym, ring.order, out_dim)
                return FormalElement.from_integers(ring, out_deg, out_dim,
                                                   D * Dt, nums)
        return FormalElement.zero(ring, out_deg, out_dim)

    def _check_elements(self, elems, ring):
        """Every element over ring, with the dimension of its degree."""
        if any(e.ring != ring for e in elems):
            raise ValueError("ring mismatch")
        if any(self.dim(e.degree) != e.dim for e in elems):
            raise ValueError("element dimension does not match its degree")

    def curvature(self, A):
        """dA + 1/2 [A, A] for a degree 1 element."""
        if A.degree != 1:
            raise ValueError("curvature is defined on degree 1 elements")
        return self.apply_differential(A) + self.apply_bracket(A, A).scale(HALF)

    def bracket_vectors(self, p, u, q, v):
        """[u, v] for plain coefficient vectors u in g^p, v in g^q, exactly.

        u and v are scaled to integers and bracketed through the integer
        table (_kernels.bracket_vector); the result is divided once.
        """
        out_dim = self.dim(p + q)
        if not out_dim:
            return ()
        Dt, table = self._integer_table(p, q)
        Du, ui = integer_vector(u)
        Dv, vi = integer_vector(v)
        den = Du * Dv * Dt
        return tuple([Fraction(c, den) if c else ZERO
                      for c in bracket_vector(ui, vi, table, out_dim)])

    def _combo_str(self, combo, den):
        """The integer combination {generator index: int} over den, as the
        report writes it."""
        if not combo:
            return "0"
        parts = []
        for gi in sorted(combo):
            c = Fraction(combo[gi], den)
            nm = self.generators[gi][0]
            if c == 1:
                parts.append(nm)
            elif c == -1:
                parts.append("-%s" % nm)
            else:
                parts.append("%s*%s" % (c, nm))
        return " + ".join(parts).replace("+ -", "- ")


def validate_dgla(L):
    """Check every DGLA axiom on generators; violations become report issues.

    Work follows the nonzero structure constants: antisymmetry, Leibniz and
    Jacobi visit only the generator tuples some bracket or d entry touches,
    since every other tuple gives 0 = 0.  Every check reads the integer
    stores of L (d over Dd, the bracket over D) and sums in integers; only a
    failing generator, pair or orbit is rendered as Fractions for its
    report line.  Jacobi sums each cyclic orbit of triples once, and only
    one orbit per unordered triple if the antisymmetry check found no
    issue.  Issues come out in the order of a plain sweep over all pairs
    and ordered triples.
    """
    issues = []
    gens = L.generators
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]
    d, Dd = L._d_nums, L._d_den
    bracket = L._bracket_nums

    for gi, ents in sorted(d.items()):
        for gj, _ in ents:
            if degs[gj] != degs[gi] + 1:
                issues.append(ValidationIssue(
                    "differential-degree",
                    (names[gi],),
                    "d(%s) hits %s of degree %d, expected degree %d"
                    % (names[gi], names[gj], degs[gj], degs[gi] + 1),
                ))

    for gi, ents in sorted(d.items()):
        dd = _linear(ents, d)
        if dd:
            issues.append(ValidationIssue(
                "differential-squared",
                (names[gi],),
                "d(d(%s)) = %s, expected 0" % (names[gi], L._combo_str(dd, Dd * Dd)),
            ))

    for (gi, gj), ents in sorted(bracket.items()):
        want = degs[gi] + degs[gj]
        for gk, _ in ents:
            if degs[gk] != want:
                issues.append(ValidationIssue(
                    "bracket-degree",
                    (names[gi], names[gj]),
                    "bracket degree violation at (%s, %s): hits %s of degree %d, "
                    "expected degree %d" % (names[gi], names[gj], names[gk], degs[gk], want),
                ))

    rows = [[] for _ in gens]
    for (gx, gy), ents in bracket.items():
        rows[gx].append((gy, ents))
    antisymmetric = _check_antisymmetry(L, names, degs, issues)
    _check_leibniz(L, names, degs, rows, issues)
    _check_jacobi(L, names, degs, rows, issues, antisymmetric)
    return ValidationReport(L.name, issues)


def _check_antisymmetry(L, names, degs, issues):
    """[x, y] = -(-1)^{|x||y|}[y, x] on pairs x <= y with a bracket entry,
    compared on the stored integer entries, which are sorted by index.
    True if every pair holds."""
    bracket, D = L._bracket_nums, L._bracket_den
    held = True
    for gi, gj in sorted({(i, j) if i <= j else (j, i) for i, j in bracket}):
        s = -koszul_sign(degs[gi], degs[gj])
        lhs = bracket.get((gi, gj), ())
        rhs = tuple([(k, s * v) for k, v in bracket.get((gj, gi), ())])
        if lhs != rhs:
            held = False
            issues.append(ValidationIssue(
                "antisymmetry",
                (names[gi], names[gj]),
                "[%s, %s] = %s but -(-1)^{|x||y|}[%s, %s] = %s"
                % (names[gi], names[gj], L._combo_str(dict(lhs), D),
                   names[gj], names[gi], L._combo_str(dict(rhs), D)),
            ))
    return held


def _check_leibniz(L, names, degs, rows, issues):
    """d[x, y] = [dx, y] + (-1)^{|x|}[x, dy] on every pair, in integers.

    d is stored over Dd and the bracket over D, so each term, one d entry
    times one bracket entry, is an integer multiple of 1/(Dd D).  Per x,
    one (y, m) -> int accumulator takes d[x, y] - [dx, y] - (-1)^{|x|}[x, dy]
    from its three sources: the keys (x, y) put through d (rows[x]), the
    keys (k, y) with k in supp dx, and the keys (x, k) with k in supp dy
    (d_inverse maps k to those y).  A pair fails exactly when some m is
    left nonzero; only those pairs are summed again, side by side, for the
    report.
    """
    d, bracket = L._d_nums, L._bracket_nums
    d_inverse = {}
    for gi, ents in d.items():
        for gk, e in ents:
            d_inverse.setdefault(gk, []).append((gi, e))

    den = L._d_den * L._bracket_den
    for gx, row in enumerate(rows):
        acc = {}
        s = 1 if degs[gx] % 2 == 0 else -1
        for gk, ents in row:            # the key (x, k)
            for gj, c in ents:          # d[x, k]
                for m, e in d.get(gj, ()):
                    key = (gk, m)
                    acc[key] = acc.get(key, 0) + c * e
            for gy, e in d_inverse.get(gk, ()):  # -(-1)^{|x|}[x, dy], k in supp dy
                f = -s * e
                for m, c in ents:
                    key = (gy, m)
                    acc[key] = acc.get(key, 0) + f * c
        for gk, e in d.get(gx, ()):     # -[dx, y] through the keys (k, y)
            for gy, ents in rows[gk]:
                for m, c in ents:
                    key = (gy, m)
                    acc[key] = acc.get(key, 0) - e * c

        for gy in sorted({y for (y, _), t in acc.items() if t}):
            lhs = _linear(bracket.get((gx, gy), ()), d)
            rhs = _linear([((gk, gy), e) for gk, e in d.get(gx, ())]
                          + [((gx, gk), s * e) for gk, e in d.get(gy, ())], bracket)
            issues.append(ValidationIssue(
                "leibniz",
                (names[gx], names[gy]),
                "d[%s, %s] = %s but [dx, y] + (-1)^{|x|}[x, dy] = %s"
                % (names[gx], names[gy], L._combo_str(lhs, den),
                   L._combo_str(rhs, den)),
            ))


def _check_jacobi(L, names, degs, rows, issues, antisymmetric):
    """Graded Jacobi on every ordered triple (a, b, c) a nonzero term touches.

    The Koszul-signed sum
        J(a, b, c) = s(a,c)[a,[b,c]] + s(b,a)[b,[c,a]] + s(c,b)[c,[a,b]]
    is the same three terms for (a, b, c), (b, c, a) and (c, a, b), with no
    use of antisymmetry, so each cyclic orbit is summed once, at the
    rotation that is lexicographically least; it starts with a = min(a, b,
    c).  If antisymmetry holds on every pair, turning the three inner
    brackets around gives
        J(a, c, b) = -(-1)^{|a||b|+|b||c|+|c||a|} J(a, b, c),
    so of the two cyclic orbits of an unordered triple only the one with
    b <= c is summed, and where a < b < c a failure is also reported on the
    mirrored orbit (a, c, b), with that signed total (for b = c, or a = b,
    the two orbits are one).  If antisymmetry fails anywhere, every orbit
    is summed; the walk is the same, only the b <= c filter is off.

    The sweep runs a from the last generator down and grows two indexes of
    the stored bracket (rows[x] lists the keys (x, y)) to hold only keys
    whose generators are >= a: cols_ge[k] the keys (x, k) with x >= a, in
    decreasing x, and hits[k] the keys (b, c) with b, c >= a (and b <= c
    under the filter) whose bracket has a k component.  Each term (a
    product of two stored entries) is an integer multiple of 1/D^2,
    accumulated per a into a (b, c, m) -> int map, so a triple fails
    exactly when its integer total is nonzero.  A failing orbit reports
    each distinct rotation with the same sum, and the issues are sorted
    back into plain-sweep order.
    """
    n = len(names)
    odd = [deg % 2 == 1 for deg in degs]
    cols_ge = [[] for _ in range(n)]
    hits = [[] for _ in range(n)]
    D2 = L._bracket_den ** 2
    failing = []

    for a in range(n - 1, -1, -1):
        for y, ents in rows[a]:
            cols_ge[y].append((a, ents))
            if y >= a:
                for k, v in ents:
                    hits[k].append((a, y, v))
        if not antisymmetric:
            for x, ents in cols_ge[a]:
                if x > a:
                    for k, v in ents:
                        hits[k].append((x, a, v))

        acc = {}
        # s(a,c)[a,[b,c]]: [b,c] hits k, then outer = [a,k]
        for k, outer in rows[a]:
            for b, c, ck in hits[k]:
                f = -ck if odd[a] and odd[c] else ck
                for m, v in outer:
                    key = (b, c, m)
                    acc[key] = acc.get(key, 0) + f * v
        # s(b,a)[b,[c,a]]: inner = [c,a] hits k, then outer = [b,k], b rising
        for c, inner in cols_ge[a]:
            for k, ck in inner:
                for b, outer in reversed(cols_ge[k]):
                    if antisymmetric and b > c:
                        break
                    f = -ck if odd[b] and odd[a] else ck
                    for m, v in outer:
                        key = (b, c, m)
                        acc[key] = acc.get(key, 0) + f * v
        # s(c,b)[c,[a,b]]: inner = [a,b] hits k, then outer = [c,k], c falling
        for b, inner in rows[a]:
            if b < a:
                continue
            for k, ck in inner:
                for c, outer in cols_ge[k]:
                    if antisymmetric and c < b:
                        break
                    f = -ck if odd[c] and odd[b] else ck
                    for m, v in outer:
                        key = (b, c, m)
                        acc[key] = acc.get(key, 0) + f * v

        sums = {}
        for (b, c, m), t in acc.items():
            # (a, b, a) with b > a is the rotation of (a, a, b)
            if t and (c != a or b == a):
                sums.setdefault((b, c), {})[m] = t
        for (b, c), total in sums.items():
            orbits = [((a, b, c), total)]
            if antisymmetric and a < b < c:
                # -(-1)^{|a||b|+|b||c|+|c||a|} is +1 iff two or three are odd
                if odd[a] + odd[b] + odd[c] < 2:
                    total = {m: -t for m, t in total.items()}
                orbits.append(((a, c, b), total))
            for (x, y, z), total in orbits:
                detail = "graded Jacobi sum = %s, expected 0" % L._combo_str(total, D2)
                for triple in {(x, y, z), (y, z, x), (z, x, y)}:
                    failing.append((triple, detail))

    failing.sort()
    for (a, b, c), detail in failing:
        issues.append(ValidationIssue("jacobi", (names[a], names[b], names[c]), detail))
