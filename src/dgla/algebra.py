"""Finite-dimensional differential graded Lie algebras over the rationals.

A DGLA is presented by structure constants on a finite ordered list of graded
generators: a differential d of degree +1 and a bracket of degree 0, given as
  d(g_i)      = sum_j  c_ij g_j
  [g_i, g_j]  = sum_k  c^k_ij g_k .
validate_dgla checks every axiom (degrees, d squared, graded antisymmetry,
graded Jacobi, graded Leibniz) and reports violations with witnessing
generators instead of raising.  Its cost scales with the nonzero structure
constants: it visits only the generator pairs and triples that some d or
bracket entry touches.  It stays exact and Fraction-free where the work
is: one index of the bracket table scaled by the lcm of its denominators
serves antisymmetry (the integers of (x, y) against those of (y, x)),
Leibniz (one integer accumulator, with d scaled the same way) and
Jacobi, which sums each cyclic orbit of triples once, since the signed
cyclic sum is the same three terms for all three rotations.  Only a
failing pair or orbit is turned back into Fractions for its report line.
apply_differential, apply_bracket and
curvature extend the structure constants to FormalElements, with all series
arithmetic truncated at the ring order by _kernels.bracket_convolve, which
walks only the monomial pairs within the order (bucketed by total degree).
It reads the elements' kernel views (FormalElement.view) and the bracket
table scaled by the lcm Dt of its denominators (cached per degree pair
beside the Fraction table, each built from its own bucket of bracket
keys); apply_bracket puts the result over u.den * v.den * Dt.  A
self-bracket [y, y] goes through _kernels.self_convolve instead, which
walks each unordered monomial pair once through T + T^t (cached beside T).
_bracket_sums adds several bracket sums and self-brackets of one degree
in one kernel pass over a common denominator, for the Maurer-Cartan
solvers.

Sign conventions (cohomological grading, d of degree +1):
  [x, y] = -(-1)^{|x||y|} [y, x]
  (-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]] = 0
  d[x, y] = [dx, y] + (-1)^{|x|} [x, dy]
"""

from fractions import Fraction
from math import lcm

from ._kernels import (
    bracket_convolve,
    bracket_sums,
    bracket_vector,
    integer_table,
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
    an iterable of (name, coeff).  For every supplied pair (x, y) whose
    reverse is absent, [y, x] = -(-1)^{|x||y|}[x, y] is added.  If both orders
    are supplied and disagree with the sign rule, ValueError is raised;
    diagonal pairs are left for validate_dgla to judge.
    """
    degree = {name: int(d) for name, d in generators}
    full = {}
    for (x, y), ents in pairs.items():
        full[(x, y)] = tuple((g, c if type(c) is Fraction else Fraction(c))
                             for g, c in ents)
    for (x, y), ents in list(full.items()):
        if x == y:
            continue
        if x not in degree or y not in degree:
            raise ValueError("bracket references unknown generator in (%r, %r)" % (x, y))
        s = -koszul_sign(degree[x], degree[y])
        flipped = _summed((g, s * c) for g, c in ents)
        if (y, x) in full:
            given = _summed(full[(y, x)])
            if given != flipped:
                raise ValueError(
                    "bracket pair (%s, %s) inconsistent with antisymmetry of (%s, %s)"
                    % (y, x, x, y)
                )
        else:
            full[(y, x)] = tuple(sorted(flipped.items()))
    return full


def _summed(ents):
    """The (key, Fraction) terms summed per key, zero sums dropped.  A key
    seen once keeps its term as given; only a repeat is added."""
    out = {}
    for k, c in ents:
        prev = out.get(k)
        out[k] = c if prev is None else prev + c
    return {k: c for k, c in out.items() if c}


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

        self._d = {}
        for gname, ents in (d or {}).items():
            gi = self._lookup(gname, "differential")
            combo = self._combo_from(ents, "differential")
            if combo:
                self._d[gi] = combo

        self._bracket = {}
        for (xname, yname), ents in (bracket or {}).items():
            gi = self._lookup(xname, "bracket")
            gj = self._lookup(yname, "bracket")
            combo = self._combo_from(ents, "bracket")
            if combo:
                self._bracket[(gi, gj)] = combo

        self._diff = None
        self._tables = {}
        self._pair_keys = None
        self._int_tables = {}

    def _combo_from(self, ents, where):
        """(name, coeff) entries as {generator index: nonzero Fraction}."""
        terms = []
        for tname, c in ents:
            gk = self._lookup(tname, where)
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                terms.append((gk, c))
        return _summed(terms)

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
        combo = self._d.get(self._lookup(name, "lookup"), {})
        return tuple((self.generators[gj][0], c) for gj, c in sorted(combo.items()))

    def bracket_of(self, xname, yname):
        """[x, y] as a tuple of (name, coeff), in declaration order."""
        key = (self._lookup(xname, "lookup"), self._lookup(yname, "lookup"))
        combo = self._bracket.get(key, {})
        return tuple((self.generators[gk][0], c) for gk, c in sorted(combo.items()))

    def bracket_pairs(self):
        """Ordered generator-name pairs with a nonzero bracket."""
        return tuple(
            (self.generators[i][0], self.generators[j][0])
            for i, j in sorted(self._bracket)
        )

    def __eq__(self, other):
        """Structural equality: same generators and structure constants."""
        if not isinstance(other, DGLA):
            return NotImplemented
        return (
            self.generators == other.generators
            and self._d == other._d
            and self._bracket == other._bracket
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
            for gi, combo in self._d.items():
                sdeg, spos = self._pos[gi]
                for gj, c in combo.items():
                    tdeg, tpos = self._pos[gj]
                    if tdeg != sdeg + 1:
                        raise ValueError(
                            "differential of %s is not homogeneous of degree +1; "
                            "run validate_dgla" % self.generators[gi][0]
                        )
                    entries.setdefault((sdeg, tdeg), {})[(tpos, spos)] = c
            blocks = {
                key: Matrix(self.dims[key[1]], self.dims[key[0]], ents)
                for key, ents in entries.items()
            }
            self._diff = GradedLinearMap(self.dims, self.dims, blocks)
        return self._diff

    def bracket_table(self, p, q):
        """Structure table for g^p x g^q -> g^{p+q} in degree-local positions.

        The first call buckets every bracket key by its degree pair in one
        pass; each table is then built from its own bucket, once.
        """
        key = (p, q)
        table = self._tables.get(key)
        if table is None:
            if self._pair_keys is None:
                self._pair_keys = {}
                for ij in self._bracket:
                    pair = (self._pos[ij[0]][0], self._pos[ij[1]][0])
                    self._pair_keys.setdefault(pair, []).append(ij)
            table = {}
            for gi, gj in self._pair_keys.get(key, ()):
                ents = []
                for gk, c in sorted(self._bracket[(gi, gj)].items()):
                    tdeg, tpos = self._pos[gk]
                    if tdeg != p + q:
                        raise ValueError(
                            "bracket [%s, %s] does not preserve total degree; "
                            "run validate_dgla"
                            % (self.generators[gi][0], self.generators[gj][0])
                        )
                    ents.append((tpos, c))
                table[(self._pos[gi][1], self._pos[gj][1])] = tuple(ents)
            self._tables[key] = table
        return table

    def _integer_table(self, p, q):
        """(Dt, bracket_table(p, q) scaled by Dt to integers), as
        _kernels.bracket_convolve reads it; Dt is the lcm of its
        denominators."""
        key = (p, q)
        scaled = self._int_tables.get(key)
        if scaled is None:
            scaled = self._int_tables[key] = integer_table(self.bracket_table(p, q))
        return scaled

    def _symmetric_table(self, p):
        """(Dt, _integer_table(p, p)[1] plus its transpose), over the same
        Dt; cached in _int_tables beside it, under the key ("sym", p)."""
        key = ("sym", p)
        sym = self._int_tables.get(key)
        if sym is None:
            Dt, table = self._integer_table(p, p)
            sym = self._int_tables[key] = (Dt, symmetric_table(table))
        return sym

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
        u.den * v.den * Dt.
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

    # axiom checking (combination arithmetic over global generator indices)

    def _d_combo(self, combo):
        out = {}
        for gi, c in combo.items():
            for gj, v in self._d.get(gi, {}).items():
                out[gj] = out.get(gj, ZERO) + c * v
        return {k: v for k, v in out.items() if v}

    def _bracket_combo(self, a, b):
        out = {}
        for gi, ca in a.items():
            for gj, cb in b.items():
                ents = self._bracket.get((gi, gj))
                if not ents:
                    continue
                f = ca * cb
                for gk, v in ents.items():
                    out[gk] = out.get(gk, ZERO) + f * v
        return {k: v for k, v in out.items() if v}

    def _combo_str(self, combo):
        if not combo:
            return "0"
        parts = []
        for gi in sorted(combo):
            c = combo[gi]
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
    since every other tuple gives 0 = 0.  Antisymmetry, Leibniz and Jacobi
    run on integers, through one index of the bracket table scaled by the lcm of
    its denominators (_integer_index), and only a failing tuple is turned
    back into Fractions for its report line.  Jacobi sums each cyclic orbit
    of triples once.  Issues come out in the order of a plain sweep over all
    pairs and ordered triples.
    """
    issues = []
    gens = L.generators
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]

    for gi, combo in sorted(L._d.items()):
        for gj in sorted(combo):
            if degs[gj] != degs[gi] + 1:
                issues.append(ValidationIssue(
                    "differential-degree",
                    (names[gi],),
                    "d(%s) hits %s of degree %d, expected degree %d"
                    % (names[gi], names[gj], degs[gj], degs[gi] + 1),
                ))

    for gi in range(len(gens)):
        dd = L._d_combo(L._d_combo({gi: Fraction(1)}))
        if dd:
            issues.append(ValidationIssue(
                "differential-squared",
                (names[gi],),
                "d(d(%s)) = %s, expected 0" % (names[gi], L._combo_str(dd)),
            ))

    for (gi, gj), combo in sorted(L._bracket.items()):
        want = degs[gi] + degs[gj]
        for gk in sorted(combo):
            if degs[gk] != want:
                issues.append(ValidationIssue(
                    "bracket-degree",
                    (names[gi], names[gj]),
                    "bracket degree violation at (%s, %s): hits %s of degree %d, "
                    "expected degree %d" % (names[gi], names[gj], names[gk], degs[gk], want),
                ))

    index = _integer_index(L)
    _check_antisymmetry(L, names, degs, index, issues)
    _check_leibniz(L, names, degs, index, issues)
    _check_jacobi(L, names, degs, index, issues)
    return ValidationReport(L.name, issues)


def _integer_index(L):
    """(D, rows): the bracket table scaled by the lcm D of its denominators,
    over global generator indices.  rows[x] lists (y, ents) for each key
    (x, y), where ents is ((k, int), ...) with D [x, y] = sum int g_k."""
    bracket = L._bracket
    D = lcm(*{v.denominator for combo in bracket.values() for v in combo.values()})
    rows = [[] for _ in L.generators]
    for (gx, gy), combo in bracket.items():
        rows[gx].append((gy, tuple([(gk, v.numerator * (D // v.denominator))
                                    for gk, v in combo.items()])))
    return D, rows


def _check_antisymmetry(L, names, degs, index, issues):
    """[x, y] = -(-1)^{|x||y|}[y, x] on pairs x <= y with a bracket entry,
    compared on the integer entries of index (one scale for the whole
    table); only a failing pair is rebuilt in Fractions for its report."""
    keyed = {(gx, gy): dict(ents) for gx, row in enumerate(index[1]) for gy, ents in row}
    bracket = L._bracket
    for gi, gj in sorted({(i, j) if i <= j else (j, i) for i, j in keyed}):
        s = -koszul_sign(degs[gi], degs[gj])
        if keyed.get((gi, gj), {}) != {k: s * v for k, v in keyed.get((gj, gi), {}).items()}:
            lhs = bracket.get((gi, gj), {})
            rhs = {k: s * v for k, v in bracket.get((gj, gi), {}).items()}
            issues.append(ValidationIssue(
                "antisymmetry",
                (names[gi], names[gj]),
                "[%s, %s] = %s but -(-1)^{|x||y|}[%s, %s] = %s"
                % (names[gi], names[gj], L._combo_str(lhs),
                   names[gj], names[gi], L._combo_str(rhs)),
            ))


def _check_leibniz(L, names, degs, index, issues):
    """d[x, y] = [dx, y] + (-1)^{|x|}[x, dy] on every pair, in integers.

    d is scaled by the lcm Dd of its denominators and the bracket by its
    own D (index), so each term, one d entry times one bracket entry, is an
    integer multiple of 1/(Dd D).  Per x, one (y, m) -> int accumulator
    takes d[x, y] - [dx, y] - (-1)^{|x|}[x, dy] from its three sources:
    the keys (x, y) put through d, the keys (k, y) with k in supp dx, and
    the keys (x, k) with k in supp dy (d_inverse maps k to those y).  A
    pair fails exactly when some m is left nonzero; only those pairs are
    rebuilt as Fraction combinations for the report.
    """
    _, rows = index
    Dd = lcm(*{v.denominator for combo in L._d.values() for v in combo.values()})
    d = {}
    d_inverse = {}
    for gi, combo in L._d.items():
        ents = d[gi] = tuple([(gj, v.numerator * (Dd // v.denominator))
                              for gj, v in combo.items()])
        for gk, e in ents:
            d_inverse.setdefault(gk, []).append((gi, e))

    bracket = L._bracket
    one = Fraction(1)
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
            lhs = L._d_combo(bracket.get((gx, gy), {}))
            rhs = L._bracket_combo(L._d.get(gx, {}), {gy: one})
            for gk, v in L._bracket_combo({gx: one}, L._d.get(gy, {})).items():
                rhs[gk] = rhs.get(gk, ZERO) + s * v
            rhs = {k: v for k, v in rhs.items() if v}
            issues.append(ValidationIssue(
                "leibniz",
                (names[gx], names[gy]),
                "d[%s, %s] = %s but [dx, y] + (-1)^{|x|}[x, dy] = %s"
                % (names[gx], names[gy], L._combo_str(lhs), L._combo_str(rhs)),
            ))


def _check_jacobi(L, names, degs, index, issues):
    """Graded Jacobi on every ordered triple (a, b, c) a nonzero term touches.

    The Koszul-signed sum
        J(a, b, c) = s(a,c)[a,[b,c]] + s(b,a)[b,[c,a]] + s(c,b)[c,[a,b]]
    is the same three terms for (a, b, c), (b, c, a) and (c, a, b), with no
    use of antisymmetry, so each cyclic orbit is summed once, at the
    rotation that is lexicographically least; it starts with a = min(a, b,
    c).  The sweep runs a from the last generator down and grows two
    indexes of the table (D, rows from index) to hold only keys whose
    generators are >= a: cols_ge[k] the keys (x, k) with x >= a, and hits[k]
    the keys (b, c) with b, c >= a whose bracket has a k component.  Each
    term (a product of two scaled entries) is an integer multiple of 1/D^2,
    accumulated per a into a (b, c, m) -> int map, so a triple fails
    exactly when its integer total is nonzero.  A failing orbit reports each
    distinct rotation with the same sum, and the issues are sorted back
    into plain-sweep order.
    """
    D, rows = index
    n = len(names)
    odd = [deg % 2 == 1 for deg in degs]
    cols_ge = [[] for _ in range(n)]
    hits = [[] for _ in range(n)]
    D2 = D * D
    failing = []

    for a in range(n - 1, -1, -1):
        for y, ents in rows[a]:
            cols_ge[y].append((a, ents))
            if y >= a:
                for k, v in ents:
                    hits[k].append((a, y, v))
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
        # s(b,a)[b,[c,a]]: inner = [c,a] hits k, then outer = [b,k]
        for c, inner in cols_ge[a]:
            for k, ck in inner:
                for b, outer in cols_ge[k]:
                    f = -ck if odd[b] and odd[a] else ck
                    for m, v in outer:
                        key = (b, c, m)
                        acc[key] = acc.get(key, 0) + f * v
        # s(c,b)[c,[a,b]]: inner = [a,b] hits k, then outer = [c,k]
        for b, inner in rows[a]:
            if b < a:
                continue
            for k, ck in inner:
                for c, outer in cols_ge[k]:
                    f = -ck if odd[c] and odd[b] else ck
                    for m, v in outer:
                        key = (b, c, m)
                        acc[key] = acc.get(key, 0) + f * v

        sums = {}
        for (b, c, m), t in acc.items():
            # (a, b, a) with b > a is the rotation of (a, a, b)
            if t and (c != a or b == a):
                sums.setdefault((b, c), {})[m] = Fraction(t, D2)
        for (b, c), total in sums.items():
            detail = "graded Jacobi sum = %s, expected 0" % L._combo_str(total)
            for triple in {(a, b, c), (b, c, a), (c, a, b)}:
                failing.append((triple, detail))

    failing.sort()
    for (a, b, c), detail in failing:
        issues.append(ValidationIssue("jacobi", (names[a], names[b], names[c]), detail))
