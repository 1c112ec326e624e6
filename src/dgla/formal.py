"""Truncated formal power series coefficients over exact rationals.

A CoefficientRing fixes the deformation variables t1..tk and a truncation
order N.  Elements live in g tensor m where m is the maximal ideal
(t1, ..., tk) of Q[[t1..tk]] modulo m^{N+1}: every monomial has total degree
at least 1 and at most N, and any product landing above N is identically
zero.  Nothing is ever rounded.

Below the public API a monomial is its key, the exponents as the digits
of one integer in base N + 1, the first variable the most significant
(CoefficientRing.key and .mono alone encode and decode one, and .key_str
names one straight from its digits).  No digit exceeds N, so a key is
unique and a product within the order has the sum of the keys; as
N + 1 = 1 (mod N), the degree 1..N is read off a key as a residue
(CoefficientRing.degree), and graded lex order is (degree, key).

FormalElement is a vector in one graded piece of an algebra whose entries
are such truncated series.  It is stored in linalg's integer form: one
denominator den for the whole element and, per monomial, a dense tuple of
integer numerators (monomial key -> int tuple), so the coefficient of
generator i at the monomial of key k is nums[k][i] / den, scaled and
reduced by linalg.scaled and linalg.lowest_terms.  No vector is all zero
and no monomial lies above the order, so two elements are equal exactly
when their (den, nums) are.  Arithmetic runs on the integers and ends in one
reduction; every public accessor speaks Fraction.  A result that arrives
in lowest terms already, such as every bracket, which the one series
kernel (_kernels.bracket_sums) hands back reduced, is wrapped as it
stands (FormalElement._canonical), so no series element is read twice.
FormalElement.summed adds any number of elements in one pass, each part
added into the total once, scaled by an integer (a C-level map adds the
vectors at a shared monomial), and a - b is that same pass with the sign
of b folded into its scale, as dA + 1/2 S is with the 1/2 folded into the
denominator (DGLA._curvature).  For the brackets, an element also keeps
the layout of nums the series kernel reads (view(), a
_kernels.KernelView), built on first use from the element's own keys;
elements are never changed in place, so the layout stays valid.
"""

from fractions import Fraction
from math import lcm
from operator import add

from ._kernels import KernelView
from .linalg import lowest_terms, scaled
from .report import element_data

_ONE = Fraction(1)


def _times(f, nums):
    """The integer terms map nums with every entry times the int f."""
    return {m: tuple([f * c for c in vec]) for m, vec in nums.items()}


def _add_scaled(total, f, nums, dim):
    """Add f times the integer terms map nums (vectors of length dim) into
    the terms map total, in place, in one pass over nums: each vector is
    scaled by f and added to the one at its monomial by a C-level map of
    add, and a sum that cancels to zero is dropped.  An empty total takes
    nums over at once when f is 1; vectors of one entry are added as the
    integers they hold."""
    if f == 1 and not total:
        total.update(nums)
        return
    get = total.get
    if dim == 1:
        for mono, (c,) in nums.items():
            if f != 1:
                c *= f
            cur = get(mono)
            if cur is not None:
                c += cur[0]
                if not c:
                    del total[mono]
                    continue
            total[mono] = (c,)
        return
    for mono, vec in nums.items():
        if f != 1:
            vec = tuple([f * c for c in vec])
        cur = get(mono)
        if cur is None:
            total[mono] = vec
        else:
            vec = tuple(map(add, cur, vec))
            if any(vec):
                total[mono] = vec
            else:
                del total[mono]


class CoefficientRing:
    """The quotient m / m^{N+1} of the ideal m = (t1..tk) in Q[[t1..tk]]."""

    __slots__ = ("variables", "order", "powers")

    def __init__(self, variables, order):
        variables = tuple(str(v) for v in variables)
        if not variables:
            raise ValueError("need at least one deformation variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            if not v or not v[0].isalpha() or not v.isalnum():
                raise ValueError("bad variable name %r" % (v,))
        order = int(order)
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        self.variables = variables
        self.order = order
        # powers[i][e]: the factor variable i to the power e, for mono_str and key_str
        self.powers = tuple(("", v) + tuple(["%s^%d" % (v, e) for e in range(2, order + 1)])
                            for v in variables)

    @classmethod
    def single(cls, order, name="t"):
        return cls((name,), order)

    @property
    def nvars(self):
        return len(self.variables)

    def __eq__(self, other):
        if not isinstance(other, CoefficientRing):
            return NotImplemented
        return self.variables == other.variables and self.order == other.order

    def __hash__(self):
        return hash((self.variables, self.order))

    def __repr__(self):
        return "CoefficientRing(%r, order=%d)" % (list(self.variables), self.order)

    def check_mono(self, mono):
        """Validate an exponent tuple against this ring; return it normalized."""
        mono = tuple(int(e) for e in mono)
        if len(mono) != len(self.variables):
            raise ValueError("exponent tuple has wrong length")
        if any(e < 0 for e in mono):
            raise ValueError("negative exponent")
        d = sum(mono)
        if d == 0:
            raise ValueError("constant terms do not exist here (degree 0 monomial)")
        return mono

    def key(self, mono):
        """The key of a checked monomial within the order (the module
        docstring)."""
        base = self.order + 1
        key = 0
        for e in mono:
            key = key * base + e
        return key

    def mono(self, key):
        """The exponent tuple of a key, the inverse of key."""
        base = self.order + 1
        digits = []
        for _ in self.variables:
            key, e = divmod(key, base)
            digits.append(e)
        return tuple(reversed(digits))

    def key_str(self, key):
        """mono_str(mono(key)) in one pass over the digits of key, least
        significant first, each factor read straight from the table of
        powers: no exponent tuple is built."""
        base = self.order + 1
        factors = []
        for powers in self.powers[::-1]:
            key, e = divmod(key, base)
            if e:
                factors.append(powers[e])
        factors.reverse()
        return "*".join(factors)

    def degree(self, key):
        """The total degree of the monomial of a key, its residue."""
        return (key - 1) % self.order + 1

    def monomials(self, degree):
        """All exponent tuples of the given total degree, lexicographically."""
        if degree < 0:
            return []
        k = len(self.variables)
        out = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                out.append(prefix + (remaining,))
                return
            for e in range(remaining + 1):
                rec(prefix + (e,), remaining - e, slots - 1)

        rec((), degree, k)
        return out

    def all_monomials(self):
        """Every monomial of the ring, in graded lexicographic order."""
        out = []
        for d in range(1, self.order + 1):
            out.extend(self.monomials(d))
        return out

    def mono_str(self, mono):
        """Render an exponent tuple within the order, e.g. (2, 1) ->
        "t1^2*t2", each factor read from the table of powers."""
        return "*".join(filter(None, map(tuple.__getitem__, self.powers, mono))) or "1"

    def parse_mono(self, text):
        """Inverse of mono_str: "t1^2*t2" -> (2, 1).  Whitespace tolerated."""
        text = text.strip()
        if text == "1":
            raise ValueError("constant terms do not exist here (degree 0 monomial)")
        index = {name: i for i, name in enumerate(self.variables)}
        exps = [0] * len(self.variables)
        for factor in text.split("*"):
            factor = factor.strip()
            if "^" in factor:
                name, _, estr = factor.partition("^")
                name = name.strip()
                e = int(estr)
            else:
                name, e = factor, 1
            if name not in index:
                raise ValueError("unknown variable %r" % (name,))
            if e < 1:
                raise ValueError("bad exponent in %r" % (factor,))
            exps[index[name]] += e
        return self.check_mono(exps)


class FormalElement:
    """A vector in one graded piece, with truncated formal series entries.

    Built from terms, a map from exponent tuple to a dense tuple of
    Fraction-convertible coefficients of length dim.  Every monomial is
    validated; those above the ring's truncation order are identically zero
    and are then dropped, degree zero monomials are rejected.  The value is
    held as integer numerators nums over one denominator den, by monomial
    key, in the canonical form the module docstring describes.
    """

    __slots__ = ("ring", "degree", "dim", "den", "nums", "_view")

    def __init__(self, ring, degree, dim, terms=None):
        if dim < 0:
            raise ValueError("negative dimension")
        self.ring = ring
        self.degree = int(degree)
        dim = self.dim = int(dim)
        clean = {}
        if terms:
            for mono, vec in terms.items():
                mono = ring.check_mono(mono)
                vec = tuple(Fraction(c) for c in vec)
                if len(vec) != dim:
                    raise ValueError("coefficient vector has wrong length")
                if sum(mono) <= ring.order and any(vec):
                    clean[ring.key(mono)] = vec
        self.den, flat = scaled([c for vec in clean.values() for c in vec])
        self.nums = {m: flat[k * dim:(k + 1) * dim] for k, m in enumerate(clean)}
        self._view = None

    @classmethod
    def from_integers(cls, ring, degree, dim, den, nums):
        """The element nums / den in canonical form.

        den is a positive int; nums maps monomial keys of the ring to int
        tuples of length dim, none of them all zero.  The common
        factor of den and every numerator is divided out
        (linalg.lowest_terms).
        """
        return cls._canonical(ring, degree, dim, *lowest_terms(den, nums))

    @classmethod
    def _canonical(cls, ring, degree, dim, den, nums):
        """Wrap den and nums that are already in canonical form."""
        out = cls.__new__(cls)
        out.ring = ring
        out.degree = degree
        out.dim = dim
        out.den = den
        out.nums = nums
        out._view = None
        return out

    @classmethod
    def summed(cls, ring, degree, dim, parts):
        """The sum of the parts (elements over ring, of degree and dim) in
        one pass (_combined, every part at scale 1)."""
        return cls._combined(ring, degree, dim, [(1, part) for part in parts])

    @classmethod
    def _combined(cls, ring, degree, dim, parts):
        """sum s * part over the (s, part) of parts, s an int or Fraction, in
        one pass: the total is put over the lcm of the part.den times the
        denominators of s, each part is added into it once, scaled by an
        integer (_add_scaled), and the total is normalised once.  A lone
        nonzero part at scale 1 is the sum as it stands."""
        for _, part in parts:
            if part.ring != ring:
                raise ValueError("ring mismatch")
            if part.degree != degree:
                raise ValueError("graded degree mismatch")
            if part.dim != dim:
                raise ValueError("dimension mismatch")
        parts = [(s, part) for s, part in parts if part.nums]
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        den = lcm(*[part.den * s.denominator for s, part in parts])
        nums = {}
        for s, part in parts:
            _add_scaled(nums, s.numerator * (den // (part.den * s.denominator)),
                        part.nums, dim)
        return cls.from_integers(ring, degree, dim, den, nums)

    @classmethod
    def zero(cls, ring, degree, dim):
        return cls(ring, degree, dim)

    @classmethod
    def single(cls, ring, degree, dim, mono, index, coeff=_ONE):
        """coeff * e_index * mono, a one-term element."""
        vec = [0] * dim
        vec[index] = coeff
        return cls(ring, degree, dim, {tuple(mono): vec})

    def is_zero(self):
        return not self.nums

    def view(self):
        """nums laid out for the series kernel (a _kernels.KernelView of
        the element's own keys), built on first use and kept."""
        view = self._view
        if view is None:
            view = self._view = KernelView(self.nums, self.ring.order)
        return view

    def graded_nums(self):
        """The (key, numerators) pairs of nums in graded lex order: sorted
        by (degree residue, key), which is (total degree, key)."""
        N = self.ring.order
        nums = self.nums
        return [(key, nums[key]) for _, key in sorted([((key - 1) % N, key) for key in nums])]

    def support(self):
        """Monomials with a nonzero coefficient, in graded lex order."""
        mono = self.ring.mono
        return tuple([mono(key) for key, _ in self.graded_nums()])

    def _fractions(self, vec):
        den = self.den
        return tuple([Fraction(c, den) for c in vec])

    def coefficient(self, mono):
        """Dense Fraction coefficient tuple at one monomial, zeros if absent
        or above the order (whose digits may spell another monomial's key,
        so none is taken)."""
        ring = self.ring
        mono = ring.check_mono(mono)
        vec = self.nums.get(ring.key(mono)) if sum(mono) <= ring.order else None
        return self._fractions(vec or (0,) * self.dim)

    def fraction_terms(self):
        """The value as a map exponent tuple -> dense Fraction tuple."""
        mono = self.ring.mono
        return {mono(key): self._fractions(vec) for key, vec in self.nums.items()}

    def _with(self, den, nums):
        return FormalElement.from_integers(self.ring, self.degree, self.dim, den, nums)

    def __add__(self, other):
        if not isinstance(other, FormalElement):
            return NotImplemented
        return FormalElement.summed(self.ring, self.degree, self.dim, (self, other))

    def __neg__(self):
        return FormalElement._canonical(self.ring, self.degree, self.dim, self.den,
                                        _times(-1, self.nums))

    def __sub__(self, other):
        """self - other in one pass, the sign folded into other's rescaling."""
        if not isinstance(other, FormalElement):
            return NotImplemented
        return FormalElement._combined(self.ring, self.degree, self.dim,
                                       ((1, self), (-1, other)))

    def scale(self, c):
        """c times self; a unit fraction 1/q only multiplies den by q."""
        c = Fraction(c)
        if not c:
            return FormalElement(self.ring, self.degree, self.dim)
        p = c.numerator
        nums = self.nums if p == 1 else _times(p, self.nums)
        return self._with(self.den * c.denominator, nums)

    def to_order(self, order):
        """The same element over the ring with truncation order `order`."""
        if order == self.ring.order:
            return self
        ring = CoefficientRing(self.ring.variables, order)
        mono = self.ring.mono
        nums = {ring.key(m): vec for key, vec in self.nums.items()
                if sum(m := mono(key)) <= order}
        return FormalElement.from_integers(ring, self.degree, self.dim, self.den, nums)

    def truncated(self, order):
        """Keep only the monomials of total degree at most order, over the
        same ring; self when none lies above it."""
        degree = self.ring.degree
        nums = {key: vec for key, vec in self.nums.items() if degree(key) <= order}
        if len(nums) == len(self.nums):
            return self
        return self._with(self.den, nums)

    def homogeneous_parts(self):
        """{order: the homogeneous part of that order} for every order at
        which the element has a monomial, in one pass over nums."""
        N = self.ring.order
        buckets = {}
        for key, vec in self.nums.items():
            buckets.setdefault((key - 1) % N + 1, {})[key] = vec
        return {b: self._with(self.den, nums) for b, nums in buckets.items()}

    def homogeneous_part(self, order):
        """Keep only the monomials of total degree exactly order."""
        degree = self.ring.degree
        return self._with(self.den, {key: vec for key, vec in self.nums.items()
                                     if degree(key) == order})

    def __eq__(self, other):
        if not isinstance(other, FormalElement):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.degree == other.degree
            and self.dim == other.dim
            and self.den == other.den
            and self.nums == other.nums
        )

    def __repr__(self):
        """The terms as report.element_data renders them, each in full."""
        terms = element_data(self)["terms"] if self.nums else {}
        bits = ", ".join("%s: (%s)" % (mono, ", ".join(coeffs)) for mono, coeffs in terms.items())
        return "FormalElement(deg=%d, {%s})" % (self.degree, bits)

