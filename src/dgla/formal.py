"""Truncated formal power series coefficients over exact rationals.

A CoefficientRing fixes the deformation variables t1..tk and a truncation
order N.  Elements live in g tensor m where m is the maximal ideal
(t1, ..., tk) of Q[[t1..tk]] modulo m^{N+1}: every monomial has total degree
at least 1 and at most N, and any product landing above N is identically
zero.  Nothing is ever rounded.

FormalElement is a vector in one graded piece of an algebra whose entries
are such truncated series.  It is stored fraction-free: one positive
denominator den for the whole element and, per monomial, a dense tuple of
integer numerators (exponent tuple -> int tuple), so the coefficient of
generator i at monomial m is nums[m][i] / den.  The form is canonical (den
is coprime to the numerators taken together, den is 1 for zero, no vector
is all zero, no monomial lies above the order), so two elements are equal
exactly when their (den, nums) are.  Arithmetic runs on the integers and
ends in one gcd normalisation; every public accessor speaks Fraction.
FormalElement.summed adds any number of elements in one pass, one rescale
per part.  For the brackets, an element also keeps the kernel-ready layout
of nums (view(), a _kernels.KernelView), built on first use with the
monomial keys its ring packs once (CoefficientRing.packing); elements are
never changed in place, so the layout stays valid.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add

from ._kernels import KernelView, Packing

_ONE = Fraction(1)


def mono_key(mono):
    """Graded lexicographic sort key."""
    return (sum(mono), mono)


class CoefficientRing:
    """The quotient m / m^{N+1} of the ideal m = (t1..tk) in Q[[t1..tk]]."""

    __slots__ = ("variables", "order", "packing")

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
        self.packing = Packing(order + 1)  # the monomial keys of view()

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
        """Render an exponent tuple, e.g. (2, 1) -> "t1^2*t2"."""
        parts = []
        for name, e in zip(self.variables, mono):
            if e == 0:
                continue
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"

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
    held as integer numerators nums over one denominator den, in the
    canonical form the module docstring describes.
    """

    __slots__ = ("ring", "degree", "dim", "den", "nums", "_view")

    def __init__(self, ring, degree, dim, terms=None):
        if dim < 0:
            raise ValueError("negative dimension")
        self.ring = ring
        self.degree = int(degree)
        self.dim = int(dim)
        clean = {}
        if terms:
            for mono, vec in terms.items():
                mono = ring.check_mono(mono)
                vec = tuple(Fraction(c) for c in vec)
                if len(vec) != dim:
                    raise ValueError("coefficient vector has wrong length")
                if sum(mono) <= ring.order and any(vec):
                    clean[mono] = vec
        # the lcm of reduced denominators is already coprime to the numerators
        den = lcm(*{c.denominator for vec in clean.values() for c in vec})
        self.den = den
        self.nums = {m: tuple([c.numerator * (den // c.denominator) for c in vec])
                     for m, vec in clean.items()}
        self._view = None

    @classmethod
    def from_integers(cls, ring, degree, dim, den, nums):
        """The element nums / den in canonical form.

        den is a positive int; nums maps monomials within the ring's order
        to int tuples of length dim, none of them all zero.  The common
        factor of den and every numerator is divided out.
        """
        g = den
        for vec in nums.values():
            if g == 1:
                break
            g = gcd(g, *vec)
        if g != 1:
            den //= g
            nums = {m: tuple([c // g for c in vec]) for m, vec in nums.items()}
        return cls._canonical(ring, degree, dim, den, nums)

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
        one pass: each part is rescaled once to the lcm of their
        denominators, the first one copied as it stands when it needs no
        rescaling, and the total is normalised once."""
        parts = list(parts)
        for part in parts:
            if part.ring != ring:
                raise ValueError("ring mismatch")
            if part.degree != degree:
                raise ValueError("graded degree mismatch")
            if part.dim != dim:
                raise ValueError("dimension mismatch")
        parts = [part for part in parts if part.nums]
        den = lcm(*(part.den for part in parts))
        nums = {}
        for part in parts:
            f = den // part.den
            if not nums and f == 1:
                nums = dict(part.nums)
                continue
            for mono, vec in part.nums.items():
                if f != 1:
                    vec = tuple([f * c for c in vec])
                cur = nums.get(mono)
                if cur is None:
                    nums[mono] = vec
                else:
                    vec = tuple(map(add, cur, vec))
                    if any(vec):
                        nums[mono] = vec
                    else:
                        del nums[mono]
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
        """nums laid out for the series kernels (a _kernels.KernelView,
        packed in base order + 1), built on first use and kept."""
        view = self._view
        if view is None:
            view = self._view = KernelView(self.nums, self.ring.packing)
        return view

    def support(self):
        """Monomials with a nonzero coefficient, in graded lex order."""
        return tuple(sorted(self.nums, key=mono_key))

    def _fractions(self, vec):
        den = self.den
        return tuple([Fraction(c, den) for c in vec])

    def coefficient(self, mono):
        """Dense Fraction coefficient tuple at one monomial (zeros if absent)."""
        mono = self.ring.check_mono(mono)
        return self._fractions(self.nums.get(mono, (0,) * self.dim))

    def fraction_terms(self):
        """The value as a map exponent tuple -> dense Fraction tuple."""
        return {m: self._fractions(vec) for m, vec in self.nums.items()}

    def _with(self, den, nums):
        return FormalElement.from_integers(self.ring, self.degree, self.dim, den, nums)

    def __add__(self, other):
        if not isinstance(other, FormalElement):
            return NotImplemented
        return FormalElement.summed(self.ring, self.degree, self.dim, (self, other))

    def __neg__(self):
        nums = {m: tuple([-c for c in vec]) for m, vec in self.nums.items()}
        return FormalElement._canonical(self.ring, self.degree, self.dim, self.den, nums)

    def __sub__(self, other):
        if not isinstance(other, FormalElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        """c times self; a unit fraction 1/q only multiplies den by q."""
        c = Fraction(c)
        if not c:
            return FormalElement(self.ring, self.degree, self.dim)
        p = c.numerator
        nums = self.nums
        if p != 1:
            nums = {m: tuple([p * x for x in vec]) for m, vec in nums.items()}
        return self._with(self.den * c.denominator, nums)

    def to_order(self, order):
        """The same element over the ring with truncation order `order`."""
        if order == self.ring.order:
            return self
        ring = CoefficientRing(self.ring.variables, order)
        nums = {m: vec for m, vec in self.nums.items() if sum(m) <= order}
        return FormalElement.from_integers(ring, self.degree, self.dim, self.den, nums)

    def homogeneous_part(self, order):
        """Keep only the monomials of total degree exactly order."""
        return self._with(self.den, {m: vec for m, vec in self.nums.items()
                                     if sum(m) == order})

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
        bits = ", ".join(
            "%s: (%s)"
            % (self.ring.mono_str(m),
               ", ".join(str(c) for c in self._fractions(self.nums[m])))
            for m in self.support()
        )
        return "FormalElement(deg=%d, {%s})" % (self.degree, bits)
