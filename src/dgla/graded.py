"""Linear maps between graded vector spaces, stored as degree blocks.

A graded space is described by a dims profile, a mapping degree -> dimension
(zero dimensions omitted).  A GradedLinearMap keeps one exact Matrix per
(source degree, target degree) pair that it touches; absent blocks are zero.
Every block already holds integer numerators over one denominator Dm, so
composition, sums and equality of maps run on integers.  Maps need not be
homogeneous, but the ones that are can shift a FormalElement degree by
degree through _kernels.matvec_terms: the kernel applies a block's integer
rows (Matrix.integer_rows, compiled once by _kernels.compile_rows and kept
on the map) to the element's integer numerators, and the result is put
over elem.den * Dm.
"""

from ._kernels import compile_rows, matvec_terms
from .formal import FormalElement
from .linalg import Matrix


def normalize_dims(dims):
    """Canonical dims profile: int keys, positive dims only."""
    out = {}
    for deg, n in dims.items():
        n = int(n)
        if n < 0:
            raise ValueError("negative dimension")
        if n:
            out[int(deg)] = n
    return out


class GradedLinearMap:
    """Blockwise exact linear map between graded spaces."""

    __slots__ = ("src_dims", "dst_dims", "blocks", "_int_rows")

    def __init__(self, src_dims, dst_dims, blocks=None):
        self.src_dims = normalize_dims(src_dims)
        self.dst_dims = normalize_dims(dst_dims)
        clean = {}
        if blocks:
            for (i, j), mat in blocks.items():
                i, j = int(i), int(j)
                if mat.cols != self.src_dims.get(i, 0):
                    raise ValueError("block (%d, %d) has wrong width" % (i, j))
                if mat.rows != self.dst_dims.get(j, 0):
                    raise ValueError("block (%d, %d) has wrong height" % (i, j))
                if not mat.is_zero():
                    clean[(i, j)] = mat
        self.blocks = clean
        self._int_rows = {}

    @classmethod
    def identity(cls, dims):
        dims = normalize_dims(dims)
        blocks = {(d, d): Matrix.identity(n) for d, n in dims.items()}
        return cls(dims, dims, blocks)

    def block(self, i, j):
        """The (source degree i -> target degree j) matrix, zero if absent."""
        mat = self.blocks.get((i, j))
        if mat is not None:
            return mat
        return Matrix.zero(self.dst_dims.get(j, 0), self.src_dims.get(i, 0))

    def is_homogeneous(self, shift):
        return all(j - i == shift for (i, j) in self.blocks)

    def _check_profiles(self, other):
        if self.src_dims != other.src_dims or self.dst_dims != other.dst_dims:
            raise ValueError("graded dimension profiles differ")

    def __add__(self, other):
        if not isinstance(other, GradedLinearMap):
            return NotImplemented
        self._check_profiles(other)
        blocks = dict(self.blocks)
        for key, mat in other.blocks.items():
            cur = blocks.get(key)
            blocks[key] = mat if cur is None else cur + mat
        return GradedLinearMap(self.src_dims, self.dst_dims, blocks)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, GradedLinearMap):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        blocks = {key: mat.scale(c) for key, mat in self.blocks.items()}
        return GradedLinearMap(self.src_dims, self.dst_dims, blocks)

    def __matmul__(self, other):
        """Composition self after other."""
        if not isinstance(other, GradedLinearMap):
            return NotImplemented
        if other.dst_dims != self.src_dims:
            raise ValueError("composition profiles do not match")
        blocks = {}
        for (i, m), inner in other.blocks.items():
            for (m2, j), outer in self.blocks.items():
                if m2 != m:
                    continue
                prod = outer @ inner
                key = (i, j)
                cur = blocks.get(key)
                blocks[key] = prod if cur is None else cur + prod
        return GradedLinearMap(other.src_dims, self.dst_dims, blocks)

    def is_zero(self):
        return not self.blocks

    def __eq__(self, other):
        if not isinstance(other, GradedLinearMap):
            return NotImplemented
        return (
            self.src_dims == other.src_dims
            and self.dst_dims == other.dst_dims
            and self.blocks == other.blocks
        )

    def apply_element(self, elem, shift):
        """Apply to a FormalElement, assuming the map is homogeneous.

        The element sits in source degree elem.degree; the result sits in
        target degree elem.degree + shift.  Blocks outside the declared shift
        must be zero (checked).
        """
        if not self.is_homogeneous(shift):
            raise ValueError("map is not homogeneous of shift %d" % shift)
        if self.src_dims.get(elem.degree, 0) != elem.dim:
            raise ValueError("element dimension does not match source profile")
        out_deg = elem.degree + shift
        out_dim = self.dst_dims.get(out_deg, 0)
        if out_dim and elem.nums:
            key = (elem.degree, out_deg)
            compiled = self._int_rows.get(key)
            if compiled is None:
                Dm, rows = self.block(*key).integer_rows()
                compiled = self._int_rows[key] = Dm, compile_rows(rows, out_dim)
            Dm, rows = compiled
            nums = matvec_terms(elem.nums, rows)
            return FormalElement.from_integers(
                elem.ring, out_deg, out_dim, elem.den * Dm, nums)
        return FormalElement(elem.ring, out_deg, out_dim)

    def __repr__(self):
        keys = ", ".join("(%d,%d)" % key for key in sorted(self.blocks))
        return "GradedLinearMap(blocks at %s)" % (keys or "none")
