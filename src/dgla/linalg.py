"""Exact sparse linear algebra over the rationals, computed in integers.

Vectors are tuples of Fraction.  A Matrix stores integer numerators nums,
{(row, col): nonzero int}, over one positive denominator den in canonical
form (gcd(den, every numerator) = 1), as a FormalElement does, so products,
sums, scaling and equality run on plain integers; entry, column,
dense_rows, mul_vec and solve_linear hand out Fractions.  Every object is
treated as immutable after construction, so everything here is safe to
share between threads.

Every elimination goes through one routine, rref_rows, fraction-free on
sparse integer rows: rank, solve_linear, invert and the three basis
choices (kernel vectors, image columns, complements) each read one echelon
form, and only kernel_basis, solve_linear and invert divide by its pivots.
The basis choices follow fixed deterministic rules so that downstream
constructions are reproducible byte-for-byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._kernels import integer_vector

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(*entries) -> tuple:
    """Build a vector, coercing entries to Fraction."""
    return tuple(Fraction(e) for e in entries)


def _lowest(den: int, nums) -> tuple:
    """The vector nums / den (den != 0) as (den > 0, nums) in lowest terms."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    return den // g, tuple([x // g for x in nums])


class Matrix:
    """A rows x cols matrix over the rationals: nums / den, canonical."""

    __slots__ = ("rows", "cols", "den", "nums")

    def __init__(self, rows: int, cols: int, entries=None):
        """entries maps (row, col) to anything Fraction accepts."""
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = {k: Fraction(v) for k, v in (entries or {}).items()}
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry index ({i},{j}) outside {rows}x{cols}")
        # lowest-terms numerators over the lcm of the denominators: canonical
        den = lcm(*{v.denominator for v in entries.values()})
        self.rows, self.cols, self.den = rows, cols, den
        self.nums = {k: v.numerator * (den // v.denominator)
                     for k, v in entries.items() if v}

    @classmethod
    def from_integers(cls, rows: int, cols: int, den: int, nums) -> "Matrix":
        """The matrix nums / den for ints den > 0 and nums {(row, col): int}
        (zeros allowed), made canonical by _lowest."""
        nums = {k: v for k, v in nums.items() if v}
        mat = cls.__new__(cls)
        mat.rows, mat.cols, (mat.den, vals) = rows, cols, _lowest(den, nums.values())
        mat.nums = dict(zip(nums, vals))
        return mat

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_integers(n, n, 1, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_rows(cls, rowdata) -> "Matrix":
        rowdata = [list(r) for r in rowdata]
        cols = len(rowdata[0]) if rowdata else 0
        if any(len(row) != cols for row in rowdata):
            raise ValueError("ragged rows")
        return cls(len(rowdata), cols, {(i, j): val for i, row in enumerate(rowdata)
                                        for j, val in enumerate(row)})

    @classmethod
    def from_columns(cls, rows: int, columns) -> "Matrix":
        """Matrix whose j-th column is columns[j] (each of length `rows`)."""
        columns = list(columns)
        if any(len(col) != rows for col in columns):
            raise ValueError("column length mismatch")
        return cls(rows, len(columns), {(i, j): val for j, col in enumerate(columns)
                                        for i, val in enumerate(col)})

    def entry(self, i: int, j: int) -> Fraction:
        n = self.nums.get((i, j))
        return Fraction(n, self.den) if n else ZERO

    def column(self, j: int) -> tuple:
        return tuple(self.entry(i, j) for i in range(self.rows))

    def dense_rows(self) -> list:
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def integer_rows(self) -> tuple:
        """(den, rows): row_maps as the kernels read matrix rows,
        ((row, ((col, int), ...)), ...), nonzero rows only, ascending."""
        return self.den, tuple([(i, tuple(sorted(row.items())))
                                for i, row in enumerate(self.row_maps()) if row])

    def row_maps(self) -> list:
        """The numerators by row, one {col: int} per row: the one row form,
        read by rref_rows, products and integer_rows."""
        out = [{} for _ in range(self.rows)]
        for (i, j), n in self.nums.items():
            out[i][j] = n
        return out

    def row_range(self, start: int, stop: int) -> "Matrix":
        """The rows start .. stop - 1 as a matrix of their own."""
        return Matrix.from_integers(stop - start, self.cols, self.den, {
            (i - start, j): n for (i, j), n in self.nums.items() if start <= i < stop})

    def mul_vec(self, v) -> tuple:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        return (self @ column_matrix(self.cols, [integer_vector(v)])).column(0)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("composition dimension mismatch")
        by_row = other.row_maps()
        acc = {}
        for (i, j), n in self.nums.items():
            for k, m in by_row[j].items():
                key = (i, k)
                acc[key] = acc.get(key, 0) + n * m
        return Matrix.from_integers(self.rows, other.cols, self.den * other.den, acc)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        acc = {k: f * n for k, n in self.nums.items()}
        for k, n in other.nums.items():
            acc[k] = acc.get(k, 0) + g * n
        return Matrix.from_integers(self.rows, self.cols, den, acc)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix.from_integers(self.rows, self.cols, self.den * c.denominator,
                                    {k: c.numerator * n for k, n in self.nums.items()})

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and (self.rows, self.cols, self.den, self.nums) \
            == (other.rows, other.cols, other.den, other.nums)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {len(self.nums)} nonzero)"


def column_matrix(rows: int, ints) -> Matrix:
    """The matrix whose j-th column is ints[j] = (den, nums), the vector
    nums / den of length `rows` (SubspaceBasis.ints)."""
    den = lcm(*[d for d, _ in ints])
    nums = {(i, j): den // d * x for j, (d, col) in enumerate(ints)
            for i, x in enumerate(col) if x}
    return Matrix.from_integers(rows, len(ints), den, nums)


def _primitive(row) -> dict:
    """A sparse integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def rref_rows(rows, ncols: int):
    """Reduced row echelon form of sparse integer rows, fraction-free;
    returns (rows, pivot_cols).

    rows lists one {col: nonzero int} map per row (left as it is).  The
    pivot of each column is the first row, top to bottom from the current
    rank on, with a nonzero entry there, which keeps the result
    deterministic.  The pivot row P, with entry a there, is made primitive,
    and every other row R with an entry b there becomes the primitive part
    of (a R - b P) / gcd(a, b).  So each result row is a nonzero integer
    multiple of that row of the rational reduced echelon form, which is
    the row over its entry in its pivot column.
    """
    R = list(rows)
    pivots = []
    r = 0
    nrows = len(R)
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if c in R[i]), None)
        if p is None:
            continue
        P = _primitive(R[p])
        R[p] = R[r]
        R[r] = P
        a = P[c]
        for i, Ri in enumerate(R):
            b = Ri.get(c)
            if b is None or i == r:
                continue
            g = gcd(a, b)
            fa, fb = a // g, b // g
            new = {j: fa * x for j, x in Ri.items()}
            for j, x in P.items():
                new[j] = new.get(j, 0) - fb * x
            R[i] = _primitive({j: x for j, x in new.items() if x})
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def rank(A: Matrix) -> int:
    return len(rref_rows(A.row_maps(), A.cols)[1])


def solve_linear(A: Matrix, b):
    """Solve A x = b exactly; None if b is not in the image of A.

    When solutions form a positive-dimensional affine space, the one with all
    free variables (in echelon order) equal to zero is returned.
    """
    if len(b) != A.rows:
        raise ValueError(f"rhs length {len(b)} != rows {A.rows}")
    # A = N / den and b = bi / Db: A x = b iff N x' = bi for x' = x Db / den
    Db, bi = integer_vector([Fraction(x) for x in b])
    n = A.cols
    aug = [{**row, n: x} if x else row for row, x in zip(A.row_maps(), bi)]
    R, pivots = rref_rows(aug, n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [ZERO] * n
    for row, p in zip(R, pivots):
        if n in row:
            x[p] = Fraction(row[n] * A.den, row[p] * Db)
    return tuple(x)


class SubspaceBasis:
    """An ordered, linearly independent family of vectors in k^ambient_dim,
    held as ints[k] = (den, nums), the vector nums / den in lowest terms;
    vectors hands them out as tuples of Fraction."""

    __slots__ = ("ambient_dim", "ints")

    def __init__(self, ambient_dim: int, vectors, check: bool = True):
        vectors = [tuple([Fraction(x) for x in v]) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("vector length != ambient dimension")
        self.ambient_dim = ambient_dim
        self.ints = tuple([(d, tuple(nums)) for d, nums in map(integer_vector, vectors)])
        if check and vectors and rank(self.matrix()) != len(vectors):
            raise ValueError("vectors are linearly dependent")

    @classmethod
    def from_integers(cls, ambient_dim: int, ints) -> "SubspaceBasis":
        """A basis of vectors already in lowest-terms (den, nums) form, unchecked."""
        basis = cls.__new__(cls)
        basis.ambient_dim, basis.ints = ambient_dim, tuple(ints)
        return basis

    @property
    def vectors(self) -> tuple:
        return tuple(tuple([Fraction(x, d) if x else ZERO for x in nums])
                     for d, nums in self.ints)

    @property
    def dim(self) -> int:
        return len(self.ints)

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self):
        return iter(self.vectors)

    def matrix(self) -> Matrix:
        """Matrix whose columns are the basis vectors."""
        return column_matrix(self.ambient_dim, self.ints)

    def coordinates_of(self, v):
        """Coordinates of v in this basis, or None if v is outside the span."""
        if not self.ints:
            return None if any(v) else ()
        return solve_linear(self.matrix(), v)

    def contains(self, v) -> bool:
        return self.coordinates_of(v) is not None

    def __eq__(self, other) -> bool:
        return isinstance(other, SubspaceBasis) and \
            (self.ambient_dim, self.ints) == (other.ambient_dim, other.ints)

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim {len(self.ints)} in k^{self.ambient_dim})"


def kernel_basis(A: Matrix) -> SubspaceBasis:
    """Echelon-derived basis of ker(A).

    One vector per free column, free columns in increasing order; each vector
    is scaled so its first nonzero coordinate is 1.  With L the lcm of the
    pivot entries, free column f gives the integers L e_f - sum over pivot
    rows of row[f] L / row[p] e_p, put over their leading entry.
    """
    R, pivots = rref_rows(A.row_maps(), A.cols)
    L = lcm(*[row[p] for row, p in zip(R, pivots)])
    pivot_set = set(pivots)
    out = []
    for f in range(A.cols):
        if f in pivot_set:
            continue
        v = [0] * A.cols
        v[f] = L
        for row, p in zip(R, pivots):
            if f in row:
                v[p] = -row[f] * (L // row[p])
        out.append(_lowest(next(x for x in v if x), v))
    return SubspaceBasis.from_integers(A.cols, out)


def image_basis(A: Matrix) -> SubspaceBasis:
    """Basis of the column space: the original columns at the pivot indices."""
    pivots = rref_rows(A.row_maps(), A.cols)[1]
    return SubspaceBasis.from_integers(A.rows, [
        _lowest(A.den, [A.nums.get((i, j), 0) for i in range(A.rows)]) for j in pivots])


def complement_basis(S: SubspaceBasis, inside: SubspaceBasis | None = None) -> SubspaceBasis:
    """Deterministic complement T with span(S) + span(T) = span(inside), direct.

    Candidates are the vectors of `inside`, or the standard basis when
    `inside` is None (the full space).  T is the candidates at the pivot
    columns past S of one rref of the columns (S | candidates): a pivot
    column is exactly a vector outside the span of those before it, so this
    is the greedy rule that keeps each candidate in order if it increases the
    rank.  Raises if S is dependent or span(S) is not inside span(inside).
    """
    n = S.ambient_dim
    if inside is None:
        candidates = [(1, tuple([int(i == j) for i in range(n)])) for j in range(n)]
        target = n
    else:
        if inside.ambient_dim != n:
            raise ValueError("ambient dimension mismatch")
        candidates = list(inside.ints)
        target = inside.dim
    k = S.dim
    cols = list(S.ints) + candidates
    pivots = rref_rows(column_matrix(n, cols).row_maps(), len(cols))[1]
    if pivots[:k] != list(range(k)):
        raise ValueError("S is not linearly independent")
    if len(pivots) != target:
        raise ValueError("S is not contained in the span of `inside`")
    return SubspaceBasis.from_integers(n, [cols[j] for j in pivots[k:]])


def invert(M: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError if singular.

    With M = N / den, one rref of (N | Id) leaves row k of N^{-1} as the
    right half of row k over its pivot entry; M^{-1} = den N^{-1}.
    """
    if M.rows != M.cols:
        raise ValueError("only square matrices are invertible")
    n = M.rows
    aug = [{**row, n + i: 1} for i, row in enumerate(M.row_maps())]
    R, pivots = rref_rows(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    L = lcm(*[R[k][k] for k in range(n)])
    nums = {(k, j - n): M.den * (L // row[k]) * x
            for k, row in enumerate(R) for j, x in row.items() if j >= n}
    return Matrix.from_integers(n, n, L, nums)
