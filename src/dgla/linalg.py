"""Exact sparse linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are sparse dict-of-keys maps from
(row, col) to Fraction.  Absent entries are exactly zero.  All arithmetic is
exact; equality everywhere means literal equality of rationals, never
closeness.  Every object is treated as immutable after construction, so
everything here is safe to share between threads.

Every elimination goes through one routine, rref_rows: rank, solve_linear,
invert and the three basis choices (kernel vectors, image columns,
complements) each read one reduced echelon form.  The basis choices follow
fixed deterministic rules so that downstream constructions are reproducible
byte-for-byte: see kernel_basis, image_basis and complement_basis.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(*entries) -> tuple:
    """Build a vector, coercing entries to Fraction."""
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def vec_is_zero(v) -> bool:
    return not any(v)


def vec_add(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, v) -> tuple:
    c = Fraction(c)
    return tuple(c * a for a in v)


class Matrix:
    """A rows x cols matrix over Fraction with sparse storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (i, j), val in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry index ({i},{j}) outside {rows}x{cols}")
            val = Fraction(val)
            if val:
                clean[(i, j)] = val
        self.entries = clean

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def from_rows(cls, rowdata) -> "Matrix":
        rowdata = [list(r) for r in rowdata]
        cols = len(rowdata[0]) if rowdata else 0
        entries = {}
        for i, row in enumerate(rowdata):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, val in enumerate(row):
                if val:
                    entries[(i, j)] = Fraction(val)
        return cls(len(rowdata), cols, entries)

    @classmethod
    def from_columns(cls, rows: int, columns) -> "Matrix":
        """Matrix whose j-th column is columns[j] (each of length `rows`)."""
        entries = {}
        columns = list(columns)
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for i, val in enumerate(col):
                if val:
                    entries[(i, j)] = Fraction(val)
        return cls(rows, len(columns), entries)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), ZERO)

    def column(self, j: int) -> tuple:
        return tuple(self.entries.get((i, j), ZERO) for i in range(self.rows))

    def dense_rows(self) -> list:
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), val in self.entries.items():
            out[i][j] = val
        return out

    def sparse_rows(self) -> tuple:
        """Row-major form ((col, coeff), ...) per row, columns ascending."""
        buckets = [[] for _ in range(self.rows)]
        for (i, j), val in sorted(self.entries.items()):
            buckets[i].append((j, val))
        return tuple(tuple(b) for b in buckets)

    def mul_vec(self, v) -> tuple:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        out = [ZERO] * self.rows
        for (i, j), val in self.entries.items():
            vj = v[j]
            if vj:
                out[i] += val * vj
        return tuple(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("composition dimension mismatch")
        by_row = {}
        for (i, k), val in other.entries.items():
            by_row.setdefault(i, []).append((k, val))
        acc = {}
        for (i, j), val in self.entries.items():
            for k, oval in by_row.get(j, ()):
                key = (i, k)
                acc[key] = acc.get(key, ZERO) + val * oval
        return Matrix(self.rows, other.cols, acc)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        acc = dict(self.entries)
        for key, val in other.entries.items():
            acc[key] = acc.get(key, ZERO) + val
        return Matrix(self.rows, self.cols, acc)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix(self.rows, self.cols, {k: c * v for k, v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


def rref_rows(rowdata, ncols: int):
    """Reduced row echelon form of dense rows; returns (rows, pivot_cols).

    Pivot choice is the first row (top to bottom) with a nonzero entry in the
    current column, which keeps the result deterministic.
    """
    R = [list(row) for row in rowdata]
    pivots = []
    r = 0
    nrows = len(R)
    for c in range(ncols):
        p = None
        for i in range(r, nrows):
            if R[i][c]:
                p = i
                break
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = ONE / R[r][c]
        if inv != ONE:
            R[r] = [inv * x for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c]:
                f = R[i][c]
                Ri, Rr = R[i], R[r]
                for j in range(c, ncols):
                    if Rr[j]:
                        Ri[j] -= f * Rr[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def rank(A: Matrix) -> int:
    return len(rref_rows(A.dense_rows(), A.cols)[1])


def solve_linear(A: Matrix, b):
    """Solve A x = b exactly; None if b is not in the image of A.

    When solutions form a positive-dimensional affine space, the one with all
    free variables (in echelon order) equal to zero is returned.
    """
    if len(b) != A.rows:
        raise ValueError(f"rhs length {len(b)} != rows {A.rows}")
    aug = A.dense_rows()
    for i, row in enumerate(aug):
        row.append(Fraction(b[i]))
    R, pivots = rref_rows(aug, A.cols + 1)
    if pivots and pivots[-1] == A.cols:
        return None
    x = [ZERO] * A.cols
    for k, p in enumerate(pivots):
        x[p] = R[k][A.cols]
    return tuple(x)


class SubspaceBasis:
    """An ordered, linearly independent family of vectors in k^ambient_dim."""

    __slots__ = ("ambient_dim", "vectors")

    def __init__(self, ambient_dim: int, vectors, check: bool = True):
        self.ambient_dim = ambient_dim
        vecs = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
            vecs.append(tuple(Fraction(x) for x in v))
        self.vectors = tuple(vecs)
        if check and self.vectors:
            if len(rref_rows([list(v) for v in self.vectors], ambient_dim)[1]) != len(vecs):
                raise ValueError("vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def matrix(self) -> Matrix:
        """Matrix whose columns are the basis vectors."""
        return Matrix.from_columns(self.ambient_dim, self.vectors)

    def coordinates_of(self, v):
        """Coordinates of v in this basis, or None if v is outside the span."""
        if not self.vectors:
            return None if any(v) else ()
        return solve_linear(self.matrix(), v)

    def contains(self, v) -> bool:
        return self.coordinates_of(v) is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.vectors == other.vectors
        )

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim {len(self.vectors)} in k^{self.ambient_dim})"


def kernel_basis(A: Matrix) -> SubspaceBasis:
    """Echelon-derived basis of ker(A).

    One vector per free column, free columns in increasing order; each vector
    is scaled so its first nonzero coordinate is 1.
    """
    R, pivots = rref_rows(A.dense_rows(), A.cols)
    pivot_set = set(pivots)
    out = []
    for f in range(A.cols):
        if f in pivot_set:
            continue
        v = [ZERO] * A.cols
        v[f] = ONE
        for k, p in enumerate(pivots):
            if p < f and R[k][f]:
                v[p] = -R[k][f]
        lead = next(x for x in v if x)
        if lead != ONE:
            inv = ONE / lead
            v = [inv * x for x in v]
        out.append(tuple(v))
    return SubspaceBasis(A.cols, out, check=False)


def image_basis(A: Matrix) -> SubspaceBasis:
    """Basis of the column space: the original columns at the pivot indices."""
    pivots = rref_rows(A.dense_rows(), A.cols)[1]
    return SubspaceBasis(A.rows, [A.column(j) for j in pivots], check=False)


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
        candidates = [tuple(ONE if i == j else ZERO for i in range(n)) for j in range(n)]
        target = n
    else:
        if inside.ambient_dim != n:
            raise ValueError("ambient dimension mismatch")
        candidates = list(inside.vectors)
        target = inside.dim
    k = S.dim
    cols = list(S.vectors) + candidates
    rows = [[col[i] for col in cols] for i in range(n)]
    pivots = rref_rows(rows, len(cols))[1]
    if pivots[:k] != list(range(k)):
        raise ValueError("S is not linearly independent")
    if len(pivots) != target:
        raise ValueError("S is not contained in the span of `inside`")
    return SubspaceBasis(n, [cols[j] for j in pivots[k:]], check=False)


def invert(M: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    if M.rows != M.cols:
        raise ValueError("only square matrices are invertible")
    n = M.rows
    aug = M.dense_rows()
    for i, row in enumerate(aug):
        row.extend(ONE if j == i else ZERO for j in range(n))
    R, pivots = rref_rows(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    entries = {}
    for i in range(n):
        for j in range(n):
            val = R[i][n + j]
            if val:
                entries[(i, j)] = val
    return Matrix(n, n, entries)
