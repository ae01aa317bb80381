"""Sparse exact matrices over the rationals with deterministic elimination.

All ranks, kernels and solutions are computed by integer-preserving Gaussian
elimination with a fixed pivot rule (first nonzero by row-major scan), so
results are reproducible bit for bit.  Rows are cleared of denominators and
reduced with cross-multiplication updates followed by gcd stripping; no
floating point appears anywhere.  Every rank, pivot set, kernel and solution
comes from one forward elimination (``row_reduce``), and kernels and
solutions are read off its integer echelon rows by one back-substitution
(``Matrix._kernel_vectors``), a kernel basis as the sparse columns of a
``Matrix``; ``ColumnSolver`` reduces [A | B] for a whole
batch of right-hand sides at once.  Minors are built in ``exterior`` by the
wedge recursion.

The elimination inner loop, ``row_reduce``, is the hot kernel of the whole
library; it is plain Python over lists of ints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm


def kernel_backend() -> str:
    """Name of the elimination kernel: always "pure-python"."""
    return "pure-python"


def _combine(row, prow, a, b):
    """row <- a*row - b*prow entrywise, then divide row by its gcd.

    The row is updated in place, so callers that hold it (and the rows list
    it sits in) see the result.  Scaling and the gcd strip are whole-row
    operations; the subtraction visits only the nonzero entries of prow.
    """
    if a != 1:
        row[:] = [a * x for x in row]
    for j in compress(range(len(prow)), prow):
        row[j] -= b * prow[j]
    g = gcd(*row)
    if g > 1:
        row[:] = [x // g for x in row]


def row_reduce(rows, lead):
    """Reduce integer rows in place to a forward echelon form; return pivots
    as (row, col) pairs.

    ``rows`` is a list of equal-length lists of ints.  Pivots are searched in
    columns [0, lead) only; trailing columns (augmented right-hand sides) are
    carried along.  Rows are processed top to bottom: each row is reduced
    against the pivots found so far, and if a nonzero entry survives in the
    lead block, its leftmost one becomes a new pivot ("first nonzero by
    row-major scan").  Rows are never swapped.

    All updates are integer cross-multiplications
    ``r_i <- (a * r_i - b * r_p)`` with a > 0, followed by division of the
    row by the gcd of its entries, so every row stays a positive rational
    multiple of a row in the span of the originals.  Pivot entries end up
    positive.  Each pivot row is zero at the pivot columns found before it,
    and may be nonzero at later ones.  A row reduced against the pivots is
    the unique vector of its coset that is zero at every earlier pivot
    column, so the rank, the pivot columns and the rows that vanish are
    those of any echelon form reached in this row order.
    """
    pivots = []
    if lead < 0:
        return pivots
    for i, row in enumerate(rows):
        lc = _reduce_row(rows, pivots, row, lead)
        if lc >= 0:
            pivots.append((i, lc))
    return pivots


def _reduce_row(rows, pivots, row, lead):
    """One row of ``row_reduce``: its new pivot column, or -1 if it has none."""
    for pr, pc in pivots:
        x = row[pc]
        if x:
            prow = rows[pr]
            piv = prow[pc]
            g = gcd(piv, x)
            _combine(row, prow, piv // g, x // g)
    lc = next(compress(range(lead), row), -1)
    if lc < 0:
        return lc
    rg = gcd(*row)
    if row[lc] < 0:
        rg = -rg
    if rg != 1:
        row[:] = [x // rg for x in row]
    return lc


class Matrix:
    """Immutable sparse exact matrix.

    Entries are stored as a dict ``(i, j) -> value`` of nonzero rationals
    (ints or Fractions).  Row index i runs over ``nrows``, column index j
    over ``ncols``.  A matrix representing a linear map V -> W has shape
    (dim W, dim V) and acts on coordinate columns.
    """

    __slots__ = (
        "nrows", "ncols", "entries", "_rank", "_numerators", "_pivot_cols", "_free_cols"
    )

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        clean = {}
        if entries:
            for (i, j), v in entries.items():
                if v:
                    if not (0 <= i < nrows and 0 <= j < ncols):
                        raise IndexError(f"entry ({i}, {j}) outside {nrows}x{ncols}")
                    clean[(i, j)] = v
        self.entries = clean
        self._rank = None
        # The int matrix ``scale * self`` for one int scale above 1, kept by
        # the operator builder that summed it (``exterior._over_scale``) and
        # dropped by ``_eliminate`` once it has read them.
        self._numerators = None
        self._pivot_cols = None
        self._free_cols = None

    @staticmethod
    def _trusted(nrows: int, ncols: int, entries) -> "Matrix":
        """The matrix over ``entries`` itself, neither copied nor checked: for
        the unshared dicts of nonzero, in-range entries built in this class."""
        m = Matrix(nrows, ncols)
        m.entries = entries
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix(nrows, ncols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._trusted(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def from_rows(rows, ncols=None) -> "Matrix":
        rows = list(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return Matrix(len(rows), ncols, entries)

    @staticmethod
    def from_cols(cols, nrows=None) -> "Matrix":
        cols = list(cols)
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        entries = {}
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                if v:
                    entries[(i, j)] = v
        return Matrix(nrows, len(cols), entries)

    # -- access --------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int):
        return self.entries.get((i, j), 0)

    def cols_dense(self):
        cols = [[0] * self.nrows for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {len(self.entries)} nonzero)"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        entries = dict(self.entries)
        for key, v in other.entries.items():
            s = entries.get(key, 0) + v
            if s:
                entries[key] = s
            else:
                entries.pop(key, None)
        return Matrix._trusted(self.nrows, self.ncols, entries)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(self.nrows, self.ncols, {k: -v for k, v in self.entries.items()})

    def scale(self, c) -> "Matrix":
        if not c:
            return Matrix.zeros(self.nrows, self.ncols)
        return Matrix._trusted(self.nrows, self.ncols, {k: c * v for k, v in self.entries.items()})

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        by_col = {}
        for (k, i), v in self.entries.items():
            by_col.setdefault(i, []).append((k, v))
        other_cols = {}
        for (k, j), w in other.entries.items():
            other_cols.setdefault(j, []).append((k, w))
        # One output column at a time, so only its partial sums are alive;
        # each entry still adds its terms in the order of other.entries.
        out = {}
        for j, col in other_cols.items():
            acc = {}
            for k, w in col:
                for i, v in by_col.get(k, ()):
                    s = acc.get(i, 0) + v * w
                    if s:
                        acc[i] = s
                    else:
                        del acc[i]
            for i, s in acc.items():
                out[(i, j)] = s
        return Matrix._trusted(self.nrows, other.ncols, out)

    def apply(self, vec):
        """Matrix-vector product on a coordinate sequence."""
        if len(vec) != self.ncols:
            raise ValueError(f"vector length {len(vec)} != ncols {self.ncols}")
        out = [0] * self.nrows
        for (i, j), v in self.entries.items():
            x = vec[j]
            if x:
                out[i] = out[i] + v * x
        return out

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.ncols, self.nrows, {(j, i): v for (i, j), v in self.entries.items()})

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i, j + self.ncols)] = v
        return Matrix._trusted(self.nrows, self.ncols + other.ncols, entries)

    # -- elimination-backed operations --------------------------------

    def _scaled(self, axis):
        """Each row (axis 0) or column (axis 1) times the lcm of its
        denominators; an int matrix is returned as it is (it is immutable)."""
        if all(type(v) is int for v in self.entries.values()):
            return self
        scales = [1] * self.shape[axis]
        for key, v in self.entries.items():
            if type(v) is not int and v.denominator != 1:
                scales[key[axis]] = lcm(scales[key[axis]], v.denominator)
        entries = {}
        for key, v in self.entries.items():
            s = scales[key[axis]]
            entries[key] = v * s if type(v) is int else v.numerator * (s // v.denominator)
        return Matrix._trusted(self.nrows, self.ncols, entries)

    def _integral(self, axis):
        """An int matrix that is this one with each row (axis 0) or column
        (axis 1) times a positive int: the builder's numerators when it kept
        them, which scale every row and column alike, else ``_scaled``."""
        if self._numerators is not None:
            return self._numerators
        return self._scaled(axis)

    def _int_rows(self, order=None):
        """Dense int rows, each a positive multiple of its row: the builder's
        numerators when it kept them, else the row times the lcm of its
        denominators.  With ``order``, a list of row indices, only those
        rows, in that order.

        A positive factor on a row changes no row that ``row_reduce``
        returns: every row it reduces is made primitive by its gcd.
        """
        if order is None:
            order = range(self.nrows)
        slot = {i: p for p, i in enumerate(order)}
        rows = [[0] * self.ncols for _ in slot]
        for (i, j), v in self._integral(0).entries.items():
            p = slot.get(i)
            if p is not None:
                rows[p][j] = v
        return rows

    def _eliminate(self, order=None):
        """Integer rows and pivots from ``row_reduce`` to a forward echelon
        form: each pivot row is zero at the pivot columns found before it,
        and ``_kernel_vectors`` back-substitutes through them.  Only the
        rank and the pivot columns are kept; every caller reads only what
        the row space fixes (the rank, the set of pivot columns and the
        canonical kernel basis), whatever the row order.

        Without ``order`` the rows that hold a nonzero entry are reduced,
        sparsest first (by nonzero count, ties by index): a zero row is
        never a pivot and changes no other row, and sparsest first makes
        fewer and shorter combines than the given order.

        With ``order``, a list of row indices, only those rows are reduced,
        in that order.  The caller vouches that the rows span the row space
        (``CohomologySpace`` passes the rows of d_k at the free columns of
        d_(k+1)).  Rows are never swapped, so a row that is not a pivot row
        reduces to zero exactly when it depends on the rows before it.
        ``pivots`` indexes the returned rows.
        """
        if order is None:
            nonzeros = {}
            for i, _ in self.entries:
                nonzeros[i] = nonzeros.get(i, 0) + 1
            order = sorted(nonzeros, key=lambda i: (nonzeros[i], i))
        rows = self._int_rows(order)
        self._numerators = None
        pivots = row_reduce(rows, self.ncols)
        self._rank = len(pivots)
        self._pivot_cols = sorted(ci for _, ci in pivots)
        return rows, pivots

    def rank(self) -> int:
        if self._rank is None:
            self._eliminate()
        return self._rank

    def pivot_columns(self):
        """Pivot columns, ascending: the first basis among the columns."""
        if self._pivot_cols is None:
            self._eliminate()
        return self._pivot_cols

    def free_columns(self):
        """The columns that are not pivot columns, ascending."""
        pivot_cols = set(self.pivot_columns())
        return [f for f in range(self.ncols) if f not in pivot_cols]

    def _kernel_vectors(self, rows, pivots, free):
        """The canonical kernel vector kappa_f of each free column f in
        ``free``, as column j of a sparse matrix for the j-th f.

        ``rows`` and ``pivots`` are an echelon form of this matrix from
        ``row_reduce``: each pivot row is zero at the pivot columns found
        before it.  kappa_f is ``Fraction`` 1 at f and 0 at the other free
        columns, and the pivot rows fix the rest, from the last pivot to the
        first: kappa_f[c] = -(row[f] + the sum of row[c'] kappa_f[c'] over
        the later pivot columns c') / row[c], the sum kept as an int
        numerator and denominator, so each entry costs one gcd.  Nonzero
        entries are ``Fraction``s; zero entries are absent, so ``cols_dense``
        reads them as ``int`` 0.

        The rows may carry right-hand sides b past this matrix's columns
        (reduced with lead ``ncols``).  For such a column f the vector is
        kappa_f of [A | b] without its entry at f: the solution of A x = -b
        whose free variables are zero.
        """
        steps = []  # (row, pivot column, pivot, the row at later pivot columns), last pivot first
        pivot_cols = [ci for _, ci in pivots]
        for ri, ci in reversed(pivots):
            row = rows[ri]
            later = [(c, row[c]) for c in compress(pivot_cols, map(row.__getitem__, pivot_cols)) if c != ci]
            steps.append((row, ci, row[ci], later))
        entries = {}
        for j, f in enumerate(free):
            vec = {}
            for row, ci, piv, later in steps:
                num = row[f]
                if later:
                    den = 1
                    for c, a in later:
                        x = vec.get(c)
                        if x is not None:
                            n, d = x.numerator, x.denominator
                            if d == den:
                                num += a * n
                            else:
                                num = num * d + a * n * den
                                den *= d
                    piv *= den
                if num:
                    vec[ci] = Fraction(-num, piv)
            if f < self.ncols:
                vec[f] = Fraction(1)
            for i, x in vec.items():
                entries[(i, j)] = x
        return Matrix._trusted(self.ncols, len(free), entries)

    def nullspace(self) -> "Matrix":
        """Canonical kernel basis: column j is the kernel vector of the j-th
        free column, ascending (see ``_kernel_vectors``).

        Back-substituted through the forward integer rows; zero entries are
        absent.  The elimination also fixes the rank and the pivot columns.
        """
        rows, pivots = self._eliminate()
        return self._kernel_vectors(rows, pivots, self.free_columns())

    @staticmethod
    def stacked_nullspace(builders, ncols: int, within=None) -> "Matrix":
        """The ``nullspace`` of the blocks that ``builders`` build, stacked
        vertically, without forming the stack.

        The kernel is narrowed one block at a time, K <- K nullspace(B K), so
        each elimination is only as wide as the kernel left so far.  Scaling
        the rows of B and the columns of each nullspace N to integers changes
        no span, and keeps K, B K and K N in int arithmetic.  No final
        elimination is needed.  The columns of K start as the unit vectors,
        the canonical basis of their span, and stay positive multiples of a
        canonical basis (each vector's last nonzero at its own free column,
        zero at the other free columns, ascending): column j of N is a
        positive multiple of 1 at j, 0 at the other free columns of B K, and
        nonzero elsewhere only before j, so column j of K N is column j of K
        times that multiple plus earlier columns of K, which vanish at its
        last nonzero and at every other free column.  The canonical basis is
        each column of K divided by its last nonzero entry.  Entries and
        their types equal those of ``nullspace``.

        Each builder, given the ascending row support of the current K,
        returns its block with only those columns filled.  B K reads no
        other column of B, so the kernel is the same.

        ``within``, ascending columns, starts K from the unit vectors at
        those columns instead of all (default): the caller vouches that the
        common kernel lies in their span.  The kernel, and so its canonical
        basis, is then the same.
        """
        if within is None:
            within = range(ncols)
        kernel = Matrix._trusted(ncols, len(within), {(c, j): 1 for j, c in enumerate(within)})
        for build in builders:
            image = build(sorted({i for i, _ in kernel.entries}))._integral(0) @ kernel
            if not image.is_zero():
                kernel = kernel @ image.nullspace()._integral(1)
        last = {}  # column -> (row, entry) of its last nonzero
        for (i, j), x in kernel.entries.items():
            if i > last.get(j, (-1,))[0]:
                last[j] = (i, x)
        return Matrix._trusted(
            ncols, kernel.ncols, {(i, j): Fraction(x, last[j][1]) for (i, j), x in kernel.entries.items()}
        )

    def coordinates(self, v: "Matrix"):
        """Solve ``self @ C == v`` for a matrix whose columns are a canonical kernel basis.

        Column j is 1 at its free column f_j, its last nonzero, and 0 at the
        other free columns (as from ``nullspace``), so row j of C can only be
        row f_j of v, as ``Fraction``s.  One exact product decides
        ``self @ C == v``: the result is (C, None), or (None, j) with j the
        first column of v outside the column span.
        """
        if v.nrows != self.nrows:
            raise ValueError(f"{v.nrows} rows != nrows {self.nrows}")
        if self._free_cols is None:
            free = [-1] * self.ncols
            for i, j in self.entries:
                free[j] = max(free[j], i)
            rows = set(free)
            unit = {(f, j): 1 for j, f in enumerate(free)}
            if len(rows) < self.ncols or {k: x for k, x in self.entries.items() if k[0] in rows} != unit:
                raise ValueError("columns are not a canonical kernel basis")
            self._free_cols = {f: j for j, f in enumerate(free)}
        basis_of = self._free_cols  # free column f_j -> j
        c = Matrix._trusted(
            self.ncols, v.ncols,
            {(basis_of[i], j): Fraction(x) for (i, j), x in v.entries.items() if i in basis_of},
        )
        image = self @ c
        if image.entries == v.entries:
            return c, None
        keys = image.entries.keys() | v.entries.keys()
        return None, min(j for i, j in keys if image.entries.get((i, j)) != v.entries.get((i, j)))


_ZERO = Fraction(0)


class ColumnSolver:
    """Solve A x = b_j exactly for a batch of right-hand sides b_j.

    The integer rows of [A | B] are reduced forward once, in index order,
    with pivots searched in A's columns only.  A row without a pivot is then
    zero in A and holds a multiple of lam b_j at column n + j, where the
    vectors lam with lam A = 0 that these rows carry span the left kernel;
    so b_j is consistent exactly when every such row is zero at n + j.
    ``solutions[j]`` is then the solution whose free variables are zero:
    minus the canonical kernel vector of [A | B] at column n + j, read by
    ``Matrix._kernel_vectors``, with every entry a ``Fraction``.  Otherwise
    it is None, and ``certificates[j]`` is a row lam with lam A = 0 and
    lam b_j != 0: the first canonical left-kernel vector of A (by ascending
    free row) that b_j does not annihilate, scaled to a primitive integer
    row.  That is the unique primitive dependency of its row on the pivot
    rows above it, with a positive entry at its own row.
    """

    def __init__(self, a: Matrix, rhs):
        for b in rhs:
            if len(b) != a.nrows:
                raise ValueError(f"rhs length {len(b)} != nrows {a.nrows}")
        n = a.ncols
        rows = a.hstack(Matrix.from_cols(rhs, a.nrows))._int_rows()
        self.pivots = row_reduce(rows, n)
        pivot_rows = {ri for ri, _ in self.pivots}
        free_rows = [row for ri, row in enumerate(rows) if ri not in pivot_rows]
        consistent = [j for j in range(len(rhs)) if not any(row[n + j] for row in free_rows)]
        self.solutions = [None] * len(rhs)
        self.certificates = [None] * len(rhs)
        vectors = a._kernel_vectors(rows, self.pivots, [n + j for j in consistent]).cols_dense()
        for j, vec in zip(consistent, vectors):
            self.solutions[j] = [-x if x else _ZERO for x in vec]
        if len(consistent) < len(rhs):
            left = a.transpose().nullspace().cols_dense()
            for j, b in enumerate(rhs):
                if self.solutions[j] is None:
                    lam = next(v for v in left if sum(x * y for x, y in zip(v, b) if x))
                    scale = lcm(*(x.denominator for x in lam if x))
                    ints = [int(x * scale) for x in lam]
                    g = gcd(*ints)
                    self.certificates[j] = [Fraction(x // g) if x else _ZERO for x in ints]


class SpanBuilder:
    """Incremental membership test for a growing subspace of Q^dim.

    Keeps the span as integer rows in forward echelon form, each new vector
    reduced by the step of ``row_reduce``; ``basis`` reduces them further
    when it is read.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows = []
        self.pivots = []  # (index into rows, pivot column)

    def _int_row(self, vec):
        return Matrix.from_rows([vec], self.dim)._int_rows()[0]

    def insert(self, vec) -> bool:
        """Add a vector; returns True if the span grew."""
        row = self._int_row(vec)
        lead = _reduce_row(self.rows, self.pivots, row, self.dim)
        if lead < 0:
            return False
        self.pivots.append((len(self.rows), lead))
        self.rows.append(row)
        return True

    def basis(self):
        """The reduced echelon basis, pivot entries 1, by ascending pivot column.

        The rows are reduced again, last inserted first: each is then cleared
        at the pivot columns of the rows inserted after it, and it was
        already zero at those of the rows before it, so every pivot column
        has one nonzero entry.
        """
        rows = [list(row) for row in reversed(self.rows)]
        pivots = sorted(row_reduce(rows, self.dim), key=lambda p: p[1])
        return [[Fraction(x, rows[ri][lead]) for x in rows[ri]] for ri, lead in pivots]
