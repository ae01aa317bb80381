"""Exact cohomology of cochain complexes.

A complex is a tuple of per-degree dimensions plus the differential
matrices; construction checks the shapes and that consecutive
differentials compose to zero, exactly and in integers.  d_(k+1) d_k = 0
is decided on integer multiples A = R d_(k+1) and B = d_k C, with R and C
positive diagonal (the builder's common denominator, or the row and
column denominators), by two matrix-vector products instead of a matrix
product: A (B y), with y_j = 2^(s j) wide enough that each entry packs one
row of A B in base 2^s (see ``_product_vanishes``).  No float and no
random vector enters.

Cohomology is computed by exact rank: betti_k = dim ker d_k - rank d_(k-1).
Each d_k is eliminated once, from the top degree down, on its rows at the
free columns of d_(k+1) only: d_(k+1) d_k = 0 makes them span its row
space, so the elimination fixes its rank and pivot columns.  The
elimination goes forward only, to an echelon form whose pivot rows are
not cleared at later pivot columns.  Its canonical kernel basis has one
vector kappa_f per free column f, equal to 1 at f and 0 at the other free
columns, so a cocycle z has kernel coordinates (z[f_1], ..., z[f_r]).
Those rows are reduced in descending order and never swapped, so a row of
d_(k-1) at a free column f of d_k reduces to zero exactly when it depends
on the rows at the larger free columns: then kappa_f is a representative,
the vector that a greedy scan of [coboundaries ; kernel basis] would
keep.  Only those kappa_f are read, by back-substitution through the
forward rows.  The map from cocycles to their classes comes from one more
elimination, of a coboundary basis in kernel coordinates, made for a
degree the first time ``reduce`` needs it.  The choice depends only on the
row spaces, so the whole output is deterministic.

A complex may be the weight-zero block of a bigger, graded complex (see
``ce_complex``): its basis is then a subset of the full cochain basis, and
``CohomologySpace`` eliminates, checks d o d and picks representatives on
the block only, while its representatives, ``reduce`` and induced maps speak
full cochain coordinates.  Every other block is acyclic, so nothing
observable changes: the canonical kernel basis of a full d_k is the union of
its blocks' bases, and the pick never keeps a vector of another block.
The full complex of a block is never built: ``reduce`` and ``check_chain_map`` build
the full d_k only at the columns they read (``full_differential``).  d o d
is checked where the complexes are eliminated; on the image of a chain map
f it follows from the checks that stay, d d f = d f d = f d d = 0.

Complexes that carry a graded product (all complexes in this library do)
also support cup products and the odd-generation test on their cohomology.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatch,
    InternalInvariantError,
    InvalidComplex,
    NotAChainMap,
    NotACocycle,
)
from .exterior import (
    alternating_differential_matrix,
    basis_size,
    ce_differential,
    multi_index_masks,
    wedge_vector,
)
from .linalg import Matrix, SpanBuilder


class BasisProduct:
    """Wedge product on the multi-index bases of Lambda V*."""

    def __init__(self, n: int):
        self.n = n

    def mul(self, k, v, l, w):
        return wedge_vector(self.n, k, v, l, w)


class EmbeddedProduct:
    """Product on a subcomplex given by per-degree embedding matrices.

    Vectors are lifted to the ambient graded algebra, multiplied there, and
    expressed back in the subspace basis, whose columns are a canonical
    kernel basis.  The subspaces this library builds are closed under the
    ambient product; a product outside the subspace is a bug.
    """

    def __init__(self, ambient, embeddings):
        self.ambient = ambient
        self.embeddings = tuple(embeddings)

    def mul(self, k, v, l, w):
        target = k + l
        if target >= len(self.embeddings):
            raise DimensionMismatch(f"no degree {target} in this complex")
        big = self.ambient.mul(
            k, self.embeddings[k].apply(v), l, self.embeddings[l].apply(w)
        )
        embedding = self.embeddings[target]
        coords, _ = embedding.coordinates(Matrix.from_cols([big], embedding.nrows))
        if coords is None:
            raise InternalInvariantError(
                f"product left the subcomplex in degree {target}"
            )
        return coords.cols_dense()[0]


class Block:
    """Where a complex sits as a block of the full cochains of a graded one.

    ``positions[k]`` are the ascending full positions of the block's degree-k
    basis and ``full_dims`` the full dimensions.  The full complex is never
    built: ``differential`` builds the full d_k at the columns a chain-level
    check reads.
    """

    def __init__(self, positions, full_dims, n, bracket):
        self.positions = positions
        self.full_dims = full_dims
        self.n = n
        self.bracket = bracket

    def differential(self, k: int, columns) -> Matrix:
        """The CE d_k at the ascending full positions ``columns``, with all
        full rows, and zero at the other full columns."""
        masks = multi_index_masks(self.n, k)
        d = alternating_differential_matrix(self.n, self.bracket, k, columns=[masks[c] for c in columns])
        return Matrix._trusted(d.nrows, len(masks), {(i, columns[j]): v for (i, j), v in d.entries.items()})


class CochainComplex:
    def __init__(self, dims: tuple, differentials: tuple, product=None, block: Block = None):
        self.dims = dims
        self.differentials = differentials  # differentials[k]: dims[k] -> dims[k+1]
        self.product = product
        self.block = block  # set when this is one block of a bigger complex
        self.__post_init__()

    def __post_init__(self):
        """Check the shapes and d o d = 0 (its own method, so that it can be
        timed on its own)."""
        if len(self.differentials) != max(len(self.dims) - 1, 0):
            raise InvalidComplex(
                f"{len(self.differentials)} differentials for {len(self.dims)} degrees"
            )
        for k, d in enumerate(self.differentials):
            if d.shape != (self.dims[k + 1], self.dims[k]):
                raise InvalidComplex(
                    f"differential {k} has shape {d.shape}, expected "
                    f"({self.dims[k + 1]}, {self.dims[k]})"
                )
        for k in range(len(self.differentials) - 1):
            left = self.differentials[k + 1]._integral(0)
            right = self.differentials[k]._integral(1)
            if not _product_vanishes(left, right):
                raise InvalidComplex(f"d o d != 0 between degrees {k} and {k + 2}")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def dim(self, k: int) -> int:
        if 0 <= k <= self.top_degree:
            return self.dims[k]
        return 0

    def differential(self, k: int) -> Matrix:
        if 0 <= k < len(self.differentials):
            return self.differentials[k]
        return Matrix.zeros(self.dim(k + 1), self.dim(k))

    def full_dim(self, k: int) -> int:
        """Dimension of the full degree-k cochains."""
        if self.block is None or not 0 <= k <= self.top_degree:
            return self.dim(k)
        return self.block.full_dims[k]

    def full_differential(self, k: int, columns) -> Matrix:
        """The full d_k at least at the ascending full positions ``columns``:
        ``differential(k)`` itself unless this complex is a block."""
        return self.differential(k) if self.block is None else self.block.differential(k, columns)


def _product_vanishes(a: Matrix, b: Matrix) -> bool:
    """Whether the product of two int matrices is zero, by two
    matrix-vector products.

    Every entry of a @ b is at most beta = max_i sum_l |a_il| * max |b| in
    absolute value.  With s = beta.bit_length() + 2 and y_j = 2^(s j), entry
    i of a @ (b @ y) is sum_j (a @ b)_ij 2^(s j), whose base-2^s digits are
    unique while each |digit| < 2^(s - 1); so it is zero exactly when row i
    of a @ b is.
    """
    if not a.entries or not b.entries:
        return True
    row_sums = [0] * a.nrows
    for (i, _), v in a.entries.items():
        row_sums[i] += abs(v)
    beta = max(row_sums) * max(map(abs, b.entries.values()))
    s = beta.bit_length() + 2
    y = Matrix(b.ncols, 1, {(j, 0): 1 << (s * j) for j in range(b.ncols)})
    return (a @ (b @ y)).is_zero()


def ce_complex(g, grading=None) -> CochainComplex:
    """The Chevalley-Eilenberg complex of an algebra, with its wedge.

    Without a ``grading``, all of Lambda g*.  With one, its weight-zero block
    (see ``liealg.Grading``): d is computed on the block's columns only, and
    a term outside the block raises InternalInvariantError.
    """
    n = g.dim
    dims = tuple(basis_size(n, k) for k in range(n + 1))
    if grading is None:
        diffs = tuple(ce_differential(g, k) for k in range(n))
        return CochainComplex(dims=dims, differentials=diffs, product=BasisProduct(n))
    blocks = [grading.block(k) for k in range(n + 1)]
    masks = [[mask for _, mask in b] for b in blocks]
    diffs = tuple(
        alternating_differential_matrix(n, g.bracket_basis, k, columns=masks[k], rows=masks[k + 1])
        for k in range(n)
    )
    block = Block(tuple(tuple(pos for pos, _ in b) for b in blocks), dims, n, g.bracket_basis)
    return CochainComplex(
        dims=tuple(map(len, blocks)), differentials=diffs, product=BasisProduct(n), block=block
    )


def ce_cohomology(g) -> "CohomologySpace":
    """H(g), eliminated on the weight-zero block of ``g.grading`` only."""
    return CohomologySpace(ce_complex(g, None if g.grading.trivial else g.grading))


class CohomologySpace:
    """Betti numbers, chosen representatives and reduction data per degree.

    ``complex`` is the complex that is eliminated, possibly one block of a
    graded complex.
    """

    def __init__(self, complex: CochainComplex):
        self.complex = complex
        self._cups = {}  # cup_product memo: (ka, ca, kb, cb) -> class coordinates
        top = complex.top_degree
        diffs = [complex.differential(k) for k in range(top + 1)]
        self._free = [None] * (top + 1)  # free columns of d_k, ascending
        self._kept = [None] * (top + 1)  # the free columns whose kappa_f are representatives
        self._representatives = [None] * (top + 1)
        self._reducers = [None] * (top + 1)  # built by reduce, on first use
        # One forward elimination per differential, top down.  d_k is reduced
        # on its rows at the free columns of d_(k+1), which span its row space
        # because d_(k+1) d_k = 0, in descending order (d_top has no rows).
        # Its rows that vanish are the kept free columns of degree k + 1, and
        # the forward rows of d_(k+1) are held only until then.
        order, above = [], None
        for k in range(top, -1, -1):
            rows, pivots = diffs[k]._eliminate(order)
            if above is not None:
                pivot_rows = {ri for ri, _ in pivots}
                kept = sorted(f for ri, f in enumerate(order) if ri not in pivot_rows)
                self._pick_representatives(k + 1, *above, kept)
            above = rows, pivots
            self._free[k] = diffs[k].free_columns()
            order = self._free[k][::-1]
        if above is not None:
            # d_(-1) = 0: every free column of d_0 is kept.
            self._pick_representatives(0, *above, self._free[0])
        self.ranks = tuple(d.rank() for d in diffs)
        self.betti_numbers = tuple(
            complex.dim(k) - self.rank(k) - self.rank(k - 1) for k in range(top + 1)
        )
        for k, reps in enumerate(self._representatives):
            if reps.ncols != self.betti(k):
                raise InternalInvariantError(
                    f"representative count {reps.ncols} != betti {self.betti(k)} in degree {k}"
                )

    # -- structure ------------------------------------------------------

    @property
    def top_degree(self) -> int:
        return self.complex.top_degree

    def rank(self, k: int) -> int:
        if 0 <= k <= self.top_degree:
            return self.ranks[k]
        return 0

    def betti(self, k: int) -> int:
        if 0 <= k <= self.top_degree:
            return self.betti_numbers[k]
        return 0

    def betti_dict(self) -> dict:
        return {k: b for k, b in enumerate(self.betti_numbers) if b}

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti_numbers))

    def _pick_representatives(self, k: int, rows, pivots, kept):
        """Record the representatives of degree k: the canonical kernel
        vectors kappa_f of d_k at the ``kept`` free columns f, back-substituted
        through its forward ``rows`` and ``pivots``.

        Kernel vector kappa_f is 1 at its free column f, which is its last
        nonzero, and 0 at the other free columns.  It is kept when row f of
        d_(k-1) reduces to zero in the top-down elimination, that is when it
        depends on the rows of d_(k-1) at the larger free columns of d_k.
        Those are the vectors that a greedy scan of [coboundaries ;
        kappa_(f_1) ; ... ; kappa_(f_r)] keeps.

        On a block the representatives are written in full coordinates: they
        vanish off the block.
        """
        self._kept[k] = kept
        vectors = self.complex.differential(k)._kernel_vectors(rows, pivots, kept)
        place = self._place(k)
        reps = {(place[i], j): v for (i, j), v in vectors.entries.items()}
        self._representatives[k] = Matrix._trusted(self.complex.full_dim(k), len(kept), reps)

    def _place(self, k: int):
        """Full position of each degree-k basis vector of the eliminated complex."""
        block = self.complex.block
        return block.positions[k] if block is not None else range(self.complex.dim(k))

    def _reducer(self, k: int) -> Matrix:
        """The matrix that ``reduce`` applies in degree k.

        A cocycle z has kernel coordinates z[f_1], ..., z[f_r], its entries
        at the free columns of d_k.  The columns of d_(k-1) at its pivot
        columns are a basis of the coboundaries; their kernel coordinates,
        in reversed order, form the rows of a matrix E.  Subtracting
        coboundaries clears a cocycle's coordinates at the pivot columns of
        E; what is left at each free column q of E is its coordinate, read
        by the canonical kernel vector of E at q.  Those free columns must
        be the kept free columns of the top-down elimination, or
        InternalInvariantError is raised.

        On a block the reducer reads only the block's coordinates of a
        cocycle, its projection onto the block.  That projection is a chain
        map, inverse to the inclusion on cohomology, so the reducer serves
        every full cocycle.
        """
        free = self._free[k]
        r = len(free)
        position = {f: r - 1 - i for i, f in enumerate(free)}
        image = self.complex.differential(k - 1)
        # d_(-1) = 0 has no pivot columns, and needs no elimination to say so.
        basis_cols = {c: row for row, c in enumerate(image.pivot_columns() if k else ())}
        entries = {}
        for (i, j), v in image.entries.items():
            if j in basis_cols and i in position:
                entries[(basis_cols[j], position[i])] = v
        coboundaries = Matrix(len(basis_cols), r, entries)
        kernel = coboundaries.nullspace()
        if [free[r - 1 - q] for q in reversed(coboundaries.free_columns())] != self._kept[k]:
            raise InternalInvariantError(
                f"the coboundary elimination keeps other free columns than the "
                f"top-down elimination in degree {k}"
            )
        # row j of the reducer is kernel column m - 1 - j: by descending q,
        # that is by ascending free column of d_k
        m = kernel.ncols
        place = self._place(k)
        reducer = {(m - 1 - j, place[free[r - 1 - q]]): x for (q, j), x in kernel.entries.items()}
        return Matrix._trusted(m, self.complex.full_dim(k), reducer)

    def representative_matrix(self, k: int) -> Matrix:
        if 0 <= k <= self.top_degree:
            return self._representatives[k]
        return Matrix.zeros(0, 0)

    def representative_vectors(self, k: int):
        return self.representative_matrix(k).cols_dense()

    # -- reduction ------------------------------------------------------

    def reduce(self, k: int, vec):
        """Coordinates of a cocycle's class in the representatives.

        ``vec`` is in full coordinates.  Returns the unique coords, as
        ``Fraction``s, with vec - representatives @ coords a coboundary.
        Raises NotACocycle with the exact residual when d(vec) != 0 in the
        full complex; the full d_k is read on the support of ``vec`` only.
        """
        support = [j for j, x in enumerate(vec) if x]
        residual = self.complex.full_differential(k, support).apply(vec)
        if any(residual):
            raise NotACocycle(k, residual)
        if not self.betti(k):
            return []
        if self._reducers[k] is None:
            self._reducers[k] = self._reducer(k)
        return [Fraction(x) for x in self._reducers[k].apply(vec)]

    def unit_class(self):
        """Coordinates of the constant-function class in degree 0."""
        if self.complex.dim(0) != 1:
            raise InternalInvariantError("degree 0 is not one-dimensional")
        return self.reduce(0, [Fraction(1)])


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------

class CohomologyMap:
    def __init__(self, source: CohomologySpace, target: CohomologySpace, matrices: tuple):
        self.source = source
        self.target = target
        self.matrices = matrices  # per source degree, shape (betti_target_k, betti_source_k)

    def degree(self, k: int) -> Matrix:
        if 0 <= k < len(self.matrices):
            return self.matrices[k]
        return Matrix.zeros(self.target.betti(k), self.source.betti(k))

    def kernel_basis(self, k: int):
        """Kernel classes in degree k, as coordinates in source representatives."""
        return self.degree(k).nullspace().cols_dense()

    def total_kernel_dimension(self) -> int:
        return sum(
            self.source.betti(k) - self.degree(k).rank()
            for k in range(self.source.top_degree + 1)
        )


def check_chain_map(maps, src: CochainComplex, dst: CochainComplex):
    """Exact commutation with the full differentials; raises NotAChainMap.

    ``maps[k]`` runs between the full degree-k cochains.  f_(k+1) d_src is
    formed on every full source cochain; d_dst f_k reads d_dst only at the
    rows where f_k is nonzero, so d_dst is built at those columns only.
    """
    for k, f in enumerate(maps):
        if f.shape != (dst.full_dim(k), src.full_dim(k)):
            raise DimensionMismatch(
                f"chain map degree {k} has shape {f.shape}, expected "
                f"({dst.full_dim(k)}, {src.full_dim(k)})"
            )
    top = max(src.top_degree, dst.top_degree)
    for k in range(top + 1):
        f_k, f_k1 = (maps[i] if i < len(maps) else Matrix.zeros(dst.full_dim(i), src.full_dim(i)) for i in (k, k + 1))
        d_src = src.full_differential(k, range(src.full_dim(k)))
        d_dst = dst.full_differential(k, sorted({i for i, _ in f_k.entries}))
        mismatch = f_k1 @ d_src - d_dst @ f_k
        if not mismatch.is_zero():
            column = min(j for (_, j) in mismatch.entries)
            raise NotAChainMap(k, column)


def induced_map(maps, src: CohomologySpace, dst: CohomologySpace) -> CohomologyMap:
    """Cohomology map of a chain map, via representative reduction.

    ``maps[k]`` is the degree-k chain matrix between the full source and
    target cochains; missing degrees are treated as zero.  Commutation with
    the full differentials is checked exactly first.  The images need not
    lie in the target's block: ``reduce`` projects them onto it.
    """
    maps = list(maps)
    check_chain_map(maps, src.complex, dst.complex)
    return _induced_map_unchecked(maps, src, dst)


def _induced_map_unchecked(maps, src: CohomologySpace, dst: CohomologySpace) -> CohomologyMap:
    """``induced_map`` of a list of ``maps`` that the caller has already
    checked against the same two complexes."""
    matrices = []
    for k in range(src.top_degree + 1):
        f_k = maps[k] if k < len(maps) else Matrix.zeros(dst.complex.full_dim(k), src.complex.full_dim(k))
        cols = []
        for rep in src.representative_vectors(k):
            cols.append(dst.reduce(k, f_k.apply(rep)))
        matrices.append(Matrix.from_cols(cols, dst.betti(k)))
    return CohomologyMap(source=src, target=dst, matrices=tuple(matrices))


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------

def cup_product(space: CohomologySpace, a, b):
    """Cup product of classes given as (degree, coordinates) pairs.

    Products beyond the top degree are the zero class.  Well-definedness
    (independence of the representative choice) is exercised by the tests.
    Each product is computed once per space and kept; every call returns a
    fresh list.
    """
    if space.complex.product is None:
        raise InternalInvariantError("complex has no graded product")
    (ka, ca), (kb, cb) = a, b
    k = ka + kb
    if k > space.top_degree:
        return (k, [])
    key = (ka, tuple(ca), kb, tuple(cb))
    coords = space._cups.get(key)
    if coords is None:
        za = space.representative_matrix(ka).apply(ca)
        zb = space.representative_matrix(kb).apply(cb)
        chain = space.complex.product.mul(ka, za, kb, zb)
        coords = space._cups[key] = space.reduce(k, chain)
    return (k, list(coords))


def generated_spans(space: CohomologySpace, generators):
    """Per-degree spans of the subalgebra generated by 1 and ``generators``.

    ``generators`` is a list of (degree, coordinates) classes.  The spans
    are built in ascending degree: the degree-d span is spanned by the
    generators of degree d and by each generator of degree g > 0 times the
    basis of the finished span in degree d - g.  Degree-0 classes are
    multiples of 1 (``unit_class`` needs dim C^0 = 1), so they are skipped
    as factors on either side.
    """
    positive = [(gd, gv) for gd, gv in generators if gd > 0]
    spans = {}
    for d in range(space.top_degree + 1):
        if not space.betti(d):
            continue
        span = spans[d] = SpanBuilder(space.betti(d))
        if d == 0:
            span.insert(space.unit_class())
        for gd, gv in positive:
            if gd == d and any(gv):
                span.insert(gv)
        for gd, gv in positive:
            if gd < d and d - gd in spans:
                for element in spans[d - gd].basis():
                    _, coords = cup_product(space, (gd, gv), (d - gd, element))
                    if any(coords):
                        span.insert(coords)
    return spans


def odd_degree_generators(space: CohomologySpace):
    gens = []
    for k in range(1, space.top_degree + 1, 2):
        for i in range(space.betti(k)):
            coords = [Fraction(0)] * space.betti(k)
            coords[i] = Fraction(1)
            gens.append((k, coords))
    return gens


def odd_generated(space: CohomologySpace) -> bool:
    """True iff 1 and the odd-degree classes generate the whole ring."""
    spans = generated_spans(space, odd_degree_generators(space))
    return all(spans[k].rank == space.betti(k) for k in spans)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def complex_to_json(complex: CochainComplex) -> dict:
    from .rationals import format_rational

    diffs = {}
    for k, d in enumerate(complex.differentials):
        diffs[str(k)] = [
            [format_rational(d.entry(i, j)) for j in range(d.ncols)]
            for i in range(d.nrows)
        ]
    return {"dims": list(complex.dims), "differentials": diffs}


def cohomology_to_json(space: CohomologySpace, form_of_vector=None) -> dict:
    """Betti numbers plus representatives; forms need a vector converter.

    ``form_of_vector(k, vec)`` turns a degree-k chain vector into a Form
    (e.g. via a subcomplex embedding); when omitted, representatives are
    emitted as raw coordinate vectors.
    """
    from .rationals import format_rational

    representatives = {}
    for k in range(space.top_degree + 1):
        if not space.betti(k):
            continue
        reps = []
        for vec in space.representative_vectors(k):
            if form_of_vector is None:
                reps.append([format_rational(x) for x in vec])
            else:
                from .exterior import form_to_json

                reps.append(form_to_json(form_of_vector(k, vec)))
        representatives[str(k)] = reps
    return {
        "betti": {str(k): b for k, b in sorted(space.betti_dict().items())},
        "representatives": representatives,
    }
