"""Reference constructions that the tests compare liecoh against.

No CLI command runs these, so they live with the tests:

* ``Form``, a sparse form keyed by index tuples, with ``wedge``,
  ``interior``, ``lie_derivative``, ``alternation`` and ``Form.evaluate``.
  Their tuple formulas check the bitmask operators of ``liecoh.exterior``,
  and ``form_to_json`` of a ``Form`` is the reference of the emitter
  ``liecoh.exterior.form_to_json``.
* ``trace_form`` and ``pfaffian_class``: the named generators of
  H(gl(n), so(n)), as alternated trace maps and as the even class outside
  the subring of the odd ones.
* ``pfaffian``, whose square checks the minors of ``pullback_matrix``.
* ``odd_generated``: whether 1 and the odd-degree classes generate a
  cohomology ring, which the tests compare with the Koszul map's
  injectivity.
* ``stack_rows``, the stack whose nullspace ``Matrix.stacked_nullspace``
  finds without forming it.
* Fixtures: ``identity_morphism``, ``gl_block_inclusion`` and
  ``full_subalgebra``.
"""

from fractions import Fraction
from itertools import combinations, permutations
from types import SimpleNamespace

from liecoh.classes import canonical_gl_so_pair, identify_generators
from liecoh.cohomology import generated_spans
from liecoh.errors import DimensionMismatch, InputError, InternalInvariantError, InvalidParams
from liecoh.exterior import alternating_differential_matrix, endo_action_matrix, pullback_matrix
from liecoh.koszul import PairAnalysis
from liecoh.liealg import PairMorphism, subalgebra
from liecoh.linalg import Matrix
from liecoh.rationals import format_rational, parse_rational
from liecoh.relative import quotient_bracket_table


def multi_indices(n: int, k: int):
    """All degree-k multi-indices on n letters as tuples, in basis
    (lexicographic) order."""
    if k < 0 or k > n:
        return ()
    return tuple(combinations(range(n), k))


def _positions(n: int, k: int):
    return {idx: pos for pos, idx in enumerate(multi_indices(n, k))}


def merge_sign(left, right):
    """Merge two disjoint increasing tuples; (sign, merged) or None."""
    sign = 1
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            if (len(left) - i) % 2:
                sign = -sign
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def perm_sign(perm) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class Form:
    """A degree-k element of Lambda^k V* with sparse rational coefficients.

    The coefficients are normalized on construction: index tuples, Fraction
    values, zeros dropped; forms are equal when all three fields are.
    """

    def __init__(self, ambient_dim: int, degree: int, coeffs: dict = None):
        self.ambient_dim = ambient_dim
        self.degree = degree
        clean = {}
        for idx, value in (coeffs or {}).items():
            idx = tuple(idx)
            value = Fraction(parse_rational(value))
            if len(idx) != self.degree:
                raise InputError(f"index {idx} has length != degree {self.degree}")
            if any(not 0 <= i < self.ambient_dim for i in idx):
                raise InputError(f"index {idx} outside dimension {self.ambient_dim}")
            if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                raise InputError(f"index {idx} is not strictly increasing")
            if value:
                clean[idx] = value
        self.coeffs = clean

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient_dim, self.degree, self.coeffs) == (
            other.ambient_dim, other.degree, other.coeffs
        )

    __hash__ = None  # the coefficients are a dict

    def __repr__(self):
        return f"Form({self.ambient_dim}, {self.degree}, {self.coeffs})"

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Form") -> "Form":
        if (self.ambient_dim, self.degree) != (other.ambient_dim, other.degree):
            raise DimensionMismatch("forms live in different spaces")
        coeffs = dict(self.coeffs)
        for idx, v in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, Fraction(0)) + v
        return Form(self.ambient_dim, self.degree, coeffs)

    def scale(self, c) -> "Form":
        return Form(self.ambient_dim, self.degree, {i: c * v for i, v in self.coeffs.items()})

    def __neg__(self) -> "Form":
        return self.scale(-1)

    def to_vector(self):
        positions = _positions(self.ambient_dim, self.degree)
        vec = [Fraction(0)] * len(positions)
        for idx, v in self.coeffs.items():
            vec[positions[idx]] = v
        return vec

    @staticmethod
    def from_vector(n: int, k: int, vec) -> "Form":
        basis = multi_indices(n, k)
        if len(vec) != len(basis):
            raise DimensionMismatch(f"vector length {len(vec)} != dim of degree {k}")
        return Form(n, k, {idx: v for idx, v in zip(basis, vec) if v})

    def evaluate(self, vectors):
        """Pair with vectors: sum_I c_I F^* theta^I, F the frame with the vectors as columns."""
        if len(vectors) != self.degree:
            raise DimensionMismatch(f"need {self.degree} vectors, got {len(vectors)}")
        for v in vectors:
            if len(v) != self.ambient_dim:
                raise DimensionMismatch("vector length != ambient dimension")
        frame = Matrix.from_cols([[Fraction(x) for x in v] for v in vectors], self.ambient_dim)
        minors = pullback_matrix(frame, self.degree)
        positions = _positions(self.ambient_dim, self.degree)
        total = Fraction(0)
        for idx, c in self.coeffs.items():
            total += c * minors.entry(0, positions[idx])
        return total


def basis_form(n: int, idx) -> Form:
    return Form(n, len(idx), {tuple(idx): Fraction(1)})


def wedge(a: Form, b: Form) -> Form:
    """Exterior product with the shuffle sign convention."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("wedge of forms over different spaces")
    coeffs = {}
    for ia, va in a.coeffs.items():
        for ib, vb in b.coeffs.items():
            merged = merge_sign(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            coeffs[idx] = coeffs.get(idx, Fraction(0)) + sign * va * vb
    return Form(a.ambient_dim, a.degree + b.degree, coeffs)


def interior(x, a: Form) -> Form:
    """Contraction i_x a; on 0-forms this is the zero form."""
    if len(x) != a.ambient_dim:
        raise DimensionMismatch("vector length != ambient dimension")
    if a.degree == 0:
        return Form(a.ambient_dim, 0, {})
    coeffs = {}
    for idx, v in a.coeffs.items():
        for p, i in enumerate(idx):
            if x[i]:
                rest = idx[:p] + idx[p + 1:]
                sign = -1 if p % 2 else 1
                coeffs[rest] = coeffs.get(rest, Fraction(0)) + sign * x[i] * v
    return Form(a.ambient_dim, a.degree - 1, coeffs)


def lie_derivative(g, x, a: Form) -> Form:
    """theta_x a for a Lie algebra g and coordinate vector x."""
    if g.dim != a.ambient_dim or len(x) != g.dim:
        raise DimensionMismatch("vector or form does not match the algebra")
    op = endo_action_matrix(g.adjoint_matrix(x), g.dim, a.degree)
    return Form.from_vector(g.dim, a.degree, op.apply(a.to_vector()))


def alternation(n: int, degree: int, table) -> Form:
    """Alternate a multilinear map given on basis tuples.

    ``table`` is either a mapping from length-``degree`` index tuples to
    scalars or a callable on such tuples.  The result is the plain signed
    permutation sum, no 1/k! factor, so alternating an already alternating
    map multiplies it by degree!.
    """
    get = table.__getitem__ if hasattr(table, "__getitem__") else table
    coeffs = {}
    for idx in multi_indices(n, degree):
        total = Fraction(0)
        for perm in permutations(range(degree)):
            value = get(tuple(idx[p] for p in perm))
            if value:
                total += perm_sign(perm) * Fraction(parse_rational(value))
        if total:
            coeffs[idx] = total
    return Form(n, degree, coeffs)


def form_to_json(a: Form) -> dict:
    terms = [[list(idx), format_rational(v)] for idx, v in sorted(a.coeffs.items())]
    return {"degree": a.degree, "terms": terms}


def form_from_json(data, ambient_dim: int) -> Form:
    if not isinstance(data, dict) or "degree" not in data:
        raise InputError("form must be an object with 'degree' and 'terms'")
    coeffs = {}
    for entry in data.get("terms", []):
        idx, value = entry
        coeffs[tuple(idx)] = parse_rational(value)
    return Form(ambient_dim, data["degree"], coeffs)


# ---------------------------------------------------------------------------
# named generators of H(gl(n), so(n))
# ---------------------------------------------------------------------------

def symmetric_gl_matrices(n: int):
    """The symmetric-matrix complement of so(n) in gl(n) as n x n matrices,
    in the order of ``liealg.symmetric_gl_vectors``."""
    out = []
    for a in range(n):
        for b in range(a, n):
            m = [[Fraction(0)] * n for _ in range(n)]
            m[a][b] = m[b][a] = Fraction(1)
            out.append(m)
    return out


def quotient_differential(pair, k: int) -> Matrix:
    """d_k on Lambda (g/h)*: the alternating sum over the projected
    brackets of the lifts, with the sign opposite to the ambient convention."""
    table = quotient_bracket_table(pair)
    return alternating_differential_matrix(
        pair.dim_quotient, lambda i, j: table.get((i, j), {}), k, flip_sign=True
    )


def trace_form(n: int, k: int) -> Form:
    """The degree 4k-3 trace generator as a form on gl(n)/so(n).

    Alternation of the product-trace map (A_1, ..., A_(4k-3)) ->
    tr(A_1 ... A_(4k-3)) over the symmetric-matrix basis of the quotient.
    The result is verified to be invariant under the so(n) action and
    closed for the quotient differential before it is returned.
    """
    degree = 4 * k - 3
    q = n * (n + 1) // 2
    if k < 1 or degree > q:
        raise ValueError(f"degree {degree} exceeds dim gl({n})/so({n}) = {q}")
    mats = symmetric_gl_matrices(n)

    def product_trace(idx):
        prod = [[Fraction(1 if r == c else 0) for c in range(n)] for r in range(n)]
        for i in idx:
            m = mats[i]
            prod = [
                [sum(prod[r][t] * m[t][c] for t in range(n)) for c in range(n)]
                for r in range(n)
            ]
        return sum(prod[i][i] for i in range(n))

    form = alternation(q, degree, product_trace)
    _verify_invariant_and_closed(canonical_gl_so_pair(n), form)
    return form


def _verify_invariant_and_closed(pair, form):
    q = pair.dim_quotient
    vec = form.to_vector()
    for a in pair.action:
        if any(endo_action_matrix(a, q, form.degree).apply(vec)):
            raise InternalInvariantError("trace form is not invariant")
    if form.degree < q and any(quotient_differential(pair, form.degree).apply(vec)):
        raise InternalInvariantError("trace form is not closed")


def pfaffian(rows):
    """Pfaffian of an even-size skew-symmetric rational matrix, given by rows.

    Recursive expansion along the first remaining row; Pf squared equals
    the determinant (exercised by the tests).
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n % 2:
        raise ValueError(f"Pfaffian needs even size, got {n}")
    for i in range(n):
        if rows[i][i]:
            raise ValueError(f"nonzero diagonal entry at {i}")
        for j in range(i + 1, n):
            if rows[i][j] != -rows[j][i]:
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) do not negate")

    memo = {}

    def pf(indices):
        if not indices:
            return Fraction(1)
        cached = memo.get(indices)
        if cached is not None:
            return cached
        i0 = indices[0]
        total = Fraction(0)
        for t in range(1, len(indices)):
            v = rows[i0][indices[t]]
            if v:
                rest = indices[1:t] + indices[t + 1:]
                term = v * pf(rest)
                total += term if (t - 1) % 2 == 0 else -term
        memo[indices] = total
        return total

    return pf(tuple(range(n)))


def odd_degree_generators(space):
    """Every basis class of odd degree, as (degree, coordinates)."""
    gens = []
    for k in range(1, space.top_degree + 1, 2):
        for i in range(space.betti(k)):
            coords = [Fraction(0)] * space.betti(k)
            coords[i] = Fraction(1)
            gens.append((k, coords))
    return gens


def odd_generated(space) -> bool:
    """True iff 1 and the odd-degree classes generate the whole ring."""
    spans = generated_spans(space, odd_degree_generators(space))
    return all(len(spans[k].pivots) == space.betti(k) for k in spans)


def pfaffian_class(m: int, analysis: PairAnalysis = None):
    """The even generator in degree 2m of the relative cohomology of
    (gl(2m), so(2m)): the first basis class outside the subalgebra
    generated by 1 and the odd-degree classes.

    Returns its ``degree``, its ``coords`` in the representatives, its
    ``form`` on g/h, and whether ``identify_generators`` found an exterior
    presentation with a generator y_2m (``presentation_verified``).  Raises
    ValueError when the odd classes already span degree 2m.
    """
    ana = analysis or PairAnalysis(canonical_gl_so_pair(2 * m))
    space = ana.relative_cohomology
    degree = 2 * m
    betti = space.betti(degree)
    span = generated_spans(space, odd_degree_generators(space)).get(degree)
    chosen = None
    for i in range(betti):
        unit = [Fraction(0)] * betti
        unit[i] = Fraction(1)
        if span is None or span.insert(unit):
            chosen = unit
            break
    if chosen is None:
        raise ValueError(f"odd-degree classes already span degree {degree}")
    report = identify_generators(ana)
    verified = report.presentation == "exterior-algebra" and any(
        d == degree and label == f"y{degree}" for d, _, label in report.generators
    )
    vec = ana.quotient_model.embeddings[degree].apply(space.representative_matrix(degree).apply(chosen))
    return SimpleNamespace(
        degree=degree,
        coords=tuple(chosen),
        form=Form.from_vector(ana.pair.dim_quotient, degree, vec),
        presentation_verified=verified,
    )


# ---------------------------------------------------------------------------
# matrices and fixtures
# ---------------------------------------------------------------------------

def stack_rows(matrices, ncols: int) -> Matrix:
    """Vertical stack; degenerate (0-row) blocks are allowed."""
    entries = {}
    offset = 0
    for m in matrices:
        if m.ncols != ncols:
            raise ValueError("column count mismatch")
        for (i, j), v in m.entries.items():
            entries[(i + offset, j)] = v
        offset += m.nrows
    return Matrix(offset, ncols, entries)


def identity_morphism(pair) -> PairMorphism:
    return PairMorphism(pair, pair, Matrix.identity(pair.ambient.dim))


def gl_block_inclusion(k: int, n: int) -> Matrix:
    """Coordinate matrix of the block inclusion gl(k) -> gl(n)."""
    if k > n:
        raise InvalidParams(f"gl({k}) does not embed in gl({n}) as a block")
    entries = {}
    for a in range(k):
        for b in range(k):
            entries[(a * n + b, a * k + b)] = 1
    return Matrix(n * n, k * k, entries)


def full_subalgebra(g):
    """The pair (g, g); the quotient is zero."""
    return subalgebra(g, [[int(i == j) for i in range(g.dim)] for j in range(g.dim)])
