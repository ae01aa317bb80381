"""Exterior algebra on the dual of a coordinate space, as exact matrices.

Basis of Lambda^k V* : the strictly increasing multi-indices
(i_1 < ... < i_k) in lexicographic order; theta^I denotes the dual basis form
of I.  Inside the library a multi-index is a bitmask over the letters, and
only ``Form`` keys its coefficients by index tuples.  All operators are built
as sparse matrices over these bases, so every matrix is reproducible bit for
bit from the structure constants.

Sign conventions (indices 1-based inside the formulas):

* differential:  (d phi)(v_1,...,v_{k+1}) =
      sum_{i<j} (-1)^(i+j) phi([v_i,v_j], v_1,..., omit v_i, v_j, ...)
  The quotient-complex differential built in ``relative`` uses the same
  alternating sum with the opposite overall sign; the chain-map identities
  verified in ``koszul`` are the executable arbiter that the two conventions
  compose coherently.
* interior product:  (i_x a)(v_2,...,v_k) = a(x, v_2,...,v_k)
* Lie derivative along an endomorphism A of V:
      (theta_A a)(v_1,...,v_k) = - sum_t a(v_1,..., A v_t, ..., v_k)
  For a Lie algebra element x, theta_x uses A = ad_x.
* wedge: shuffle convention, so theta^I ^ theta^J is the merge sign times
  theta^(I union J), with no factorial normalization.
* alternation: plain signed sum over permutations, no 1/k! factor (the field
  is Q and nonzero-class detection is normalization independent).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, lcm

from .errors import DimensionMismatch, InputError, InternalInvariantError
from .linalg import Matrix
from .rationals import format_rational, parse_rational


def multi_indices(n: int, k: int):
    """All degree-k multi-indices on n letters as tuples, lexicographically
    ordered; listed on each call, not kept (the tables below are masks)."""
    if k < 0 or k > n:
        return ()
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def multi_index_masks(n: int, k: int):
    """The degree-k multi-indices on n letters as bitmasks, in basis order."""
    if k < 0:
        return ()
    return tuple(map(sum, combinations([1 << i for i in range(n)], k)))


@lru_cache(maxsize=None)
def multi_mask_positions(n: int, k: int):
    return {mask: pos for pos, mask in enumerate(multi_index_masks(n, k))}


def basis_size(n: int, k: int) -> int:
    """The dimension C(n, k) of Lambda^k on n letters, counted, not listed."""
    return comb(n, k) if 0 <= k <= n else 0


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
        positions = multi_mask_positions(self.ambient_dim, self.degree)
        vec = [Fraction(0)] * len(positions)
        for idx, v in self.coeffs.items():
            vec[positions[_mask(idx)]] = v
        return vec

    @staticmethod
    def from_vector(n: int, k: int, vec) -> "Form":
        basis = multi_index_masks(n, k)
        if len(vec) != len(basis):
            raise DimensionMismatch(f"vector length {len(vec)} != dim of degree {k}")
        return Form(n, k, {_letters(mask): v for mask, v in zip(basis, vec) if v})

    def evaluate(self, vectors):
        """Pair with vectors: sum_I c_I F^* theta^I, F the frame with the vectors as columns."""
        if len(vectors) != self.degree:
            raise DimensionMismatch(f"need {self.degree} vectors, got {len(vectors)}")
        for v in vectors:
            if len(v) != self.ambient_dim:
                raise DimensionMismatch("vector length != ambient dimension")
        frame = Matrix.from_cols([[Fraction(x) for x in v] for v in vectors], self.ambient_dim)
        minors = pullback_matrix(frame, self.degree)
        positions = multi_mask_positions(self.ambient_dim, self.degree)
        total = Fraction(0)
        for idx, c in self.coeffs.items():
            total += c * minors.entry(0, positions[_mask(idx)])
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
    permutation sum, so alternating an already alternating map multiplies
    it by degree!.
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


# ---------------------------------------------------------------------------
# operators as matrices over the multi-index bases
# ---------------------------------------------------------------------------

def alternating_differential_matrix(
    n: int, bracket_fn, k: int, flip_sign=False, columns=None, rows=None
) -> Matrix:
    """Degree k -> k+1 matrix of the alternating-sum differential.

    ``bracket_fn(i, j)`` returns [e_i, e_j] as a sparse dict for i < j.  The
    entry on output index J and input index I accumulates
    (-1)^(a+b) c * (insertion sign), a < b ranging over positions of J and
    c the coefficient of the letter of I outside J on [e_J[a], e_J[b]];
    ``flip_sign`` selects the opposite overall sign convention.

    The matrix is built column by column: theta^I, for each letter m = I[p],
    meets every bracket [e_u, e_v] with a term on e_m, and reaches the row
    J = I - {m} + {u, v} when u and v are not in I - {m}.  ``columns`` and
    ``rows`` restrict the matrix to a block: the degree-k and degree-(k+1)
    multi-indices, as bitmasks in basis order, that index its columns and
    rows (default: all).  A term outside ``rows`` raises
    InternalInvariantError.  A grading compatible with the bracket never
    produces one, so for the weight-zero block of a grading this check
    proves that d preserves the block.

    Entries are summed as int numerators over one common denominator
    (``_over_scale``).
    """
    # m -> (mask of {u, v}, masks of the letters below u and below v, c * scale)
    # for each term c e_m of [e_u, e_v], u < v; scale is the lcm of the
    # constants' denominators, so entries are summed as int numerators
    raw = []
    for u in range(n):
        for v in range(u + 1, n):
            for m, c in bracket_fn(u, v).items():
                raw.append(((m, (1 << u) | (1 << v), (1 << u) - 1, (1 << v) - 1), c))
    raw, scale = _int_terms(raw)
    terms = [[] for _ in range(n)]
    for (m, uv, below_u, below_v), c in raw:
        terms[m].append((uv, below_u, below_v, c))
    if columns is None:
        columns = multi_index_masks(n, k)
    if rows is None:
        nrows = basis_size(n, k + 1)
        row_of = multi_mask_positions(n, k + 1)
    else:
        nrows = len(rows)
        row_of = {J: r for r, J in enumerate(rows)}
    flip = 1 if flip_sign else 0
    entries = {}
    for col, mask in enumerate(columns):
        for p, m in enumerate(_letters(mask)):
            rest = mask ^ (1 << m)
            for uv, below_u, below_v, c in terms[m]:
                if uv & rest:
                    continue
                row = row_of.get(rest | uv)
                if row is None:
                    raise InternalInvariantError(
                        f"d of the degree-{k} basis form {_letters(mask)} has a term on "
                        f"{_letters(rest | uv)}, outside the block"
                    )
                # sign (-1)^(a+b+p), flipped on request: u sits at position
                # a = |rest below u| of J, v at b = |rest below v| + 1
                odd = (flip + p + 1 + (rest & below_u).bit_count() + (rest & below_v).bit_count()) & 1
                key = (row, col)
                entries[key] = entries.get(key, 0) + (-c if odd else c)
    return _over_scale(nrows, len(columns), entries, scale)


def _mask(idx) -> int:
    """The multi-index tuple as a bitmask over the letters."""
    out = 0
    for i in idx:
        out |= 1 << i
    return out


def _letters(mask: int) -> tuple:
    """The letters of a bitmask, ascending: the multi-index as a tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def ce_differential(g, k: int) -> Matrix:
    """Chevalley-Eilenberg differential d: Lambda^k g* -> Lambda^(k+1) g*."""
    if k > g.dim:
        raise DimensionMismatch(f"degree {k} exceeds dimension {g.dim}")
    return alternating_differential_matrix(g.dim, g.bracket_basis, k)


def endo_action_matrix(a: Matrix, n: int, k: int, columns=None) -> Matrix:
    """Matrix on Lambda^k V* of theta_A for an endomorphism A of V.

    Column I holds theta_A theta^I: for each letter m = I[p] and each entry
    A[m, j], the term on J = I - {m} + {j}, with sign (-1)^(t - p + 1), t the
    position of j in J.  ``columns``, ascending positions in the degree-k
    basis, fills only those columns (default: all); the shape stays full,
    and each filled column equals the full matrix's.  Entries are summed as
    int numerators over one common denominator (``_int_terms``).
    """
    if a.shape != (n, n):
        raise DimensionMismatch(f"endomorphism shape {a.shape} != ({n}, {n})")
    terms, scale = _int_terms(a.entries.items())
    by_row = {}  # m -> (bit of j, mask of the letters below j, A[m, j] * scale)
    for (m, j), v in terms:
        by_row.setdefault(m, []).append((1 << j, (1 << j) - 1, v))
    masks = multi_index_masks(n, k)
    rows = multi_mask_positions(n, k)
    if columns is None:
        columns = range(len(masks))
    entries = {}
    for col in columns:
        mask = masks[col]
        for p, m in enumerate(_letters(mask)):
            rest = mask ^ (1 << m)
            for bit, below, v in by_row.get(m, ()):
                if rest & bit:
                    continue
                key = (rows[rest | bit], col)
                odd = ((rest & below).bit_count() + p) & 1
                entries[key] = entries.get(key, 0) + (v if odd else -v)
    return _over_scale(len(masks), len(masks), entries, scale)


def lie_derivative_matrix(g, x, k: int, columns=None) -> Matrix:
    return endo_action_matrix(g.adjoint_matrix(x), g.dim, k, columns)


def interior_matrix(x, n: int, k: int, columns=None) -> Matrix:
    """Matrix of i_x: Lambda^k V* -> Lambda^(k-1) V*.

    ``columns`` fills only those columns, and entries are summed as int
    numerators, as in ``endo_action_matrix``.
    """
    if len(x) != n:
        raise DimensionMismatch("vector length != ambient dimension")
    coords, scale = _int_terms(enumerate(x))
    coords = dict(coords)
    rows = multi_mask_positions(n, k - 1)
    masks = multi_index_masks(n, k)
    if columns is None:
        columns = range(len(masks))
    entries = {}
    for col in columns:
        for p, i in enumerate(_letters(masks[col])):
            c = coords.get(i)
            if c:
                key = (rows[masks[col] ^ (1 << i)], col)
                entries[key] = entries.get(key, 0) + (-c if p % 2 else c)
    return _over_scale(len(rows), len(masks), entries, scale)


def _int_terms(items):
    """``(key, value)`` pairs of rationals as ``(key, value * L)`` int pairs
    for L the lcm of the values' denominators, zeros dropped; and L."""
    items = [(key, v) for key, v in items if v]
    scale = lcm(*(v.denominator for _, v in items))
    return [(key, v.numerator * (scale // v.denominator)) for key, v in items], scale


def _over_scale(nrows: int, ncols: int, entries: dict, scale: int) -> Matrix:
    """The matrix of int sums ``entries`` divided by ``scale``, zero sums
    dropped: int entries when the scale is 1, else ``Fraction``s that keep
    the int sums beside them (``Matrix._numerators``), so the elimination
    and the d o d check work on ints either way.  Every operator builder
    returns this."""
    entries = {key: v for key, v in entries.items() if v}
    if scale == 1:
        return Matrix._trusted(nrows, ncols, entries)
    m = Matrix._trusted(nrows, ncols, {key: Fraction(v, scale) for key, v in entries.items()})
    m._numerators = Matrix._trusted(nrows, ncols, entries)
    return m


def pullback_matrix(f: Matrix, k: int) -> Matrix:
    """Matrix of the pullback on Lambda^k along a linear map.

    For f: V -> W of shape (dim W, dim V), returns the map
    Lambda^k W* -> Lambda^k V* whose entries are the k x k minors of f:
    entry[I, J] = det f[J, I] (rows J, columns I).  No minor is expanded:
    Lambda^k f^* = (f^*)^(wedge k) gives f^* theta^J = f^* theta^(j_1) ^
    f^* theta^(J minus j_1), with f^* theta^j the row j of f, so each form wedges
    one sparse row onto its memoized suffix form and integers stay integers.
    Forms are keyed by bitmasks: theta^i ^ theta^I is (-1)^t theta^(I | i),
    t the number of letters of I below i.
    """
    dim_w, dim_v = f.shape
    row_of = multi_mask_positions(dim_v, k)
    cols = multi_index_masks(dim_w, k)
    rows = [{} for _ in range(dim_w)]
    for (j, i), v in f.entries.items():
        rows[j][i] = v
    pulled = {0: {0: 1}}

    def pull(J):
        if J not in pulled:
            form = pulled[J] = {}
            low = J & -J
            for i, c in rows[low.bit_length() - 1].items():
                bit = 1 << i
                for I, v in pull(J ^ low).items():
                    if not I & bit:
                        key = I | bit
                        odd = (I & (bit - 1)).bit_count() & 1
                        form[key] = form.get(key, 0) + (-c * v if odd else c * v)
        return pulled[J]

    entries = {}
    for col_pos, J in enumerate(cols):
        for I, v in pull(J).items():
            if v:
                entries[(row_of[I], col_pos)] = v
    return Matrix(len(row_of), len(cols), entries)


def wedge_vector(n: int, k: int, v, l: int, w):
    """Wedge two coordinate vectors of Lambda^k V* and Lambda^l V*.

    Multi-indices are bitmasks: theta^I ^ theta^J is zero when I & J, and
    otherwise (-1)^t theta^(I | J), t the number of pairs i in I, j in J
    with i > j.  Its parity is that of |I & odd(J)|, odd(J) the letters with
    an odd number of letters of J below them, so each pair costs two ands
    and one popcount; w's nonzeros are listed once.
    """
    out_positions = multi_mask_positions(n, k + l)
    out = [Fraction(0)] * len(out_positions)
    if not out_positions:
        return out
    vk = multi_index_masks(n, k)
    wl = multi_index_masks(n, l)
    right = [(wl[pb], _odd_below(wl[pb], n), vb) for pb, vb in enumerate(w) if vb]
    for pa, va in enumerate(v):
        if not va:
            continue
        a = vk[pa]
        for b, odd, vb in right:
            if a & b:
                continue
            pos = out_positions[a | b]
            if (a & odd).bit_count() & 1:
                out[pos] -= va * vb
            else:
                out[pos] += va * vb
    return out


def _odd_below(mask: int, n: int) -> int:
    """The letters below n with an odd number of letters of ``mask`` below them."""
    out = 0
    odd = 0
    for i in range(n):
        if odd:
            out |= 1 << i
        odd ^= mask >> i & 1
    return out


# ---------------------------------------------------------------------------
# JSON form serialization
# ---------------------------------------------------------------------------

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
