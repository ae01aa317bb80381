"""Finite-dimensional Lie algebras over the rationals.

An algebra is a validated table of structure constants: [e_i, e_j] =
sum_k c[i][j][k] e_k.  The table is stored sparsely for i < j only; the
i > j half follows by antisymmetry.  Validation checks antisymmetry and the
Jacobi identity exactly and reports every violation.

Subalgebra pairs h < g carry a chosen coordinate complement representing
g/h and the matrices of the induced h-action on it.  No value is modified
after construction and all operations are pure functions.  The records are
plain classes that compare by value (see the README on start-up cost).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from math import comb, lcm

from .errors import (
    AntisymmetryViolation,
    DependentVectors,
    InputError,
    InvalidParams,
    InvalidStructure,
    JacobiViolation,
    NotAHomomorphism,
    NotClosedUnderBracket,
    SubalgebraNotPreserved,
    UnknownBuiltin,
)
from .linalg import ColumnSolver, Matrix
from .rationals import format_rational, parse_rational


class LieAlgebra:
    """Structure constants on a named basis; equal when dim, names and
    brackets are."""

    def __init__(self, dim: int, basis_names: tuple, structure: dict):
        self.dim = dim
        self.basis_names = basis_names
        self.structure = structure  # (i, j) with i < j -> {k: coefficient}, zero rows absent

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.basis_names, self.structure) == (
            other.dim, other.basis_names, other.structure
        )

    __hash__ = None  # the structure is a dict

    @cached_property
    def grading(self) -> "Grading":
        """The torus weights of the basis and its parities under the sign
        masks of the ad e_j (``sign_mask``, ``sign_parities``).

        Found on first use, when the weight-zero block of the CE complex is
        first built.
        """
        masks = [sign_mask(self.adjoint_matrix(self.basis_vector(j))) or 0 for j in range(self.dim)]
        return Grading(torus_weights(self), sign_parities(self.dim, masks))

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse coordinate dict (any index order)."""
        if i == j:
            return {}
        if i < j:
            return dict(self.structure.get((i, j), {}))
        return {k: -v for k, v in self.structure.get((j, i), {}).items()}

    def bracket_basis_vec(self, i: int, j: int):
        out = [0] * self.dim
        for k, v in self.bracket_basis(i, j).items():
            out[k] = v
        return out

    def bracket(self, x, y):
        """[x, y] for coordinate vectors x, y.

        Only the pairs (i, j) that meet the supports of x and y can give a
        nonzero x_i y_j - x_j y_i, so only they are looked up.
        """
        out = [0] * self.dim
        sx = [i for i, v in enumerate(x) if v]
        sy = [j for j, v in enumerate(y) if v]
        structure = self.structure
        pairs = {(i, j) if i < j else (j, i) for i in sx for j in sy if i != j}
        for i, j in pairs:
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for k, v in structure.get((i, j), {}).items():
                    out[k] = out[k] + c * v
        return out

    def adjoint_matrix(self, x) -> Matrix:
        """ad_x as a dim x dim matrix acting on coordinate columns.

        Column j is [x, e_j], the sum of x_i [e_i, e_j] over the support of
        x, so only the brackets that meet it are read; x_i multiplies only
        when it is not 1.
        """
        structure = self.structure
        sums = {}
        for i, c in enumerate(x):
            if not c:
                continue
            for j in range(self.dim):
                terms = structure.get((i, j) if i < j else (j, i)) if i != j else None
                if terms:
                    for k, v in terms.items():
                        if c != 1:
                            v = c * v
                        if j < i:
                            v = -v
                        s = sums.get((k, j))
                        sums[(k, j)] = v if s is None else s + v
        return Matrix._trusted(self.dim, self.dim, {key: v for key, v in sums.items() if v})

    def basis_vector(self, i: int):
        vec = [0] * self.dim
        vec[i] = 1
        return vec


class Grading:
    """A splitting of Lambda g* into subcomplexes, all acyclic but one.

    ``weights[j]`` is the torus weight of e_j, packed into one int by
    ``torus_weights``; ``parities[j]`` is its sign parity, the bitmask of the
    sign masks that contain it (``sign_parities``).
    theta^I lies in the weight-zero block when the weights of I sum to 0 and
    the parities of I XOR to 0.  Cartan's formula theta_x = d i_x + i_x d
    makes theta_x zero on cohomology, so every block of nonzero torus weight
    is acyclic.  So is every other parity: when exp(pi M) = diag(eps) for an M
    whose theta_M is zero on cohomology, such as ad x, its pullback is a
    chain map that is the identity on cohomology and multiplies theta^I by
    the product of eps over I, so its -1 eigenspace is an acyclic subcomplex.
    """

    def __init__(self, weights, parities):
        self.weights = tuple(weights)
        self.parities = tuple(parities)
        self._states = None

    @property
    def trivial(self) -> bool:
        """True when the weight-zero block is all of Lambda g*."""
        return not any(self.weights) and not any(self.parities)

    def block(self, k: int):
        """The degree-k weight-zero block as ascending (position, bitmask)
        pairs, positions in the lexicographic basis of Lambda^k g*.

        Only the block is visited: a depth-first search over ascending
        letters takes letter v next only when some set of the letters after
        it completes the multi-index to weight 0 and parity 0, as the table
        of the (count, weight, parity) that each suffix of the letters
        reaches says.  The position of i_1 < ... < i_k is
        C(n, k) - 1 - sum_t C(n - 1 - i_t, k + 1 - t).
        """
        weights, parities = self.weights, self.parities
        n = len(weights)
        reach = self._suffix_states()
        out = []

        def visit(start, left, weight, parity, pos, mask):
            if left == 1:
                # the last letter: no suffix table needed
                for v in range(start, n):
                    if weights[v] == -weight and parities[v] == parity:
                        out.append((pos - (n - 1 - v), mask | 1 << v))
                return
            for v in range(start, n - left + 1):
                w, p = weight + weights[v], parity ^ parities[v]
                if (left - 1, -w, p) in reach[v + 1]:
                    visit(v + 1, left - 1, w, p, pos - comb(n - 1 - v, left), mask | 1 << v)

        if k:
            visit(0, k, 0, 0, comb(n, k) - 1, 0)
        else:
            out.append((0, 0))
        return out

    def _suffix_states(self):
        """``states[i]``: the (count, weight, parity) of every set of the
        letters i, ..., n - 1; found on first use and kept."""
        if self._states is None:
            states = [{(0, 0, 0)}]
            for w, p in zip(reversed(self.weights), reversed(self.parities)):
                after = states[-1]
                states.append(after | {(c + 1, x + w, y ^ p) for c, x, y in after})
            self._states = states[::-1]
        return self._states


def sign_mask(m: Matrix):
    """The letters where exp(pi M) is -1, as a bitmask, when exp(pi M) is
    diagonal with entries +-1; else None.

    If M (M^2 + 1)(M^2 + 4) = 0, M is diagonalizable over C with eigenvalues
    in {0, +-i, +-2i}, where exp(pi z) and the even polynomial
    1 + (2/3) z^2 (z^2 + 4) both take the values 1, -1, 1; so exp(pi M), and
    exp(-pi M), is that polynomial in M.  Both tests are exact, in ints: with
    s the lcm of the denominators of M and A = s M, the first reads
    A (A^2 + s^2)(A^2 + 4 s^2) = 0.  Most operators fail it already on the
    all-ones vector, by five matrix-vector products, before any matrix
    product is formed.
    """
    n = m.nrows
    s = reduce(lcm, (v.denominator for v in m.entries.values()), 1)
    a = Matrix._trusted(n, n, {key: v.numerator * (s // v.denominator) for key, v in m.entries.items()})
    s2 = s * s
    powers = [[1] * n]
    for _ in range(5):
        powers.append(a.apply(powers[-1]))
    if any(x + 5 * s2 * y + 4 * s2 * s2 * z for x, y, z in zip(powers[5], powers[3], powers[1])):
        return None
    square = a @ a
    shifted = square + Matrix.identity(n).scale(4 * s2)  # s^2 (M^2 + 4)
    if not (a @ (square + Matrix.identity(n).scale(s2)) @ shifted).is_zero():
        return None
    mask = 0
    for (i, j), v in (square @ shifted).entries.items():  # s^4 (exp(pi M) - 1), times 3/2
        if i != j or v != -3 * s2 * s2:
            return None
        mask |= 1 << i
    return mask


def sign_parities(n: int, masks) -> tuple:
    """Per letter v < n, the bitmask of the ``masks`` that contain it: bit t
    is set when bit v of ``masks[t]`` is.

    A multi-index meets every mask in an even number of letters exactly when
    the parities of its letters XOR to 0.
    """
    return tuple(sum(1 << t for t, mask in enumerate(masks) if mask >> v & 1) for v in range(n))


def torus_weights(g: LieAlgebra) -> tuple:
    """Per basis element e_j, its weight under the torus of g, packed into one int.

    The torus T is every x in g whose ad_x is diagonal in the basis: the
    kernel of the off-diagonal entries of ad_x = sum_i x_i ad(e_i), found by
    one exact nullspace.  On its canonical basis t_1, ..., t_r, e_j has
    weight (lambda_j[s])_s with lambda_j[s] the (j, j) entry of ad(t_s), each
    coordinate s scaled to integers.  Packed as sum_s lambda_j[s] B^s with
    B = 2 n max|lambda| + 1, a sum of at most n weights is zero exactly when
    it is zero in every coordinate: each coordinate of the sum is below B/2
    in size, and balanced base-B digits are unique.
    """
    n = g.dim
    off = {}  # (k, j) with k != j -> {i: coefficient of x_i in (ad_x)_kj}
    diagonal = [{} for _ in range(n)]  # j -> {i: coefficient of x_i in (ad_x)_jj}
    for (i, j), terms in g.structure.items():
        for k, c in terms.items():
            # c e_k is a term of [e_i, e_j] = -[e_j, e_i]
            for x, col, v in ((i, j, c), (j, i, -c)):
                target = diagonal[col] if k == col else off.setdefault((k, col), {})
                target[x] = target.get(x, 0) + v
    system = Matrix(
        len(off), n, {(r, x): v for r, coeffs in enumerate(off.values()) for x, v in coeffs.items()}
    )
    on_diagonal = Matrix(n, n, {(j, x): v for j in range(n) for x, v in diagonal[j].items()})
    lam = (on_diagonal @ system.nullspace())._integral(1)
    base = 2 * n * max((abs(v) for v in lam.entries.values()), default=0) + 1
    packed = [0] * n
    for (j, s), v in lam.entries.items():
        packed[j] += v * base ** s
    return tuple(packed)


def validate_structure(structure, dim: int, basis_names=None) -> LieAlgebra:
    """Validate a raw structure table and return the algebra.

    ``structure`` is either a mapping (i, j) -> {k: value} or an iterable of
    (i, j, k, value) entries; values may be Fractions, ints or "p/q" strings.
    Raises InvalidStructure carrying every violated identity: antisymmetry
    failures as (i, j, k) with the exact residual c[i][j][k] + c[j][i][k],
    and Jacobi failures as (i, j, k, l) with the coefficient of e_l in the
    cyclic sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j].
    """
    items = _normalize_table(structure, dim)
    violations = []

    upper = {}  # (i, j, k) with i < j -> accumulated value of c[i][j][k]
    lower = {}  # (i, j, k) with i < j -> accumulated value of c[j][i][k]
    diagonal = {}
    for i, j, k, v in items:
        if i == j:
            diagonal[(i, j, k)] = diagonal.get((i, j, k), Fraction(0)) + v
        elif i < j:
            upper[(i, j, k)] = upper.get((i, j, k), Fraction(0)) + v
        else:
            lower[(j, i, k)] = lower.get((j, i, k), Fraction(0)) + v
    for (i, j, k), v in sorted(diagonal.items()):
        if v:
            violations.append(AntisymmetryViolation(i, j, k, v))
    for key in sorted(set(upper) & set(lower)):
        residual = upper[key] + lower[key]
        if residual:
            violations.append(AntisymmetryViolation(*key, residual))

    table = {}
    for key in set(upper) | set(lower):
        i, j, k = key
        value = upper[key] if key in upper else -lower[key]
        if value:
            table.setdefault((i, j), {})[k] = value

    candidate = LieAlgebra(dim, _default_names(dim, basis_names), table)
    if not violations:
        violations = _jacobi_violations(table, dim)
    if violations:
        raise InvalidStructure(violations)
    return candidate


def _jacobi_violations(table, dim):
    """Jacobi violations of an antisymmetric table (i, j) -> {m: c}, i < j.

    The coefficient of e_l in [[e_i, e_j], e_k] is sum_m c_ij^m c_mk^l.  With
    every constant scaled by L, the lcm of the denominators, the cyclic sums
    are ints s = L^2 * residual; a Fraction is formed only for a violation.
    Violations come by ascending (i, j, k), then l.
    """
    scale = 1
    for terms in table.values():
        for v in terms.values():
            scale = lcm(scale, v.denominator)
    scaled = {}
    for (i, j), terms in table.items():
        row = [(m, v.numerator * (scale // v.denominator)) for m, v in terms.items()]
        scaled[(i, j)] = row
        scaled[(j, i)] = [(m, -c) for m, c in row]
    violations = []
    for i, j, k in combinations(range(dim), 3):
        cyc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in scaled.get((a, b), ()):
                for l, y in scaled.get((m, c), ()):
                    cyc[l] = cyc.get(l, 0) + x * y
        for l in sorted(cyc):
            if cyc[l]:
                violations.append(JacobiViolation(i, j, k, l, Fraction(cyc[l], scale * scale)))
    return violations


def _normalize_table(structure, dim):
    items = []
    if hasattr(structure, "items"):
        for (i, j), terms in structure.items():
            for k, v in terms.items():
                items.append((i, j, k, v))
    else:
        for entry in structure:
            i, j, k, v = entry
            items.append((int(i), int(j), int(k), v))
    for i, j, k, _ in items:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise InputError(f"structure index ({i}, {j}, {k}) outside dimension {dim}")
    return [(i, j, k, Fraction(parse_rational(v))) for i, j, k, v in items]


def _default_names(dim, names):
    if names is None:
        return tuple(f"e{i + 1}" for i in range(dim))
    names = tuple(str(n) for n in names)
    if len(names) != dim:
        raise InputError(f"{len(names)} basis names for dimension {dim}")
    return names


def _unit(n, j):
    vec = [0] * n
    vec[j] = 1
    return vec


# ---------------------------------------------------------------------------
# builtin algebras
# ---------------------------------------------------------------------------

def _matrix_unit(n, a, b):
    m = [[0] * n for _ in range(n)]
    m[a][b] = 1
    return m


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _from_matrix_basis(mats, names) -> LieAlgebra:
    """Structure constants of a bracket-closed list of n x n matrices.

    Each commutator is formed over the nonzero entries of the two matrices
    only, and flattened row-major into an int vector; one solve reads the
    coordinates of all of them.
    """
    dim = len(mats)
    n = len(mats[0]) if mats else 0
    flat = Matrix.from_cols([[x for row in m for x in row] for m in mats])
    # per matrix m: row a -> [(b, m[a][b])] and column b -> [(a, m[a][b])], nonzeros only
    rows = [[[(b, x) for b, x in enumerate(row) if x] for row in m] for m in mats]
    cols = [[[(a, m[a][b]) for a in range(n) if m[a][b]] for b in range(n)] for m in mats]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    commutators = []
    for i, j in pairs:
        comm = [0] * (n * n)
        for p, q, sign in ((i, j, 1), (j, i, -1)):
            # [m_i, m_j] = m_i m_j - m_j m_i; entry (a, c) of m_p m_q sums m_p[a][b] m_q[b][c]
            for b in range(n):
                for a, u in cols[p][b]:
                    for c, v in rows[q][b]:
                        comm[a * n + c] += sign * u * v
        commutators.append(comm)
    structure = {}
    for (i, j), coords in zip(pairs, ColumnSolver(flat, commutators).solutions):
        if coords is None:
            raise NotClosedUnderBracket(i, j)
        terms = {k: v for k, v in enumerate(coords) if v}
        if terms:
            structure[(i, j)] = terms
    return LieAlgebra(dim, tuple(names), structure)


def gl_basis_names(n):
    return [f"E{a + 1}{b + 1}" for a in range(n) for b in range(n)]


def so_pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def builtin(name: str, n: int) -> LieAlgebra:
    """Construct a named algebra with its documented basis.

    gl(n): elementary matrices E_ab, row-major.
    sl(n): H_a = E_aa - E_(a+1)(a+1) for a < n-1, then E_ab (a != b) row-major.
    so(n): A_ab = E_ab - E_ba for a < b, lexicographic; n >= 2.
    abelian(n): x_1..x_n, all brackets zero.
    heisenberg(m), m = 2k+1: p_1..p_k, q_1..q_k, z with [p_i, q_i] = z.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidParams(f"parameter must be an integer, got {n!r}")
    if name == "gl":
        if n < 1:
            raise InvalidParams("gl(n) needs n >= 1")
        mats = [_matrix_unit(n, a, b) for a in range(n) for b in range(n)]
        return _from_matrix_basis(mats, gl_basis_names(n))
    if name == "sl":
        if n < 2:
            raise InvalidParams("sl(n) needs n >= 2")
        mats = [
            _mat_sub(_matrix_unit(n, a, a), _matrix_unit(n, a + 1, a + 1))
            for a in range(n - 1)
        ]
        names = [f"H{a + 1}" for a in range(n - 1)]
        for a in range(n):
            for b in range(n):
                if a != b:
                    mats.append(_matrix_unit(n, a, b))
                    names.append(f"E{a + 1}{b + 1}")
        return _from_matrix_basis(mats, names)
    if name == "so":
        if n < 2:
            raise InvalidParams("so(n) needs n >= 2")
        mats = [
            _mat_sub(_matrix_unit(n, a, b), _matrix_unit(n, b, a)) for a, b in so_pairs(n)
        ]
        names = [f"A{a + 1}{b + 1}" for a, b in so_pairs(n)]
        return _from_matrix_basis(mats, names)
    if name == "abelian":
        if n < 1:
            raise InvalidParams("abelian(n) needs n >= 1")
        return LieAlgebra(n, tuple(f"x{i + 1}" for i in range(n)), {})
    if name == "heisenberg":
        if n < 3 or n % 2 == 0:
            raise InvalidParams("heisenberg(m) needs odd m >= 3")
        k = (n - 1) // 2
        names = [f"p{i + 1}" for i in range(k)] + [f"q{i + 1}" for i in range(k)] + ["z"]
        structure = {(i, k + i): {2 * k: Fraction(1)} for i in range(k)}
        return LieAlgebra(n, tuple(names), structure)
    raise UnknownBuiltin(f"unknown builtin algebra {name!r}")


def direct_sum(g: LieAlgebra, h: LieAlgebra):
    """Direct product g (+) h with zero cross brackets.

    Returns (sum, left_injection, right_injection); the injections are
    coordinate inclusion matrices of the two factors.
    """
    dim = g.dim + h.dim
    structure = {key: dict(terms) for key, terms in g.structure.items()}
    for (i, j), terms in h.structure.items():
        structure[(i + g.dim, j + g.dim)] = {k + g.dim: v for k, v in terms.items()}
    names = list(g.basis_names)
    for name in h.basis_names:
        while name in names:
            name = name + "'"
        names.append(name)
    total = LieAlgebra(dim, tuple(names), structure)
    left = Matrix(dim, g.dim, {(i, i): 1 for i in range(g.dim)})
    right = Matrix(dim, h.dim, {(g.dim + i, i): 1 for i in range(h.dim)})
    return total, left, right


# ---------------------------------------------------------------------------
# subalgebra pairs
# ---------------------------------------------------------------------------

class SubalgebraPair:
    """A subalgebra h < g with a chosen coordinate complement for g/h; equal
    when all seven fields are."""

    def __init__(self, ambient: LieAlgebra, sub_basis: tuple, quotient_basis: tuple,
                 action: tuple, sub: LieAlgebra, sub_matrix: Matrix, projection_matrix: Matrix):
        self.ambient = ambient
        self.sub_basis = sub_basis            # h generators as coordinate vectors in g
        self.quotient_basis = quotient_basis  # complement vectors representing g/h
        self.action = action                  # per h generator, the induced matrix on g/h
        self.sub = sub                        # h with its own structure constants
        self.sub_matrix = sub_matrix          # the h generators as columns
        # g -> g/h in coordinates (rows = quotient coordinate functionals)
        self.projection_matrix = projection_matrix

    def _key(self):
        return (self.ambient, self.sub_basis, self.quotient_basis, self.action, self.sub,
                self.sub_matrix, self.projection_matrix)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # the algebras are unhashable

    @property
    def dim_sub(self) -> int:
        return len(self.sub_basis)

    @property
    def dim_quotient(self) -> int:
        return len(self.quotient_basis)

    @cached_property
    def quotient_matrix(self) -> Matrix:
        return Matrix.from_cols(self.quotient_basis, self.ambient.dim)


def subalgebra(g: LieAlgebra, vectors, quotient=None) -> SubalgebraPair:
    """Validate h = span(vectors) < g and build the pair.

    The complement is chosen by greedy pivot completion of the given
    generators in ambient coordinates, unless an explicit ``quotient`` basis
    is supplied (it must complete the generators to a basis of g).
    """
    vectors = [tuple(map(_scalar, v)) for v in vectors]
    for v in vectors:
        if len(v) != g.dim:
            raise InputError(f"subalgebra vector length {len(v)} != dim {g.dim}")
    r = len(vectors)
    rows = Matrix.from_rows(vectors, g.dim)
    if rows.rank() != r:
        raise DependentVectors("subalgebra generators are linearly dependent")

    sub_matrix = Matrix.from_cols(vectors, g.dim)
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    closure = ColumnSolver(sub_matrix, [g.bracket(vectors[a], vectors[b]) for a, b in pairs])
    h_structure = {}
    for (a, b), coords in zip(pairs, closure.solutions):
        if coords is None:
            raise NotClosedUnderBracket(a, b)
        terms = {k: v for k, v in enumerate(coords) if v}
        if terms:
            h_structure[(a, b)] = terms

    if quotient is None:
        pivot_cols = set(rows.pivot_columns())
        quotient = [_unit(g.dim, j) for j in range(g.dim) if j not in pivot_cols]
    quotient = [tuple(map(_scalar, v)) for v in quotient]
    if len(quotient) != g.dim - r:
        raise DependentVectors("complement size must equal dim g - dim h")
    full = Matrix.from_cols(list(vectors) + list(quotient), g.dim)

    # [S | Q] x = [h_a, q] for every a and q, then = e_j for every j; the Q part of x
    q = len(quotient)
    rhs = [g.bracket(v, w) for v in vectors for w in quotient] + [_unit(g.dim, j) for j in range(g.dim)]
    completion = ColumnSolver(full, rhs)
    if len(completion.pivots) != g.dim:
        raise DependentVectors("complement does not complete the subalgebra basis")
    coords = [x[r:] for x in completion.solutions]
    action = [Matrix.from_cols(coords[a * q:(a + 1) * q], q) for a in range(r)]
    projection = coords[r * q:]

    return SubalgebraPair(
        ambient=g,
        sub_basis=tuple(vectors),
        quotient_basis=tuple(quotient),
        action=tuple(action),
        sub=LieAlgebra(r, _sub_names(g, vectors), h_structure),
        sub_matrix=sub_matrix,
        projection_matrix=Matrix.from_cols(projection, len(quotient)),
    )


def _scalar(x):
    """A parsed rational, as an int when its denominator is 1."""
    x = parse_rational(x)
    return x.numerator if x.denominator == 1 else x


def _sub_names(g, vectors):
    names = []
    for a, v in enumerate(vectors):
        support = [j for j, x in enumerate(v) if x]
        if len(support) == 1 and v[support[0]] == 1:
            names.append(g.basis_names[support[0]])
        else:
            names.append(f"h{a + 1}")
    return tuple(names)


def zero_subalgebra(g: LieAlgebra) -> SubalgebraPair:
    """The pair (g, 0); the quotient is g itself."""
    return subalgebra(g, [])


# ---------------------------------------------------------------------------
# morphisms of pairs
# ---------------------------------------------------------------------------

class PairMorphism:
    """A Lie algebra homomorphism H: g' -> g with H(h') contained in h; equal
    when source, target and matrix are."""

    def __init__(self, source: SubalgebraPair, target: SubalgebraPair, matrix: Matrix):
        self.source = source
        self.target = target
        self.matrix = matrix  # shape (dim g, dim g')

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.matrix) == (other.source, other.target, other.matrix)

    __hash__ = None  # the pairs are unhashable


def pair_morphism(source: SubalgebraPair, target: SubalgebraPair, matrix) -> PairMorphism:
    """Validate bracket preservation and subalgebra containment."""
    if not isinstance(matrix, Matrix):
        matrix = Matrix.from_rows(_rows_from_json(matrix, "morphism matrix"))
    gs, gt = source.ambient, target.ambient
    if matrix.shape != (gt.dim, gs.dim):
        raise InputError(
            f"morphism matrix shape {matrix.shape} != ({gt.dim}, {gs.dim})"
        )
    cols = matrix.cols_dense()
    for i in range(gs.dim):
        for j in range(i + 1, gs.dim):
            lhs = matrix.apply(gs.bracket_basis_vec(i, j))
            rhs = gt.bracket(cols[i], cols[j])
            if any(a != b for a, b in zip(lhs, rhs)):
                raise NotAHomomorphism(i, j)
    images = ColumnSolver(target.sub_matrix, [matrix.apply(v) for v in source.sub_basis])
    for a, x in enumerate(images.solutions):
        if x is None:
            raise SubalgebraNotPreserved(a)
    return PairMorphism(source=source, target=target, matrix=matrix)


# ---------------------------------------------------------------------------
# canonical embeddings used by the CLI shorthand
# ---------------------------------------------------------------------------

def so_in_gl_vectors(k: int, n: int):
    """Basis of so(k) inside gl(n) (upper-left block), as gl coordinates."""
    if k > n:
        raise InvalidParams(f"so({k}) does not embed in gl({n}) as a block")
    out = []
    for a, b in so_pairs(k):
        vec = [0] * (n * n)
        vec[a * n + b] = 1
        vec[b * n + a] = -1
        out.append(vec)
    return out


def so_in_so_vectors(k: int, n: int):
    """Basis of so(k) inside so(n) (upper-left block), as so(n) coordinates."""
    if k > n:
        raise InvalidParams(f"so({k}) does not embed in so({n}) as a block")
    index = {pair: idx for idx, pair in enumerate(so_pairs(n))}
    out = []
    for a, b in so_pairs(k):
        vec = [0] * len(index)
        vec[index[(a, b)]] = 1
        out.append(vec)
    return out


def symmetric_gl_vectors(n: int):
    """Symmetric-matrix complement of so(n) in gl(n).

    Order: upper triangle row-major; E_aa on the diagonal, E_ab + E_ba off it.
    """
    out = []
    for a in range(n):
        for b in range(a, n):
            vec = [0] * (n * n)
            if a == b:
                vec[a * n + a] = 1
            else:
                vec[a * n + b] = 1
                vec[b * n + a] = 1
            out.append(vec)
    return out


# ---------------------------------------------------------------------------
# JSON forms (all rationals as "p/q" strings)
# ---------------------------------------------------------------------------

def algebra_to_json(g: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(g.structure):
        for k in sorted(g.structure[(i, j)]):
            brackets.append([i, j, k, format_rational(g.structure[(i, j)][k])])
    return {"dim": g.dim, "basis": list(g.basis_names), "brackets": brackets}


def algebra_from_json(data) -> LieAlgebra:
    if not isinstance(data, dict) or "dim" not in data:
        raise InputError("algebra file must be an object with a 'dim' field")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise InputError(f"invalid dimension {dim!r}")
    names = data.get("basis")
    if names is not None and not (
        isinstance(names, list) and len(names) == dim and all(isinstance(x, str) for x in names)
    ):
        raise InputError(f"'basis' must be a list of {dim} strings")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise InputError("'brackets' must be a list of [i, j, k, value] entries")
    table = []
    for idx, entry in enumerate(brackets):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise InputError(f"bracket entry {idx} must be [i, j, k, value]")
        i, j, k, v = entry
        if not all(type(x) is int for x in (i, j, k)):
            raise InputError(f"bracket entry {idx} must have integer indices i, j, k")
        table.append((i, j, k, parse_rational(v)))
    return validate_structure(table, dim, names)


def _rows_from_json(rows, what):
    """Parse a JSON list of equal-length rows of rationals."""
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows)
    ):
        raise InputError(f"{what} must be a list of equal-length lists")
    return [[parse_rational(x) for x in row] for row in rows]


def vectors_from_json(data):
    if not isinstance(data, dict) or "vectors" not in data:
        raise InputError("subalgebra file must be an object with a 'vectors' field")
    return _rows_from_json(data["vectors"], "'vectors'")
