"""The integer-native pullback, kernel and solve paths against slow references.

``pullback_matrix`` builds every minor by the wedge recursion and
``Matrix.nullspace`` reads the kernel straight off fraction-free integer
elimination.  The references below do neither: one expands each k x k minor
by rational Gaussian elimination, the other brings the matrix to reduced
echelon form over ``Fraction``.  Both must agree exactly with the fast paths
on random rational matrices (zero rows, non-square shapes, k = 0 and
k > min(shape) included) and on the projection and inclusion matrices of
the builtin pairs up to dimension 10.

``ColumnSolver`` keeps the transform block of its reduced tableau as sparse
columns and solves over the support of the right-hand side.  The reference
solver keeps the dense tableau and scans every transform row on every solve;
solutions and certificates must be equal, entry for entry, on random
systems and on the embedding and reducer solvers of the same pairs.
"""

import random
from fractions import Fraction

import sympy

from liecoh import builtin, subalgebra
from liecoh.classes import canonical_gl_so_pair
from liecoh.exterior import Form, multi_indices, pullback_matrix
from liecoh.koszul import PairAnalysis
from liecoh.liealg import full_subalgebra, so_in_gl_vectors, so_in_so_vectors, zero_subalgebra
from liecoh.linalg import ColumnSolver, Matrix, clear_denominators, row_reduce


def reference_det(rows) -> Fraction:
    """Determinant of a small square matrix by rational elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        piv = m[c][c]
        det *= piv
        for r in range(c + 1, n):
            f = m[r][c] / piv
            if f:
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    return det


def reference_pullback(f: Matrix, k: int) -> Matrix:
    """entry[I, J] = det f[J, I], one minor at a time."""
    dim_w, dim_v = f.shape
    fd = f.rows_dense()
    entries = {}
    for col, J in enumerate(multi_indices(dim_w, k)):
        for row, I in enumerate(multi_indices(dim_v, k)):
            minor = reference_det([[fd[j][i] for i in I] for j in J])
            if minor:
                entries[(row, col)] = minor
    return Matrix(len(multi_indices(dim_v, k)), len(multi_indices(dim_w, k)), entries)


def reference_nullspace(a: Matrix):
    """Canonical kernel basis from the reduced echelon form over Fraction."""
    rows = [[Fraction(x) for x in row] for row in a.rows_dense()]
    pivots = []
    r = 0
    for c in range(a.ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                t = rows[i][c]
                rows[i] = [x - t * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in range(a.ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * a.ncols
        vec[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][free]
        basis.append(vec)
    return basis


class ReferenceSolver:
    """Dense-tableau solve: every transform row is scanned on every solve."""

    def __init__(self, a: Matrix):
        self.nrows = a.nrows
        self.ncols = a.ncols
        rows = a.rows_dense()
        for i, row in enumerate(rows):
            ext = row + [0] * a.nrows
            ext[a.ncols + i] = 1
            rows[i] = clear_denominators(ext)
        self.pivots = row_reduce(rows, a.ncols, True)
        self.rows = rows
        self.pivot_rows = {ri for ri, _ in self.pivots}

    def _transformed(self, ri, b):
        n = self.ncols
        row = self.rows[ri]
        total = 0
        for j, x in enumerate(b):
            if x:
                t = row[n + j]
                if t:
                    total += t * x
        return total

    def solve_with_certificate(self, b):
        if len(b) != self.nrows:
            raise ValueError(f"rhs length {len(b)} != nrows {self.nrows}")
        for ri in range(self.nrows):
            if ri in self.pivot_rows:
                continue
            t = self._transformed(ri, b)
            if t:
                n = self.ncols
                cert = [Fraction(self.rows[ri][n + j]) for j in range(self.nrows)]
                return None, cert
        x = [Fraction(0)] * self.ncols
        for ri, ci in self.pivots:
            t = self._transformed(ri, b)
            if t:
                x[ci] = Fraction(t, 1) / self.rows[ri][ci]
        return x, None


def random_matrix(rng, m, n):
    density = rng.choice((0.3, 0.6, 1.0))
    zero_rows = {i for i in range(m) if rng.random() < 0.2}
    entries = {}
    for i in range(m):
        if i in zero_rows:
            continue
        for j in range(n):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Matrix(m, n, entries)


def sweep_pairs():
    """Builtin pairs with dim g <= 10.

    The reference expands sum_k C(q, k) C(n, k) = C(q + n, q) minors for a
    q x n projection, so zero and full pairs stay small and so(2) sits only
    in so(3), so(4) and gl(3).
    """
    pairs = [
        canonical_gl_so_pair(2),
        canonical_gl_so_pair(3),
        subalgebra(builtin("gl", 3), so_in_gl_vectors(2, 3)),
        subalgebra(builtin("heisenberg", 3), [[0, 0, 1]]),
        subalgebra(builtin("heisenberg", 5), [[0, 0, 0, 0, 1]]),
        zero_subalgebra(builtin("so", 3)),
        zero_subalgebra(builtin("gl", 2)),
        full_subalgebra(builtin("so", 3)),
        subalgebra(builtin("so", 3), so_in_so_vectors(2, 3)),
        subalgebra(builtin("so", 4), so_in_so_vectors(2, 4)),
    ]
    for n in range(4, 6):
        for k in range(3, n):
            pairs.append(subalgebra(builtin("so", n), so_in_so_vectors(k, n)))
    return pairs


def test_pullback_matches_minors_on_random_matrices():
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        f = random_matrix(rng, m, n)
        for k in range(min(m, n) + 2):
            assert pullback_matrix(f, k) == reference_pullback(f, k), (f.entries, k)


def test_pullback_matches_minors_on_sweep_pairs():
    for pair in sweep_pairs():
        for f in (pair.projection_matrix, pair.sub_matrix):
            for k in range(pair.ambient.dim + 1):
                assert pullback_matrix(f, k) == reference_pullback(f, k)


def test_nullspace_matches_fraction_elimination_on_random_matrices():
    rng = random.Random(12)
    for _ in range(80):
        a = random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
        assert a.nullspace() == reference_nullspace(a), a.entries


def test_nullspace_matches_fraction_elimination_on_sweep_pairs():
    for pair in sweep_pairs():
        for f in (pair.projection_matrix, pair.sub_matrix):
            assert f.nullspace() == reference_nullspace(f)
            for k in range(pair.ambient.dim + 1):
                pulled = pullback_matrix(f, k)
                assert pulled.nullspace() == reference_nullspace(pulled)


def test_form_evaluate_against_sympy_det():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        coeffs = {
            idx: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for idx in multi_indices(n, k)
            if rng.random() < 0.6
        }
        form = Form(n, k, coeffs)
        vectors = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(k)
        ]
        expected = sympy.Rational(0)
        for idx, c in form.coeffs.items():
            minor = sympy.Matrix(k, k, lambda i, j: sympy.Rational(vectors[j][idx[i]]))
            expected += sympy.Rational(c) * (minor.det() if k else 1)
        assert sympy.Rational(form.evaluate(vectors)) == expected


def random_rhs(rng, a: Matrix):
    """Right-hand sides for A x = b: images of int and Fraction x, sparse int
    and Fraction vectors (mostly outside the image), a unit vector and zero."""
    m, n = a.shape
    out = [
        a.apply([rng.randint(-3, 3) for _ in range(n)]),
        a.apply([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]),
        [rng.randint(-2, 2) if rng.random() < 0.3 else 0 for _ in range(m)],
        [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.3 else 0 for _ in range(m)],
        [0] * m,
    ]
    if m:
        unit = [0] * m
        unit[rng.randrange(m)] = 1
        out.append(unit)
    return out


def assert_solver_matches_reference(a: Matrix, rhs):
    fast, ref = ColumnSolver(a), ReferenceSolver(a)
    assert fast.pivots == ref.pivots
    inconsistent = 0
    for b in rhs:
        x, cert = fast.solve_with_certificate(b)
        x_ref, cert_ref = ref.solve_with_certificate(b)
        assert (x, cert) == (x_ref, cert_ref), (a.entries, b)
        for got, want in ((x, x_ref), (cert, cert_ref)):
            if got is not None:
                assert [type(v) for v in got] == [type(v) for v in want]
        if cert is None:
            assert a.apply(x) == list(b)
        else:
            inconsistent += 1
            assert (Matrix.from_rows([cert], a.nrows) @ a).is_zero()
            assert sum(c * v for c, v in zip(cert, b)) != 0
    return inconsistent


def test_int_rows_match_clear_denominators():
    rng = random.Random(14)
    for _ in range(80):
        a = random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
        assert a._int_rows() == [clear_denominators(r) for r in a.rows_dense()]
    scaled = Matrix.from_rows([[2, 4], [Fraction(1, 2), Fraction(3, 4)], [Fraction(6, 3), 0]])
    assert scaled._int_rows() == [[2, 4], [2, 3], [2, 0]]


def test_solver_matches_reference_on_random_systems():
    rng = random.Random(15)
    inconsistent = 0
    for _ in range(150):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        a = random_matrix(rng, m, n)
        if rng.random() < 0.3 and n >= 2:
            # a repeated column and a zero column: rank-deficient on purpose
            a = a.hstack(Matrix.from_cols([a.cols_dense()[0], [0] * m], m))
        inconsistent += assert_solver_matches_reference(a, random_rhs(rng, a))
    assert inconsistent > 50


def test_solver_matches_reference_on_degenerate_shapes():
    rng = random.Random(16)
    for m in (0, 1, 45, 120):
        a = Matrix.zeros(m, 0)
        rhs = random_rhs(rng, a)
        # with no columns, every nonzero right-hand side is inconsistent
        assert assert_solver_matches_reference(a, rhs) == sum(1 for b in rhs if any(b))
    for n in (0, 1, 4):
        assert_solver_matches_reference(Matrix.zeros(0, n), [[]])


def test_solver_matches_reference_on_sweep_pairs():
    rng = random.Random(17)
    inconsistent = 0
    for pair in sweep_pairs():
        ana = PairAnalysis(pair)
        spaces = (ana.relative_cohomology, ana.basic_cohomology)
        for embeddings in (ana.quotient_model.embeddings, ana.basic_model.embeddings):
            for e in embeddings:
                inconsistent += assert_solver_matches_reference(e, random_rhs(rng, e))
        for space in spaces:
            for k in range(space.top_degree + 1):
                a = space.representative_matrix(k).hstack(space.complex.differential(k - 1))
                inconsistent += assert_solver_matches_reference(a, random_rhs(rng, a))
    assert inconsistent > 0
