"""The integer-native pullback and kernel paths against slow Fraction references.

``pullback_matrix`` builds every minor by the wedge recursion and
``Matrix.nullspace`` reads the kernel straight off fraction-free integer
elimination.  The references below do neither: one expands each k x k minor
by rational Gaussian elimination, the other brings the matrix to reduced
echelon form over ``Fraction``.  Both must agree exactly with the fast paths
on random rational matrices (zero rows, non-square shapes, k = 0 and
k > min(shape) included) and on the projection and inclusion matrices of
the builtin pairs up to dimension 10.
"""

import random
from fractions import Fraction

import sympy

from liecoh import builtin, subalgebra
from liecoh.classes import canonical_gl_so_pair
from liecoh.exterior import Form, multi_indices, pullback_matrix
from liecoh.liealg import full_subalgebra, so_in_gl_vectors, so_in_so_vectors, zero_subalgebra
from liecoh.linalg import Matrix


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
