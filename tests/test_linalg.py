import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
import sympy
from test_reference_paths import reference_row_reduce

from liecoh.exterior import pullback_matrix
from liecoh.linalg import (
    ColumnSolver,
    Matrix,
    SpanBuilder,
    kernel_backend,
    row_reduce,
)


def random_matrix(rng, m, n, density=0.5, denom=4):
    entries = {}
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randint(-6, 6), rng.randint(1, denom))
    return Matrix(m, n, entries)


def to_sympy(a):
    return sympy.Matrix(a.nrows, a.ncols, lambda i, j: sympy.Rational(a.entry(i, j)))


def _row_reduce_cases():
    rng = random.Random(7)
    for _ in range(60):
        m, lead = rng.randint(0, 7), rng.randint(0, 6)
        width = lead + rng.randint(0, 3)
        rows = []
        for _ in range(m):
            if rows and rng.random() < 0.25:
                # a dependent row: a combination of earlier ones
                r1, r2 = rng.choice(rows), rng.choice(rows)
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append([a * x + b * y for x, y in zip(r1, r2)])
            else:
                # a common factor, so the gcd strip has work to do
                scale = rng.choice((1, 1, 2, -3, 6))
                rows.append([scale * rng.randint(-4, 4) * (rng.random() < 0.6)
                             for _ in range(width)])
        yield rows, lead
    yield [], 3
    yield [[0, 0, 5], [2, 4, 6]], 0
    yield [[-4, 6, 2], [2, -3, 7], [0, 0, -9]], 2


def _rational_rank(rows):
    return sympy.Matrix(rows).rank() if rows and rows[0] else 0


def test_row_reduce_contract():
    """Pivots, primitive rows, row space and reducedness against sympy:
    ``row_reduce`` to a forward echelon form, and the Gauss-Jordan reference
    that the tests' solvers and reduced passes run."""
    for rows, lead in _row_reduce_cases():
        expected = set()
        if rows and lead:
            expected = set(sympy.Matrix([r[:lead] for r in rows]).rref()[1])
        for full in (False, True):
            out = [list(r) for r in rows]
            pivots = reference_row_reduce(out, lead, True) if full else row_reduce(out, lead)
            assert [i for i, _ in pivots] == sorted({i for i, _ in pivots})
            assert {c for _, c in pivots} == expected
            assert len(pivots) == len(expected)
            pivot_of = dict(pivots)
            for i, row in enumerate(out):
                if i in pivot_of:
                    c = pivot_of[i]
                    # leftmost in the lead block, positive, and the row is primitive
                    assert not any(row[:c]) and row[c] > 0
                    assert reduce(gcd, row) == 1
                else:
                    assert not any(row[:lead])
            # the rows span the same rational row space as the inputs
            assert _rational_rank(out) == _rational_rank(rows) == _rational_rank(rows + out)
            if full:
                for _, c in pivots:
                    assert sum(1 for row in out if row[c]) == 1


def test_rank_against_sympy():
    rng = random.Random(1)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert a.rank() == to_sympy(a).rank()


def test_nullspace_against_sympy():
    rng = random.Random(2)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        basis = a.nullspace().cols_dense()
        assert len(basis) == a.ncols - a.rank()
        for vec in basis:
            assert all(x == 0 for x in a.apply(vec))
        if basis:
            stacked = Matrix.from_cols(basis, a.ncols)
            assert stacked.rank() == len(basis)


def test_solver_solutions_and_certificates():
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n, density=0.6)
        x_true = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = a.apply(x_true)
        # perturb into (likely) inconsistency and check the Farkas certificate
        b2 = list(b)
        b2[rng.randrange(m)] += 1
        solver = ColumnSolver(a, [b, b2])
        (x, x2), (cert, cert2) = solver.solutions, solver.certificates
        assert cert is None
        assert a.apply(x) == b
        if x2 is None:
            lam = Matrix.from_rows([cert2])
            assert (lam @ a).is_zero()
            assert sum(c * v for c, v in zip(cert2, b2)) != 0
        else:
            assert a.apply(x2) == b2


def test_solver_degenerate_shapes():
    empty_rows = Matrix.zeros(0, 3)
    assert empty_rows.solve([]) == [0, 0, 0]
    empty_cols = Matrix.zeros(3, 0)
    assert empty_cols.solve([0, 0, 0]) == []
    assert empty_cols.solve([0, 1, 0]) is None


def test_solver_refuses_a_rhs_of_the_wrong_length():
    a = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
    for rhs in ([[1, 2]], [[1, 2, 3], [1, 2, 3, 4]], [[]]):
        with pytest.raises(ValueError, match="rhs length"):
            ColumnSolver(a, rhs)
    with pytest.raises(ValueError, match="rhs length"):
        a.solve([1, 2])


def test_matmul_and_stacking():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b) == Matrix.from_rows([[2, 1], [4, 3]])
    assert a.hstack(b).shape == (2, 4)
    assert a.vstack(b).shape == (4, 2)
    assert (a - a).is_zero()
    assert a.transpose() == Matrix.from_rows([[1, 3], [2, 4]])


def test_span_builder():
    sb = SpanBuilder(3)
    assert sb.insert([1, 0, 0])
    assert sb.insert([1, 1, 0])
    assert not sb.insert([2, 1, 0])
    assert sb.rank == 2
    assert sb.contains([5, -7, 0])
    assert not sb.contains([0, 0, 1])


def test_det_against_sympy():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(0, 5)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        expected = sympy.Rational(1) if n == 0 else sympy.Matrix(rows).det()
        # the top-degree pullback of a square matrix is its determinant
        det = pullback_matrix(Matrix.from_rows(rows, n), n).entry(0, 0)
        assert sympy.Rational(det) == expected


def test_backend_name_is_reported():
    assert kernel_backend() == "pure-python"
