"""The integer-native pullback, kernel, solve and cohomology paths against slow references.

``pullback_matrix`` builds every minor by the wedge recursion and
``Matrix.nullspace`` reads the kernel straight off fraction-free integer
elimination.  The references below do neither: one expands each k x k minor
by rational Gaussian elimination, the other brings the matrix to reduced
echelon form over ``Fraction``.  Both must agree exactly with the fast paths
on random rational matrices (zero rows, non-square shapes, k = 0 and
k > min(shape) included) and on the projection and inclusion matrices of
the builtin pairs up to dimension 10.

``ColumnSolver`` reduces [A | B] forward for a whole batch of right-hand
sides, reads each solution off the echelon rows by back-substitution and
each certificate off the canonical left kernel of A.  The reference solver
keeps the Gauss-Jordan tableau [A | I] and scans every transform row on
every solve; solutions and certificates must be equal, entry for entry, on
random systems and on the embedding and reducer systems of the same pairs.

``ce_cohomology`` eliminates only the weight-zero block of an algebra's
grading and reports in full cochain coordinates.  Its reference is the
trivial-grading path over all of Lambda g*: ranks in the block, Betti
numbers, representatives, JSON reports and reductions of non-homogeneous
cocycles must agree exactly over the builtin sweep.

``CohomologySpace`` eliminates each differential once, top down, on its
rows at the free columns of the next differential, reads the
representatives off the rows that vanish, and reduces cocycles in kernel
coordinates with a reducer built on first use.  Its reference is the
bottom-up pass it replaced (each d_k on all of its rows, then a second
elimination per degree for the pick), and a test checks on every
differential of the sweep that those rows give the rank, pivot columns and
(back-substituted) reduced echelon form of all rows, and vanish exactly at
the kept free columns.  The pass eliminates forward only and
back-substitutes the kept kernel vectors; its reference is the same pass
on reduced echelon forms, read off the reduced rows.  ``Grading.block`` searches only the weight-zero block; its
reference enumerates every multi-index.  ``CochainComplex`` decides d o d = 0 on
integer-scaled matrices; and the relative models narrow their kernels one
constraint block at a time and read coordinates off the free columns of
their embeddings.  The references keep the earlier forms: a separate
``full=False`` rank, the greedy scan of [coboundaries ; kernel basis] over
the full cochain space, the reference solver over [representatives |
d_(k-1)] for reduction and over each embedding for coordinates, the ``Fraction``
product d_(k+1) d_k, the nullspace of the stacked constraints, the
``Fraction`` Gauss-Jordan span builder, the ``full=False`` scan of the
subalgebra generators for the complement, and ``subalgebra`` with
``Fraction`` entries and its own rank of the completion.

The relative models build each theta_x and i_x block only on the columns
where the kernel narrowed so far is nonzero, and ``cup_product`` computes
each product once per space; their references are the full operator
matrices and the stacked nullspace of the full blocks.  Both models build
d on the support of their embeddings; the basic model must come out the
same when ``ce_differential`` refuses to run.  The chain-level checks on
the weight-zero block of g build the full d only at the columns they read;
their reference is the full complex of g, which must give the same
verdict, degree and column on perturbed chain maps, and a pair analysis,
``ncz`` included, must come out the same when ``ce_differential`` refuses
to run.  Kernels are sparse matrices whose
columns, read by ``cols_dense``, are compared with the dense references.  ``validate_structure``
sums the Jacobi identity in integers straight from the table; its reference
is three dense ``bracket`` calls per triple in ``Fraction`` arithmetic.

``row_reduce`` scales and strips whole rows and subtracts over the pivot
row's nonzeros; its reference is the entry-by-entry loop it replaced, and
rows and pivots must be equal.  ``Matrix._eliminate`` reduces the rows
sparsest first; its reference is the given order, and every reader of it
(kernels, ranks, pivot sets, stacked kernels, representative picks) must
give the same answer.  The Chevalley-Eilenberg builder sums int numerators;
its reference sums ``Fraction``s.  ``bracket`` looks up only the pairs that
meet the supports of its arguments; its reference loops over the whole
table, and the Jacobi reference above uses it.  ``adjoint_matrix`` reads
only the brackets that meet the support of x; its reference is the same
loop over the whole table, with equal values and entry types.

The relative models seek each kernel on the sign block of exp(pi theta_M)
for the operators M that define it.  Their reference is the path without
the block (``sign_mask`` patched to find none): embeddings, restricted
differentials and ranks must agree in value and type over the sweep pairs
and the invariant quotient model of (gl(4), so(4)), and pairs where no
generator has a mask must take that path.  ``sign_mask`` tests an integer
multiple of M, on the all-ones vector first; its reference is the four
dense ``Fraction`` products it replaced.  ``endo_action_matrix`` and
``interior_matrix`` sum int numerators; their references sum
``Fraction``s.  ``wedge_vector`` works on bitmasks; its reference merges
index tuples with ``merge_sign``.

``generated_spans`` builds the spans in one ascending pass, and
``identify_generators`` calls it once per degree.  Their references are
the saturation fixpoint and the loop that saturates again after each
generator it adjoins: the bases of the spans and the generators must agree
over the sweep pairs.

``cli.build_parser`` reads argv from one option table.  Its reference is
the argparse parser it replaced: over the contract's argvs, edited to
``--opt=value`` forms, abbreviations (ambiguous ones included), repeats
and negative-number values, the table must accept exactly the argvs that
argparse accepts, with equal attributes, and refuse the rest with exit 1.
"""

import argparse
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import gcd, lcm
from types import SimpleNamespace

import sympy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_cli_contract
from liecoh import builtin, cli, cohomology, relative, subalgebra
from liecoh.classes import canonical_gl_so_pair, identify_generators
from liecoh.cohomology import (
    CochainComplex,
    CohomologySpace,
    ce_cohomology,
    ce_complex,
    check_chain_map,
    cohomology_to_json,
    cup_product,
    generated_spans,
    odd_degree_generators,
)
from liecoh.errors import (
    InputError,
    InternalInvariantError,
    InvalidComplex,
    InvalidStructure,
    JacobiViolation,
    NotAChainMap,
    NotACocycle,
)
from liecoh.exterior import (
    Form,
    alternating_differential_matrix,
    basis_size,
    endo_action_matrix,
    interior_matrix,
    lie_derivative,
    lie_derivative_matrix,
    merge_sign,
    multi_indices,
    pullback_matrix,
    wedge_vector,
)
from liecoh.koszul import PairAnalysis, delta_chain, delta_cohom, factorization_check, ncz_report
from liecoh.liealg import (
    Grading,
    LieAlgebra,
    SubalgebraPair,
    _sub_names,
    algebra_from_json,
    algebra_to_json,
    full_subalgebra,
    sign_mask,
    sign_parities,
    so_in_gl_vectors,
    so_in_so_vectors,
    so_pairs,
    symmetric_gl_vectors,
    validate_structure,
    vectors_from_json,
    zero_subalgebra,
)
from liecoh.linalg import ColumnSolver, Matrix, SpanBuilder, row_reduce
from liecoh.relative import (
    basic_subcomplex,
    invariant_quotient_complex,
    quotient_bracket_table,
)
from test_cli import sp4_in_gl4_vectors


def clear_denominators(row):
    """Scale a row of rationals to integers by the lcm of its denominators.

    The dense reference for ``Matrix._int_rows``.
    """
    mult = 1
    for x in row:
        if type(x) is not int and x.denominator != 1:
            mult = lcm(mult, x.denominator)
    if mult == 1:
        return [x if type(x) is int else x.numerator for x in row]
    return [
        x * mult if type(x) is int else x.numerator * (mult // x.denominator)
        for x in row
    ]


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
        self.pivots = reference_row_reduce(rows, a.ncols, True)
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

    def solve(self, b):
        return self.solve_with_certificate(b)[0]


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
        assert a.nullspace().cols_dense() == reference_nullspace(a), a.entries


def test_elimination_with_zero_and_repeated_rows_matches_fraction_elimination():
    """Zero rows and copies of other rows mixed in at random places: the
    elimination reduces only the nonzero rows, sparsest first, and rank,
    pivot columns and kernel, in value and entry type (``Fraction`` where
    nonzero, ``int`` 0 elsewhere), are those of the Fraction Gauss-Jordan
    reference."""
    rng = random.Random(48)
    for _ in range(120):
        rows = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 7)).rows_dense()
        width = len(rows[0]) if rows else rng.randint(0, 7)
        for _ in range(rng.randint(1, 4)):
            extra = list(rng.choice(rows)) if rows and rng.random() < 0.5 else [0] * width
            rows.insert(rng.randint(0, len(rows)), extra)
        a = Matrix.from_rows(rows, width)
        want = reference_nullspace(a)
        free = [max(j for j, x in enumerate(v) if x) for v in want]
        basis = a.nullspace().cols_dense()
        assert basis == want, rows
        assert [[type(x) for x in v] for v in basis] == [[Fraction if x else int for x in v] for v in want], rows
        fresh = Matrix.from_rows(rows, width)
        assert fresh.rank() == a.rank() == width - len(want), rows
        assert fresh.pivot_columns() == a.pivot_columns() == [c for c in range(width) if c not in free], rows


def test_nullspace_matches_fraction_elimination_on_sweep_pairs():
    for pair in sweep_pairs():
        for f in (pair.projection_matrix, pair.sub_matrix):
            assert f.nullspace().cols_dense() == reference_nullspace(f)
            for k in range(pair.ambient.dim + 1):
                pulled = pullback_matrix(f, k)
                assert pulled.nullspace().cols_dense() == reference_nullspace(pulled)


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
    """The batch solve of ``rhs`` against the reference, one right-hand side at a time."""
    fast, ref = ColumnSolver(a, rhs), ReferenceSolver(a)
    assert fast.pivots == ref.pivots
    inconsistent = 0
    for b, x, cert in zip(rhs, fast.solutions, fast.certificates, strict=True):
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


def test_solver_batch_mixes_consistent_and_inconsistent_rhs():
    """One batch that interleaves right-hand sides inside and outside the
    column span gives each one what the reference gives it, and what a batch
    of that one alone gives."""
    rng = random.Random(18)
    mixed = 0
    for _ in range(80):
        m = rng.randint(2, 7)
        a = random_matrix(rng, m, rng.randint(1, m - 1))
        rhs = []
        for _ in range(4):
            rhs.append(a.apply([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a.ncols)]))
            rhs.append([rng.randint(-3, 3) for _ in range(m)])
        inconsistent = assert_solver_matches_reference(a, rhs)
        mixed += 0 < inconsistent < len(rhs)
        batch = ColumnSolver(a, rhs)
        for j, b in enumerate(rhs):
            alone = ColumnSolver(a, [b])
            assert (alone.solutions[0], alone.certificates[0]) == (batch.solutions[j], batch.certificates[j])
    assert mixed > 40


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


# ---------------------------------------------------------------------------
# cohomology: one elimination per differential, integer d o d
# ---------------------------------------------------------------------------

def reference_rank(d: Matrix) -> int:
    """The rank by its own elimination."""
    return len(row_reduce(d._int_rows(), d.ncols))


def reference_representatives(space, k) -> Matrix:
    """Greedy scan of [columns of d_(k-1) ; kernel basis of d_k] over C^k."""
    complex = space.complex
    n = complex.dim(k)
    kernel = complex.differential(k).nullspace().cols_dense()
    image_rows = complex.differential(k - 1).cols_dense()
    rows = [clear_denominators(r) for r in image_rows]
    rows += [clear_denominators(list(v)) for v in kernel]
    pivots = row_reduce(rows, n)
    offset = len(image_rows)
    chosen = [kernel[ri - offset] for ri, _ in pivots if ri >= offset]
    return Matrix.from_cols(chosen, n)


def reference_dd_failure(differentials):
    """First k with d_(k+1) d_k != 0 by the Fraction product, or None."""
    for k in range(len(differentials) - 1):
        if not (differentials[k + 1] @ differentials[k]).is_zero():
            return k
    return None


def conjugate(g, rng, positions):
    """g in the basis P e_i, P = U Pi: U unipotent with rational entries at
    ``positions`` random places above the diagonal, Pi a random permutation."""
    n = g.dim
    u = {(i, i): 1 for i in range(n)}
    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for key in rng.sample(above, positions):
        u[key] = rng.choice((Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2), Fraction(-1, 2)))
    perm = list(range(n))
    rng.shuffle(perm)
    p = Matrix(n, n, u) @ Matrix(n, n, {(perm[i], i): 1 for i in range(n)})
    cols = p.cols_dense()
    structure = {}
    for i in range(n):
        for j in range(i + 1, n):
            coords = p.solve(g.bracket(cols[i], cols[j]))
            terms = {m: c for m, c in enumerate(coords) if c}
            if terms:
                structure[(i, j)] = terms
    return validate_structure(structure, n)


def builtin_sweep():
    """Every builtin algebra of dimension at most 10."""
    specs = [("gl", n) for n in (1, 2, 3)] + [("sl", n) for n in (2, 3)]
    specs += [("so", n) for n in (2, 3, 4, 5)] + [("abelian", n) for n in (1, 2, 3, 4)]
    specs += [("heisenberg", n) for n in (3, 5, 7, 9)]
    return [builtin(name, n) for name, n in specs]


def random_cocycles(rng, space, k):
    """Kernel combinations plus coboundaries, int and Fraction, and zero."""
    complex = space.complex
    kernel = complex.differential(k).nullspace().cols_dense()
    d = complex.differential(k - 1)
    out = [[0] * complex.dim(k)]
    for _ in range(4):
        z = [0] * complex.dim(k)
        for vec in kernel:
            c = rng.choice((0, 1, -2, Fraction(rng.randint(-3, 3), rng.randint(1, 4))))
            if c:
                z = [x + c * y for x, y in zip(z, vec)]
        primitive = [rng.choice((0, 1, -1, Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
                     for _ in range(d.ncols)]
        out.append([x + y for x, y in zip(z, d.apply(primitive))])
    if d.ncols:
        out.append(d.apply([1] * d.ncols))
    return out


def assert_reduce_matches_reference(space, rng):
    """``reduce`` against the [representatives | d_(k-1)] reference solver."""
    for k in range(space.top_degree + 1):
        reducer = ReferenceSolver(space.representative_matrix(k).hstack(space.complex.differential(k - 1)))
        for z in random_cocycles(rng, space, k):
            want = reducer.solve(z)[:space.betti(k)]
            got = space.reduce(k, z)
            assert got == want, (k, z)
            assert [type(x) for x in got] == [type(x) for x in want]


def assert_cohomology_matches_reference(complex, rng):
    space = CohomologySpace(complex)
    for k in range(space.top_degree + 1):
        assert space.ranks[k] == reference_rank(complex.differential(k)), k
        assert space.representative_matrix(k) == reference_representatives(space, k), k
    assert reference_dd_failure(complex.differentials) is None
    assert_reduce_matches_reference(space, rng)


def test_cohomology_matches_reference_on_builtin_sweep():
    rng = random.Random(23)
    for g in builtin_sweep():
        assert_cohomology_matches_reference(ce_complex(g), rng)


def test_cohomology_matches_reference_on_relative_models():
    rng = random.Random(24)
    for pair in sweep_pairs():
        ana = PairAnalysis(pair)
        assert_cohomology_matches_reference(ana.quotient_model.complex, rng)
        assert_cohomology_matches_reference(ana.basic_model.complex, rng)


def test_cohomology_matches_reference_on_rational_conjugates():
    rng = random.Random(18)
    gl3 = builtin("gl", 3)
    for positions in (3, 5):
        g = conjugate(gl3, rng, positions)
        assert any(type(v) is Fraction and v.denominator != 1
                   for terms in g.structure.values() for v in terms.values())
        complex = ce_complex(g)
        assert_cohomology_matches_reference(complex, rng)
        assert CohomologySpace(complex).betti_dict() == CohomologySpace(ce_complex(gl3)).betti_dict()


def test_perturbed_rational_complex_fails_at_the_reference_degree():
    rng = random.Random(19)
    diffs = ce_complex(conjugate(builtin("gl", 3), rng, 4)).differentials
    for k in (1, 4, 7):
        d = diffs[k]
        key = sorted(d.entries)[rng.randrange(len(d.entries))]
        entries = dict(d.entries)
        entries[key] += Fraction(1, 3)
        bad = list(diffs)
        bad[k] = Matrix(d.nrows, d.ncols, entries)
        expected = reference_dd_failure(bad)
        assert expected in (k - 1, k)
        with pytest.raises(InvalidComplex, match=f"between degrees {expected} and {expected + 2}$"):
            CochainComplex(dims=tuple(m.ncols for m in bad) + (bad[-1].nrows,), differentials=tuple(bad))


# ---------------------------------------------------------------------------
# the weight-zero block against the full complex
# ---------------------------------------------------------------------------

def entry_types(m: Matrix):
    return {key: type(v) for key, v in m.entries.items()}


def submatrix(m: Matrix, rows, cols) -> Matrix:
    row_of = {r: i for i, r in enumerate(rows)}
    col_of = {c: j for j, c in enumerate(cols)}
    return Matrix(len(rows), len(cols), {
        (row_of[i], col_of[j]): v for (i, j), v in m.entries.items() if i in row_of and j in col_of
    })


def assert_graded_matches_full(g, rng):
    """The block path of ``g`` against its trivial-grading path; True if graded."""
    full = CohomologySpace(ce_complex(g))
    block_complex = ce_complex(g, g.grading)
    graded = CohomologySpace(block_complex)
    positions = block_complex.block.positions
    for k in range(g.dim + 1):
        if k < g.dim:
            d_full = full.complex.differential(k)
            want = submatrix(d_full, positions[k + 1], positions[k])
            got = block_complex.differential(k)
            assert got == want and entry_types(got) == entry_types(want), (g.basis_names, k)
            # no entry of d joins the block to another: the rest of d_k is the other blocks
            cols, rows = set(positions[k]), set(positions[k + 1])
            assert all((j in cols) == (i in rows) for i, j in d_full.entries)
            assert graded.ranks[k] == reference_rank(want)
        reps, want = graded.representative_matrix(k), full.representative_matrix(k)
        assert reps == want and entry_types(reps) == entry_types(want), (g.basis_names, k)
        assert graded.representative_vectors(k) == full.representative_vectors(k)
        assert [[type(x) for x in v] for v in graded.representative_vectors(k)] == [
            [type(x) for x in v] for v in full.representative_vectors(k)
        ]
    assert graded.betti_numbers == full.betti_numbers

    def form_of_vector(k, vec):
        return Form.from_vector(g.dim, k, vec)

    for converter in (None, form_of_vector):
        assert json.dumps(cohomology_to_json(graded, converter)) == json.dumps(cohomology_to_json(full, converter))
    # random cocycles of the full complex are not homogeneous
    for k in range(g.dim + 1):
        for z in random_cocycles(rng, full, k):
            got, want = graded.reduce(k, z), full.reduce(k, z)
            assert got == want and [type(x) for x in got] == [type(x) for x in want], (k, z)
    assert all(
        block_complex.full_differential(k, range(full.complex.dim(k))) == full.complex.differential(k)
        for k in range(g.dim)
    )
    return block_complex.dims != full.complex.dims


def test_graded_cohomology_matches_full_on_builtin_sweep():
    rng = random.Random(29)
    graded = [g.basis_names[0] for g in builtin_sweep() if assert_graded_matches_full(g, rng)]
    # gl(2), gl(3), sl(2), sl(3) by their tori; so(3), so(4), so(5) by parity
    assert graded == ["E11", "E11", "H1", "H1", "A12", "A12", "A12"]


def test_graded_cohomology_matches_full_on_a_partly_mixed_conjugate():
    """Three rational entries in the change of basis leave part of the torus
    of gl(3) diagonal: a graded algebra with non-integer constants."""
    rng = random.Random(30)
    g = conjugate(builtin("gl", 3), rng, 3)
    assert not g.grading.trivial
    assert assert_graded_matches_full(g, rng)


def test_trivial_gradings_and_the_cli_space():
    """Heisenberg, abelian, so(2) and rational conjugates are one block; a
    graded space reads the differential of the full complex."""
    for g in [builtin("heisenberg", n) for n in (3, 5)] + [builtin("abelian", 3), builtin("so", 2)]:
        assert g.grading.trivial and ce_cohomology(g).complex.block is None
    rng = random.Random(30)
    for positions in (10, 36):
        assert conjugate(builtin("gl", 3), rng, positions).grading.trivial
    g = builtin("so", 4)
    full = ce_complex(g)
    space = ce_cohomology(g)
    assert space.complex.block is not None and all(
        space.complex.full_differential(k, range(full.dim(k))) == full.differential(k) for k in range(g.dim + 1)
    )


def reference_block(grading: Grading, k: int):
    """Every k-set of letters in lexicographic order, kept when it lies in
    the weight-zero block."""
    out = []
    for pos, idx in enumerate(combinations(range(len(grading.weights)), k)):
        weight = parity = 0
        for i in idx:
            weight += grading.weights[i]
            parity ^= grading.parities[i]
        if not weight and parity == 0:
            out.append((pos, idx))
    return out


def test_block_search_matches_the_full_enumeration():
    gradings = [g.grading for g in builtin_sweep() + [builtin("gl", 4), builtin("so", 6)]]
    gradings += [g.grading for g in rational_conjugates()]
    gradings += [Grading((0,) * n, (0,) * n) for n in (0, 1, 5, 11)]
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(0, 9)
        weights = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)]
        parities = [rng.randrange(8) for _ in range(n)] if rng.random() < 0.5 else [0] * n
        gradings.append(Grading(weights, parities))
        # the sign parities of random masks, as the relative models take them
        masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 3))] if n else []
        gradings.append(Grading((0,) * n, sign_parities(n, masks)))
    assert sum(g.trivial for g in gradings) >= 10
    for grading in gradings:
        n = len(grading.weights)
        for k in range(n + 1):
            assert grading.block(k) == reference_block(grading, k), (grading.weights, grading.parities, k)


def test_not_a_cocycle_is_raised_off_the_block():
    g = builtin("gl", 3)
    space, full = ce_cohomology(g), ce_complex(g)
    positions = space.complex.block.positions
    for k in (1, 2, 4):
        d = full.differential(k)
        off = sorted({j for _, j in d.entries} - set(positions[k]))
        vec = [0] * d.ncols
        vec[off[0]] = Fraction(1, 2)
        with pytest.raises(NotACocycle) as exc:
            space.reduce(k, vec)
        assert exc.value.residual == d.apply(vec)
        if k == 1:
            continue  # d_0 = 0 for gl(3)
        # a coboundary supported off the block is the zero class
        d_prev = full.differential(k - 1)
        coboundary = d_prev.apply([0 if j in positions[k - 1] else 1 for j in range(d_prev.ncols)])
        assert any(coboundary) and not any(coboundary[p] for p in positions[k])
        assert space.reduce(k, coboundary) == [Fraction(0)] * space.betti(k)


def test_wrong_grading_fails_the_block_closure():
    g = builtin("gl", 2)
    right = g.grading
    shifted = Grading((right.weights[0] + 1,) + right.weights[1:], right.parities)
    with pytest.raises(InternalInvariantError, match="outside the block"):
        ce_complex(g, shifted)
    so4 = builtin("so", 4)
    odd = Grading(so4.grading.weights, (0,) + so4.grading.parities[1:])
    with pytest.raises(InternalInvariantError, match="outside the block"):
        ce_complex(so4, odd)


def reference_matmul(a: Matrix, b: Matrix) -> Matrix:
    """One accumulator over all output entries, zeros deleted as they appear."""
    by_col = {}
    for (k, i), v in a.entries.items():
        by_col.setdefault(i, []).append((k, v))
    acc = {}
    for (k, j), w in b.entries.items():
        for i, v in by_col.get(k, ()):
            s = acc.get((i, j), 0) + v * w
            if s:
                acc[(i, j)] = s
            else:
                del acc[(i, j)]
    return Matrix(a.nrows, b.ncols, acc)


def numerators(m: Matrix) -> Matrix:
    return Matrix(m.nrows, m.ncols, {key: v.numerator for key, v in m.entries.items()})


def test_matmul_matches_reference_with_entry_types():
    rng = random.Random(21)
    for _ in range(150):
        m, n, p = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a, b = random_matrix(rng, m, n), random_matrix(rng, n, p)
        if rng.random() < 0.5:
            # [a, -a, a'] [b; b; b'] with int a', b': every partial sum falls to
            # zero halfway, and the int terms that follow decide the entry type
            a = a.hstack(a.scale(-1)).hstack(numerators(a))
            b = b.vstack(b).vstack(numerators(b))
        got, want = a @ b, reference_matmul(a, b)
        assert got == want
        assert {key: type(v) for key, v in got.entries.items()} == {key: type(v) for key, v in want.entries.items()}
    diffs = ce_complex(conjugate(builtin("gl", 3), rng, 4)).differentials
    for k in range(len(diffs) - 1):
        assert (diffs[k + 1] @ diffs[k]).is_zero() and reference_matmul(diffs[k + 1], diffs[k]).is_zero()
        assert diffs[k].transpose() @ diffs[k] == reference_matmul(diffs[k].transpose(), diffs[k])


# ---------------------------------------------------------------------------
# relative models: kernels narrowed one block at a time
# ---------------------------------------------------------------------------

def assert_stacked_nullspace_matches(blocks, ncols, builders=None):
    """``stacked_nullspace`` against the stacked nullspace, with the blocks
    restricted to the columns asked for, and also with ``builders``."""
    want = Matrix.stack_rows(blocks, ncols).nullspace()
    wrapped = [partial(restricted, b) for b in blocks]
    for given in (wrapped, builders) if builders is not None else (wrapped,):
        got = Matrix.stacked_nullspace(given, ncols)
        assert got == want, ([b.entries for b in blocks], ncols)
        assert [[type(x) for x in v] for v in got.cols_dense()] == [[type(x) for x in v] for v in want.cols_dense()]
    return want.ncols


def restricted(m: Matrix, columns) -> Matrix:
    """``m`` with only ``columns`` filled, the shape kept."""
    keep = set(columns)
    return Matrix(m.nrows, m.ncols, {key: v for key, v in m.entries.items() if key[1] in keep})


def test_stacked_nullspace_matches_stacked_on_random_blocks():
    rng = random.Random(20)
    for _ in range(120):
        n = rng.randint(0, 7)
        blocks = [random_matrix(rng, rng.randint(0, 3), n) for _ in range(rng.randint(0, 4))]
        assert_stacked_nullspace_matches(blocks, n)


def test_stacked_nullspace_degenerate_blocks():
    for n in (0, 1, 5):
        # no blocks and only zero or 0-row blocks: the full kernel
        assert assert_stacked_nullspace_matches([], n) == n
        assert assert_stacked_nullspace_matches([Matrix.zeros(0, n), Matrix.zeros(3, n)], n) == n
    # an invertible block: the empty kernel, also when more blocks follow
    full_rank = Matrix.from_rows([[1, 2, 0], [0, Fraction(1, 3), 1], [1, 0, 1]])
    assert assert_stacked_nullspace_matches([Matrix.zeros(0, 3), full_rank], 3) == 0
    assert assert_stacked_nullspace_matches([full_rank, Matrix.zeros(2, 3), full_rank], 3) == 0


def test_stacked_nullspace_matches_stacked_on_sweep_pairs():
    """The constraint blocks of both relative models, full and as the
    builders the models pass."""
    for pair in sweep_pairs():
        g, n = pair.ambient, pair.ambient.dim
        q = pair.dim_quotient
        for k in range(n + 1):
            blocks, builders = [], []
            for x in pair.sub_basis:
                blocks += [interior_matrix(x, n, k), lie_derivative_matrix(g, x, k)]
                builders += [partial(interior_matrix, x, n, k), partial(lie_derivative_matrix, g, x, k)]
            assert_stacked_nullspace_matches(blocks, basis_size(n, k), builders)
        for k in range(q + 1):
            blocks = [endo_action_matrix(a, q, k) for a in pair.action]
            builders = [partial(endo_action_matrix, a, q, k) for a in pair.action]
            assert_stacked_nullspace_matches(blocks, basis_size(q, k), builders)


def assert_columns_match_full(build, ncols, rng):
    """``build(columns)`` equals the full ``build(None)`` on those columns, in
    value and type, and is zero elsewhere; the shape stays full."""
    full = build(None)
    samples = [[], list(range(ncols))] + [
        sorted(rng.sample(range(ncols), rng.randint(0, ncols))) for _ in range(2)
    ]
    for columns in samples:
        got, want = build(columns), restricted(full, columns)
        assert got.shape == full.shape
        assert got == want and entry_types(got) == entry_types(want), columns


def random_endomorphism(rng, n, rational):
    pick = (lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4))) if rational else (lambda: rng.randint(-3, 3))
    return Matrix(n, n, {(i, j): pick() for i in range(n) for j in range(n) if rng.random() < 0.4})


def test_operator_columns_match_full_matrices():
    rng = random.Random(31)
    for g in builtin_sweep():
        n = g.dim
        xs = [g.basis_vector(rng.randrange(n)), [rng.randint(-2, 2) for _ in range(n)],
              [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]]
        for k in range(n + 1):
            for x in xs:
                assert_columns_match_full(partial(lie_derivative_matrix, g, x, k), basis_size(n, k), rng)
                assert_columns_match_full(partial(interior_matrix, x, n, k), basis_size(n, k), rng)
    for _ in range(40):
        n = rng.randint(0, 6)
        a = random_endomorphism(rng, n, rational=rng.random() < 0.5)
        for k in range(n + 1):
            assert_columns_match_full(partial(endo_action_matrix, a, n, k), basis_size(n, k), rng)


# ---------------------------------------------------------------------------
# embedding coordinates off the free columns
# ---------------------------------------------------------------------------

def assert_coordinates_match_solver(e: Matrix, rhs):
    """``coordinates`` of the block of right-hand sides equals
    the reference solver column by column: the solutions when every column
    is in the span, and otherwise the first column that the solver refuses."""
    solver = ReferenceSolver(e)
    want = [solver.solve(b) for b in rhs]
    refused = [j for j, x in enumerate(want) if x is None]
    got, outside = e.coordinates(Matrix.from_cols(rhs, e.nrows))
    if refused:
        assert got is None and outside == refused[0], (e.entries, rhs)
        # the columns inside the span alone
        rhs = [b for b, x in zip(rhs, want) if x is not None]
        want = [x for x in want if x is not None]
        got, outside = e.coordinates(Matrix.from_cols(rhs, e.nrows))
    assert outside is None
    assert got == Matrix.from_cols(want, e.ncols), (e.entries, rhs)
    assert all(type(x) is Fraction for x in got.entries.values())
    return len(refused)


def test_coordinates_match_solver_on_sweep_embeddings():
    rng = random.Random(25)
    outside = 0
    for pair in sweep_pairs():
        ana = PairAnalysis(pair)
        for embeddings in (ana.quotient_model.embeddings, ana.basic_model.embeddings):
            for e in embeddings:
                rhs = random_rhs(rng, e)
                rng.shuffle(rhs)
                outside += assert_coordinates_match_solver(e, rhs)
    assert outside > 50


def test_coordinates_match_solver_on_random_kernels():
    rng = random.Random(26)
    outside = 0
    for _ in range(120):
        a = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 7))
        e = a.nullspace()
        rhs = random_rhs(rng, e)
        rng.shuffle(rhs)
        outside += assert_coordinates_match_solver(e, rhs)
    assert outside > 50


def test_coordinates_refuse_a_basis_that_is_not_canonical():
    for cols in ([[1, 1], [0, 1]], [[0, 2]], [[0, 0]], [[1, 0], [1, 0]]):
        with pytest.raises(ValueError, match="canonical"):
            Matrix.from_cols(cols, 2).coordinates(Matrix.zeros(2, 1))


# ---------------------------------------------------------------------------
# one elimination per matrix: rank, pivot columns, span builder, complement
# ---------------------------------------------------------------------------

class ReferenceSpanBuilder:
    """The Fraction Gauss-Jordan span: rows with lead entry 1, sorted by lead."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residual(self, vec):
        vec = [Fraction(x) for x in vec]
        for lead, row in self.rows:
            c = vec[lead]
            if c:
                for j in range(self.dim):
                    vec[j] -= c * row[j]
        return vec

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))

    def insert(self, vec) -> bool:
        res = self.residual(vec)
        lead = next((j for j, x in enumerate(res) if x), None)
        if lead is None:
            return False
        piv = res[lead]
        row = [x / piv for x in res]
        for other_lead, other in self.rows:
            c = other[lead]
            if c:
                for j in range(self.dim):
                    other[j] -= c * row[j]
        self.rows.append((lead, row))
        self.rows.sort(key=lambda t: t[0])
        return True

    def basis(self):
        return [list(row) for _, row in self.rows]


def test_span_builder_matches_fraction_reference():
    rng = random.Random(27)
    for _ in range(150):
        dim = rng.randint(0, 7)
        fast, ref = SpanBuilder(dim), ReferenceSpanBuilder(dim)
        pool = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5 else 0
                 for _ in range(dim)] for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 10)):
            if pool and rng.random() < 0.4:
                # combinations of earlier vectors: the span must not grow
                vec = [0] * dim
                for v in rng.sample(pool, rng.randint(1, len(pool))):
                    c = rng.choice((1, -1, 2, Fraction(1, 3)))
                    vec = [x + c * y for x, y in zip(vec, v)]
            else:
                vec = [rng.choice((0, 0, 1, -3, Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
                       for _ in range(dim)]
                pool.append(vec)
            probe = [rng.randint(-2, 2) for _ in range(dim)]
            assert fast.contains(vec) == ref.contains(vec)
            assert fast.contains(probe) == ref.contains(probe)
            assert fast.insert(vec) == ref.insert(vec)
            assert fast.rank == ref.rank
            got, want = fast.basis(), ref.basis()
            assert got == want
            assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]


def test_rank_and_pivot_columns_match_full_false_scan():
    rng = random.Random(28)
    for _ in range(150):
        a = random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
        # pivot_columns() is ascending; the scan finds them in row order
        want = sorted(c for _, c in row_reduce(a._int_rows(), a.ncols))
        fresh = Matrix(a.nrows, a.ncols, a.entries)
        assert fresh.rank() == len(want)
        assert fresh.pivot_columns() == want
        assert a.pivot_columns() == want and a.rank() == len(want)
        a.nullspace()
        assert a.pivot_columns() == want


def test_subalgebra_complement_matches_generator_scan():
    for pair in sweep_pairs():
        rows = [clear_denominators(list(v)) for v in pair.sub_basis]
        pivot_cols = {c for _, c in row_reduce(rows, pair.ambient.dim)}
        n = pair.ambient.dim
        # unit vectors, with int entries like every integral complement
        want = tuple(tuple(int(i == j) for i in range(n)) for j in range(n) if j not in pivot_cols)
        got = subalgebra(pair.ambient, pair.sub_basis).quotient_basis
        assert got == want
        assert [[type(x) for x in v] for v in got] == [[type(x) for x in v] for v in want]


def reference_subalgebra(g, vectors, quotient=None):
    """``subalgebra`` with every generator and complement entry a
    ``Fraction``, and the completion's rank found by its own elimination."""
    vectors = [tuple(Fraction(x) for x in v) for v in vectors]
    r = len(vectors)
    rows = Matrix.from_rows(vectors, g.dim)
    assert rows.rank() == r
    sub_matrix = Matrix.from_cols(vectors, g.dim)
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    closure = ColumnSolver(sub_matrix, [g.bracket(vectors[a], vectors[b]) for a, b in pairs])
    h_structure = {}
    for (a, b), coords in zip(pairs, closure.solutions):
        terms = {k: v for k, v in enumerate(coords) if v}
        if terms:
            h_structure[(a, b)] = terms
    if quotient is None:
        pivot_cols = set(rows.pivot_columns())
        quotient = [[int(i == j) for i in range(g.dim)] for j in range(g.dim) if j not in pivot_cols]
    quotient = [tuple(Fraction(x) for x in v) for v in quotient]
    full = Matrix.from_cols(vectors + quotient, g.dim)
    assert full.rank() == g.dim
    q = len(quotient)
    rhs = [g.bracket(v, w) for v in vectors for w in quotient]
    rhs += [[int(i == j) for i in range(g.dim)] for j in range(g.dim)]
    coords = [x[r:] for x in ColumnSolver(full, rhs).solutions]
    return SubalgebraPair(
        ambient=g,
        sub_basis=tuple(vectors),
        quotient_basis=tuple(quotient),
        action=tuple(Matrix.from_cols(coords[a * q:(a + 1) * q], q) for a in range(r)),
        sub=LieAlgebra(r, _sub_names(g, vectors), h_structure),
        sub_matrix=sub_matrix,
        projection_matrix=Matrix.from_cols(coords[r * q:], q),
    )


def test_subalgebra_keeps_integer_entries_as_ints():
    """Over the sweep pairs, the (gl(4), so(4)) pair with its symmetric
    complement and (gl(4), sp(4)) read from a sub-file, ``subalgebra`` gives
    the pair built with ``Fraction`` entries, and on integer input its
    generators, complement and ``sub_matrix`` hold ints."""
    gl4 = builtin("gl", 4)
    sp4 = vectors_from_json({"vectors": [[str(c) for c in v] for v in sp4_in_gl4_vectors()]})
    cases = [(pair.ambient, pair.sub_basis, None) for pair in sweep_pairs()]
    cases += [(gl4, so_in_gl_vectors(4, 4), symmetric_gl_vectors(4)), (gl4, sp4, None)]
    for g, vectors, quotient in cases:
        got = subalgebra(g, vectors, quotient)
        assert got == reference_subalgebra(g, vectors, quotient)
        entries = [x for v in got.sub_basis + got.quotient_basis for x in v]
        entries += list(got.sub_matrix.entries.values())
        assert {type(x) for x in entries} == {int}, g.basis_names
    rational = [[Fraction(1, 2), 0, 0, 0]]
    got = subalgebra(builtin("gl", 2), rational)
    assert got == reference_subalgebra(builtin("gl", 2), rational)
    assert type(got.sub_basis[0][0]) is Fraction and type(got.sub_basis[0][1]) is int


def test_internal_constructors_do_not_share_entries():
    a = Matrix.from_rows([[1, Fraction(1, 2)], [0, 3]])
    for b in (a.transpose(), -a, a.scale(2), a @ Matrix.identity(2), a._scaled(0), a.hstack(a)):
        assert b.entries is not a.entries
        b.entries[(0, 0)] = 7
    assert a == Matrix.from_rows([[1, Fraction(1, 2)], [0, 3]])


# ---------------------------------------------------------------------------
# cup products: each computed once per space
# ---------------------------------------------------------------------------

def test_identify_generators_on_gl4_so4_computes_16_distinct_products():
    """Saturation and the presentation check ask for 47 cup products, 16
    of them distinct; each distinct one is multiplied and reduced once."""
    ana = PairAnalysis(canonical_gl_so_pair(4))
    space = ana.relative_cohomology
    mul, reduce = space.complex.product.mul, space.reduce
    products, reductions = [], []

    def counting_mul(*args):
        products.append(args)
        return mul(*args)

    def counting_reduce(k, vec):
        reductions.append(k)
        return reduce(k, vec)

    space.complex.product.mul = counting_mul
    space.reduce = counting_reduce
    report = identify_generators(ana)
    assert [(d, label) for d, _, label in report.generators] == [(1, "y1"), (4, "y4"), (5, "y3")]
    assert report.presentation == "exterior-algebra"
    assert len(products) == 16
    assert len([k for k in reductions if k > 0]) == 16
    # a second run asks again and computes nothing new
    assert identify_generators(ana).generators == report.generators
    assert len(products) == 16


def reference_generated_spans(space, generators):
    """The saturation fixpoint: multiply every generator against the current
    spans until nothing grows."""
    spans = {}
    for k in range(space.top_degree + 1):
        if space.betti(k):
            spans[k] = SpanBuilder(space.betti(k))
    if 0 in spans:
        spans[0].insert(space.unit_class())
    for d, v in generators:
        if any(v) and d in spans:
            spans[d].insert(v)
    changed = True
    while changed:
        changed = False
        for gd, gv in generators:
            for d in sorted(spans):
                target = gd + d
                if target not in spans:
                    continue
                for element in spans[d].basis():
                    _, coords = cup_product(space, (gd, gv), (d, element))
                    if any(coords) and spans[target].insert(coords):
                        changed = True
    return spans


def reference_generators(space):
    """The generator loop that saturates again after each generator it adjoins."""
    gens = []
    for d in range(1, space.top_degree + 1):
        betti = space.betti(d)
        if betti == 0:
            continue
        while True:
            span = reference_generated_spans(space, [(g_d, list(g_v)) for g_d, g_v, _ in gens]).get(d)
            if span is not None and span.rank >= betti:
                break
            unit = next(
                u for u in ([Fraction(int(i == j)) for j in range(betti)] for i in range(betti))
                if span is None or not span.contains(u)
            )
            gens.append((d, tuple(unit), f"y{(d + 1) // 2}" if d % 2 else f"y{d}"))
    return gens


def test_generator_search_matches_the_fixpoint_on_sweep_pairs():
    pairs = sweep_pairs() + [zero_subalgebra(builtin("heisenberg", 3)), canonical_gl_so_pair(4)]
    presentations = set()
    for index, pair in enumerate(pairs):
        ana = PairAnalysis(pair)
        space = ana.relative_cohomology
        report = identify_generators(ana)
        assert list(report.generators) == reference_generators(space)
        presentations.add(report.presentation)
        generator_sets = (
            [(d, list(v)) for d, v, _ in report.generators],
            odd_degree_generators(space),
            [(d, list(v)) for d, v, _ in report.generators[:-1]],
        )
        for generators in generator_sets:
            got = generated_spans(space, generators)
            want = reference_generated_spans(space, generators)
            assert sorted(got) == sorted(want)
            for d in want:
                assert got[d].basis() == want[d].basis(), (index, d)
    assert presentations == {"exterior-algebra", "mismatch"}


def test_cup_product_returns_a_fresh_list(ana_gl3_so3):
    space = ana_gl3_so3.relative_cohomology
    y1, y3 = (1, [Fraction(1)]), (5, [Fraction(1)])
    degree, first = cup_product(space, y1, y3)
    want = list(first)
    assert degree == 6 and any(want)
    first[0] += 1
    first.append(Fraction(5))
    assert cup_product(space, y1, y3) == (6, want)
    # equal coordinates of another type name the same product
    assert cup_product(space, (1, [1]), (5, [1])) == (6, want)


# ---------------------------------------------------------------------------
# Jacobi identity: integer sums over the table against three brackets
# ---------------------------------------------------------------------------

def reference_jacobi_violations(table, dim):
    """The cyclic sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
    by three dense ``bracket`` calls per triple, in Fraction arithmetic."""
    g = LieAlgebra(dim, tuple(f"e{i + 1}" for i in range(dim)), table)
    violations = []
    for i, j, k in combinations(range(dim), 3):
        cyc = [0] * dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, v in enumerate(reference_bracket(g, g.bracket_basis_vec(a, b), g.basis_vector(c))):
                cyc[l] += v
        for l, v in enumerate(cyc):
            if v:
                violations.append(JacobiViolation(i, j, k, l, Fraction(v)))
    return violations


def assert_jacobi_matches_reference(table, dim):
    """Same violations, same order, same residuals, each a Fraction; returns
    how many there are."""
    want = reference_jacobi_violations(table, dim)
    try:
        validate_structure(table, dim)
        got = []
    except InvalidStructure as exc:
        got = list(exc.violations)
    assert got == want, table
    assert all(type(v.residual) is Fraction for v in got)
    return len(got)


def test_jacobi_check_matches_three_brackets_on_exports_and_conjugates():
    rng = random.Random(32)
    algebras = [algebra_from_json(algebra_to_json(g)) for g in builtin_sweep()]
    algebras += [conjugate(builtin("gl", 3), rng, positions) for positions in (3, 5, 8)]
    broken = 0
    for g in algebras:
        assert assert_jacobi_matches_reference(g.structure, g.dim) == 0
        if len(g.structure) >= 2:
            # rescale one bracket: Jacobi breaks unless no triple sees it
            key = sorted(g.structure)[rng.randrange(len(g.structure))]
            table = dict(g.structure)
            table[key] = {m: v * Fraction(3, 2) for m, v in table[key].items()}
            broken += assert_jacobi_matches_reference(table, g.dim) > 0
    assert broken >= 5


def test_jacobi_check_matches_three_brackets_on_random_tables():
    rng = random.Random(33)
    broken = 0
    for _ in range(60):
        dim = rng.randint(3, 6)
        table = {}
        for i, j in combinations(range(dim), 2):
            terms = {m: rng.choice((1, -2, Fraction(rng.randint(-4, 4), rng.randint(1, 5))))
                     for m in range(dim) if rng.random() < 0.3}
            terms = {m: Fraction(v) for m, v in terms.items() if v}
            if terms:
                table[(i, j)] = terms
        broken += assert_jacobi_matches_reference(table, dim) > 0
    assert broken > 50


# ---------------------------------------------------------------------------
# the elimination kernel: whole-row updates, sparsest rows first
# ---------------------------------------------------------------------------

def reference_combine(row, prow, a, b, width):
    """row <- a*row - b*prow entrywise, then divide row by its gcd.

    Rows stay sparse through most eliminations, so entries where both
    operands vanish are skipped (the result is zero and gcd(g, 0) = g).
    """
    nb = -b
    rg = 0
    for j in range(width):
        x1 = row[j]
        x2 = prow[j]
        if x2 == 0:
            if x1 == 0:
                continue
            v = a * x1
        elif x1 == 0:
            v = nb * x2
        else:
            v = a * x1 - b * x2
        row[j] = v
        if rg != 1 and v:
            rg = gcd(rg, v)
    if rg > 1:
        for j in range(width):
            if row[j]:
                row[j] //= rg


def reference_row_reduce(rows, lead, full):
    """The entry-by-entry loop kernel that ``row_reduce`` replaced."""
    pivots = []
    nrows = len(rows)
    if nrows == 0 or lead < 0:
        return pivots
    width = len(rows[0]) if nrows else 0
    for i in range(nrows):
        lc = reference_reduce_row(rows, pivots, rows[i], lead, width, full)
        if lc >= 0:
            pivots.append((i, lc))
    return pivots


def reference_reduce_row(rows, pivots, row, lead, width, full):
    for pr, pc in pivots:
        x = row[pc]
        if x:
            prow = rows[pr]
            piv = prow[pc]
            g = gcd(piv, x)
            reference_combine(row, prow, piv // g, x // g, width)
    lc = -1
    for j in range(lead):
        if row[j]:
            lc = j
            break
    if lc < 0:
        return lc
    rg = 0
    for j in range(width):
        v = row[j]
        if v and rg != 1:
            rg = gcd(rg, v)
    if row[lc] < 0:
        rg = -rg
    if rg != 1:
        for j in range(width):
            if row[j]:
                row[j] //= rg
    if full:
        piv = row[lc]
        for pr, pc in pivots:
            prow = rows[pr]
            x = prow[lc]
            if x:
                g = gcd(piv, x)
                reference_combine(prow, row, piv // g, x // g, width)
    return lc


def assert_kernel_matches_reference(rows, lead):
    """Equal pivots and equal rows, entry for entry, against the forward loop kernel."""
    got, want = [list(r) for r in rows], [list(r) for r in rows]
    assert row_reduce(got, lead) == reference_row_reduce(want, lead, False), (rows, lead)
    assert got == want, (rows, lead)


def random_int_rows(rng):
    """Rows with 0-3 carried columns, common factors and dependent rows."""
    m, lead = rng.randint(0, 8), rng.randint(0, 7)
    width = lead + rng.randint(0, 3)
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.3:
            r1, r2 = rng.choice(rows), rng.choice(rows)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([a * x + b * y for x, y in zip(r1, r2)])
        else:
            scale = rng.choice((1, 1, 2, -3, 6, 10**20 + 1))
            rows.append([scale * rng.randint(-5, 5) * (rng.random() < 0.6) for _ in range(width)])
    return rows, lead


def rational_conjugates():
    rng = random.Random(41)
    return [conjugate(builtin("gl", 3), rng, positions) for positions in (4, 12)]


def test_row_reduce_matches_loop_kernel_on_random_rows():
    rng = random.Random(40)
    for _ in range(400):
        assert_kernel_matches_reference(*random_int_rows(rng))
    for rows, lead in (([], 0), ([], 3), ([[0, 0, 0], [0, 0, 0]], 2), ([[0, 4, 6]], -1)):
        assert_kernel_matches_reference(rows, lead)


def test_row_reduce_matches_loop_kernel_on_differentials():
    for g in builtin_sweep() + rational_conjugates():
        for d in ce_complex(g).differentials:
            assert_kernel_matches_reference(d._int_rows(), d.ncols)


def solver_tableau(a: Matrix, rhs):
    """The [A | B] rows that ``ColumnSolver`` reduces."""
    return a.hstack(Matrix.from_cols(rhs, a.nrows))._int_rows()


def test_row_reduce_matches_loop_kernel_on_solver_tableaux():
    rng = random.Random(42)
    for _ in range(150):
        a = random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
        assert_kernel_matches_reference(solver_tableau(a, random_rhs(rng, a)), a.ncols)
    for pair in sweep_pairs():
        ana = PairAnalysis(pair)
        for e in ana.quotient_model.embeddings + ana.basic_model.embeddings:
            assert_kernel_matches_reference(solver_tableau(e, random_rhs(rng, e)), e.ncols)
        p = pair.projection_matrix
        assert_kernel_matches_reference(solver_tableau(p, random_rhs(rng, p)), p.ncols)


def eliminate_in_given_order(m: Matrix, order=None):
    """``Matrix._eliminate`` before it sorted the rows: the given order (all
    rows, or the rows ``order`` lists, in that order), and the pivot columns
    in the order found."""
    rows = m._int_rows(order)
    pivots = reference_row_reduce(rows, m.ncols, True)
    m._rank = len(pivots)
    m._pivot_cols = [ci for _, ci in pivots]
    return rows, pivots


def reduced_echelon(rows, pivots):
    """Each pivot row divided by its pivot, by pivot column."""
    return {ci: [Fraction(x, rows[ri][ci]) for x in rows[ri]] for ri, ci in pivots}


def reduced_from_forward(rows, pivots):
    """The reduced echelon form of a forward echelon form (each pivot row
    zero at the pivot columns found before it), by ``Fraction`` back
    substitution from the last pivot row to the first."""
    reduced = {}
    for ri, ci in reversed(pivots):
        row = [Fraction(x) for x in rows[ri]]
        for c, below in reduced.items():
            if row[c]:
                row = [x - row[c] * y for x, y in zip(row, below)]
        reduced[ci] = [x / row[ci] for x in row]
    return reduced


def copied(m: Matrix) -> Matrix:
    """The same matrix with no cached elimination."""
    return Matrix(m.nrows, m.ncols, m.entries)


def kernel_facts(m: Matrix):
    basis = m.nullspace().cols_dense()
    return basis, [[type(x) for x in v] for v in basis], m.rank(), set(m.pivot_columns())


def test_sorted_elimination_matches_given_order_on_random_matrices(monkeypatch):
    rng = random.Random(43)
    mats = []
    for _ in range(150):
        a = random_matrix(rng, rng.randint(0, 8), rng.randint(0, 7))
        if rng.random() < 0.4 and a.nrows and a.ncols:
            # a sparse row below dense ones, and a repeated row
            a = a.vstack(Matrix.from_rows([[0] * (a.ncols - 1) + [1], a.rows_dense()[0]]))
        mats.append(a)
    mats += [d for g in rational_conjugates() for d in ce_complex(g).differentials]
    sorted_facts = [kernel_facts(copied(a)) for a in mats]
    sorted_forms = [reduced_from_forward(*copied(a)._eliminate()) for a in mats]
    with monkeypatch.context() as mp:
        mp.setattr(Matrix, "_eliminate", eliminate_in_given_order)
        given_facts = [kernel_facts(copied(a)) for a in mats]
        given_forms = [reduced_echelon(*copied(a)._eliminate()) for a in mats]
    assert sorted_facts == given_facts
    assert sorted_forms == given_forms


def test_sorted_elimination_matches_given_order_in_stacked_nullspace(monkeypatch):
    rng = random.Random(44)
    cases = []
    for _ in range(100):
        n = rng.randint(0, 7)
        cases.append(([random_matrix(rng, rng.randint(0, 4), n) for _ in range(rng.randint(0, 4))], n))
    for pair in sweep_pairs()[:6]:
        g, n = pair.ambient, pair.ambient.dim
        for k in range(n + 1):
            blocks = []
            for x in pair.sub_basis:
                blocks += [interior_matrix(x, n, k), lie_derivative_matrix(g, x, k)]
            cases.append((blocks, basis_size(n, k)))

    def kernels():
        out = []
        for blocks, n in cases:
            basis = Matrix.stacked_nullspace([partial(restricted, b) for b in blocks], n).cols_dense()
            out.append((basis, [[type(x) for x in v] for v in basis]))
        return out

    want = kernels()
    with monkeypatch.context() as mp:
        mp.setattr(Matrix, "_eliminate", eliminate_in_given_order)
        assert kernels() == want


def copied_complex(complex: CochainComplex) -> CochainComplex:
    """The same complex, block and product, with no cached elimination."""
    return CochainComplex(
        dims=complex.dims, differentials=tuple(copied(d) for d in complex.differentials),
        product=complex.product, block=complex.block,
    )


def picks(complex: CochainComplex):
    """Representatives and reducers of every degree, with their entry types."""
    space = CohomologySpace(copied_complex(complex))
    out = []
    for k in range(space.top_degree + 1):
        reps, reducer = space.representative_matrix(k), space._reducer(k)
        out.append((reps, entry_types(reps), reducer, entry_types(reducer), space.ranks[k]))
    return out


def test_sorted_elimination_matches_given_order_in_representative_picks(monkeypatch):
    complexes = [ce_complex(g) for g in builtin_sweep() + rational_conjugates()]
    for pair in sweep_pairs()[:4]:
        ana = PairAnalysis(pair)
        complexes += [ana.quotient_model.complex, ana.basic_model.complex]
    want = [picks(c) for c in complexes]
    with monkeypatch.context() as mp:
        mp.setattr(Matrix, "_eliminate", eliminate_in_given_order)
        assert [picks(c) for c in complexes] == want


# ---------------------------------------------------------------------------
# CohomologySpace: one elimination per degree, top down
# ---------------------------------------------------------------------------

class BottomUpCohomologySpace(CohomologySpace):
    """The ``CohomologySpace`` that the top-down pass replaced.

    Each d_k is eliminated on all of its rows by ``nullspace``, bottom up;
    a second elimination, of the coboundary basis in kernel coordinates,
    picks the representatives and builds the reducer of every degree at
    once.  ``kept[k]`` are the free columns of d_k whose kernel vectors it
    keeps.
    """

    def __init__(self, complex: CochainComplex, full: CochainComplex = None):
        self.complex = complex
        self.full = full if full is not None else complex
        self._cups = {}
        top = complex.top_degree
        diffs = [complex.differential(k) for k in range(top + 1)]
        picks = [self._bottom_up_pick(k, diffs[k].nullspace().cols_dense()) for k in range(top + 1)]
        self._representatives = [reps for reps, _, _ in picks]
        self._bottom_up_reducers = [reducer for _, reducer, _ in picks]
        self.kept = [kept for _, _, kept in picks]
        self.ranks = tuple(d.rank() for d in diffs)
        self.betti_numbers = tuple(
            complex.dim(k) - self.rank(k) - self.rank(k - 1) for k in range(top + 1)
        )
        for k, reps in enumerate(self._representatives):
            assert reps.ncols == self.betti(k)

    def _bottom_up_pick(self, k, kernel):
        r = len(kernel)
        free = [next(j for j in range(len(vec) - 1, -1, -1) if vec[j]) for vec in kernel]
        position = {f: r - 1 - i for i, f in enumerate(free)}
        image = self.complex.differential(k - 1)
        basis_cols = {c: row for row, c in enumerate(image.pivot_columns())}
        entries = {}
        for (i, j), v in image.entries.items():
            if j in basis_cols and i in position:
                entries[(basis_cols[j], position[i])] = v
        rows = Matrix(len(basis_cols), r, entries)._int_rows()
        pivots = reference_row_reduce(rows, r, True)
        taken = {p for _, p in pivots}
        kept = [i for i in range(r) if r - 1 - i not in taken]
        column = {r - 1 - i: j for j, i in enumerate(kept)}
        block = self.complex.block
        place = block.positions[k] if block is not None else range(self.complex.dim(k))
        reducer = {(j, place[free[i]]): 1 for j, i in enumerate(kept)}
        for ri, p in pivots:
            for q, j in column.items():
                if rows[ri][q]:
                    reducer[(j, place[free[r - 1 - p]])] = Fraction(-rows[ri][q], rows[ri][p])
        reps = {(place[i], j): v for j, c in enumerate(kept) for i, v in enumerate(kernel[c]) if v}
        dim = self.complex.full_dim(k)
        return Matrix(dim, len(kept), reps), Matrix(len(kept), dim, reducer), [free[i] for i in kept]

    def reduce(self, k, vec):
        residual = self.full.differential(k).apply(vec)
        if any(residual):
            raise NotACocycle(k, residual)
        if not self.betti(k):
            return []
        return [Fraction(x) for x in self._bottom_up_reducers[k].apply(vec)]


def top_down_sweep():
    """(complex, full complex or None): the complex ``ce_cohomology``
    eliminates for every builtin of the sweep (the weight-zero block where
    the grading is not trivial), the rational conjugates, and both relative
    models of the sweep pairs and of three zero pairs."""
    cases = []
    for g in builtin_sweep():
        full = ce_complex(g)
        cases.append((full, None) if g.grading.trivial else (ce_complex(g, g.grading), full))
    cases += [(ce_complex(g), None) for g in rational_conjugates()]
    zero_pairs = [zero_subalgebra(builtin(name, n)) for name, n in (("heisenberg", 3), ("gl", 1), ("so", 4))]
    for pair in sweep_pairs() + zero_pairs:
        ana = PairAnalysis(pair)
        cases += [(ana.quotient_model.complex, None), (ana.basic_model.complex, None)]
    return cases


def test_top_down_pass_matches_bottom_up_pass():
    """Ranks, Betti numbers, representatives in value and entry type, and
    ``reduce`` on random cocycles of the full complex."""
    rng = random.Random(46)
    for index, (complex, full) in enumerate(top_down_sweep()):
        got = CohomologySpace(copied_complex(complex))
        want = BottomUpCohomologySpace(copied_complex(complex), full)
        assert got.ranks == want.ranks, index
        assert got.betti_numbers == want.betti_numbers, index
        for k in range(complex.top_degree + 1):
            reps, ref = got.representative_matrix(k), want.representative_matrix(k)
            assert reps == ref and entry_types(reps) == entry_types(ref), (index, k)
        cochains = SimpleNamespace(complex=want.full)
        for k in range(complex.top_degree + 1):
            for z in random_cocycles(rng, cochains, k):
                coords, ref = got.reduce(k, z), want.reduce(k, z)
                assert coords == ref and [type(x) for x in coords] == [type(x) for x in ref], (index, k, z)


def test_rows_at_the_free_columns_above_span_each_differential():
    """d_k on its rows at the free columns of d_(k+1), in descending order:
    the rank and pivot columns of all its rows, the reduced echelon form of
    all its rows once its forward rows are back-substituted, and
    the rows that vanish are the free columns of degree k + 1 that the
    bottom-up pick keeps."""
    for index, (complex, _) in enumerate(top_down_sweep()):
        kept = BottomUpCohomologySpace(copied_complex(complex)).kept
        top = complex.top_degree
        # d_(-1) = 0: the bottom-up pick keeps every free column of d_0
        assert kept[0] == copied(complex.differential(0)).free_columns(), index
        for k in range(top + 1):
            d = complex.differential(k)
            above = copied(complex.differential(k + 1)).free_columns()
            order = above[::-1]
            all_rows = d._int_rows()
            all_pivots = reference_row_reduce(all_rows, d.ncols, True)
            rows, pivots = copied(d)._eliminate(order)
            assert len(pivots) == len(all_pivots), (index, k)
            assert sorted(c for _, c in pivots) == sorted(c for _, c in all_pivots), (index, k)
            assert reduced_from_forward(rows, pivots) == reduced_echelon(all_rows, all_pivots), (index, k)
            pivot_rows = {ri for ri, _ in pivots}
            vanishing = sorted(f for ri, f in enumerate(order) if ri not in pivot_rows)
            assert not any(any(rows[ri]) for ri in range(len(order)) if ri not in pivot_rows)
            if k < top:
                assert vanishing == kept[k + 1], (index, k)
            else:
                assert vanishing == [], index


def kernel_from_reduced(ncols, rows, pivots, free):
    """kappa_f of each free column f read off reduced echelon rows:
    ``Fraction`` 1 at f and -row[f] / row[c] at the pivot column c of each
    row, ``int`` 0 elsewhere."""
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = Fraction(1)
        for ri, ci in pivots:
            if rows[ri][f]:
                vec[ci] = Fraction(-rows[ri][f], rows[ri][ci])
        basis.append(vec)
    return basis


def reduced_top_down(complex: CochainComplex):
    """The top-down pass as it was before its elimination went forward only:
    each d_k, row-scaled, on its rows at the free columns of d_(k+1) in
    descending order, to reduced echelon form, and each kept kappa_f read
    off the reduced rows, -row[f] / row[c] at each pivot column c.  Returns
    the ranks, the kept free columns and the kept vectors of every degree,
    in the eliminated complex's coordinates."""
    top = complex.top_degree
    diffs = [copied(complex.differential(k)) for k in range(top + 1)]
    ranks, kept, vectors = [None] * (top + 1), [None] * (top + 1), [None] * (top + 1)

    def pick(k, rows, pivots, free):
        kept[k] = free
        vectors[k] = kernel_from_reduced(diffs[k].ncols, rows, pivots, free)

    order, above = [], None
    for k in range(top, -1, -1):
        d = diffs[k]
        rows = d._int_rows(order)
        pivots = reference_row_reduce(rows, d.ncols, True)
        ranks[k] = len(pivots)
        if above is not None:
            pivot_rows = {ri for ri, _ in pivots}
            pick(k + 1, *above, sorted(f for ri, f in enumerate(order) if ri not in pivot_rows))
        above = rows, pivots
        pivot_cols = {ci for _, ci in pivots}
        order = [f for f in range(d.ncols) if f not in pivot_cols][::-1]
    if above is not None:
        pick(0, *above, order[::-1])
    return ranks, kept, vectors


def test_forward_pass_matches_the_reduced_pass():
    """Ranks, kept free columns and representatives, in value and entry type,
    of the forward elimination with back-substitution (on the builder's
    numerators where it kept them) against the reduced top-down pass (on
    row-scaled rows)."""
    for index, (complex, _) in enumerate(top_down_sweep()):
        space = CohomologySpace(complex)
        ranks, kept, vectors = reduced_top_down(complex)
        assert space.ranks == tuple(ranks), index
        assert space._kept == kept, index
        for k in range(complex.top_degree + 1):
            place = space._place(k)
            entries = {(place[i], j): v for j, vec in enumerate(vectors[k]) for i, v in enumerate(vec) if v}
            want = Matrix(complex.full_dim(k), len(vectors[k]), entries)
            got = space.representative_matrix(k)
            assert got == want and entry_types(got) == entry_types(want), (index, k)


def test_kernel_vectors_by_back_substitution_match_the_reduced_form():
    """``_kernel_vectors`` on forward rows against the kernel vectors read
    off the reduced rows of the same rows, over random matrices and the
    differentials of the rational conjugates, every free column."""
    rng = random.Random(47)
    mats = [random_matrix(rng, rng.randint(0, 8), rng.randint(0, 8)) for _ in range(150)]
    mats += [d for g in rational_conjugates() for d in ce_complex(g).differentials]
    for index, m in enumerate(mats):
        order = list(range(m.nrows))[::-1]
        forward = copied(m)
        rows, pivots = forward._eliminate(order)
        basis = forward._kernel_vectors(rows, pivots, forward.free_columns()).cols_dense()
        rows = m._int_rows(order)
        want = kernel_from_reduced(m.ncols, rows, reference_row_reduce(rows, m.ncols, True), forward.free_columns())
        assert basis == want, index
        assert [[type(x) for x in v] for v in basis] == [[type(x) for x in v] for v in want], index
        assert all(not any(m.apply(v)) for v in basis), index


# ---------------------------------------------------------------------------
# the CE builder sums integer numerators; bracket visits only the supports
# ---------------------------------------------------------------------------

def reference_alternating_differential_matrix(n, bracket_fn, k, flip_sign=False, columns=None, rows=None):
    """The builder that accumulated each entry as a ``Fraction``."""
    terms = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            for m, c in bracket_fn(u, v).items():
                if c:
                    terms[m].append(((1 << u) | (1 << v), (1 << u) - 1, (1 << v) - 1, c))
    if columns is None:
        columns = multi_indices(n, k)
    if rows is None:
        rows = multi_indices(n, k + 1)
    row_of = {sum(1 << i for i in J): r for r, J in enumerate(rows)}
    flip = 1 if flip_sign else 0
    entries = {}
    for col, I in enumerate(columns):
        mask = sum(1 << i for i in I)
        for p, m in enumerate(I):
            rest = mask ^ (1 << m)
            for uv, below_u, below_v, c in terms[m]:
                if uv & rest:
                    continue
                row = row_of[rest | uv]
                odd = (flip + p + 1 + (rest & below_u).bit_count() + (rest & below_v).bit_count()) & 1
                key = (row, col)
                entries[key] = entries.get(key, Fraction(0)) + (-c if odd else c)
    return Matrix(len(rows), len(columns), entries)


def assert_builder_matches_reference(n, bracket_fn, block=lambda k: {}):
    """Equal entries, in order and value, for both signs, as ``int``s when
    every structure constant is integral and as ``Fraction``s otherwise
    (``assert_integer_builder``); ``block(k)`` gives the ``columns`` and
    ``rows`` of degree k, if any."""
    integral = all(
        Fraction(c).denominator == 1 for u in range(n) for v in range(u + 1, n) for c in bracket_fn(u, v).values()
    )
    for k in range(n + 1):
        for flip_sign in (False, True):
            args = (n, bracket_fn, k, flip_sign)
            got = alternating_differential_matrix(*args, **block(k))
            want = reference_alternating_differential_matrix(*args, **block(k))
            assert got.shape == want.shape
            assert list(got.entries.items()) == list(want.entries.items()), (n, k, flip_sign)
            assert_integer_builder(got, want, integral)


def test_integer_builder_matches_fraction_builder():
    for g in builtin_sweep() + rational_conjugates():
        assert_builder_matches_reference(g.dim, g.bracket_basis)
    # weight-zero blocks: columns and rows restricted
    for g in (builtin("gl", 3), builtin("so", 5)):
        positions = ce_complex(g, g.grading).block.positions

        def block(k, n=g.dim, positions=positions):
            return {"columns": [multi_indices(n, k)[i] for i in positions[k]],
                    "rows": [multi_indices(n, k + 1)[i] for i in positions[k + 1]] if k < n else []}

        assert_builder_matches_reference(g.dim, g.bracket_basis, block)
    # three quotient tables, whose constants are projected lifts
    for pair in (canonical_gl_so_pair(3), subalgebra(builtin("so", 5), so_in_so_vectors(3, 5)),
                 subalgebra(builtin("gl", 3), so_in_gl_vectors(2, 3))):
        table = quotient_bracket_table(pair)

        def bracket_fn(i, j, table=table):
            if i < j:
                return table.get((i, j), {})
            return {m: -c for m, c in table.get((j, i), {}).items()}

        assert_builder_matches_reference(pair.dim_quotient, bracket_fn)


def reference_bracket(g, x, y):
    """[x, y] by a loop over every entry of the structure table."""
    out = [0] * g.dim
    for (i, j), terms in g.structure.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, v in terms.items():
                out[k] = out[k] + c * v
    return out


def test_bracket_matches_full_table_loop():
    rng = random.Random(45)
    for g in builtin_sweep() + rational_conjugates():
        for _ in range(40):
            density = rng.choice((0.1, 0.3, 1.0))
            x, y = ([rng.choice((1, -2, 3, Fraction(rng.randint(-4, 4), rng.randint(1, 5))))
                     if rng.random() < density else 0 for _ in range(g.dim)] for _ in range(2))
            if rng.random() < 0.3:
                x = [v if type(v) is int else 0 for v in x]
                y = [v if type(v) is int else 0 for v in y]
            got, want = g.bracket(x, y), reference_bracket(g, x, y)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
        for i in range(g.dim):
            for j in range(g.dim):
                x, y = g.basis_vector(i), g.basis_vector(j)
                assert g.bracket(x, y) == reference_bracket(g, x, y)


def reference_adjoint_matrix(g, x) -> Matrix:
    """ad_x by a loop over every entry of the structure table."""
    entries = {}
    for (i, j), terms in g.structure.items():
        if x[i]:
            for k, v in terms.items():
                entries[(k, j)] = entries.get((k, j), 0) + x[i] * v
        if x[j]:
            for k, v in terms.items():
                entries[(k, i)] = entries.get((k, i), 0) - x[j] * v
    return Matrix(g.dim, g.dim, entries)


def test_adjoint_matrix_matches_full_table_loop():
    """ad_x over the support of x against the loop over the whole table, in
    value and entry type: every basis vector, the generators of the sweep
    pairs, and random int and ``Fraction`` vectors, some with entries 1."""
    rng = random.Random(46)
    cases = [(g, g.basis_vector(i)) for g in builtin_sweep() + rational_conjugates() for i in range(g.dim)]
    cases += [(pair.ambient, list(x)) for pair in sweep_pairs() for x in pair.sub_basis]
    for g in builtin_sweep() + rational_conjugates():
        for _ in range(20):
            density = rng.choice((0.1, 0.3, 1.0))
            cases.append((g, [rng.choice((1, Fraction(1), -1, 3, Fraction(rng.randint(-4, 4), rng.randint(1, 5))))
                              if rng.random() < density else 0 for _ in range(g.dim)]))
    for g, x in cases:
        got, want = g.adjoint_matrix(x), reference_adjoint_matrix(g, x)
        assert got == want, (g.basis_names, x)
        assert entry_types(got) == entry_types(want), (g.basis_names, x)


# ---------------------------------------------------------------------------
# relative kernels on the sign block of exp(pi theta)
# ---------------------------------------------------------------------------

def rational_basis_pair():
    """(gl(3), so(3)) with so(3) spanned by A_01 + 1/2 A_02, A_02 + 2/3 A_12
    and A_12 + 3/2 A_01: each generator is a rotation of angular speed
    sqrt(5)/2, sqrt(13)/3 or sqrt(13)/2, so no exp(pi ad_x) is diagonal."""
    a01, a02, a12 = so_in_gl_vectors(3, 3)

    def combo(x, c, y):
        return [u + c * v for u, v in zip(x, y)]

    return subalgebra(builtin("gl", 3), [
        combo(a01, Fraction(1, 2), a02), combo(a02, Fraction(2, 3), a12), combo(a12, Fraction(3, 2), a01),
    ])


def full_path_pairs():
    """Pairs where no generator has a sign mask: zero subalgebras, central
    subalgebras of Heisenberg algebras (ad_z = 0) and a rational basis."""
    return [
        zero_subalgebra(builtin("so", 3)),
        zero_subalgebra(builtin("gl", 2)),
        subalgebra(builtin("heisenberg", 3), [[0, 0, 1]]),
        subalgebra(builtin("heisenberg", 5), [[0, 0, 0, 0, 1]]),
        rational_basis_pair(),
    ]


def expected_sign_mask(letters, a, b):
    """The letters (c, d) with eps_c eps_d = -1, eps = -1 at a and b: the
    -1 entries of conjugation by diag(eps) on E_cd, A_cd or E_cd + E_dc."""
    return sum(1 << i for i, (c, d) in enumerate(letters) if ((c in (a, b)) + (d in (a, b))) % 2)


def test_sign_mask_of_each_rotation_in_gl_and_so():
    """exp(pi ad A_ab) is conjugation by the rotation through pi in the
    (a, b) plane, diag(eps) with eps = -1 at a and b."""
    for n in range(2, 6):
        gl, so = builtin("gl", n), builtin("so", n)
        so_letters = so_pairs(n)
        gl_letters = [(c, d) for c in range(n) for d in range(n)]
        for (a, b), x_gl, x_so in zip(so_letters, so_in_gl_vectors(n, n), so_in_so_vectors(n, n)):
            assert sign_mask(gl.adjoint_matrix(x_gl)) == expected_sign_mask(gl_letters, a, b)
            assert sign_mask(so.adjoint_matrix(x_so)) == expected_sign_mask(so_letters, a, b)
        if n <= 4:
            pair = canonical_gl_so_pair(n)
            sym_letters = [(c, d) for c in range(n) for d in range(c, n)]
            for (a, b), action in zip(so_letters, pair.action):
                assert sign_mask(action) == expected_sign_mask(sym_letters, a, b)


def test_no_sign_mask_without_a_diagonal_exp_pi():
    rng = random.Random(71)
    # nilpotent: ad_x on a Heisenberg algebra, strictly triangular matrices
    for n in (3, 5, 7):
        g = builtin("heisenberg", n)
        for i in range(n - 1):
            assert sign_mask(g.adjoint_matrix(g.basis_vector(i))) is None
    for _ in range(20):
        n = rng.randint(1, 6)
        m = Matrix(n, n, {(i, j): rng.choice((1, -2, Fraction(1, 3))) for i in range(n) for j in range(i + 1, n)})
        assert sign_mask(m) is None or m.is_zero()
    assert sign_mask(Matrix.zeros(3, 3)) == 0
    # semisimple but exp(pi M) not diagonal, or eigenvalues off {0, +-i, +-2i}
    rotation = Matrix(2, 2, {(0, 1): 1, (1, 0): -1})
    assert sign_mask(rotation) == 0b11
    assert sign_mask(rotation.scale(3)) is None
    assert sign_mask(rotation.scale(Fraction(1, 2))) is None
    assert sign_mask(Matrix.identity(2)) is None
    # M^2 = -3: M^2 (M^2 + 4) = -3 is diagonal, but exp(pi M) is not
    assert sign_mask(Matrix(2, 2, {(0, 1): 3, (1, 0): -1})) is None
    assert sign_mask(Matrix(3, 3, {(1, 2): 1, (2, 1): -1})) == 0b110
    for pair in full_path_pairs():
        g = pair.ambient
        operators = [g.adjoint_matrix(x) for x in pair.sub_basis] + list(pair.action)
        assert not any(map(sign_mask, operators))


def reference_sign_mask(m: Matrix):
    """``sign_mask`` by four dense ``Fraction`` products: M (M^2 + 1)(M^2 + 4)
    must vanish, and M^2 (M^2 + 4) = (3/2)(exp(pi M) - 1) must be diagonal
    with entries 0 and -3."""
    square = m @ m
    shifted = square + Matrix.identity(m.nrows).scale(4)
    if not (m @ (square + Matrix.identity(m.nrows)) @ shifted).is_zero():
        return None
    mask = 0
    for (i, j), v in (square @ shifted).entries.items():
        if i != j or v != -3:
            return None
        mask |= 1 << i
    return mask


def conjugated(m: Matrix, p: Matrix) -> Matrix:
    """P M P^-1, with P^-1 by ``ColumnSolver``."""
    units = [[int(i == j) for i in range(p.nrows)] for j in range(p.ncols)]
    inverse = Matrix.from_cols(ColumnSolver(p, units).solutions, p.nrows)
    return p @ m @ inverse


def test_sign_mask_matches_the_fraction_reference():
    """The integer test, all-ones vector first, against the ``Fraction``
    products on ad of every basis element of the builtins, the actions of
    the sweep pairs, the rational conjugates of gl(3), and random rational
    matrices, some built to pass."""
    rng = random.Random(72)
    algebras = builtin_sweep() + [builtin("gl", 4), builtin("gl", 5), builtin("so", 6)]
    algebras += rational_conjugates() + [conjugate(builtin("gl", 3), rng, positions) for positions in (3, 6, 9)]
    operators = [g.adjoint_matrix(g.basis_vector(j)) for g in algebras for j in range(g.dim)]
    operators += [a for pair in sweep_pairs() for a in pair.action]
    rotation = Matrix(2, 2, {(0, 1): 1, (1, 0): -1})
    passing = conjugated(rotation, Matrix(2, 2, {(0, 0): 1, (1, 1): 2}))
    assert passing.entries == {(0, 1): Fraction(1, 2), (1, 0): -2} and sign_mask(passing) == 0b11
    operators.append(passing)
    for _ in range(150):
        n = rng.randint(1, 5)
        operators.append(random_matrix(rng, n, n))
    for _ in range(60):
        # rotations by pi/2 and pi (masks) or 2 pi (none) in random coordinates
        n = rng.randint(2, 6)
        entries = {}
        for a in range(0, n - 1, 2):
            if rng.random() < 0.7:
                c = rng.choice((1, 2, -1, 3))
                entries[(a, a + 1)], entries[(a + 1, a)] = c, -c
        p = Matrix(n, n, {(i, i): rng.choice((1, 2, Fraction(1, 3), -1)) for i in range(n)})
        if rng.random() < 0.5:
            p = p @ Matrix(n, n, {(i, j): 1 for i, j in zip(range(n), rng.sample(range(n), n))})
        if rng.random() < 0.3:
            # a shear: exp(pi M) stays +-1 on each plane but leaves the diagonal
            p = p @ (Matrix.identity(n) + Matrix(n, n, {(0, n - 1): Fraction(1, 2)}))
        operators.append(conjugated(Matrix(n, n, entries), p))
    masks = [reference_sign_mask(m) for m in operators]
    assert [sign_mask(m) for m in operators] == masks
    assert sum(mask is None for mask in masks) > 50 and sum(bool(mask) for mask in masks) > 50


def sign_block(n, k, masks):
    """Positions of the degree-k block of the sign parities of ``masks``."""
    return [pos for pos, _ in Grading((0,) * n, sign_parities(n, masks)).block(k)]


def test_sign_block_is_the_even_multi_indices():
    masks = [0b0110, 0b1100]
    for k in range(5):
        want = [pos for pos, I in enumerate(multi_indices(4, k))
                if len({1, 2} & set(I)) % 2 == 0 and len({2, 3} & set(I)) % 2 == 0]
        assert sign_block(4, k, masks) == want
    assert sign_parities(4, masks) == (0, 0b01, 0b11, 0b10)
    assert sign_block(3, 2, []) == [0, 1, 2]


def relative_models(pair, quotient_only=False):
    models = [invariant_quotient_complex(pair)]
    if not quotient_only:
        models.append(basic_subcomplex(pair))
    return models


def assert_models_match(got, want):
    assert len(got.embeddings) == len(want.embeddings)
    for e, f in zip(got.embeddings, want.embeddings):
        assert e == f and entry_types(e) == entry_types(f)
    for d, c in zip(got.complex.differentials, want.complex.differentials):
        assert d == c and entry_types(d) == entry_types(c)
        assert d.rank() == c.rank()


def assert_block_matches_full(pair, monkeypatch, quotient_only=False):
    """Both models with and without the sign block; returns how many
    kernels were sought on a block."""
    within = []
    stacked = Matrix.stacked_nullspace

    def spy(blocks, ncols, within_cols=None):
        within.append(within_cols)
        return stacked(blocks, ncols, within_cols)

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "stacked_nullspace", staticmethod(spy))
        blocked = relative_models(pair, quotient_only)
    with monkeypatch.context() as patch:
        patch.setattr(relative, "sign_mask", lambda m: None)
        full = relative_models(pair, quotient_only)
    for got, want in zip(blocked, full):
        assert_models_match(got, want)
    return sum(w is not None for w in within)


def test_sign_block_matches_the_full_path_on_sweep_pairs(monkeypatch):
    for pair in sweep_pairs():
        blocked = assert_block_matches_full(pair, monkeypatch)
        if any(map(sign_mask, pair.action)):
            assert blocked > 0


def test_sign_block_matches_the_full_path_on_gl4_so4(monkeypatch):
    """The invariant quotient model of (gl(4), so(4)): 10 letters, 256 of
    the 1024 cochains in the block."""
    pair = canonical_gl_so_pair(4)
    masks = [sign_mask(a) for a in pair.action]
    assert sum(len(sign_block(10, k, masks)) for k in range(11)) == 256
    assert assert_block_matches_full(pair, monkeypatch, quotient_only=True) == 11


def test_pairs_without_a_sign_mask_take_the_full_path(monkeypatch):
    for pair in full_path_pairs():
        assert assert_block_matches_full(pair, monkeypatch) == 0


def test_basic_model_builds_no_ambient_complex(monkeypatch):
    """The basic model builds d on its embedding's support: with
    ``ce_differential`` refusing to run, it is the model built before, in
    value and entry type."""
    def refuse(*args, **kwargs):
        raise AssertionError("basic_subcomplex built a full ambient complex")

    for pair in sweep_pairs():
        want = basic_subcomplex(pair)
        with monkeypatch.context() as patch:
            patch.setattr(cohomology, "ce_differential", refuse)
            got = basic_subcomplex(pair)
        assert_models_match(got, want)


def chain_check_outcome(maps, src, dst):
    """(degree, column) of the first NotAChainMap, or None when ``maps`` pass."""
    try:
        check_chain_map(maps, src, dst)
    except NotAChainMap as exc:
        return exc.degree, exc.column
    return None


def test_chain_checks_on_a_block_decide_on_the_full_complex():
    """``check_chain_map`` on the weight-zero block of g builds the full d
    only at the columns it reads.  Against the full complex of g as the
    reference, over the sweep pairs: the ``delta_chain`` maps (block as
    target) and the restriction maps (block as source) pass both, and with
    1 added at a seeded entry of one degree both checks give the same
    verdict, degree and column."""
    rng = random.Random(103)
    refused = tried = 0
    for pair in sweep_pairs():
        ana = PairAnalysis(pair)
        block, full = ana.ambient_cohomology.complex, ce_complex(pair.ambient)
        cases = [
            (delta_chain(ana), lambda ambient: (ana.quotient_model.complex, ambient)),
            (ana.restriction, lambda ambient: (ambient, ana.sub_cohomology.complex)),
        ]
        for maps, ends in cases:
            assert chain_check_outcome(maps, *ends(block)) is None
            assert chain_check_outcome(maps, *ends(full)) is None
            for k, f in enumerate(maps):
                if not f.nrows or not f.ncols:
                    continue
                key = (rng.randrange(f.nrows), rng.randrange(f.ncols))
                entries = dict(f.entries)
                entries[key] = entries.get(key, 0) + 1
                perturbed = list(maps)
                perturbed[k] = Matrix(f.nrows, f.ncols, entries)
                want = chain_check_outcome(perturbed, *ends(full))
                assert chain_check_outcome(perturbed, *ends(block)) == want, (pair.ambient.basis_names, k, key)
                refused += want is not None
                tried += 1
    assert tried > 80 and refused > 40


def pair_results(pair, basic_model=None):
    """The Koszul map's matrices, verdict and kernel forms, the
    factorization degrees and the generators of H(g, h); the basic model is
    taken from ``basic_model`` when given."""
    ana = PairAnalysis(pair)
    if basic_model is not None:
        ana.basic_model = basic_model
    result = delta_cohom(ana)
    generators = identify_generators(ana)
    return (
        result.cohomology_map.matrices,
        [entry_types(m) for m in result.cohomology_map.matrices],
        result.injective,
        result.kernel_basis,
        factorization_check(ana),
        generators.generators,
        generators.presentation,
    ), ana


def test_pair_analysis_builds_no_ambient_complex(monkeypatch):
    """The Koszul map, its factorization and the generators of H(g, h) build
    the full d of g only at the columns a check reads: with
    ``ce_differential`` refusing to run, they give what they gave before,
    over the sweep pairs with a graded ambient algebra and (gl(4), so(4)).
    The basic model of (gl(4), so(4)) is reused from the first run: it never
    reads the ambient complex (``test_basic_model_builds_no_ambient_complex``)."""
    def refuse(*args, **kwargs):
        raise AssertionError("a full ambient complex was built")

    pairs = [pair for pair in sweep_pairs() if not pair.ambient.grading.trivial]
    assert len(pairs) >= 8
    for pair in pairs + [canonical_gl_so_pair(4)]:
        want, ana = pair_results(pair)
        basic = ana.basic_model if pair.ambient.dim > 10 else None
        with monkeypatch.context() as patch:
            patch.setattr(cohomology, "ce_differential", refuse)
            got, _ = pair_results(pair, basic)
        assert got == want, pair.ambient.basis_names


def test_ncz_builds_no_full_complex_of_h(monkeypatch):
    """H(h) lives on the weight-zero block of h, as H(g) does on that of g:
    with ``ce_differential`` refusing to run, ``ncz_report`` gives the
    payload it gave before, over the sweep pairs where both g and h are
    graded and on (gl(4), so(4))."""
    def refuse(*args, **kwargs):
        raise AssertionError("a full complex was built")

    pairs = [
        pair for pair in sweep_pairs()
        if not pair.ambient.grading.trivial and not pair.sub.grading.trivial
    ]
    assert len(pairs) >= 4
    for pair in pairs + [canonical_gl_so_pair(4)]:
        want = ncz_report(PairAnalysis(pair)).to_payload()
        with monkeypatch.context() as patch:
            patch.setattr(cohomology, "ce_differential", refuse)
            got = ncz_report(PairAnalysis(pair)).to_payload()
        assert got == want, pair.ambient.basis_names


# ---------------------------------------------------------------------------
# integer constraint builders and the bitmask wedge
# ---------------------------------------------------------------------------

def reference_endo_action_matrix(a: Matrix, n: int, k: int) -> Matrix:
    """theta_A summed in ``Fraction``s over the tuple bases."""
    rows = {idx: pos for pos, idx in enumerate(multi_indices(n, k))}
    entries = {}
    for col, I in enumerate(multi_indices(n, k)):
        for p, m in enumerate(I):
            rest = I[:p] + I[p + 1:]
            for (r, j), v in a.entries.items():
                if r != m or j in rest:
                    continue
                J = tuple(sorted(rest + (j,)))
                t = J.index(j)
                key = (rows[J], col)
                entries[key] = entries.get(key, Fraction(0)) + (-v if (t - p) % 2 == 0 else v)
    return Matrix(len(rows), len(rows), entries)


def reference_interior_matrix(x, n: int, k: int) -> Matrix:
    rows = {idx: pos for pos, idx in enumerate(multi_indices(n, k - 1))}
    entries = {}
    for col, I in enumerate(multi_indices(n, k)):
        for p, i in enumerate(I):
            if x[i]:
                key = (rows[I[:p] + I[p + 1:]], col)
                entries[key] = entries.get(key, Fraction(0)) + (-1 if p % 2 else 1) * x[i]
    return Matrix(len(rows), len(multi_indices(n, k)), entries)


def assert_integer_builder(got: Matrix, want: Matrix, integral: bool):
    """Equal values; int entries for integral input, else all ``Fraction``."""
    assert got == want
    assert set(entry_types(got).values()) <= ({int} if integral else {Fraction})


def test_constraint_builders_match_fraction_sums():
    rng = random.Random(83)
    for _ in range(40):
        n = rng.randint(0, 6)
        rational = rng.random() < 0.5
        a = random_endomorphism(rng, n, rational)
        integral = all(type(v) is int or v.denominator == 1 for v in a.entries.values())
        x = [rng.choice((0, 0, 1, -2, Fraction(1, 3) if rational else 3)) for _ in range(n)]
        x_integral = all(type(v) is int for v in x)
        for k in range(n + 1):
            assert_integer_builder(endo_action_matrix(a, n, k), reference_endo_action_matrix(a, n, k), integral)
            assert_integer_builder(interior_matrix(x, n, k), reference_interior_matrix(x, n, k), x_integral)
    pair = canonical_gl_so_pair(3)
    for a in pair.action:
        for k in range(pair.dim_quotient + 1):
            assert_integer_builder(endo_action_matrix(a, 6, k), reference_endo_action_matrix(a, 6, k), True)


def test_lie_derivative_returns_fraction_coefficients_under_an_integral_action():
    """``lie_derivative`` applies ``endo_action_matrix``, whose entries are
    ints for an integral ad_x, to the form's coordinates; the result is a
    ``Form``, which holds ``Fraction`` coefficients whatever the entry
    types, so it is what the ``Fraction`` reference gives, in value and in
    type, for int and for ``Fraction`` coordinates alike."""
    rng = random.Random(89)
    g = builtin("gl", 3)
    for _ in range(10):
        x = [rng.choice((0, 1, -2)) for _ in range(g.dim)]
        k = rng.randint(0, g.dim)
        a = Form.from_vector(g.dim, k, [rng.choice((0, 0, 1, -3, Fraction(1, 2))) for _ in range(basis_size(g.dim, k))])
        vec = a.to_vector()
        assert set(map(type, endo_action_matrix(g.adjoint_matrix(x), g.dim, k).entries.values())) <= {int}
        want = reference_endo_action_matrix(g.adjoint_matrix(x), g.dim, k).apply(vec)
        got = lie_derivative(g, x, a)
        assert got == Form.from_vector(g.dim, k, want)
        assert {type(c) for c in got.coeffs.values()} <= {Fraction}


def reference_wedge_vector(n: int, k: int, v, l: int, w):
    """The wedge by ``merge_sign`` over index tuples, each pair of nonzeros."""
    out_positions = {idx: pos for pos, idx in enumerate(multi_indices(n, k + l))}
    out = [Fraction(0)] * len(out_positions)
    if not out_positions:
        return out
    vk, wl = multi_indices(n, k), multi_indices(n, l)
    for pa, va in enumerate(v):
        for pb, vb in enumerate(w):
            if va and vb:
                merged = merge_sign(vk[pa], wl[pb])
                if merged is not None:
                    sign, idx = merged
                    out[out_positions[idx]] += sign * va * vb
    return out


@st.composite
def sparse_vector_pairs(draw):
    n = draw(st.integers(0, 7))
    k, l = draw(st.integers(0, n)), draw(st.integers(0, n))
    entry = st.one_of(
        st.just(0), st.just(0), st.integers(-3, 3),
        st.fractions(min_value=-2, max_value=2, max_denominator=5),
    )
    v = draw(st.lists(entry, min_size=basis_size(n, k), max_size=basis_size(n, k)))
    w = draw(st.lists(entry, min_size=basis_size(n, l), max_size=basis_size(n, l)))
    return n, k, v, l, w


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sparse_vector_pairs())
def test_bitmask_wedge_matches_merge_sign(args):
    got, want = wedge_vector(*args), reference_wedge_vector(*args)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


# ---------------------------------------------------------------------------
# the CLI's option table against argparse
# ---------------------------------------------------------------------------

class ReferenceArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def reference_build_parser():
    """The argparse parser that ``cli.build_parser`` returned before the option table."""
    parser = ReferenceArgumentParser(prog="liecoh", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def algebra_args(p):
        p.add_argument("--builtin", help="builtin algebra, e.g. gl:3, so:5, heisenberg:3")
        p.add_argument("--file", help="algebra JSON file")

    def sub_args(p):
        p.add_argument("--sub", help="canonical subalgebra: zero or so:k")
        p.add_argument("--sub-file", dest="sub_file", help="subalgebra vectors JSON file")

    p = sub.add_parser("validate", help="validate structure constants")
    algebra_args(p)
    p = sub.add_parser("export", help="write a builtin algebra as JSON")
    algebra_args(p)
    p.add_argument("--output", "-o", help="output path (default: stdout)")
    for name in ("betti", "relative-betti"):
        p = sub.add_parser(name, help="Betti numbers (optionally relative)")
        algebra_args(p)
        p.add_argument("--relative", help="canonical subalgebra: zero or so:k")
        p.add_argument("--relative-file", dest="relative_file", help="subalgebra vectors JSON file")
        p.add_argument("--representatives", action="store_true",
                       help="include representative cocycles as forms")
    p = sub.add_parser("koszul", help="characteristic homomorphism of a pair")
    algebra_args(p)
    sub_args(p)
    p.add_argument("--matrix", action="store_true", help="include per-degree matrices")
    p.add_argument("--kernel", action="store_true", help="include kernel forms")
    p.add_argument("--factor-check", dest="factor_check", action="store_true",
                   help="verify the two-step factorization")
    for name in ("ncz", "reductive", "classes"):
        p = sub.add_parser(name)
        algebra_args(p)
        sub_args(p)
    p = sub.add_parser("functoriality", help="naturality square for a morphism file")
    p.add_argument("--morphism", required=True, help="morphism JSON file")
    p = sub.add_parser("direct-product-check", help="characteristic map of (g+h, h)")
    p.add_argument("--left-builtin", dest="left_builtin", help="first factor, e.g. so:3")
    p.add_argument("--left-file", dest="left_file")
    p.add_argument("--right-builtin", dest="right_builtin", help="second factor, e.g. abelian:2")
    p.add_argument("--right-file", dest="right_file")
    return parser


def read_argv(parse, argv):
    """What a parser makes of argv: its attributes, "refused" or "help"."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parse(list(argv)))
        except InputError:
            return "refused"
        except (SystemExit, cli._Help):  # argparse prints help and exits 0
            return "help"


NEGATIVE_NUMBERS = ["-1", "-0", "-12", "-.5", "-1.5"]
OPTION_TOKENS = NEGATIVE_NUMBERS + [
    "-o", "-ox.json", "-o=x.json", "-o=", "--output=x.json", "--builtin=so:3", "--builtin=",
    "--file=<file>", "--sub=so:2", "--rep", "--re", "--r", "--s", "--su", "--sub-", "--f",
    "--fi", "--fa", "--left", "--l", "--right-b", "--m", "--mo=<file>", "--representatives=1",
    "--matrix=", "--kernel=h", "--kernel", "-", "",
]


def stable_across_pythons(argv):
    """argparse's reading of "--" and of tokens such as "-1a" (a negative number
    or not) differs between Python versions; those are tested on their own."""
    return "--" not in argv and not any(
        re.match(r"-\.?\d", t) and not re.match(r"^-\d+$|^-\d*\.\d+$", t) for t in argv
    )


@st.composite
def option_argvs(draw):
    """The contract's argvs, edited: --opt=value, abbreviations, repeats, and
    inserted short options, switches with values and negative numbers."""
    argv = list(draw(test_cli_contract.argvs))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["join", "abbreviate", "repeat", "insert"]))
        long_at = [i for i, t in enumerate(argv) if t.startswith("--") and len(t) > 2]
        if edit == "insert" or not long_at:
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(OPTION_TOKENS)))
            continue
        i = draw(st.sampled_from(long_at))
        if edit == "join" and i + 1 < len(argv):
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
        elif edit == "abbreviate":
            name, eq, value = argv[i].partition("=")
            argv[i] = name[:draw(st.integers(3, len(name)))] + eq + value
        elif edit == "repeat":
            value = draw(st.sampled_from(test_cli_contract.BUILTINS + NEGATIVE_NUMBERS + [None]))
            argv += [argv[i]] if value is None else [argv[i], value]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(argv=option_argvs().filter(stable_across_pythons))
def test_option_table_reads_every_argv_as_argparse_did(argv):
    want = read_argv(reference_build_parser().parse_args, argv)
    got = read_argv(cli.build_parser().parse_args, argv)
    assert got == want, argv
    if got == "refused":
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 1
        assert json.loads(out.getvalue())["error"]["type"] == "InputError"


@pytest.mark.parametrize("argv, want", [
    (["-h"], "help"), (["--help"], "help"), (["--he"], "help"), (["-hh"], "help"),
    (["--x", "betti", "-h"], "help"), (["betti", "-h"], "help"), (["betti", "--h"], "help"),
    (["koszul", "--builtin", "so:3", "--help"], "help"), (["export", "-ho", "x.json"], "help"),
    (["functoriality", "--help"], "help"), (["betti", "--nope", "-h"], "help"),
    (["betti", "--builtin", "-h"], "refused"), (["-hx"], "refused"), (["--help=x"], "refused"),
    (["koszul", "--builtin", "so:3", "--sub", "zero", "--kernel=h"], "refused"),
    (["betti", "--builtin", "so:3", "--representatives=o"], "refused"),
    (["export", "--builtin", "so:3", "-ox.json"], "accepted"),
    (["export", "--builtin", "so:3", "-o=x.json"], "accepted"),
    (["export", "--builtin", "so:3", "-o", "-1"], "accepted"),
    (["export", "--builtin", "so:3", "-o="], "accepted"),
    (["betti", "--builtin", "so:3", "--relative", " -x"], "accepted"),
    (["betti", "--builtin", "so:3", "--relative", "--x y"], "accepted"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_option_table_reads_hand_picked_argvs_as_argparse_did(argv, want):
    got = read_argv(cli.build_parser().parse_args, argv)
    assert got == read_argv(reference_build_parser().parse_args, argv)
    assert got == want if want != "accepted" else isinstance(got, dict)


@pytest.mark.parametrize("argv", [
    ["betti", "--builtin", "so:3", "--"], ["--", "betti", "--builtin", "so:3"],
    ["betti", "--", "--builtin", "so:3"], ["betti", "--builtin", "--", "so:3"],
    ["betti", "--builtin", "-1a"], ["betti", "--builtin", "so:3", "-1a"], ["--"],
], ids=" ".join)
def test_option_table_refuses_double_dash_and_number_like_flags(argv):
    """Python 3.11's argparse refused each of these; later versions may not."""
    assert read_argv(cli.build_parser().parse_args, argv) == "refused"
