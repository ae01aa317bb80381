import json
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    Form,
    alternation,
    basis_form,
    form_from_json,
    form_to_json,
    interior,
    lie_derivative,
    multi_indices,
    wedge,
)

from liecoh import builtin, exterior, validate_structure
from liecoh.errors import DimensionMismatch
from liecoh.exterior import (
    ce_differential,
    endo_action_matrix,
    interior_matrix,
    lie_derivative_matrix,
    pullback_matrix,
    wedge_vector,
)
from liecoh.linalg import Matrix


def random_form(rng, n, k, terms=3):
    basis = multi_indices(n, k)
    coeffs = {}
    for _ in range(terms):
        coeffs[rng.choice(basis)] = Fraction(rng.randint(-4, 4))
    return Form(n, k, coeffs)


def so3_cyclic():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2
    return validate_structure([(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)], 3)


def test_wedge_basis_forms():
    t1 = basis_form(3, (0,))
    t2 = basis_form(3, (1,))
    assert wedge(t1, t2) == Form(3, 2, {(0, 1): 1})
    assert wedge(t1, t1).is_zero()
    assert wedge(t2, t1) == Form(3, 2, {(0, 1): -1})


def test_wedge_associative_and_graded_commutative():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 5)
        k, l = rng.randint(0, 2), rng.randint(0, 2)
        a, b = random_form(rng, n, k), random_form(rng, n, l)
        c = random_form(rng, n, rng.randint(0, 2))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        sign = -1 if (k * l) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(basis_form(2, (0,)), basis_form(3, (0,)))


def test_interior_basis_cases():
    a = Form(3, 2, {(0, 1): 1})
    assert interior([1, 0, 0], a) == Form(3, 1, {(1,): 1})
    assert interior([0, 0, 1], a).is_zero()
    assert interior([1, 0, 0], Form(3, 0, {(): 5})).is_zero()


def test_interior_squares_to_zero_and_derivation():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 5)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        k, l = rng.randint(1, 2), rng.randint(1, 2)
        a, b = random_form(rng, n, k), random_form(rng, n, l)
        assert interior(x, interior(x, wedge(a, b))).is_zero()
        lhs = interior(x, wedge(a, b))
        rhs = wedge(interior(x, a), b) + wedge(a, interior(x, b)).scale(
            -1 if k % 2 else 1
        )
        assert lhs == rhs


def test_lie_derivative_abelian_vanishes():
    g = builtin("abelian", 4)
    rng = random.Random(13)
    for k in range(0, 4):
        a = random_form(rng, 4, k)
        x = [rng.randint(-2, 2) for _ in range(4)]
        assert lie_derivative(g, x, a).is_zero()


def test_lie_derivative_so3_dual_of_itself():
    g = builtin("so", 3)
    x = g.basis_vector(0)  # A12
    assert lie_derivative(g, x, basis_form(3, (0,))).is_zero()


def test_ce_differential_abelian_is_zero():
    g = builtin("abelian", 5)
    for k in range(0, 5):
        assert ce_differential(g, k).is_zero()


def test_ce_differential_so3_cyclic_one_forms():
    g = so3_cyclic()
    d1 = ce_differential(g, 1)
    # d theta^m = - sum_{i<j} c_ij^m theta^i ^ theta^j
    cols = d1.cols_dense()
    assert Form.from_vector(3, 2, cols[2]) == Form(3, 2, {(0, 1): -1})
    assert Form.from_vector(3, 2, cols[0]) == Form(3, 2, {(1, 2): -1})
    assert Form.from_vector(3, 2, cols[1]) == Form(3, 2, {(0, 2): 1})


def test_ce_differential_squares_to_zero_gl3():
    g = builtin("gl", 3)
    for k in range(0, g.dim):
        dk = ce_differential(g, k)
        dk1 = ce_differential(g, k + 1)
        assert (dk1 @ dk).is_zero()


def test_cartan_formula_so3_and_gl2():
    for g in (builtin("so", 3), builtin("gl", 2), so3_cyclic()):
        for i in range(g.dim):
            x = g.basis_vector(i)
            for k in range(0, g.dim + 1):
                theta = lie_derivative_matrix(g, x, k)
                term1 = (
                    interior_matrix(x, g.dim, k + 1) @ ce_differential(g, k)
                    if k < g.dim
                    else Matrix.zeros(theta.nrows, theta.ncols)
                )
                term2 = (
                    ce_differential(g, k - 1) @ interior_matrix(x, g.dim, k)
                    if k > 0
                    else Matrix.zeros(theta.nrows, theta.ncols)
                )
                assert theta == term1 + term2


def test_lie_derivative_bracket_identity():
    g = builtin("gl", 2)
    rng = random.Random(14)
    for _ in range(5):
        x = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        y = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        for k in range(0, 5):
            tx = lie_derivative_matrix(g, x, k)
            ty = lie_derivative_matrix(g, y, k)
            txy = endo_action_matrix(g.adjoint_matrix(g.bracket(x, y)), 4, k)
            assert txy == tx @ ty - ty @ tx


def test_alternation_of_symmetric_map_vanishes():
    table = {}
    for i in range(3):
        for j in range(3):
            table[(i, j)] = Fraction((i + 1) * (j + 1))  # symmetric
    assert alternation(3, 2, table).is_zero()


def test_alternation_of_alternating_map_scales_by_factorial():
    a = Form(4, 3, {(0, 1, 2): 2, (1, 2, 3): -1})
    table = {}
    for idx in [(i, j, k) for i in range(4) for j in range(4) for k in range(4)]:
        table[idx] = a.evaluate([_unit(4, i) for i in idx])
    assert alternation(4, 3, table) == a.scale(6)


def test_alternation_of_triple_trace_on_gl2_nonzero():
    # (A, B, C) -> tr(ABC) on the elementary-matrix basis of gl(2)
    mats = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]]

    def trace_product(idx):
        prod = [[1, 0], [0, 1]]
        for i in idx:
            prod = [
                [sum(prod[r][t] * mats[i][t][c] for t in range(2)) for c in range(2)]
                for r in range(2)
            ]
        return Fraction(prod[0][0] + prod[1][1])

    form = alternation(4, 3, trace_product)
    assert not form.is_zero()
    assert form.coeffs[(0, 1, 2)] == 3


def test_pullback_contravariant_functoriality():
    rng = random.Random(15)
    for _ in range(10):
        du, dv, dw = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = Matrix.from_rows(
            [[Fraction(rng.randint(-2, 2)) for _ in range(dv)] for _ in range(dw)]
        )
        b = Matrix.from_rows(
            [[Fraction(rng.randint(-2, 2)) for _ in range(du)] for _ in range(dv)]
        )
        for k in range(0, 3):
            lhs = pullback_matrix(a @ b, k)
            rhs = pullback_matrix(b, k) @ pullback_matrix(a, k)
            assert lhs == rhs


def test_pullback_identity():
    for n in (1, 3):
        for k in range(0, n + 1):
            dim = len(multi_indices(n, k))
            assert pullback_matrix(Matrix.identity(n), k) == Matrix.identity(dim)


def test_wedge_vector_matches_form_wedge():
    rng = random.Random(16)
    for _ in range(10):
        n = rng.randint(2, 5)
        k, l = rng.randint(0, 2), rng.randint(0, 2)
        a, b = random_form(rng, n, k), random_form(rng, n, l)
        vec = wedge_vector(n, k, a.to_vector(), l, b.to_vector())
        assert Form.from_vector(n, k + l, vec) == wedge(a, b)


def test_form_evaluate_and_json_round_trip():
    a = Form(3, 2, {(0, 1): Fraction(1, 2), (1, 2): -2})
    assert a.evaluate([_unit(3, 0), _unit(3, 1)]) == Fraction(1, 2)
    assert a.evaluate([_unit(3, 1), _unit(3, 0)]) == Fraction(-1, 2)
    data = form_to_json(a)
    assert form_from_json(data, 3) == a


def _unit(n, i):
    vec = [Fraction(0)] * n
    vec[i] = Fraction(1)
    return vec


def test_forms_normalize_then_compare():
    half = Form(3, 2, {(0, 1): Fraction(1, 2)})
    assert Form(3, 2, {(0, 1): "1/2", (1, 2): 0}) == half
    assert Form(3, 2, {(0, 1): "2/4"}).coeffs == {(0, 1): Fraction(1, 2)}
    assert Form(3, 2, {(0, 1): "1/3"}) != half
    assert Form(4, 2, {(0, 1): "1/2"}) != half
    assert half != "1/2"
    assert Form(3, 2).coeffs == {} and Form(3, 2, None) == Form(3, 2, {}) == Form(3, 2, {(0, 2): 0})


@st.composite
def sparse_form_vectors(draw):
    n = draw(st.integers(0, 8))
    k = draw(st.integers(0, n))
    size = len(multi_indices(n, k))
    scalars = st.one_of(
        st.integers(-10**30, 10**30),
        st.fractions(max_denominator=10**6),
    )
    entries = draw(st.dictionaries(st.integers(0, size - 1), scalars, max_size=6))
    return n, k, [entries.get(i, 0) for i in range(size)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(sparse_form_vectors())
def test_form_emitter_matches_the_form_reference(case):
    """The CLI writes a form straight from its coordinate vector; the JSON
    is byte for byte that of the tuple-keyed ``Form`` built from it."""
    n, k, vec = case
    assert json.dumps(exterior.form_to_json(n, k, vec)) == json.dumps(form_to_json(Form.from_vector(n, k, vec)))
