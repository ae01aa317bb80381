from fractions import Fraction

import pytest

from liecoh import builtin, direct_sum, pair_morphism, subalgebra, validate_structure
from liecoh.errors import (
    DependentVectors,
    InvalidParams,
    InvalidStructure,
    NotAHomomorphism,
    NotClosedUnderBracket,
    SubalgebraNotPreserved,
    UnknownBuiltin,
)
from liecoh.liealg import (
    algebra_from_json,
    algebra_to_json,
    compose_morphisms,
    full_subalgebra,
    gl_block_inclusion,
    identity_morphism,
    so_in_gl_vectors,
    so_in_so_vectors,
    zero_subalgebra,
)
from liecoh.linalg import Matrix

ALL_BUILTINS = [
    ("gl", [1, 2, 3]),
    ("sl", [2, 3]),
    ("so", [2, 3, 4, 5]),
    ("abelian", [1, 2, 5, 10]),
    ("heisenberg", [3, 5, 7, 9]),
]


def test_gl2_structure_is_valid():
    g = builtin("gl", 2)
    revalidated = validate_structure(g.structure, g.dim, g.basis_names)
    assert revalidated.structure == g.structure
    # [E11, E12] = E12
    assert g.bracket_basis(0, 1) == {1: Fraction(1)}


def test_antisymmetry_violation_reported():
    with pytest.raises(InvalidStructure) as exc:
        validate_structure([(0, 1, 0, 1), (1, 0, 0, 1)], 2)
    v = exc.value.violations[0]
    assert (v.i, v.j, v.k) == (0, 1, 0)
    assert v.residual == 2


def test_jacobi_violation_reported():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1: the cyclic sum on (e1,e2,e3) is e3
    with pytest.raises(InvalidStructure) as exc:
        validate_structure([(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 0, 1)], 3)
    v = exc.value.violations[0]
    assert (v.i, v.j, v.k, v.l) == (0, 1, 2, 2)
    assert v.residual == 1


def test_diagonal_bracket_must_vanish():
    with pytest.raises(InvalidStructure):
        validate_structure([(0, 0, 1, 1)], 2)


def test_every_violation_is_reported():
    table = [(0, 1, 0, 1), (1, 0, 0, 1), (0, 2, 1, 1), (2, 0, 1, 1)]
    with pytest.raises(InvalidStructure) as exc:
        validate_structure(table, 3)
    reported = {(v.i, v.j, v.k) for v in exc.value.violations}
    assert reported == {(0, 1, 0), (0, 2, 1)}


def test_lower_half_table_is_canonicalized_by_antisymmetry():
    # heisenberg(3) given as [q, p] = -z instead of [p, q] = z
    g = validate_structure([(1, 0, 2, -1)], 3)
    assert g.bracket_basis(0, 1) == {2: Fraction(1)}
    assert g.bracket_basis(1, 0) == {2: Fraction(-1)}


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_every_builtin_revalidates(name, params):
    for n in params:
        g = builtin(name, n)
        validate_structure(g.structure, g.dim, g.basis_names)


def test_builtin_so3_cyclic_brackets():
    g = builtin("so", 3)
    assert g.dim == 3
    assert g.bracket_basis(0, 2) == {1: Fraction(1)}   # [A12, A23] = A13
    assert g.bracket_basis(0, 1) == {2: Fraction(-1)}  # [A12, A13] = -A23


def test_builtin_abelian_is_abelian():
    g = builtin("abelian", 4)
    assert g.structure == {}


def test_builtin_heisenberg():
    g = builtin("heisenberg", 5)
    assert g.basis_names == ("p1", "p2", "q1", "q2", "z")
    assert g.bracket_basis(0, 2) == {4: Fraction(1)}
    assert g.bracket_basis(1, 3) == {4: Fraction(1)}
    assert g.bracket_basis(0, 3) == {}


def test_builtin_rejects_bad_input():
    with pytest.raises(UnknownBuiltin):
        builtin("sp", 4)
    with pytest.raises(InvalidParams):
        builtin("so", 1)
    with pytest.raises(InvalidParams):
        builtin("heisenberg", 4)


def test_direct_sum_cross_brackets_vanish():
    g, left, right = direct_sum(builtin("so", 3), builtin("abelian", 2))
    assert g.dim == 5
    for i in range(3):
        for j in range(3, 5):
            assert g.bracket_basis(i, j) == {}
    assert left.shape == (5, 3) and right.shape == (5, 2)


def test_direct_sum_associative_up_to_reindexing():
    a, b, c = builtin("so", 3), builtin("heisenberg", 3), builtin("abelian", 2)
    left = direct_sum(direct_sum(a, b)[0], c)[0]
    right = direct_sum(a, direct_sum(b, c)[0])[0]
    assert left.dim == right.dim
    assert left.structure == right.structure


def test_subalgebra_so2_in_gl2():
    pair = subalgebra(builtin("gl", 2), so_in_gl_vectors(2, 2))
    assert pair.dim_sub == 1
    assert pair.dim_quotient == 3
    assert pair.sub.structure == {}


def test_subalgebra_so3_in_gl3():
    pair = subalgebra(builtin("gl", 3), so_in_gl_vectors(3, 3))
    assert pair.dim_sub == 3
    assert pair.dim_quotient == 6
    # h is so(3): same structure constants as the standalone builtin
    assert pair.sub.structure == builtin("so", 3).structure


def test_subalgebra_not_closed():
    g = builtin("gl", 2)
    e12 = g.basis_vector(1)
    e21 = g.basis_vector(2)
    with pytest.raises(NotClosedUnderBracket) as exc:
        subalgebra(g, [e12, e21])  # [E12, E21] = E11 - E22 leaves the span
    assert exc.value.witness == (0, 1)


def test_subalgebra_dependent_vectors():
    g = builtin("gl", 2)
    with pytest.raises(DependentVectors):
        subalgebra(g, [g.basis_vector(0), [2, 0, 0, 0]])


def test_subalgebra_complement_must_complete_the_basis():
    g = builtin("gl", 2)
    so2 = so_in_gl_vectors(2, 2)
    with pytest.raises(DependentVectors, match="^complement does not complete the subalgebra basis$"):
        subalgebra(g, so2, quotient=[[1, 0, 0, 0], [0, 1, 1, 0], [2, 0, 0, 0]])
    with pytest.raises(DependentVectors, match="^complement size must equal dim g - dim h$"):
        subalgebra(g, so2, quotient=[[1, 0, 0, 0]])


def test_action_matrices_form_a_representation():
    pairs = [
        subalgebra(builtin("gl", 3), so_in_gl_vectors(3, 3)),
        subalgebra(builtin("so", 5), so_in_so_vectors(3, 5)),
        subalgebra(builtin("heisenberg", 3), [[0, 0, 1]]),
    ]
    for pair in pairs:
        r = pair.dim_sub
        for a in range(r):
            for b in range(r):
                lhs = pair.action[a] @ pair.action[b] - pair.action[b] @ pair.action[a]
                bracket = pair.sub.bracket(
                    pair.sub.basis_vector(a), pair.sub.basis_vector(b)
                )
                rhs = Matrix.zeros(pair.dim_quotient, pair.dim_quotient)
                for k, coef in enumerate(bracket):
                    if coef:
                        rhs = rhs + pair.action[k].scale(coef)
                assert lhs == rhs


def test_zero_and_full_subalgebras():
    g = builtin("so", 3)
    zero = zero_subalgebra(g)
    assert zero.dim_sub == 0 and zero.dim_quotient == 3
    assert zero.projection_matrix == Matrix.identity(3)
    full = full_subalgebra(g)
    assert full.dim_sub == 3 and full.dim_quotient == 0


def test_pair_morphism_identity_and_composition():
    pair = subalgebra(builtin("gl", 2), so_in_gl_vectors(2, 2))
    ident = identity_morphism(pair)
    checked = pair_morphism(pair, pair, ident.matrix)
    assert checked.matrix == ident.matrix
    assert compose_morphisms(checked, ident).matrix == ident.matrix


def test_pair_morphism_from_zero_pair():
    g = builtin("gl", 2)
    src = zero_subalgebra(g)
    dst = subalgebra(g, so_in_gl_vectors(2, 2))
    m = pair_morphism(src, dst, Matrix.identity(4))
    assert m.matrix == Matrix.identity(4)


def test_pair_morphism_block_inclusion():
    src = subalgebra(builtin("gl", 2), so_in_gl_vectors(2, 2))
    dst = subalgebra(builtin("gl", 3), so_in_gl_vectors(3, 3))
    m = pair_morphism(src, dst, gl_block_inclusion(2, 3))
    assert m.matrix.shape == (9, 4)


def test_pair_morphism_rejects_non_homomorphism():
    pair = subalgebra(builtin("gl", 2), so_in_gl_vectors(2, 2))
    bad = Matrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    with pytest.raises(NotAHomomorphism):
        pair_morphism(pair, pair, bad)


def test_pair_morphism_rejects_subalgebra_escape():
    g = builtin("abelian", 2)
    src = subalgebra(g, [[1, 0]])
    dst = subalgebra(g, [[0, 1]])
    with pytest.raises(SubalgebraNotPreserved):
        pair_morphism(src, dst, Matrix.identity(2))


def test_algebra_json_round_trip():
    for name, n in [("gl", 2), ("so", 3), ("heisenberg", 3), ("sl", 2)]:
        g = builtin(name, n)
        data = algebra_to_json(g)
        back = algebra_from_json(data)
        assert back == g
