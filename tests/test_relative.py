from fractions import Fraction
from functools import partial

import pytest

from liecoh import builtin, subalgebra
from liecoh.cohomology import CochainComplex, CohomologySpace, ce_complex
from liecoh.errors import ModelMismatch, NotDStable
from liecoh.exterior import Form, ce_differential, endo_action_matrix, pullback_matrix
from liecoh.liealg import full_subalgebra, zero_subalgebra
from liecoh.linalg import Matrix
from liecoh.relative import (
    EmbeddedSubcomplex,
    _embedded_subcomplex,
    basic_subcomplex,
    compare_models,
    invariant_quotient_complex,
    restriction_map,
)


def sweep_pairs():
    return [
        zero_subalgebra(builtin("so", 3)),
        full_subalgebra(builtin("so", 3)),
        zero_subalgebra(builtin("heisenberg", 3)),
        subalgebra(builtin("heisenberg", 3), [[0, 0, 1]]),
        subalgebra(builtin("so", 4), [[1, 0, 0, 0, 0, 0]]),
    ]


def test_basic_of_full_pair_is_scalars_only():
    pair = full_subalgebra(builtin("so", 3))
    basic = basic_subcomplex(pair)
    assert basic.complex.dims == (1, 0, 0, 0)


def test_basic_of_zero_pair_is_everything():
    g = builtin("heisenberg", 3)
    basic = basic_subcomplex(zero_subalgebra(g))
    assert basic.complex.dims == (1, 3, 3, 1)
    for k in range(3):
        assert basic.complex.differential(k) == ce_differential(g, k)


def test_basic_degree_one_of_gl2_so2_is_trace_form(gl2_so2):
    basic = basic_subcomplex(gl2_so2)
    assert basic.complex.dim(1) == 1
    vec = basic.embeddings[1].cols_dense()[0]
    form = Form.from_vector(4, 1, vec)
    # gl(2) basis E11,E12,E21,E22: the only basic 1-form is a multiple of tr
    assert form.coeffs[(0,)] == form.coeffs[(3,)]
    assert (1,) not in form.coeffs and (2,) not in form.coeffs


def test_invariant_quotient_of_zero_pair_is_opposite_sign_complex():
    g = builtin("so", 3)
    invq = invariant_quotient_complex(zero_subalgebra(g))
    assert invq.complex.dims == (1, 3, 3, 1)
    for k in range(3):
        assert invq.complex.differential(k) == ce_differential(g, k).scale(-1)


def test_relative_betti_gl3_so3(ana_gl3_so3):
    assert ana_gl3_so3.relative_cohomology.betti_dict() == {0: 1, 1: 1, 5: 1, 6: 1}


def test_relative_betti_gl2_so2(ana_gl2_so2):
    assert ana_gl2_so2.relative_cohomology.betti_dict() == {0: 1, 1: 1, 2: 1, 3: 1}


def test_models_agree_for_canonical_pairs(ana_gl2_so2, ana_gl3_so3):
    for ana in (ana_gl2_so2, ana_gl3_so3):
        comparison = ana.comparison  # raises on any mismatch
        basic, invq = ana.basic_model, ana.quotient_model
        proj = ana.pair.projection_matrix
        assert len(comparison) == ana.pair.dim_quotient + 1
        for k, phi in enumerate(comparison):
            # phi_k carries the invariant basis to the basic coordinates of its
            # pullback along minus the projection, (-1)^k times the plain one
            assert phi.shape == (basic.complex.dim(k), invq.complex.dim(k))
            assert basic.embeddings[k] @ phi == pullback_matrix(proj, k).scale((-1) ** k) @ invq.embeddings[k]


def koszul_chain(pair, invq):
    """(-1)^k times the pullback of the invariant basis along the projection."""
    proj = pair.projection_matrix
    return [pullback_matrix(proj, k).scale((-1) ** k) @ e for k, e in enumerate(invq.embeddings)]


def test_models_agree_across_sweep():
    for pair in sweep_pairs():
        basic = basic_subcomplex(pair)
        invq = invariant_quotient_complex(pair)
        comparison = compare_models(basic, invq, koszul_chain(pair, invq))
        q = pair.dim_quotient
        for k in range(q + 1):
            assert basic.complex.dim(k) == invq.complex.dim(k)
        assert len(comparison) == q + 1


def test_comparison_refuses_differentials_that_do_not_intertwine():
    # heisenberg(3) over the zero subalgebra: both models are all of Lambda,
    # and d is first nonzero on z* (vector 2 of degree 1).  Doubling the
    # quotient differential keeps d o d = 0 but breaks the intertwining there.
    pair = zero_subalgebra(builtin("heisenberg", 3))
    invq = invariant_quotient_complex(pair)
    c = invq.complex
    doubled = CochainComplex(c.dims, tuple(d.scale(2) for d in c.differentials), c.product)
    with pytest.raises(ModelMismatch, match="^differentials do not intertwine at degree 1, vector 2$"):
        compare_models(basic_subcomplex(pair), EmbeddedSubcomplex(pair, doubled, invq.embeddings),
                       koszul_chain(pair, invq))


def test_h0_is_one_dimensional_for_every_pair():
    for pair in sweep_pairs():
        invq = invariant_quotient_complex(pair)
        space = CohomologySpace(invq.complex)
        assert space.betti(0) == 1
        basic = basic_subcomplex(pair)
        assert CohomologySpace(basic.complex).betti(0) == 1


def restrict(pair):
    """The restriction maps of ``pair``, checked against the full complexes of g and h."""
    return restriction_map(pair, ce_complex(pair.ambient), ce_complex(pair.sub))


def test_restriction_of_full_pair_is_identity():
    pair = full_subalgebra(builtin("so", 3))
    r = restrict(pair)
    for k in range(4):
        assert r[k] == Matrix.identity(r[k].nrows)


def test_restriction_of_zero_pair_is_degree_zero_only():
    pair = zero_subalgebra(builtin("so", 3))
    r = restrict(pair)
    assert r[0] == Matrix.identity(1)
    for k in range(1, 4):
        assert r[k].nrows == 0


def test_restriction_so5_so3_hits_degree_three_generator(ana_so5_so3):
    from liecoh.cohomology import induced_map

    ana = ana_so5_so3
    mapping = induced_map(ana.restriction, ana.ambient_cohomology, ana.sub_cohomology)
    assert mapping.degree(3).rank() == 1  # onto H^3(so(3))


def test_basic_subcomplex_closed_under_wedge(gl3_so3):
    basic = basic_subcomplex(gl3_so3)
    product = basic.complex.product
    # degree 1 x degree 5 basic elements multiply into degree 6
    one = [Fraction(1)] * basic.complex.dim(1)
    five = [Fraction(1)] * basic.complex.dim(5)
    result = product.mul(1, one, 5, five)
    assert len(result) == basic.complex.dim(6)


def test_restriction_composes_through_intermediate_block():
    # so(3) < so(4) < so(5): the pullbacks compose contravariantly
    from liecoh.liealg import so_in_so_vectors

    so5 = builtin("so", 5)
    so4 = builtin("so", 4)
    p54 = subalgebra(so5, so_in_so_vectors(4, 5))
    p43 = subalgebra(so4, so_in_so_vectors(3, 4))
    p53 = subalgebra(so5, so_in_so_vectors(3, 5))
    r54 = restrict(p54)
    r43 = restrict(p43)
    r53 = restrict(p53)
    for k in range(4):
        assert r53[k] == r43[k] @ r54[k]


def test_subcomplex_serialization_shape(gl2_so2):
    from liecoh.relative import subcomplex_to_json

    basic = basic_subcomplex(gl2_so2)
    data = subcomplex_to_json(basic)
    assert data["dims"] == [1, 1, 1, 1, 0]
    assert set(data["embedding"]) == {"0", "1", "2", "3"}
    # each embedded basis vector has ambient length C(4, k)
    assert len(data["embedding"]["1"][0]) == 4
    invq = invariant_quotient_complex(gl2_so2)
    data = subcomplex_to_json(invq)
    assert data["dims"] == [1, 1, 1, 1]
    assert len(data["embedding"]["1"][0]) == 3


def test_builder_refuses_a_kernel_that_is_not_d_stable():
    # heisenberg(3): [x, y] = z, so d(z*) is a nonzero multiple of x* ^ y*.
    # theta of m = diag(0, 1, 0) kills the forms without y*: degree 1 keeps x*
    # and z* (vectors 0 and 1), degree 2 drops x* ^ y*.
    g = builtin("heisenberg", 3)
    m = Matrix(3, 3, {(1, 1): 1})
    with pytest.raises(NotDStable, match="degree 1, vector 1"):
        _embedded_subcomplex(
            zero_subalgebra(g), 3, g.bracket_basis, False,
            [(m, partial(endo_action_matrix, m, 3))], NotDStable,
        )
