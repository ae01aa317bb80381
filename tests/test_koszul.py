import pytest

from oracles import Form, full_subalgebra, gl_block_inclusion, identity_morphism, odd_generated

from liecoh import builtin, cohomology, koszul, relative, subalgebra
from liecoh.cohomology import check_chain_map
from liecoh.errors import ChainMapViolation
from liecoh.exterior import pullback_matrix
from liecoh.koszul import (
    PairAnalysis,
    delta_chain,
    delta_cohom,
    direct_product_check,
    factorization_check,
    functoriality_check,
    invariant_complement,
    ncz_report,
)
from liecoh.liealg import pair_morphism, so_in_so_vectors, zero_subalgebra
from liecoh.linalg import Matrix


def test_delta_chain_of_zero_pair_is_signed_identity():
    g = builtin("so", 3)
    maps = delta_chain(zero_subalgebra(g))
    for k, m in enumerate(maps):
        assert m == Matrix.identity(m.nrows).scale((-1) ** k)


def test_the_koszul_map_checks_its_chain_map_once(monkeypatch):
    """One exact check per chain map of a pair analysis: the Koszul map
    checks its own; the factorization adds the comparison of the models and
    checks neither of its legs again; ``ncz`` checks the restriction.
    Without the sign (-1)^k the pullback is no chain map, and the Koszul map
    raises ChainMapViolation."""
    calls = []

    def counted(*args):
        calls.append(args)
        return check_chain_map(*args)

    for module in (koszul, cohomology, relative):
        monkeypatch.setattr(module, "check_chain_map", counted)
    for pair in (zero_subalgebra(builtin("so", 3)), subalgebra(builtin("so", 4), so_in_so_vectors(3, 4))):
        for run, checks in ((lambda ana: ana.koszul.injective, 1), (factorization_check, 2), (ncz_report, 1)):
            calls.clear()
            assert run(PairAnalysis(pair)) is not None
            assert len(calls) == checks
    monkeypatch.setattr(koszul, "pullback_matrix", lambda f, k: pullback_matrix(f, k).scale((-1) ** k))
    with pytest.raises(ChainMapViolation) as exc:
        PairAnalysis(zero_subalgebra(builtin("so", 3))).koszul
    assert exc.value.degree == 1


def test_the_koszul_chain_map_is_formed_once(monkeypatch):
    """The Koszul map and the comparison of the models share one product of
    the pullback with the invariant basis per degree."""
    calls = []

    def counted(f, k):
        calls.append(k)
        return pullback_matrix(f, k)

    for module in (koszul, relative):
        monkeypatch.setattr(module, "pullback_matrix", counted)
    pair = subalgebra(builtin("so", 4), so_in_so_vectors(3, 4))
    ana = PairAnalysis(pair)
    factorization_check(ana)
    assert calls == list(range(pair.dim_quotient + 1))
    assert ana.koszul.chain_map == ana.koszul_chain


def test_delta_chain_of_full_pair_is_unit_only():
    g = builtin("so", 3)
    maps = delta_chain(full_subalgebra(g))
    assert len(maps) == 1
    assert maps[0] == Matrix.from_rows([[1]])


def test_delta_chain_degree_one_is_minus_trace_form(ana_gl2_so2):
    # the single invariant 1-form on gl(2)/so(2) pulls back to -c * (trace)
    ana = ana_gl2_so2
    maps = delta_chain(ana)
    invariant = ana.quotient_model.embeddings[1].cols_dense()[0]
    image = Form.from_vector(4, 1, maps[1].cols_dense()[0])
    # quotient basis: E11, E12+E21, E22; the trace covector is theta^0+theta^2
    assert invariant[0] == invariant[2] and invariant[1] == 0
    c = invariant[0]
    assert image == Form(4, 1, {(0,): -c, (3,): -c})


def test_delta_cohom_gl3_so3_injective(ana_gl3_so3):
    result = delta_cohom(ana_gl3_so3)
    assert result.injective
    assert result.kernel_basis == ()
    total_rank = sum(
        result.cohomology_map.degree(k).rank()
        for k in range(result.source.top_degree + 1)
    )
    assert total_rank == 4  # source dimension


def test_delta_cohom_gl2_so2_not_injective(ana_gl2_so2):
    result = delta_cohom(ana_gl2_so2)
    assert not result.injective
    degrees = sorted(k for k, _ in result.kernel_basis)
    assert degrees == [2, 3]
    for _, vec in result.kernel_basis:
        assert any(vec)


def test_delta_cohom_zero_pair_bijective(ana_gl2_zero):
    result = delta_cohom(ana_gl2_zero)
    assert result.injective
    for k in range(result.source.top_degree + 1):
        assert result.cohomology_map.degree(k).rank() == result.target.betti(k)


def test_factorization_for_acceptance_pairs(ana_gl2_so2, ana_gl3_so3, ana_gl2_zero):
    for ana in (ana_gl2_so2, ana_gl3_so3, ana_gl2_zero):
        # raises unless the factorization holds
        assert factorization_check(ana) == tuple(range(ana.pair.dim_quotient + 1))


def test_ncz_verdicts(ana_gl3_so3, ana_so5_so3, ana_gl2_so2):
    assert ncz_report(ana_gl3_so3).ncz
    assert ncz_report(ana_so5_so3).ncz
    assert not ncz_report(ana_gl2_so2).ncz
    assert ncz_report(zero_subalgebra(builtin("so", 3))).ncz


def test_ncz_witnesses_are_stored_and_reverified(ana_so5_so3):
    report = ncz_report(ana_so5_so3)
    assert report.ncz
    assert set(report.witnesses) == {0, 3}
    assert all(report.witnesses[k] for k in report.witnesses)


def test_invariant_complement_gl_so_is_symmetric_matrices(gl3_so3):
    witness = invariant_complement(gl3_so3)
    assert witness.reductive
    assert len(witness.complement) == 6
    complement = Matrix.from_cols([list(v) for v in witness.complement], 9)
    stacked = gl3_so3.sub_matrix.hstack(complement)
    assert stacked.rank() == 9
    # every complement vector is a symmetric matrix
    for v in witness.complement:
        for a in range(3):
            for b in range(3):
                assert v[a * 3 + b] == v[b * 3 + a]


def test_invariant_complement_zero_pair_is_everything():
    g = builtin("gl", 2)
    witness = invariant_complement(zero_subalgebra(g))
    assert witness.reductive
    assert len(witness.complement) == 4


def test_invariant_complement_heisenberg_center(heis3_center):
    witness = invariant_complement(heis3_center)
    assert witness.reductive
    assert len(witness.complement) == 2


def test_invariant_complement_infeasible_has_certificate():
    # [e1, e2] = e2; the span of e2 is an ideal with no equivariant projection
    g_table = [(0, 1, 1, 1)]
    from liecoh import validate_structure

    g = validate_structure(g_table, 2)
    pair = subalgebra(g, [[0, 1]])
    witness = invariant_complement(pair)
    assert not witness.reductive
    assert witness.complement is None
    assert witness.certificate is not None
    assert any(witness.certificate)


def test_direct_product_trivial_factors():
    report = direct_product_check(builtin("abelian", 1), builtin("abelian", 1))  # raises unless the formula holds
    assert report.injective and report.kunneth_holds
    assert report.betti_sum == (1, 2, 1)


def test_direct_product_so3_abelian2():
    report = direct_product_check(builtin("so", 3), builtin("abelian", 2))  # raises unless the formula holds
    assert report.injective
    assert report.kunneth_holds
    assert report.betti_sum == (1, 2, 1, 1, 2, 1)
    # the subalgebra used is the canonical second-factor embedding
    assert report.pair.sub_basis == tuple(
        tuple(report.pair.ambient.basis_vector(3 + i)) for i in range(2)
    )


def test_functoriality_identity(ana_gl2_so2):
    functoriality_check(identity_morphism(ana_gl2_so2.pair))  # raises unless the square commutes


def test_functoriality_zero_to_so2(ana_gl2_so2, ana_gl2_zero):
    morphism = pair_morphism(
        ana_gl2_zero.pair, ana_gl2_so2.pair, Matrix.identity(4)
    )
    functoriality_check(morphism)  # raises unless the square commutes


def test_functoriality_block_inclusion(gl2_so2, gl3_so3):
    morphism = pair_morphism(gl2_so2, gl3_so3, gl_block_inclusion(2, 3))
    functoriality_check(morphism)  # raises unless the square commutes


def test_full_analysis_of_so5_so3(ana_so5_so3):
    # n.c.z. pair of compact type: relative cohomology is an exterior algebra
    # on one degree-7 class, and the characteristic map embeds it in H(so(5))
    ana = ana_so5_so3
    assert ana.relative_cohomology.betti_dict() == {0: 1, 7: 1}
    result = delta_cohom(ana)
    assert result.injective
    factorization_check(ana)  # raises unless the factorization holds


def test_basic_and_quotient_models_have_equal_betti(ana_gl2_so2):
    from liecoh.cohomology import CohomologySpace

    ana = ana_gl2_so2
    basic_space = CohomologySpace(ana.basic_model.complex)
    assert basic_space.betti_dict() == ana.relative_cohomology.betti_dict()
    assert basic_space.betti_dict() == {0: 1, 1: 1, 2: 1, 3: 1}


def test_direct_product_degree_one_image_is_minus_first_covector():
    report = direct_product_check(builtin("abelian", 1), builtin("abelian", 1))
    chain = delta_chain(PairAnalysis(report.pair))
    assert chain[1] == Matrix.from_rows([[-1], [0]])


def test_injectivity_equals_odd_generation_on_reductive_samples(
    ana_gl2_so2, ana_gl3_so3, ana_so5_so3
):
    # the ambient algebras here are reductive, where the equivalence applies
    samples = [
        ana_gl2_so2,
        ana_gl3_so3,
        ana_so5_so3,
        PairAnalysis(zero_subalgebra(builtin("gl", 3))),
    ]
    for ana in samples:
        assert invariant_complement(ana.pair).reductive
        injective = delta_cohom(ana).injective
        assert injective == odd_generated(ana.relative_cohomology)
