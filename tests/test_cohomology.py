import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import builtin, exterior, linalg
from liecoh.cohomology import (
    CochainComplex,
    CohomologySpace,
    _product_vanishes,
    ce_cohomology,
    ce_complex,
    cup_product,
    induced_map,
    odd_generated,
)
from liecoh.errors import InternalInvariantError, InvalidComplex, NotAChainMap, NotACocycle
from liecoh.exterior import pullback_matrix
from liecoh.liealg import LieAlgebra
from liecoh.linalg import Matrix


def cohomology_of(name, n):
    return CohomologySpace(ce_complex(builtin(name, n)))


def test_betti_abelian_2():
    space = cohomology_of("abelian", 2)
    assert space.betti_numbers == (1, 2, 1)


def test_betti_heisenberg_3():
    # ranks of the two 3x3 differentials are 1 and 0
    space = cohomology_of("heisenberg", 3)
    assert space.betti_numbers == (1, 2, 2, 1)


def test_betti_sl2():
    space = cohomology_of("sl", 2)
    assert space.betti_numbers == (1, 0, 0, 1)


def test_betti_against_independent_rank_oracle():
    # recompute betti_k = dim_k - rank d_k - rank d_(k-1) with sympy ranks
    import sympy

    from liecoh.exterior import ce_differential

    for name, n in [("sl", 2), ("heisenberg", 3), ("so", 3), ("gl", 2)]:
        g = builtin(name, n)
        space = cohomology_of(name, n)
        ranks = []
        for k in range(g.dim):
            d = ce_differential(g, k)
            m = sympy.Matrix(d.nrows, d.ncols, lambda i, j: sympy.Rational(d.entry(i, j)))
            ranks.append(m.rank())
        ranks.append(0)
        for k in range(g.dim + 1):
            expected = space.complex.dim(k) - ranks[k] - (ranks[k - 1] if k else 0)
            assert space.betti(k) == expected


def test_betti_so3():
    space = cohomology_of("so", 3)
    assert space.betti_numbers == (1, 0, 0, 1)


def test_block_cohomology_lists_no_full_basis(monkeypatch):
    """H(so(6)) on its weight-zero block counts the full degrees with
    ``basis_size`` and lists none of their multi-indices, as tuples or as
    masks."""

    def refuse(n, k):
        raise AssertionError(f"listed all of Lambda^{k} on {n} letters")

    for table in ("multi_indices", "multi_index_masks", "multi_mask_positions"):
        monkeypatch.setattr(exterior, table, refuse)
    space = ce_cohomology(builtin("so", 6))
    assert space.betti_dict() == {k: 1 for k in (0, 3, 5, 7, 8, 10, 12, 15)}


def test_basis_size_counts_the_multi_indices():
    for n in range(7):
        for k in range(-2, n + 3):
            assert exterior.basis_size(n, k) == len(exterior.multi_indices(n, k))


def test_elimination_drops_the_builders_numerators():
    """A built d_k with a common denominator above 1 keeps its int
    numerators until its elimination has read them, and the elimination
    gives the rank of the ``Fraction`` entries."""
    c = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2), Fraction(5), Fraction(1, 2)]
    d = ce_complex(rescaled(builtin("so", 4), c)).differentials[2]
    assert d._numerators is not None
    want = Matrix(d.nrows, d.ncols, d.entries).rank()
    assert d.rank() == want
    assert d._numerators is None


def test_euler_characteristic_vanishes():
    for name, n in [("gl", 2), ("so", 3), ("heisenberg", 3), ("abelian", 4), ("sl", 2)]:
        space = cohomology_of(name, n)
        assert space.euler_characteristic() == 0


def test_poincare_duality_for_unimodular_examples():
    for name, n in [("so", 3), ("sl", 2), ("heisenberg", 3)]:
        space = cohomology_of(name, n)
        b = space.betti_numbers
        assert b == tuple(reversed(b))


def test_invalid_complex_rejected():
    d0 = Matrix.from_rows([[1], [0]])
    d1 = Matrix.from_rows([[1, 0]])
    with pytest.raises(InvalidComplex):
        CochainComplex(dims=(1, 2, 1), differentials=(d0, d1))


def rescaled(g, c):
    """g in the basis c_i e_i: [c_i e_i, c_j e_j] = sum_k (c_i c_j / c_k) a_ij^k (c_k e_k)."""
    structure = {
        (i, j): {k: c[i] * c[j] / c[k] * v for k, v in terms.items()}
        for (i, j), terms in g.structure.items()
    }
    return LieAlgebra(g.dim, g.basis_names, structure)


def first_dd_failure(differentials):
    """First k with d_(k+1) d_k != 0 by the ``Fraction`` product, or None."""
    for k in range(len(differentials) - 1):
        if not (differentials[k + 1] @ differentials[k]).is_zero():
            return k
    return None


def builder_scale(d: Matrix) -> int:
    """The common denominator L of a built d_k: its numerators are L d."""
    key = next(iter(d.entries))
    return d._numerators.entries[key] // d.entries[key]


def perturbed(d: Matrix, key, delta, numerators: bool) -> Matrix:
    """d with ``delta`` added at ``key``; with ``numerators``, also in the
    builder's numerators, as if the builder had summed the changed entry."""
    entries = dict(d.entries)
    entries[key] = entries.get(key, 0) + delta
    out = Matrix(d.nrows, d.ncols, entries)
    if numerators:
        ints = dict(d._numerators.entries)
        ints[key] = ints.get(key, 0) + delta * builder_scale(d)
        out._numerators = Matrix(d.nrows, d.ncols, ints)
    return out


@pytest.mark.parametrize("numerators", [False, True])
def test_one_changed_entry_fails_the_dd_check_in_every_degree_pair(numerators):
    """Each d_k of a complex with a common denominator L > 1, one entry
    changed by +-1/L or by +-2^300 (the first entry, row-major, that the
    ``Fraction`` product d o d sees): the check raises at the first pair
    whose ``Fraction`` product is nonzero, and every pair is hit."""
    c = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2), Fraction(5), Fraction(1, 2)]
    complex = ce_complex(rescaled(builtin("so", 4), c))
    diffs = complex.differentials
    scale = builder_scale(diffs[2])
    assert scale > 1 and all(d._numerators is not None for d in diffs)
    assert first_dd_failure(diffs) is None
    hit = set()
    for k, d in enumerate(diffs):
        for delta in (Fraction(1, scale), Fraction(-1, scale), 2 ** 300, -(2 ** 300)):
            for key in ((i, j) for i in range(d.nrows) for j in range(d.ncols)):
                bad = list(diffs)
                bad[k] = perturbed(d, key, delta, numerators and bool(d.entries))
                expected = first_dd_failure(bad)
                if expected is not None:
                    break
            assert expected in (k - 1, k), (k, delta)
            hit.add(expected)
            with pytest.raises(InvalidComplex, match=f"between degrees {expected} and {expected + 2}$"):
                CochainComplex(dims=complex.dims, differentials=tuple(bad))
    assert hit == set(range(len(diffs) - 1))


@st.composite
def matrix_pairs(draw):
    """(a, b, zero): int or ``Fraction`` entries, zero True when a @ b == 0,
    False when it is not, None when unknown.

    * kernel: the rows of a from the left kernel of b, so a @ b == 0;
    * signs: a = x [S | -S] and b = y [T ; T], so a @ b == 0, or
      b = y [T ; -T], so a @ b = 2 x y S T, whose entry (0, 0) is +-beta
      (the first column of T has the signs of the first row of S);
    * carry: a = [1] and b = [2^t, -1], up to positive scales, where
      beta = 2^t and a packing with digits of t bits sums to zero.

    Kernel and sign pairs may then get one entry changed.
    """
    m, l, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    scalars = st.one_of(
        st.integers(-(2 ** 70), 2 ** 70),
        st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    )
    kind = draw(st.sampled_from(("kernel", "signs", "carry")))
    if kind == "carry":
        t, q = draw(st.integers(0, 80)), draw(st.integers(1, 12))
        a = Matrix.from_rows([[Fraction(draw(st.integers(1, 12)), q)]])
        b = Matrix.from_rows([[Fraction(2 ** t, q), Fraction(-1, q)]])
        return a, b, False
    if kind == "signs":
        x, y = draw(st.integers(1, 2 ** 40)), draw(scalars.filter(bool))
        s_half = [[draw(st.sampled_from((x, -x))) for _ in range(l)] for _ in range(m)]
        t_half = [[draw(st.sampled_from((y, -y))) for _ in range(n)] for _ in range(l)]
        for r in range(l):
            t_half[r][0] = y if s_half[0][r] > 0 else -y
        zero = draw(st.booleans())
        below = t_half if zero else [[-v for v in row] for row in t_half]
        a = Matrix.from_rows([row + [-v for v in row] for row in s_half], 2 * l)
        b = Matrix.from_rows(t_half + below, n)
    else:
        b = Matrix.from_rows([[draw(scalars) for _ in range(n)] for _ in range(l)], n)
        rows = []
        for _ in range(m):
            row = [0] * l
            for vec in b.transpose().nullspace().cols_dense():
                coeff = draw(scalars)
                row = [u + coeff * v for u, v in zip(row, vec)]
            rows.append(row)
        a, zero = Matrix.from_rows(rows, l), True
    if draw(st.booleans()):
        changed = draw(st.sampled_from((0, 1)))
        target = (a, b)[changed]
        key = (draw(st.integers(0, target.nrows - 1)), draw(st.integers(0, target.ncols - 1)))
        entries = dict(target.entries)
        entries[key] = entries.get(key, 0) + draw(scalars.filter(bool))
        target = Matrix(target.nrows, target.ncols, entries)
        a, b = (target, b) if changed == 0 else (a, target)
        zero = None
    return a, b, zero


@settings(max_examples=300, derandomize=True, deadline=None)
@given(matrix_pairs())
def test_packed_dd_check_matches_the_plain_product(pair):
    a, b, zero = pair
    left, right = a._scaled(0), b._scaled(1)
    plain = (left @ right).is_zero()
    if zero is not None:
        assert plain == zero
    assert _product_vanishes(left, right) == plain


def test_reduce_representative_is_unit_vector():
    space = cohomology_of("so", 3)
    rep = space.representative_vectors(3)[0]
    coords = space.reduce(3, rep)
    assert coords == [Fraction(1)]
    rest = [x - y for x, y in zip(rep, space.representative_matrix(3).apply(coords))]
    witness = space.complex.differential(2).solve(rest)
    assert all(x == 0 for x in witness)


def test_reduce_coboundary_is_zero_with_witness():
    space = cohomology_of("heisenberg", 3)
    d1 = space.complex.differential(1)
    primitive = [Fraction(2), Fraction(0), Fraction(-1)]
    vec = d1.apply(primitive)
    coords = space.reduce(2, vec)
    assert all(x == 0 for x in coords)
    rest = [x - y for x, y in zip(vec, space.representative_matrix(2).apply(coords))]
    witness = d1.solve(rest)
    assert d1.apply(witness) == vec


def test_reduce_rejects_non_cocycle():
    space = cohomology_of("heisenberg", 3)
    # theta^z is not closed: d theta^z = -theta^p ^ theta^q
    vec = [Fraction(0), Fraction(0), Fraction(1)]
    with pytest.raises(NotACocycle) as exc:
        space.reduce(1, vec)
    assert any(exc.value.residual)


def test_so3_top_form_is_nonzero_class():
    space = cohomology_of("so", 3)
    coords = space.reduce(3, [Fraction(1)])
    assert any(coords)


def test_induced_identity_and_zero_maps():
    space = cohomology_of("heisenberg", 3)
    dims = space.complex.dims
    ident = [Matrix.identity(d) for d in dims]
    m = induced_map(ident, space, space)
    for k in range(space.top_degree + 1):
        assert m.degree(k) == Matrix.identity(space.betti(k))
    zero = [Matrix.zeros(d, d) for d in dims]
    z = induced_map(zero, space, space)
    for k in range(space.top_degree + 1):
        assert z.degree(k).is_zero()


def test_induced_map_rejects_non_chain_map():
    space = cohomology_of("heisenberg", 3)
    dims = space.complex.dims
    maps = [Matrix.identity(d) for d in dims]
    # swapping theta^p and theta^z does not commute with d
    maps[1] = Matrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(NotAChainMap):
        induced_map(maps, space, space)


def test_induced_map_functorial_under_composition():
    # abelian algebras: every linear map pulls back to a chain map
    rng = random.Random(21)
    g3, g4 = builtin("abelian", 3), builtin("abelian", 4)
    s3 = CohomologySpace(ce_complex(g3))
    s4 = CohomologySpace(ce_complex(g4))
    a = Matrix.from_rows(
        [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(4)]
    )  # linear map Q^3 -> Q^4
    b = Matrix.from_rows(
        [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(3)]
    )  # linear map Q^4 -> Q^3
    pull_a = [pullback_matrix(a, k) for k in range(5)]  # complex of g4 -> complex of g3
    pull_b = [pullback_matrix(b, k) for k in range(5)]  # complex of g3 -> complex of g4
    f = induced_map(pull_a, s4, s3)
    g = induced_map(pull_b, s3, s4)
    # b @ a: Q^3 -> Q^3 pulls back to a* o b*, an endomorphism of the g3 complex
    h = induced_map([pullback_matrix(b @ a, k) for k in range(4)], s3, s3)
    for k in range(4):
        assert h.degree(k) == f.degree(k) @ g.degree(k)


def test_cup_with_unit_is_identity():
    space = cohomology_of("so", 3)
    unit = (0, space.unit_class())
    top = (3, [Fraction(5)])
    deg, coords = cup_product(space, unit, top)
    assert (deg, coords) == (3, [Fraction(5)])


def test_cup_of_odd_class_with_itself_vanishes():
    space = cohomology_of("abelian", 3)
    one = (1, [Fraction(1), Fraction(0), Fraction(0)])
    deg, coords = cup_product(space, one, one)
    assert deg == 2
    assert not any(coords)


def test_cup_beyond_top_degree_is_zero_class():
    space = cohomology_of("so", 3)
    top = (3, [Fraction(1)])
    deg, coords = cup_product(space, top, top)
    assert deg == 6
    assert coords == []


def test_cup_product_abelian_generates_top():
    space = cohomology_of("abelian", 2)
    a = (1, [Fraction(1), Fraction(0)])
    b = (1, [Fraction(0), Fraction(1)])
    _, coords = cup_product(space, a, b)
    assert any(coords)


def test_cup_product_independent_of_representative_choice():
    rng = random.Random(22)
    space = cohomology_of("heisenberg", 3)
    # perturb representatives by coboundaries and recompute a product
    d0 = space.complex.differential(0)
    a = (1, [Fraction(1), Fraction(0)])
    b = (1, [Fraction(0), Fraction(1)])
    _, base = cup_product(space, a, b)
    ra = space.representative_matrix(1).apply(a[1])
    rb = space.representative_matrix(1).apply(b[1])
    for _ in range(5):
        pa = d0.apply([Fraction(rng.randint(-3, 3))])
        pb = d0.apply([Fraction(rng.randint(-3, 3))])
        za = [x + y for x, y in zip(ra, pa)]
        zb = [x + y for x, y in zip(rb, pb)]
        chain = space.complex.product.mul(1, za, 1, zb)
        assert space.reduce(2, chain) == base


def test_odd_generated_verdicts():
    assert odd_generated(cohomology_of("abelian", 1))
    assert odd_generated(cohomology_of("abelian", 3))
    assert odd_generated(cohomology_of("so", 3))
    # Hded of heisenberg(3) has degree-2 classes that are not products of odds
    assert not odd_generated(cohomology_of("heisenberg", 3))


def test_unit_class_is_single_generator():
    space = cohomology_of("so", 3)
    assert space.unit_class() == [Fraction(1)]


def counted_row_reduce(monkeypatch):
    """Count the calls of ``linalg.row_reduce`` from here on."""
    calls = []
    real = linalg.row_reduce

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "row_reduce", counting)
    return calls


def test_one_elimination_per_degree_and_reducers_on_first_use(monkeypatch, ana_gl3_so3):
    complexes = [ce_complex(builtin(name, n)) for name, n in (("heisenberg", 5), ("so", 3), ("gl", 1))]
    for g in (builtin("gl", 3), builtin("so", 5)):
        complexes.append(ce_complex(g, g.grading))
    complexes += [ana_gl3_so3.quotient_model.complex, ana_gl3_so3.basic_model.complex]
    calls = counted_row_reduce(monkeypatch)
    for complex in complexes:
        del calls[:]
        space = CohomologySpace(complex)
        assert len(calls) <= space.top_degree + 1
        for k in range(space.top_degree + 1):
            reps = space.representative_vectors(k)
            cocycle = reps[0] if reps else [0] * complex.full_dim(k)
            before = len(calls)
            space.reduce(k, cocycle)
            first = len(calls) - before
            assert first <= (1 if space.betti(k) else 0), (complex.dims, k)
            space.reduce(k, cocycle)
            assert len(calls) - before == first, (complex.dims, k)


def test_reducer_refuses_a_kept_set_the_coboundaries_do_not_give():
    # H^2(heisenberg(3)) = 2: all three free columns of d_2, two kept
    space = cohomology_of("heisenberg", 3)
    free, kept = space._free[2], space._kept[2]
    assert len(free) == 3 and len(kept) == 2
    dropped = [f for f in free if f not in kept]
    space._kept[2] = sorted(kept[1:] + dropped)
    with pytest.raises(InternalInvariantError, match="top-down"):
        space.reduce(2, space.representative_vectors(2)[0])
    space._kept[2] = kept
    assert space.reduce(2, space.representative_vectors(2)[0]) == [Fraction(1), Fraction(0)]
