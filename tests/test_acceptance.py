"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All assertions are exact (rational arithmetic, no tolerances); the only
numeric gates are the stated wall-clock budgets.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction

from liecoh import builtin, subalgebra
from liecoh.classes import canonical_gl_so_pair, pfaffian
from liecoh.cli import main
from liecoh.cohomology import (
    ce_cohomology,
    ce_complex,
    CohomologySpace,
    cup_product,
    induced_map,
    odd_generated,
)
from liecoh.exterior import (
    ce_differential,
    interior_matrix,
    lie_derivative_matrix,
    pullback_matrix,
)
from liecoh.koszul import (
    PairAnalysis,
    delta_chain,
    delta_cohom,
    direct_product_check,
    factorization_check,
    functoriality_check,
)
from liecoh.liealg import (
    full_subalgebra,
    gl_block_inclusion,
    identity_morphism,
    pair_morphism,
    so_in_gl_vectors,
    so_in_so_vectors,
    zero_subalgebra,
)
from liecoh.linalg import Matrix

_cache = {}


def _cached(name, builder):
    if name not in _cache:
        _cache[name] = builder()
    return _cache[name]


def _line(number, ok, description):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {verdict} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def _ana_gl3_so3():
    return _cached("gl3_so3", lambda: PairAnalysis(canonical_gl_so_pair(3)))


def _ana_gl2_so2():
    return _cached("gl2_so2", lambda: PairAnalysis(canonical_gl_so_pair(2)))


def test_criterion_1_relative_betti_gl3_so3():
    started = time.perf_counter()
    ana = _ana_gl3_so3()
    betti = ana.relative_cohomology.betti_dict()
    elapsed = time.perf_counter() - started
    ok = betti == {0: 1, 1: 1, 5: 1, 6: 1} and elapsed < 60
    _line(1, ok, f"relative Betti of (gl(3), so(3)) = {betti} in {elapsed:.2f}s (< 60s)")


def test_criterion_2_relative_betti_gl2_so2():
    started = time.perf_counter()
    ana = _ana_gl2_so2()
    betti = ana.relative_cohomology.betti_dict()
    elapsed = time.perf_counter() - started
    ok = betti == {0: 1, 1: 1, 2: 1, 3: 1} and elapsed < 5
    _line(2, ok, f"relative Betti of (gl(2), so(2)) = {betti} in {elapsed:.2f}s (< 5s)")


def _brute_force_kernel_dimension(ana):
    """Kernel dimension of the induced map, without representative reduction.

    Per degree: rank of [Delta(cocycles) | coboundaries] minus rank of the
    coboundaries gives the induced rank over the full cochain bases; the
    source Betti numbers come from raw differential ranks only.
    """
    chain = delta_chain(ana)
    invq = ana.quotient_model
    ce = ce_complex(ana.pair.ambient)
    total = 0
    for k in range(invq.complex.top_degree + 1):
        cocycles = invq.complex.differential(k).nullspace().cols_dense()
        betti_src = len(cocycles) - invq.complex.differential(k - 1).rank()
        image_cols = [chain[k].apply(z) for z in cocycles]
        boundary = ce.differential(k - 1)
        boundary_cols = boundary.cols_dense()
        stacked = Matrix.from_cols(image_cols + boundary_cols, ce.dim(k))
        induced_rank = stacked.rank() - boundary.rank()
        total += betti_src - induced_rank
    return total


def test_criterion_3_injectivity_verdicts_with_oracle():
    ana3 = _ana_gl3_so3()
    res3 = delta_cohom(ana3)
    total_rank3 = sum(
        res3.cohomology_map.degree(k).rank() for k in range(res3.source.top_degree + 1)
    )
    oracle3 = _brute_force_kernel_dimension(ana3)
    ana2 = _ana_gl2_so2()
    res2 = delta_cohom(ana2)
    kernel2 = res2.cohomology_map.total_kernel_dimension()
    oracle2 = _brute_force_kernel_dimension(ana2)
    ok = (
        res3.injective
        and total_rank3 == 4
        and oracle3 == 0
        and not res2.injective
        and kernel2 == len(res2.kernel_basis)
        and kernel2 == oracle2
        and kernel2 > 0
    )
    _line(
        3,
        ok,
        "injective on (gl(3), so(3)) with total rank 4; "
        f"(gl(2), so(2)) kernel dimension {kernel2} == brute-force {oracle2}",
    )


def test_criterion_4_ncz_verdicts():
    from liecoh.koszul import ncz

    ok_gl3 = ncz(_ana_gl3_so3())
    started = time.perf_counter()
    pair = subalgebra(builtin("so", 5), so_in_so_vectors(3, 5))
    ok_so5 = ncz(PairAnalysis(pair))
    elapsed = time.perf_counter() - started
    ok = ok_gl3 and ok_so5 and elapsed < 120
    _line(
        4,
        ok,
        f"n.c.z. true for (gl(3), so(3)) and (so(5), so(3)); so(5) case {elapsed:.2f}s (< 120s)",
    )


def test_criterion_5_factorization_identity():
    checks = []
    for ana in (_ana_gl3_so3(), _ana_gl2_so2()):
        # raises unless the factorization holds
        checks.append(factorization_check(ana) == tuple(range(ana.pair.dim_quotient + 1)))
    ok = all(checks)
    _line(5, ok, "two-step factorization equals the direct map in every degree")


def test_criterion_6_functoriality():
    ana2 = _ana_gl2_so2()
    ana3 = _ana_gl3_so3()
    # each check raises unless its square commutes
    functoriality_check(identity_morphism(ana2.pair))
    zero_pair = zero_subalgebra(builtin("gl", 2))
    functoriality_check(pair_morphism(zero_pair, ana2.pair, Matrix.identity(4)))
    functoriality_check(pair_morphism(ana2.pair, ana3.pair, gl_block_inclusion(2, 3)))
    ok = True
    _line(6, ok, "naturality square commutes: identity, (id, 0), block inclusion")


def test_criterion_7_direct_product_law():
    report = direct_product_check(builtin("so", 3), builtin("abelian", 2))  # raises unless the formula holds
    ok = report.injective and report.kunneth_holds
    _line(
        7,
        ok,
        "(so(3) + abelian(2), abelian(2)): injective and the signed pullback "
        "formula holds at chain level",
    )


ALL_BUILTINS_TO_DIM_10 = (
    [("gl", n) for n in (1, 2, 3)]
    + [("sl", n) for n in (2, 3)]
    + [("so", n) for n in (2, 3, 4, 5)]
    + [("abelian", n) for n in range(1, 11)]
    + [("heisenberg", n) for n in (3, 5, 7, 9)]
)

SWEEP_PAIRS = [
    ("gl:2 / so:2", lambda: canonical_gl_so_pair(2)),
    ("gl:3 / so:3", lambda: canonical_gl_so_pair(3)),
    ("so:4 / so:3", lambda: subalgebra(builtin("so", 4), so_in_so_vectors(3, 4))),
    ("so:5 / so:3", lambda: subalgebra(builtin("so", 5), so_in_so_vectors(3, 5))),
    ("heisenberg:3 / center", lambda: subalgebra(builtin("heisenberg", 3), [[0, 0, 1]])),
    ("so:3 / zero", lambda: zero_subalgebra(builtin("so", 3))),
    ("so:3 / so:3", lambda: full_subalgebra(builtin("so", 3))),
]


def test_criterion_8_property_suites():
    violations = []

    # d o d = 0, Cartan formula, Euler characteristic, for every builtin
    for name, n in ALL_BUILTINS_TO_DIM_10:
        g = builtin(name, n)
        complex = ce_complex(g)  # validates d o d = 0 on construction
        for k in range(g.dim):
            if not (complex.differential(k + 1) @ complex.differential(k)).is_zero():
                violations.append(f"d o d != 0 for {name}:{n} at degree {k}")
        for i in range(g.dim):
            x = g.basis_vector(i)
            for k in range(g.dim + 1):
                theta = lie_derivative_matrix(g, x, k)
                shape = Matrix.zeros(theta.nrows, theta.ncols)
                term1 = (
                    interior_matrix(x, g.dim, k + 1) @ ce_differential(g, k)
                    if k < g.dim
                    else shape
                )
                term2 = (
                    ce_differential(g, k - 1) @ interior_matrix(x, g.dim, k)
                    if k > 0
                    else shape
                )
                if theta != term1 + term2:
                    violations.append(f"Cartan formula fails for {name}:{n}, x={i}, k={k}")
        space = CohomologySpace(complex)
        chi_betti = space.euler_characteristic()
        chi_dims = sum((-1) ** k * d for k, d in enumerate(complex.dims))
        if chi_betti != chi_dims or (g.dim >= 1 and chi_betti != 0):
            violations.append(f"Euler characteristic mismatch for {name}:{n}")

    # delta-bar squared, model dimension agreement and the chain isomorphism
    for label, build in SWEEP_PAIRS:
        pair = build()
        ana = PairAnalysis(pair)
        invq = ana.quotient_model  # validates square zero
        basic = ana.basic_model
        for k in range(pair.dim_quotient + 1):
            if basic.complex.dim(k) != invq.complex.dim(k):
                violations.append(f"model dimensions differ for {label} at degree {k}")
        ana.comparison  # raises on any failure

    # graded commutativity of cup products
    rng = random.Random(2024)
    spaces = [
        CohomologySpace(ce_complex(builtin("so", 3))),
        CohomologySpace(ce_complex(builtin("heisenberg", 3))),
        _ana_gl2_so2().relative_cohomology,
        _ana_gl3_so3().relative_cohomology,
    ]
    for space in spaces:
        degrees = [k for k in range(space.top_degree + 1) if space.betti(k)]
        for _ in range(10):
            ka, kb = rng.choice(degrees), rng.choice(degrees)
            ca = [Fraction(rng.randint(-3, 3)) for _ in range(space.betti(ka))]
            cb = [Fraction(rng.randint(-3, 3)) for _ in range(space.betti(kb))]
            dab, ab = cup_product(space, (ka, ca), (kb, cb))
            dba, ba = cup_product(space, (kb, cb), (ka, ca))
            sign = -1 if (ka * kb) % 2 else 1
            if dab != dba or ab != [sign * x for x in ba]:
                violations.append(f"graded commutativity fails at degrees ({ka}, {kb})")

    # Pfaffian squared = determinant on 100 random exact skew matrices
    rng = random.Random(4096)
    for _ in range(100):
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                rows[i][j] = v
                rows[j][i] = -v
        if pfaffian(rows) ** 2 != pullback_matrix(Matrix.from_rows(rows), 4).entry(0, 0):
            violations.append("Pfaffian squared != determinant")

    ok = not violations
    _line(8, ok, f"property suites, zero violations ({violations[:3] if violations else 'clean'})")


def test_criterion_9_odd_generation_cross_check():
    ana3 = _ana_gl3_so3()
    ana2 = _ana_gl2_so2()
    odd3 = odd_generated(ana3.relative_cohomology)
    odd2 = odd_generated(ana2.relative_cohomology)
    inj3 = delta_cohom(ana3).injective
    inj2 = delta_cohom(ana2).injective
    ok = odd3 is True and odd2 is False and odd3 == inj3 and odd2 == inj2
    _line(
        9,
        ok,
        f"odd-generated: (gl(3), so(3)) {odd3} == injective {inj3}; "
        f"(gl(2), so(2)) {odd2} == injective {inj2}",
    )


def _exterior_betti(*degrees):
    """Betti numbers of an exterior algebra on generators of the given degrees."""
    betti = {0: 1}
    for d in degrees:
        grown = dict(betti)
        for k, b in betti.items():
            grown[k + d] = grown.get(k + d, 0) + b
        betti = grown
    return betti


def test_betti_numbers_of_so6_and_gl4():
    """The weight-zero block reaches so(6) (dim 15) and gl(4) (dim 16)."""
    assert ce_cohomology(builtin("so", 6)).betti_dict() == _exterior_betti(3, 5, 7)
    assert ce_cohomology(builtin("gl", 4)).betti_dict() == _exterior_betti(1, 3, 5, 7)


def test_generators_of_gl4_so4_from_the_cli(capsys):
    """H(gl(4), so(4)) is the exterior algebra on y1, y4 (the Pfaffian class)
    and y3, in degrees 1, 4 and 5, as ROADMAP predicts."""
    assert main(["classes", "--builtin", "gl:4", "--sub", "so:4"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert [(g["degree"], g["label"]) for g in result["generators"]] == [(1, "y1"), (4, "y4"), (5, "y3")]
    assert result["presentation"] == "exterior-algebra"
    assert main(["betti", "--builtin", "gl:4", "--relative", "so:4"]) == 0
    betti = json.loads(capsys.readouterr().out)["result"]["betti"]
    assert betti == {str(k): b for k, b in _exterior_betti(1, 4, 5).items()}
    assert betti == {"0": 1, "1": 1, "4": 1, "5": 2, "6": 1, "9": 1, "10": 1}


def test_generators_of_gl5_so5_from_the_cli(capsys):
    """For odd n = 2m + 1, H(gl(n), so(n)) is the exterior algebra on the
    trace classes of degrees 1, 5, ..., 4m + 1 (Cartan's theorem, as in
    ROADMAP item 5; odd n has no Pfaffian class).  For n = 5 that is y1, y3
    and y5 in degrees 1, 5 and 9, and relative Betti numbers 1 in degrees
    0, 1, 5, 6, 9, 10, 14 and 15."""
    assert main(["classes", "--builtin", "gl:5", "--sub", "so:5"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert [(g["degree"], g["label"]) for g in result["generators"]] == [(1, "y1"), (5, "y3"), (9, "y5")]
    assert result["presentation"] == "exterior-algebra"
    assert main(["betti", "--builtin", "gl:5", "--relative", "so:5"]) == 0
    betti = json.loads(capsys.readouterr().out)["result"]["betti"]
    assert betti == {str(k): b for k, b in _exterior_betti(1, 5, 9).items()}
    assert set(map(int, betti)) == {0, 1, 5, 6, 9, 10, 14, 15}


def _mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def test_rigidity_conjugating_h_by_a_unipotent_element():
    """The Lie-algebra shadow of the Rigidity Theorem.

    For P = I + 1/2 E12 - 2/3 E23, Ad_P is a pair morphism (gl(3), so(3)) ->
    (gl(3), Ad_P so(3)): the naturality square commutes, and Ad_P^* is the
    identity on H(gl(3)).  Ad_P mixes torus weights, so the pulled-back
    representatives leave the weight-zero block and ``reduce`` projects them.
    """
    n = 3
    p = [[1, Fraction(1, 2), 0], [0, 1, Fraction(-2, 3)], [0, 0, 1]]
    p_inv = [[1, Fraction(-1, 2), Fraction(-1, 3)], [0, 1, Fraction(2, 3)], [0, 0, 1]]
    assert _mat_mul(p, p_inv) == [[int(i == j) for j in range(n)] for i in range(n)]

    def ad_p(x):
        y = _mat_mul(_mat_mul(p, [x[a * n:(a + 1) * n] for a in range(n)]), p_inv)
        return [y[a][b] for a in range(n) for b in range(n)]

    g = builtin("gl", n)
    adp = Matrix.from_cols([ad_p(g.basis_vector(i)) for i in range(g.dim)], g.dim)
    so3 = so_in_gl_vectors(n, n)
    morphism = pair_morphism(subalgebra(g, so3), subalgebra(g, [ad_p(v) for v in so3]), adp)
    assert functoriality_check(morphism) == tuple(range(7))

    space = ce_cohomology(g)
    pullbacks = [pullback_matrix(adp, k) for k in range(g.dim + 1)]
    positions = space.complex.block.positions
    off_block = [
        k for k in range(g.dim + 1) for rep in space.representative_vectors(k)
        if any(x for j, x in enumerate(pullbacks[k].apply(rep)) if j not in positions[k])
    ]
    assert off_block
    pulled = induced_map(pullbacks, space, space)
    for k in range(g.dim + 1):
        assert pulled.degree(k) == Matrix.identity(space.betti(k)), k
