"""The characteristic (Koszul) homomorphism of a subalgebra pair h < g.

At chain level the map sends an invariant form on g/h to its pullback along
minus the projection s: g -> g/h, landing in Lambda g*; on cohomology it
gives H(g, h) -> H(g).  The chain-map identity against the two differential
conventions is verified exactly on every construction and is the arbiter of
all sign choices in this library.

The cohomology map factors through the basic subcomplex: pullback onto the
basic model (an isomorphism) followed by the inclusion-induced map.
``factorization_check`` recomputes both legs independently and compares.

Injectivity is decided degreewise by exact rank; the Example criteria that
accompany it are implemented as cross-checks, not decision procedures:
``ncz_report`` (surjectivity of H(g) -> H(h) under restriction, with
stored and re-verified preimage witnesses) and ``invariant_complement`` (an
h-equivariant projection g -> h, the witness that the pair is reductive).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .cohomology import (
    CohomologyMap,
    CohomologySpace,
    _induced_map_unchecked,
    ce_cohomology,
    check_chain_map,
    induced_map,
)
from .errors import (
    ChainMapViolation,
    DiagramMismatch,
    FactorizationMismatch,
    FormulaMismatch,
    InternalInvariantError,
    NotAChainMap,
)
from .exterior import basis_size, pullback_matrix
from .liealg import LieAlgebra, PairMorphism, SubalgebraPair, direct_sum, subalgebra
from .linalg import ColumnSolver, Matrix
from .relative import (
    basic_subcomplex,
    compare_models,
    invariant_quotient_complex,
    restriction_map,
)


class PairAnalysis:
    """All complexes and cohomologies of one pair, computed once and shared;
    each chain map between them is checked once, where it is built."""

    def __init__(self, pair: SubalgebraPair):
        self.pair = pair

    @cached_property
    def ambient_cohomology(self) -> CohomologySpace:
        return ce_cohomology(self.pair.ambient)

    @cached_property
    def quotient_model(self):
        return invariant_quotient_complex(self.pair)

    @cached_property
    def relative_cohomology(self) -> CohomologySpace:
        return CohomologySpace(self.quotient_model.complex)

    @cached_property
    def basic_model(self):
        return basic_subcomplex(self.pair)

    @cached_property
    def basic_cohomology(self) -> CohomologySpace:
        return CohomologySpace(self.basic_model.complex)

    @cached_property
    def koszul_chain(self) -> tuple:
        """Per degree k, (-1)^k times the pullback along the projection of
        the invariant basis: the Koszul chain map into Lambda^k g*, formed
        once for ``delta_chain`` and ``compare_models``."""
        proj = self.pair.projection_matrix
        return tuple(
            pullback_matrix(proj, k).scale((-1) ** k) @ e for k, e in enumerate(self.quotient_model.embeddings)
        )

    @cached_property
    def comparison(self) -> tuple:
        return compare_models(self.basic_model, self.quotient_model, self.koszul_chain)

    @cached_property
    def sub_cohomology(self) -> CohomologySpace:
        return ce_cohomology(self.pair.sub)

    @cached_property
    def restriction(self) -> tuple:
        return restriction_map(self.pair, self.ambient_cohomology.complex, self.sub_cohomology.complex)

    @cached_property
    def koszul(self) -> KoszulResult:
        """Induced map H(g, h) -> H(g), injectivity verdict, kernel classes.

        ``delta_chain`` checks the chain map against the complexes of the
        two spaces, so the check is not run a second time.
        """
        chain = delta_chain(self)
        mapping = _induced_map_unchecked(chain, self.relative_cohomology, self.ambient_cohomology)
        kernel = []
        for k in range(self.relative_cohomology.top_degree + 1):
            for coords in mapping.kernel_basis(k):
                rep = self.relative_cohomology.representative_matrix(k).apply(coords)
                kernel.append((k, self.quotient_model.embeddings[k].apply(rep)))
        return KoszulResult(
            pair=self.pair,
            chain_map=tuple(chain),
            cohomology_map=mapping,
            injective=not kernel,
            kernel_basis=tuple(kernel),
        )


def _analysis(pair_or_analysis) -> PairAnalysis:
    if isinstance(pair_or_analysis, PairAnalysis):
        return pair_or_analysis
    return PairAnalysis(pair_or_analysis)


# ---------------------------------------------------------------------------
# the chain map and its cohomology map
# ---------------------------------------------------------------------------

def delta_chain(pair):
    """Per-degree matrices of the characteristic map at chain level.

    Degree k sends the invariant-basis coordinates on g/h to Lambda^k g*
    coordinates via (-1)^k times the pullback of the projection.  The exact
    commutation with both differentials is verified; a failure is a hard
    internal error (the sign-convention arbiter).
    """
    ana = _analysis(pair)
    maps = ana.koszul_chain
    try:
        check_chain_map(maps, ana.quotient_model.complex, ana.ambient_cohomology.complex)
    except NotAChainMap as exc:
        raise ChainMapViolation(exc.degree, exc.column) from exc
    return maps


class KoszulResult:
    def __init__(self, pair: SubalgebraPair, chain_map: tuple, cohomology_map: CohomologyMap,
                 injective: bool, kernel_basis: tuple):
        self.pair = pair
        self.chain_map = chain_map        # per degree, invariant coords -> Lambda^k g*
        self.cohomology_map = cohomology_map
        self.injective = injective
        self.kernel_basis = kernel_basis  # (degree, vector of Lambda^degree (g/h)*) pairs spanning the kernel

    @property
    def source(self) -> CohomologySpace:
        return self.cohomology_map.source

    @property
    def target(self) -> CohomologySpace:
        return self.cohomology_map.target


def delta_cohom(pair) -> KoszulResult:
    """Induced map H(g, h) -> H(g), computed once per ``PairAnalysis``."""
    return _analysis(pair).koszul


def factorization_check(pair) -> tuple:
    """Verify the two-step factorization of the cohomology map exactly, and
    return the degrees checked; a mismatch raises FactorizationMismatch.

    Leg 1: the comparison isomorphism onto the basic model (pullback along
    minus the projection).  Leg 2: the inclusion of the basic subcomplex
    into Lambda g*.  Their induced composition must equal the directly
    computed map in every degree.  Neither leg is checked again:
    ``compare_models`` checked leg 1, and the basic model's d-stability
    check decided e_(k+1) D_k = d_k e_k for leg 2 exactly.
    """
    ana = _analysis(pair)
    direct = delta_cohom(ana)
    leg1 = _induced_map_unchecked(ana.comparison, ana.relative_cohomology, ana.basic_cohomology)
    leg2 = _induced_map_unchecked(
        ana.basic_model.embeddings, ana.basic_cohomology, ana.ambient_cohomology
    )
    degrees = tuple(range(ana.relative_cohomology.top_degree + 1))
    for k in degrees:
        composite = leg2.degree(k) @ leg1.degree(k)
        if composite != direct.cohomology_map.degree(k):
            raise FactorizationMismatch(
                f"factorization fails in degree {k}"
            )
    return degrees


# ---------------------------------------------------------------------------
# noncohomologous to zero
# ---------------------------------------------------------------------------

class NczReport:
    def __init__(self, pair: SubalgebraPair, ncz: bool, degrees: dict, witnesses: dict):
        self.pair = pair
        self.ncz = ncz
        self.degrees = degrees      # degree -> {"rank": r, "betti_sub": b}
        self.witnesses = witnesses  # degree -> list of preimage coordinate vectors

    def to_payload(self):
        from .rationals import format_rational

        return {
            "ncz": self.ncz,
            "degrees": {
                str(k): dict(v) for k, v in sorted(self.degrees.items())
            },
            "witnesses": {
                str(k): [[format_rational(x) for x in vec] for vec in vecs]
                for k, vecs in sorted(self.witnesses.items())
            },
        }


def ncz_report(pair) -> NczReport:
    """Is H(g) -> H(h) surjective in every degree (restriction-induced)?

    When surjective, a right inverse is exhibited degreewise: for each basis
    class of H(h) a preimage class in H(g) is solved for, stored, and
    re-verified by mapping it back through the chain-level restriction.
    """
    ana = _analysis(pair)
    # restriction_map has checked the chain map against the same two complexes
    mapping = _induced_map_unchecked(ana.restriction, ana.ambient_cohomology, ana.sub_cohomology)
    sub = ana.sub_cohomology
    degrees = {}
    witnesses = {}
    surjective = True
    for k in range(sub.top_degree + 1):
        betti_sub = sub.betti(k)
        if betti_sub == 0:
            continue
        units = [[Fraction(int(i == j)) for j in range(betti_sub)] for i in range(betti_sub)]
        solver = ColumnSolver(mapping.degree(k), units)
        rank = len(solver.pivots)
        degrees[k] = {"rank": rank, "betti_sub": betti_sub}
        if rank < betti_sub:
            surjective = False
            continue
        found = solver.solutions
        for unit, pre in zip(units, found):
            if pre is None:
                raise InternalInvariantError(
                    f"full-rank map has no preimage in degree {k}"
                )
            # re-verify through the chain level
            chain = ana.ambient_cohomology.representative_matrix(k).apply(pre)
            restricted = ana.restriction[k].apply(chain)
            if sub.reduce(k, restricted) != unit:
                raise InternalInvariantError(
                    f"preimage witness fails re-verification in degree {k}"
                )
        witnesses[k] = found
    return NczReport(pair=ana.pair, ncz=surjective, degrees=degrees, witnesses=witnesses)


# ---------------------------------------------------------------------------
# reductive-pair witness
# ---------------------------------------------------------------------------

class ReductiveWitness:
    def __init__(self, pair: SubalgebraPair, reductive: bool, projection: Matrix | None,
                 complement: tuple | None, certificate: tuple | None):
        self.pair = pair
        self.reductive = reductive
        self.projection = projection    # h-equivariant projection g -> h (sub coordinates)
        self.complement = complement    # basis of its kernel, the invariant complement
        self.certificate = certificate  # rational row: certificate of infeasibility


def invariant_complement(pair) -> ReductiveWitness:
    """Solve for an h-equivariant projection g -> h restricting to id on h.

    Feasibility is an exact linear problem in the entries of the projection.
    On success the complement (its kernel) is returned and its h-invariance
    is re-verified; otherwise a linear-combination certificate of
    infeasibility is returned.
    """
    g = pair.ambient
    h = pair.sub
    n, r = g.dim, pair.dim_sub
    if r == 0:
        basis = tuple(tuple(g.basis_vector(i)) for i in range(n))
        return ReductiveWitness(pair, True, Matrix.zeros(0, n), basis, None)

    def var(i, k):
        return i * n + k  # entry P[i][k]

    rows = []
    rhs = []
    sub_cols = pair.sub_matrix.cols_dense()
    # P restricted to h is the identity: P @ S = I_r
    for j in range(r):
        for i in range(r):
            row = {}
            for k in range(n):
                if sub_cols[j][k]:
                    row[var(i, k)] = sub_cols[j][k]
            rows.append(row)
            rhs.append(Fraction(1 if i == j else 0))
    # equivariance: P ad_x = ad^h_x P for every h generator
    for a in range(r):
        ad_g = g.adjoint_matrix(pair.sub_basis[a])
        ad_h = h.adjoint_matrix(h.basis_vector(a))
        for i in range(r):
            for jcol in range(n):
                row = {}
                for (m, jj), v in ad_g.entries.items():
                    if jj == jcol:
                        row[var(i, m)] = row.get(var(i, m), Fraction(0)) + v
                for (ii, kk), v in ad_h.entries.items():
                    if ii == i:
                        key = var(kk, jcol)
                        row[key] = row.get(key, Fraction(0)) - v
                if row:
                    rows.append(row)
                    rhs.append(Fraction(0))
    system = Matrix(
        len(rows), r * n,
        {(idx, col): v for idx, row in enumerate(rows) for col, v in row.items()},
    )
    solver = ColumnSolver(system, [rhs])
    solution, certificate = solver.solutions[0], solver.certificates[0]
    if solution is None:
        return ReductiveWitness(pair, False, None, None, tuple(certificate))
    projection = Matrix(
        r, n, {(i, k): solution[var(i, k)] for i in range(r) for k in range(n) if solution[var(i, k)]}
    )
    complement = tuple(tuple(vec) for vec in projection.nullspace().cols_dense())
    for a in range(r):
        ad_g = g.adjoint_matrix(pair.sub_basis[a])
        for w in complement:
            if any(projection.apply(ad_g.apply(list(w)))):
                raise InternalInvariantError(
                    "complement of an equivariant projection is not invariant"
                )
    return ReductiveWitness(pair, True, projection, complement, None)


# ---------------------------------------------------------------------------
# direct products
# ---------------------------------------------------------------------------

class DirectProductReport:
    def __init__(self, pair: SubalgebraPair, injective: bool, kunneth_holds: bool,
                 betti_left: tuple, betti_right: tuple, betti_sum: tuple):
        self.pair = pair
        self.injective = injective
        self.kunneth_holds = kunneth_holds
        self.betti_left = betti_left
        self.betti_right = betti_right
        self.betti_sum = betti_sum


def direct_product_check(g: LieAlgebra, h: LieAlgebra) -> DirectProductReport:
    """Characteristic map of (g (+) h, h): injectivity and the sign formula.

    Chain level: every form on the quotient (= g) is invariant, and the map
    must equal (-1)^degree times the pullback of the first-factor
    projection, exactly.  The Betti numbers of the product must also satisfy
    the Kunneth convolution of the factors.
    """
    total, _, _ = direct_sum(g, h)
    second = [total.basis_vector(g.dim + i) for i in range(h.dim)]
    pair = subalgebra(total, second)
    ana = PairAnalysis(pair)

    invq = ana.quotient_model
    for k in range(g.dim + 1):
        if invq.complex.dim(k) != basis_size(g.dim, k):
            raise FormulaMismatch(
                f"quotient invariants are not all of Lambda^{k}: factor action is nonzero"
            )
    first_projection = Matrix(g.dim, total.dim, {(i, i): 1 for i in range(g.dim)})
    result = delta_cohom(ana)
    for k in range(g.dim + 1):
        expected = pullback_matrix(first_projection, k).scale((-1) ** k) @ invq.embeddings[k]
        if result.chain_map[k] != expected:
            raise FormulaMismatch(f"chain-level sign formula fails in degree {k}")

    left = ce_cohomology(g)
    right = ce_cohomology(h)
    betti_sum = ana.ambient_cohomology.betti_numbers
    kunneth = tuple(
        sum(
            left.betti(i) * right.betti(k - i)
            for i in range(k + 1)
        )
        for k in range(total.dim + 1)
    )
    return DirectProductReport(
        pair=pair,
        injective=result.injective,
        kunneth_holds=kunneth == betti_sum,
        betti_left=left.betti_numbers,
        betti_right=right.betti_numbers,
        betti_sum=betti_sum,
    )


# ---------------------------------------------------------------------------
# functoriality
# ---------------------------------------------------------------------------

def functoriality_check(morphism: PairMorphism) -> tuple:
    """Verify the naturality square of the characteristic map for a morphism,
    and return the degrees checked.

    For H: (g', h') -> (g, h), the pullback between the invariant quotient
    models composed with the source characteristic map must equal the
    ambient pullback composed with the target one, degree by degree on
    cohomology.  A failure is a hard error: the square commutes for every
    valid morphism.
    """
    src_ana = PairAnalysis(morphism.source)
    dst_ana = PairAnalysis(morphism.target)
    h_matrix = morphism.matrix

    hbar = (
        dst_ana.pair.projection_matrix @ h_matrix @ src_ana.pair.quotient_matrix
    )
    q_src = src_ana.pair.dim_quotient
    q_dst = dst_ana.pair.dim_quotient
    # above min(q_src, q_dst) the source or the target of the pullback is
    # zero, and induced_map reads the missing degrees as zero maps
    plus_maps = []
    for k in range(min(q_src, q_dst) + 1):
        pulled = pullback_matrix(hbar, k) @ dst_ana.quotient_model.embeddings[k]
        plus, _ = src_ana.quotient_model.embeddings[k].coordinates(pulled)
        if plus is None:
            raise DiagramMismatch(
                f"pullback of an invariant form is not invariant in degree {k}"
            )
        plus_maps.append(plus)
    try:
        plus_induced = induced_map(
            plus_maps, dst_ana.relative_cohomology, src_ana.relative_cohomology
        )
    except NotAChainMap as exc:
        raise DiagramMismatch(
            f"invariant pullback is not a chain map at degree {exc.degree}"
        ) from exc

    full_maps = [
        pullback_matrix(h_matrix, k) for k in range(dst_ana.pair.ambient.dim + 1)
    ]
    try:
        full_induced = induced_map(
            full_maps, dst_ana.ambient_cohomology, src_ana.ambient_cohomology
        )
    except NotAChainMap as exc:
        raise DiagramMismatch(
            f"ambient pullback is not a chain map at degree {exc.degree}"
        ) from exc

    delta_src = delta_cohom(src_ana).cohomology_map
    delta_dst = delta_cohom(dst_ana).cohomology_map

    degrees = tuple(range(dst_ana.relative_cohomology.top_degree + 1))
    for k in degrees:
        left = delta_src.degree(k) @ plus_induced.degree(k)
        right = full_induced.degree(k) @ delta_dst.degree(k)
        if left != right:
            column = 0
            diff = left - right
            if diff.entries:
                column = min(j for (_, j) in diff.entries)
            raise DiagramMismatch(f"square fails in degree {k} at class {column}")
    return degrees
