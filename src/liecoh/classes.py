"""Named generators of the relative cohomology of (gl(n), so(n)).

The odd-degree generators are alternations of the product-trace multilinear
maps, evaluated on the symmetric-matrix model of gl(n)/so(n): the generator
of degree 4k-3 alternates (A_1, ..., A_(4k-3)) -> tr(A_1 ... A_(4k-3)).
For even n = 2m there is one extra generator in degree 2m tied to the
Pfaffian; no closed cochain formula is fixed for it here, so it is
characterized structurally as the unique even-degree class outside the
subalgebra generated by the odd ones.

``identify_generators`` finds minimal ring generators of any pair's
relative cohomology by degree-ascending span saturation and reports whether
their products present it as a free exterior algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import cup_product, generated_spans, odd_degree_generators
from .errors import (
    DegreeOutOfRange,
    InternalInvariantError,
    NoEvenGenerator,
    NotSkewSymmetric,
    OddSize,
)
from .exterior import Form, alternation, endo_action_matrix
from .koszul import PairAnalysis, _analysis
from .liealg import (
    SubalgebraPair,
    builtin,
    so_in_gl_vectors,
    subalgebra,
    symmetric_gl_matrices,
    symmetric_gl_vectors,
)
from .linalg import Matrix, SpanBuilder


def canonical_gl_so_pair(n: int) -> SubalgebraPair:
    """(gl(n), so(n)) with the symmetric-matrix complement as quotient basis."""
    return subalgebra(
        builtin("gl", n), so_in_gl_vectors(n, n), quotient=symmetric_gl_vectors(n)
    )


def trace_form(n: int, k: int) -> Form:
    """The degree 4k-3 trace generator as a form on gl(n)/so(n).

    Alternation of the product-trace map over the symmetric-matrix basis of
    the quotient.  The result is verified to be invariant under the so(n)
    action and closed for the quotient differential before it is returned.
    """
    degree = 4 * k - 3
    q = n * (n + 1) // 2
    if k < 1 or degree > q:
        raise DegreeOutOfRange(f"degree {degree} exceeds dim gl({n})/so({n}) = {q}")
    mats = symmetric_gl_matrices(n)

    def product_trace(idx):
        prod = [[Fraction(1 if r == c else 0) for c in range(n)] for r in range(n)]
        for i in idx:
            m = mats[i]
            prod = [
                [sum(prod[r][t] * m[t][c] for t in range(n)) for c in range(n)]
                for r in range(n)
            ]
        return sum(prod[i][i] for i in range(n))

    form = alternation(q, degree, product_trace)
    _verify_invariant_and_closed(canonical_gl_so_pair(n), form)
    return form


def _verify_invariant_and_closed(pair, form):
    from .relative import quotient_differential

    q = pair.dim_quotient
    vec = form.to_vector()
    for a in pair.action:
        if any(endo_action_matrix(a, q, form.degree).apply(vec)):
            raise InternalInvariantError("trace form is not invariant")
    if form.degree < q and any(quotient_differential(pair, form.degree).apply(vec)):
        raise InternalInvariantError("trace form is not closed")


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def pfaffian(a):
    """Pfaffian of an even-size skew-symmetric rational matrix.

    Recursive expansion along the first remaining row; Pf squared equals
    the determinant (exercised by the tests).
    """
    if isinstance(a, Matrix):
        rows = a.rows_dense()
    else:
        rows = [list(r) for r in a]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotSkewSymmetric("matrix is not square")
    if n % 2:
        raise OddSize(f"Pfaffian needs even size, got {n}")
    for i in range(n):
        if rows[i][i]:
            raise NotSkewSymmetric(f"nonzero diagonal entry at {i}")
        for j in range(i + 1, n):
            if rows[i][j] != -rows[j][i]:
                raise NotSkewSymmetric(f"entries ({i},{j}) and ({j},{i}) do not negate")

    memo = {}

    def pf(indices):
        if not indices:
            return Fraction(1)
        cached = memo.get(indices)
        if cached is not None:
            return cached
        i0 = indices[0]
        total = Fraction(0)
        for t in range(1, len(indices)):
            v = rows[i0][indices[t]]
            if v:
                rest = indices[1:t] + indices[t + 1:]
                term = v * pf(rest)
                total += term if (t - 1) % 2 == 0 else -term
        memo[indices] = total
        return total

    return pf(tuple(range(n)))


class PfaffianClass:
    def __init__(self, pair: SubalgebraPair, degree: int, coords: tuple, form: Form,
                 presentation_verified: bool):
        self.pair = pair
        self.degree = degree
        self.coords = coords  # coordinates in the degree-2m representatives
        self.form = form      # representative as a form on g/h
        self.presentation_verified = presentation_verified


def pfaffian_class(m: int, analysis: PairAnalysis | None = None) -> PfaffianClass:
    """The even generator in degree 2m of the relative cohomology of
    (gl(2m), so(2m)): the unique class (up to scale) outside the subalgebra
    generated by 1 and the odd-degree classes.

    Raises NoEvenGenerator when the odd classes already span degree 2m.
    """
    ana = analysis or PairAnalysis(canonical_gl_so_pair(2 * m))
    space = ana.relative_cohomology
    degree = 2 * m
    betti = space.betti(degree)
    spans = generated_spans(space, odd_degree_generators(space))
    span = spans.get(degree)
    chosen = None
    for i in range(betti):
        unit = [Fraction(0)] * betti
        unit[i] = Fraction(1)
        if span is None or not span.contains(unit):
            chosen = unit
            break
    if chosen is None:
        raise NoEvenGenerator(
            f"odd-degree classes already span degree {degree}"
        )
    report = identify_generators(ana)
    verified = report.presentation == "exterior-algebra" and any(
        d == degree and label == f"y{degree}" for d, _, label in report.generators
    )
    form = ana.quotient_model.form(degree, space.representative_matrix(degree).apply(chosen))
    return PfaffianClass(
        pair=ana.pair,
        degree=degree,
        coords=tuple(chosen),
        form=form,
        presentation_verified=verified,
    )


# ---------------------------------------------------------------------------
# generator identification
# ---------------------------------------------------------------------------

class GeneratorReport:
    def __init__(self, pair: SubalgebraPair, generators: tuple, presentation: str):
        self.pair = pair
        self.generators = generators      # (degree, coordinate tuple, label)
        self.presentation = presentation  # "exterior-algebra" or "mismatch"


def _label_for(degree: int) -> str:
    if degree % 2:
        return f"y{(degree + 1) // 2}"
    return f"y{degree}"


def identify_generators(pair_or_analysis) -> GeneratorReport:
    """Minimal ring generators of the relative cohomology, with labels.

    Generators are found degree by degree: whenever the subring generated
    so far does not exhaust a degree, representative classes are adjoined
    greedily.  Odd-degree generators in degree 4k-3 are labeled y_(2k-1)
    (so y1, y3, ...); even-degree ones are labeled by their degree.  The
    presentation verdict says whether products of distinct generators form
    a basis, i.e. whether the ring is the free exterior algebra on them.
    """
    ana = _analysis(pair_or_analysis)
    space = ana.relative_cohomology
    gens = []
    for d in range(1, space.top_degree + 1):
        betti = space.betti(d)
        if betti == 0:
            continue
        # adjoining a degree-d generator grows the degree-d span by exactly
        # that vector and no lower degree, so one span per degree suffices
        span = generated_spans(space, [(g_d, list(g_v)) for g_d, g_v, _ in gens])[d]
        for i in range(betti):
            unit = [Fraction(0)] * betti
            unit[i] = Fraction(1)
            if span.insert(unit):
                gens.append((d, tuple(unit), _label_for(d)))
    presentation = _check_exterior_presentation(space, gens)
    return GeneratorReport(pair=ana.pair, generators=tuple(gens), presentation=presentation)


def _check_exterior_presentation(space, gens) -> str:
    """Do products over subsets of the generators form a degreewise basis?"""
    expected = {}
    products = {(): (0, space.unit_class())}
    subsets = [()]
    for idx, (gd, gv, _) in enumerate(gens):
        for subset in list(subsets):
            new = subset + (idx,)
            d0, c0 = products[subset]
            target = d0 + gd
            if target > space.top_degree:
                products[new] = (target, [])
            else:
                products[new] = cup_product(space, (d0, list(c0)), (gd, list(gv)))
            subsets.append(new)
    spans = {}
    for subset in subsets:
        d, coords = products[subset]
        expected[d] = expected.get(d, 0) + 1
        if d > space.top_degree or space.betti(d) == 0:
            return "mismatch"
        span = spans.setdefault(d, SpanBuilder(space.betti(d)))
        if not span.insert(coords):
            return "mismatch"
    for d in range(space.top_degree + 1):
        if expected.get(d, 0) != space.betti(d):
            return "mismatch"
    return "exterior-algebra"
