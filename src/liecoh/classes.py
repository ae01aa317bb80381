"""Named generators of relative cohomology.

``canonical_gl_so_pair`` builds (gl(n), so(n)) on the symmetric-matrix
complement.  ``identify_generators`` finds minimal ring generators of any
pair's relative cohomology by degree-ascending span saturation and reports
whether their products present it as a free exterior algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import cup_product, generated_spans
from .koszul import _analysis
from .liealg import SubalgebraPair, builtin, so_in_gl_vectors, subalgebra, symmetric_gl_vectors
from .linalg import SpanBuilder


def canonical_gl_so_pair(n: int) -> SubalgebraPair:
    """(gl(n), so(n)) with the symmetric-matrix complement as quotient basis."""
    return subalgebra(
        builtin("gl", n), so_in_gl_vectors(n, n), quotient=symmetric_gl_vectors(n)
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
