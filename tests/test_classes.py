import random
from fractions import Fraction

import pytest
import sympy

from liecoh import builtin
from liecoh.classes import (
    GeneratorReport,
    identify_generators,
    pfaffian,
    pfaffian_class,
    trace_form,
)
from liecoh.cohomology import cup_product
from liecoh.errors import DegreeOutOfRange, NoEvenGenerator, NotSkewSymmetric, OddSize
from liecoh.koszul import delta_cohom
from liecoh.liealg import zero_subalgebra
from liecoh.linalg import SpanBuilder


def identity_coset_coords(n):
    coords = []
    for a in range(n):
        for b in range(a, n):
            coords.append(Fraction(1) if a == b else Fraction(0))
    return coords


def test_trace_form_degree_one_is_trace_covector():
    for n in (2, 3):
        form = trace_form(n, 1)
        assert form.degree == 1
        assert form.evaluate([identity_coset_coords(n)]) == n


def test_trace_form_3_2_is_nonzero_and_generates_degree_five(ana_gl3_so3):
    form = trace_form(3, 2)  # closedness and invariance checked internally
    assert form.degree == 5
    assert not form.is_zero()
    ana = ana_gl3_so3
    coords = ana.quotient_model.embeddings[5].solve(form.to_vector())
    assert coords is not None  # the form is invariant, hence in the model
    cls = ana.relative_cohomology.reduce(5, coords)
    assert any(cls)  # nonzero class in the one-dimensional degree 5


def test_trace_form_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        trace_form(2, 3)  # degree 9 > dim gl(2)/so(2) = 3


def test_pfaffian_small_cases():
    assert pfaffian([[0, 5], [-5, 0]]) == 5
    blocks = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
    assert pfaffian(blocks) == 6
    assert pfaffian([]) == 1


def test_pfaffian_input_validation():
    with pytest.raises(OddSize):
        pfaffian([[0]])
    with pytest.raises(NotSkewSymmetric):
        pfaffian([[0, 1], [1, 0]])
    with pytest.raises(NotSkewSymmetric):
        pfaffian([[1, 1], [-1, 0]])


def random_skew(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            rows[i][j] = v
            rows[j][i] = -v
    return rows


def test_pfaffian_squared_is_determinant():
    rng = random.Random(31)
    for _ in range(30):
        a = random_skew(rng, rng.choice([2, 4, 6]))
        det = sympy.Matrix([[sympy.Rational(x) for x in row] for row in a]).det()
        assert sympy.Rational(pfaffian(a)) ** 2 == det


def test_pfaffian_congruence_covariance():
    rng = random.Random(32)
    for _ in range(10):
        a = random_skew(rng, 4)
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        pt_a_p = [
            [
                sum(p[k][i] * a[k][l] * p[l][j] for k in range(4) for l in range(4))
                for j in range(4)
            ]
            for i in range(4)
        ]
        det_p = sympy.Matrix([[sympy.Rational(x) for x in r] for r in p]).det()
        assert sympy.Rational(pfaffian(pt_a_p)) == det_p * sympy.Rational(pfaffian(a))


def test_pfaffian_class_gl2_so2(ana_gl2_so2):
    cls = pfaffian_class(1, analysis=ana_gl2_so2)
    assert cls.degree == 2
    assert cls.presentation_verified
    assert not cls.form.is_zero()
    # unique up to scalar: degree-2 betti is 1
    assert ana_gl2_so2.relative_cohomology.betti(2) == 1


def test_pfaffian_class_spans_the_kernel_with_its_products(ana_gl2_so2):
    cls = pfaffian_class(1, analysis=ana_gl2_so2)
    result = delta_cohom(ana_gl2_so2)
    kernel_degrees = sorted(k for k, _ in result.kernel_basis)
    assert kernel_degrees == [2, 3]
    space = ana_gl2_so2.relative_cohomology
    # degree 2 kernel = span of the even generator
    span2 = SpanBuilder(space.betti(2))
    for k, form in result.kernel_basis:
        if k == 2:
            coords = space.reduce(
                2, ana_gl2_so2.quotient_model.embeddings[2].solve(form.to_vector())
            )
            span2.insert(coords)
    assert span2.contains(list(cls.coords))
    # degree 3 kernel contains y1 cup y2
    y1 = (1, [Fraction(1)])
    _, prod = cup_product(space, y1, (2, list(cls.coords)))
    span3 = SpanBuilder(space.betti(3))
    for k, form in result.kernel_basis:
        if k == 3:
            coords = space.reduce(
                3, ana_gl2_so2.quotient_model.embeddings[3].solve(form.to_vector())
            )
            span3.insert(coords)
    assert span3.contains(prod)


def test_pfaffian_class_pairs_nonzero_with_a_symmetric_frame(ana_gl2_so2):
    cls = pfaffian_class(1, analysis=ana_gl2_so2)
    q = ana_gl2_so2.pair.dim_quotient
    values = []
    for i in range(q):
        for j in range(i + 1, q):
            frame = [
                [Fraction(1 if t == i else 0) for t in range(q)],
                [Fraction(1 if t == j else 0) for t in range(q)],
            ]
            values.append(cls.form.evaluate(frame))
    assert any(values)


def test_pfaffian_class_absent_when_odds_span(ana_gl3_so3):
    with pytest.raises(NoEvenGenerator):
        pfaffian_class(3, analysis=ana_gl3_so3)  # degree 6 = y1 cup y3 already


def test_identify_generators_gl3_so3(ana_gl3_so3):
    report = identify_generators(ana_gl3_so3)
    assert [(d, l) for d, _, l in report.generators] == [(1, "y1"), (5, "y3")]
    assert report.presentation == "exterior-algebra"


def test_identify_generators_gl2_so2(ana_gl2_so2):
    report = identify_generators(ana_gl2_so2)
    assert [(d, l) for d, _, l in report.generators] == [(1, "y1"), (2, "y2")]
    assert report.presentation == "exterior-algebra"


def test_identify_generators_gl1_zero():
    report = identify_generators(zero_subalgebra(builtin("gl", 1)))
    assert [(d, l) for d, _, l in report.generators] == [(1, "y1")]
    assert report.presentation == "exterior-algebra"


def test_identify_generators_honest_mismatch():
    # H of heisenberg(3) is not a free exterior algebra on its generators
    report = identify_generators(zero_subalgebra(builtin("heisenberg", 3)))
    assert isinstance(report, GeneratorReport)
    assert report.presentation == "mismatch"


def test_y1_cup_y3_spans_top_degree_of_gl3_so3(ana_gl3_so3):
    space = ana_gl3_so3.relative_cohomology
    y1 = (1, [Fraction(1)])
    y3 = (5, [Fraction(1)])
    degree, coords = cup_product(space, y1, y3)
    assert degree == 6
    assert any(coords)  # spans the one-dimensional degree 6
