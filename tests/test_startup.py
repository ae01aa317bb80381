"""Start-up footprint of the CLI, and the value semantics of the plain records.

Every CLI command is a fresh process, so what ``import liecoh.cli`` loads is
paid on every command.  The records are plain classes, not dataclasses, and
``hashlib`` is imported only where a file input is hashed.  These tests pin
both, and pin that the records still construct, compare and hash as they did
as dataclasses.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from liecoh import builtin, subalgebra
from liecoh.cli import main
from liecoh.cohomology import ce_complex
from liecoh.errors import AntisymmetryViolation, JacobiViolation
from liecoh.exterior import Form
from liecoh.liealg import (
    LieAlgebra,
    algebra_from_json,
    algebra_to_json,
    identity_morphism,
    so_in_gl_vectors,
)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import liecoh.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_neither_dataclasses_nor_hashlib():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = set(json.loads(out))
    assert "liecoh.cli" in added
    # the traced benchmark wraps only modules that the import has loaded
    assert {"liecoh.koszul", "liecoh.relative", "liecoh.classes"} <= added
    assert not added & {"dataclasses", "hashlib"}, sorted(added & {"dataclasses", "hashlib"})


def test_file_inputs_keep_their_sha256_digest(capsys, tmp_path):
    raw = b'{"dim": 2, "brackets": [[0, 1, 1, "1"]]}\n'
    path = tmp_path / "b2.json"
    path.write_bytes(raw)
    assert main(["validate", "--file", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"]["algebra"] == "sha256:" + hashlib.sha256(raw).hexdigest()
    assert report["inputs"]["algebra"] == (
        "sha256:0dc9e951fa6a7cb519e84498319a607a1103c9a1dd237a5154c764d3c24fa273"
    )


def test_lie_algebras_compare_by_value_and_grade_from_their_brackets():
    """The grading is read off the structure constants, so an algebra and
    its round trip through a file are equal and graded alike."""
    algebras = [builtin("so", n) for n in range(2, 7)]
    algebras += [builtin("gl", 3), builtin("sl", 3), builtin("heisenberg", 5)]
    for g in algebras:
        from_file = algebra_from_json(algebra_to_json(g))
        assert g == from_file and not g != from_file
        assert g.grading.weights == from_file.grading.weights
        assert g.grading.parities == from_file.grading.parities
    so4 = builtin("so", 4)
    assert any(so4.grading.parities) and not any(builtin("gl", 3).grading.parities)
    assert so4 != builtin("gl", 2)
    assert LieAlgebra(1, ("x",), {}) != LieAlgebra(1, ("y",), {})
    with pytest.raises(TypeError):
        hash(so4)


def test_pairs_and_morphisms_compare_by_value():
    g = builtin("gl", 3)
    one, two = subalgebra(g, so_in_gl_vectors(3, 3)), subalgebra(g, so_in_gl_vectors(3, 3))
    assert one == two and identity_morphism(one) == identity_morphism(two)
    assert one != subalgebra(g, so_in_gl_vectors(2, 3))


def test_forms_normalize_then_compare():
    half = Form(3, 2, {(0, 1): Fraction(1, 2)})
    assert Form(3, 2, {(0, 1): "1/2", (1, 2): 0}) == half
    assert Form(3, 2, {(0, 1): "2/4"}).coeffs == {(0, 1): Fraction(1, 2)}
    assert Form(3, 2, {(0, 1): "1/3"}) != half
    assert Form(4, 2, {(0, 1): "1/2"}) != half
    assert half != "1/2"
    assert Form(3, 2).coeffs == {} and Form(3, 2, None) == Form(3, 2, {}) == Form(3, 2, {(0, 2): 0})


def test_violation_records_compare_and_hash_by_fields():
    a, b = AntisymmetryViolation(0, 1, 2, Fraction(2)), AntisymmetryViolation(0, 1, 2, Fraction(2))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != AntisymmetryViolation(0, 1, 2, Fraction(3))
    j, k = JacobiViolation(0, 1, 2, 1, Fraction(1)), JacobiViolation(0, 1, 2, 1, Fraction(1))
    assert j == k and hash(j) == hash(k) and len({j, k}) == 1
    assert j != JacobiViolation(0, 1, 2, 0, Fraction(1))
    assert AntisymmetryViolation(0, 1, 2, Fraction(1)) != JacobiViolation(0, 1, 2, 1, Fraction(1))


def test_other_records_keep_identity_equality():
    g = builtin("so", 3)
    first = ce_complex(g)
    assert first == first and first != ce_complex(g)
