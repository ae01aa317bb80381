"""Start-up and exit cost of the CLI, and the value semantics of the plain records.

Every CLI command is a fresh process, so what ``import liecoh.cli`` loads,
and what the interpreter tears down at exit, is paid on every command.  The
records are plain classes, not dataclasses; ``hashlib`` is imported only
where a file input is hashed; argv is read from the CLI's own option table,
not by argparse (which loads ``gettext`` and ``locale``); and a command ends
with ``os._exit`` once its report is flushed.  These tests pin all of that,
that a command's process still gives its exit code and complete outputs, and
that the records still construct, compare and hash as they did as
dataclasses.
"""

import hashlib
import json
import os
import pstats
import subprocess
import sys
from fractions import Fraction

import pytest
from oracles import identity_morphism

from liecoh import builtin, subalgebra
from liecoh.cli import main
from liecoh.cohomology import ce_complex
from liecoh.errors import AntisymmetryViolation, JacobiViolation
from liecoh.liealg import (
    LieAlgebra,
    algebra_from_json,
    algebra_to_json,
    so_in_gl_vectors,
)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

NOT_AT_IMPORT = {"argparse", "gettext", "locale", "dataclasses", "hashlib"}
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import liecoh.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def liecoh(*argv, **kwargs):
    """Run ``python -m liecoh`` in a process of its own."""
    return subprocess.run([sys.executable, "-m", "liecoh", *argv], env=_env(),
                          capture_output=True, text=True, timeout=120, **kwargs)


def test_cli_import_loads_neither_dataclasses_nor_hashlib():
    """Nor argparse, gettext or locale (-S: site may load some of them first)."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE], env=_env(), capture_output=True, text=True,
        check=True,
    ).stdout
    added = set(json.loads(out))
    assert "liecoh.cli" in added
    # the traced benchmark wraps only modules that the import has loaded
    assert {"liecoh.koszul", "liecoh.relative", "liecoh.classes"} <= added
    assert not added & NOT_AT_IMPORT, sorted(added & NOT_AT_IMPORT)


def test_process_gives_exit_codes_0_1_and_2(tmp_path):
    bad = tmp_path / "antisymmetry.json"
    bad.write_text(json.dumps({"dim": 2, "brackets": [[0, 1, 0, "1"], [1, 0, 0, "1"]]}))
    for argv, code in [
        (["validate", "--builtin", "so:3"], 0),
        (["validate", "--builtin", "nope:3"], 1),
        (["validate", "--bogus"], 1),
        (["validate", "--file", str(bad)], 2),
    ]:
        proc = liecoh(*argv)
        assert proc.returncode == code, (argv, proc.stderr)
        json.loads(proc.stdout)
        assert "Traceback" not in proc.stderr
    proc = liecoh("betti", "--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: liecoh betti")


def test_piped_report_and_export_file_are_complete(tmp_path):
    proc = liecoh("betti", "--builtin", "so:6", "--representatives")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    betti = {"0": 1, "3": 1, "5": 1, "7": 1, "8": 1, "10": 1, "12": 1, "15": 1}
    assert result["betti"] == betti
    assert {k: len(v) for k, v in result["representatives"].items()} == betti
    path = tmp_path / "so6.json"
    proc = liecoh("export", "--builtin", "so:6", "-o", str(path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == {"path": str(path), "dim": 15}
    assert path.read_text() == json.dumps(algebra_to_json(builtin("so", 6)), indent=2) + "\n"


def test_process_skips_teardown_unless_observed(tmp_path):
    """An exit handler that is not liecoh's shows whether the interpreter tore
    down; under a profile function (cProfile, coverage) it must."""
    probe = (
        "import atexit, sys\n"
        "atexit.register(print, 'teardown', file=sys.stderr)\n"
        "if sys.argv[1] == 'profiled':\n"
        "    sys.setprofile(lambda *args: None)\n"
        "sys.argv[1:] = ['validate', '--builtin', 'so:3']\n"
        "from liecoh.cli import console\n"
        "console()\n"
    )
    for mode, teardown in (("plain", False), ("profiled", True)):
        proc = subprocess.run([sys.executable, "-c", probe, mode], env=_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["valid"] is True
        assert ("teardown" in proc.stderr) is teardown, mode
    stats = tmp_path / "betti.prof"
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(stats), "-m", "liecoh", "betti",
         "--builtin", "so:3"], env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["betti"] == {"0": 1, "3": 1}
    assert pstats.Stats(str(stats)).total_calls > 0


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
