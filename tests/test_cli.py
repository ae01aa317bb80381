import json
import os
import subprocess
import sys

import pytest

from liecoh.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_builtin(capsys):
    code, report = run_cli(capsys, "validate", "--builtin", "gl:3")
    assert code == 0
    assert report["result"] == {"valid": True, "dim": 9, "basis": report["result"]["basis"]}
    assert report["inputs"]["algebra"] == "builtin:gl:3"


def test_validate_bad_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "brackets": [[0, 1, 0, "1"], [1, 0, 0, "1"]]}))
    code, report = run_cli(capsys, "validate", "--file", str(bad))
    assert code == 2
    assert report["result"]["valid"] is False
    v = report["result"]["violations"][0]
    assert v["type"] == "antisymmetry"
    assert v["indices"] == [0, 1, 0]
    assert v["residual"] == "2"


def test_validate_jacobi_violation(capsys, tmp_path):
    bad = tmp_path / "jac.json"
    bad.write_text(
        json.dumps(
            {"dim": 3, "brackets": [[0, 1, 2, "1"], [1, 2, 0, "1"], [2, 0, 0, "1"]]}
        )
    )
    code, report = run_cli(capsys, "validate", "--file", str(bad))
    assert code == 2
    assert report["result"]["violations"][0]["type"] == "jacobi"


def test_export_round_trip(capsys, tmp_path):
    path = tmp_path / "heis3.json"
    code, report = run_cli(capsys, "export", "--builtin", "heisenberg:3", "-o", str(path))
    assert code == 0
    code, report = run_cli(capsys, "validate", "--file", str(path))
    assert code == 0
    assert report["result"]["valid"] is True
    # computations agree between the builtin and the exported file
    code, by_builtin = run_cli(capsys, "betti", "--builtin", "heisenberg:3")
    code, by_file = run_cli(capsys, "betti", "--file", str(path))
    assert by_builtin["result"] == by_file["result"]


def test_exported_so6_gives_the_builtin_report(capsys, tmp_path):
    """A file carries no grading: the sign block is found from the brackets,
    so the report, representatives included, is the builtin's."""
    path = tmp_path / "so6.json"
    code, _ = run_cli(capsys, "export", "--builtin", "so:6", "-o", str(path))
    assert code == 0
    _, by_builtin = run_cli(capsys, "betti", "--builtin", "so:6", "--representatives")
    _, by_file = run_cli(capsys, "betti", "--file", str(path), "--representatives")
    assert json.dumps(by_file["result"]) == json.dumps(by_builtin["result"])


def test_export_to_stdout_is_bare_algebra(capsys):
    code, payload = run_cli(capsys, "export", "--builtin", "so:3")
    assert code == 0
    assert payload["dim"] == 3
    assert payload["basis"] == ["A12", "A13", "A23"]


def test_betti_abelian(capsys):
    code, report = run_cli(capsys, "betti", "--builtin", "abelian:2")
    assert code == 0
    assert report["result"]["betti"] == {"0": 1, "1": 2, "2": 1}


def test_betti_relative_gl3_so3(capsys):
    code, report = run_cli(capsys, "betti", "--builtin", "gl:3", "--relative", "so:3")
    assert code == 0
    assert report["result"]["betti"] == {"0": 1, "1": 1, "5": 1, "6": 1}


def test_betti_sl2(capsys):
    code, report = run_cli(capsys, "betti", "--builtin", "sl:2")
    assert code == 0
    assert report["result"]["betti"] == {"0": 1, "3": 1}


def test_relative_betti_alias_requires_subalgebra(capsys):
    code, report = run_cli(capsys, "relative-betti", "--builtin", "gl:2")
    assert code == 1
    code, report = run_cli(
        capsys, "relative-betti", "--builtin", "gl:2", "--relative", "so:2"
    )
    assert code == 0
    assert report["result"]["betti"] == {"0": 1, "1": 1, "2": 1, "3": 1}


def test_koszul_injective_and_not(capsys):
    code, report = run_cli(capsys, "koszul", "--builtin", "gl:3", "--sub", "so:3")
    assert code == 0
    assert report["result"]["injective"] is True
    code, report = run_cli(
        capsys, "koszul", "--builtin", "gl:2", "--sub", "so:2", "--kernel"
    )
    assert code == 0
    assert report["result"]["injective"] is False
    assert [k["degree"] for k in report["result"]["kernel"]] == [2, 3]


def test_koszul_zero_sub(capsys):
    code, report = run_cli(capsys, "koszul", "--builtin", "gl:2", "--sub", "zero")
    assert code == 0
    assert report["result"]["injective"] is True


def test_koszul_matrix_and_factor_check(capsys):
    code, report = run_cli(
        capsys,
        "koszul", "--builtin", "gl:2", "--sub", "so:2", "--matrix", "--factor-check",
    )
    assert code == 0
    assert report["result"]["factorization"]["holds"] is True
    assert report["result"]["map"]["0"] == [["1"]]
    assert report["result"]["map"]["1"] != [["0"]]


def test_ncz_commands(capsys):
    code, report = run_cli(capsys, "ncz", "--builtin", "so:5", "--sub", "so:3")
    assert code == 0
    assert report["result"]["ncz"] is True
    code, report = run_cli(capsys, "ncz", "--builtin", "gl:2", "--sub", "so:2")
    assert code == 0
    assert report["result"]["ncz"] is False


def test_reductive_command(capsys):
    code, report = run_cli(capsys, "reductive", "--builtin", "gl:3", "--sub", "so:3")
    assert code == 0
    assert report["result"]["reductive"] is True
    assert report["result"]["witness"] == "invariant-complement"
    assert len(report["result"]["complement"]) == 6


def test_classes_command(capsys):
    code, report = run_cli(capsys, "classes", "--builtin", "gl:2", "--sub", "so:2")
    assert code == 0
    gens = report["result"]["generators"]
    assert [(g["degree"], g["label"]) for g in gens] == [(1, "y1"), (2, "y2")]
    assert report["result"]["presentation"] == "exterior-algebra"


def test_functoriality_identity_morphism_file(capsys, tmp_path):
    morphism = {
        "source": {"builtin": "gl:2", "sub": "so:2"},
        "target": {"builtin": "gl:2", "sub": "so:2"},
        "matrix": [["1" if a == b else "0" for b in range(4)] for a in range(4)],
    }
    path = tmp_path / "id_gl2_pair.json"
    path.write_text(json.dumps(morphism))
    code, report = run_cli(capsys, "functoriality", "--morphism", str(path))
    assert code == 0
    assert report["result"]["commutes"] is True


def test_functoriality_command(capsys, tmp_path):
    morphism = {
        "source": {"builtin": "gl:2", "sub": "so:2"},
        "target": {"builtin": "gl:3", "sub": "so:3"},
        "matrix": [
            ["1" if (a, b) in {(0, 0), (1, 1), (3, 2), (4, 3)} else "0" for b in range(4)]
            for a in range(9)
        ],
    }
    path = tmp_path / "block.json"
    path.write_text(json.dumps(morphism))
    code, report = run_cli(capsys, "functoriality", "--morphism", str(path))
    assert code == 0
    assert report["result"]["commutes"] is True


def test_direct_product_command(capsys):
    code, report = run_cli(
        capsys,
        "direct-product-check",
        "--left-builtin", "so:3",
        "--right-builtin", "abelian:2",
    )
    assert code == 0
    assert report["result"]["injective"] is True
    assert report["result"]["formula_holds"] is True
    assert report["result"]["kunneth_holds"] is True


def test_unknown_builtin_exit_1(capsys):
    code, report = run_cli(capsys, "betti", "--builtin", "sp:4")
    assert code == 1
    assert report["error"]["type"] == "UnknownBuiltin"


def test_missing_algebra_exit_1(capsys):
    code, report = run_cli(capsys, "betti")
    assert code == 1


def test_reports_are_deterministic_except_timing(capsys):
    reports = []
    for _ in range(2):
        code, report = run_cli(capsys, "koszul", "--builtin", "gl:2", "--sub", "so:2",
                               "--matrix", "--kernel")
        assert code == 0
        report.pop("timing_seconds")
        reports.append(json.dumps(report, sort_keys=False))
    assert reports[0] == reports[1]


def test_threads_flag_rejected_and_env_ignored(capsys, monkeypatch):
    # --threads is an unknown flag like any other; KOSZUL_THREADS changes no result
    args = ("betti", "--builtin", "gl:3", "--relative", "so:3")
    code, single = run_cli(capsys, *args)
    assert code == 0
    for threads in ("2", "abc"):
        code, report = run_cli(capsys, *args, "--threads", threads)
        assert (code, report["error"]["type"]) == (1, "InputError")
        assert "--threads" in report["error"]["message"]
    product = ("direct-product-check", "--left-builtin", "so:3", "--right-builtin", "abelian:2")
    code, plain = run_cli(capsys, *product)
    assert code == 0
    assert run_cli(capsys, *product, "--threads", "2")[0] == 1
    for env in ("4", "abc"):
        monkeypatch.setenv("KOSZUL_THREADS", env)
        code, report = run_cli(capsys, *args)
        assert (code, report["result"]) == (0, single["result"])
        code, report = run_cli(capsys, *product)
        assert (code, report["result"]) == (0, plain["result"])


def test_sub_file_input(capsys, tmp_path):
    # the center of heisenberg(3) from a vectors file
    path = tmp_path / "center.json"
    path.write_text(json.dumps({"vectors": [["0", "0", "1"]]}))
    code, report = run_cli(
        capsys, "betti", "--builtin", "heisenberg:3", "--relative-file", str(path)
    )
    assert code == 0
    assert report["result"]["betti"] == {"0": 1, "1": 2, "2": 1}



SO6_BETTI = {"0": 1, "3": 1, "5": 1, "7": 1, "8": 1, "10": 1, "12": 1, "15": 1}
GL4_BETTI = {
    "0": 1, "1": 1, "3": 1, "4": 1, "5": 1, "6": 1, "7": 1, "8": 2,
    "9": 1, "10": 1, "11": 1, "12": 1, "13": 1, "15": 1, "16": 1,
}


def test_catalogue_so6_so5_is_the_five_sphere(capsys):
    """H(so(6), so(5)) is the cohomology of S^5 = SO(6)/SO(5), and its
    characteristic map is injective."""
    code, report = run_cli(capsys, "koszul", "--builtin", "so:6", "--sub", "so:5", "--kernel")
    assert code == 0
    result = report["result"]
    assert result["betti_source"] == {"0": 1, "5": 1}
    assert result["betti_target"] == SO6_BETTI
    assert result["injective"] is True and result["kernel"] == []


def sp4_in_gl4_vectors():
    """sp(4) = {X : X^T J + J X = 0}, J = [[0, I], [-I, 0]] in 2 x 2 blocks:
    the matrices [[A, B], [C, -A^T]] with B and C symmetric, as integer
    vectors in the row-major E_ab basis of gl(4)."""
    def unit(*cells):
        x = [[0] * 4 for _ in range(4)]
        for a, b, c in cells:
            x[a][b] += c
        return x

    mats = [unit((a, b, 1), (2 + b, 2 + a, -1)) for a in range(2) for b in range(2)]
    for a, b in ((0, 0), (0, 1), (1, 1)):
        mats.append(unit((a, 2 + b, 1), (b, 2 + a, 1)) if a != b else unit((a, 2 + a, 1)))
        mats.append(unit((2 + a, b, 1), (2 + b, a, 1)) if a != b else unit((2 + a, a, 1)))
    j = unit((0, 2, 1), (1, 3, 1), (2, 0, -1), (3, 1, -1))
    for x in mats:
        xt_j = [[sum(x[m][r] * j[m][c] for m in range(4)) for c in range(4)] for r in range(4)]
        j_x = [[sum(j[r][m] * x[m][c] for m in range(4)) for c in range(4)] for r in range(4)]
        assert all(xt_j[r][c] + j_x[r][c] == 0 for r in range(4) for c in range(4))
    return [[x[a][b] for a in range(4) for b in range(4)] for x in mats]


def test_catalogue_gl4_sp4_from_a_sub_file(capsys, tmp_path):
    """H(gl(4), sp(4)) = Lambda(y1, y5), the rational cohomology of
    U(4)/Sp(2), that of S^1 x S^5, maps injectively into H(gl(4))."""
    path = tmp_path / "sp4.json"
    path.write_text(json.dumps({"vectors": [[str(c) for c in v] for v in sp4_in_gl4_vectors()]}))
    code, report = run_cli(capsys, "koszul", "--builtin", "gl:4", "--sub-file", str(path), "--kernel")
    assert code == 0
    result = report["result"]
    assert result["betti_source"] == {"0": 1, "1": 1, "5": 1, "6": 1}
    assert result["betti_target"] == GL4_BETTI
    assert result["injective"] is True and result["kernel"] == []


def test_export_to_unwritable_path_exit_1(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, report = run_cli(capsys, "export", "--builtin", "so:3", "-o", str(target))
    assert (code, report["error"]["type"]) == (1, "InputError")


def test_sub_file_with_non_list_vector_exit_1(capsys, tmp_path):
    path = tmp_path / "bad_vectors.json"
    path.write_text(json.dumps({"vectors": [1]}))
    code, report = run_cli(
        capsys, "betti", "--builtin", "heisenberg:3", "--relative-file", str(path)
    )
    assert (code, report["error"]["type"]) == (1, "InputError")


def test_morphism_file_not_an_object_exit_1(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    code, report = run_cli(capsys, "functoriality", "--morphism", str(path))
    assert (code, report["error"]["type"]) == (1, "InputError")


def test_morphism_file_with_ragged_matrix_exit_1(capsys, tmp_path):
    morphism = {
        "source": {"builtin": "gl:2", "sub": "so:2"},
        "target": {"builtin": "gl:2", "sub": "so:2"},
        "matrix": [["1"], ["0", "1", "0", "0"], ["0"], ["0"]],
    }
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(morphism))
    code, report = run_cli(capsys, "functoriality", "--morphism", str(path))
    assert (code, report["error"]["type"]) == (1, "InputError")


def test_bool_dim_rejected_exit_1(capsys, tmp_path):
    path = tmp_path / "bool_dim.json"
    path.write_text(json.dumps({"dim": True}))
    code, report = run_cli(capsys, "validate", "--file", str(path))
    assert (code, report["error"]["type"]) == (1, "InputError")


def test_negative_so_sub_rejected_exit_1(capsys):
    code, report = run_cli(capsys, "betti", "--builtin", "so:3", "--relative", "so:-1")
    assert (code, report["error"]["type"]) == (1, "InputError")


def run_cli_error(capsys, *argv):
    """A rejected input: exit 1, one JSON error document on stdout, no traceback."""
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert "Traceback" not in captured.err
    return code, report


BAD_BRACKET_ENTRIES = [
    ["a", 1, 1, "1"],
    [None, 1, 1, "1"],
    [[0], 1, 1, "1"],
    [0.5, 1, 1, "1"],
    [1.9, 0, 1, "1"],
    [True, 1, 1, "1"],
    ["0", "1", "1", "1"],
    [0, 1, 1, True],
    [0, 1, 1, "1e5000"],
]


@pytest.mark.parametrize("command", ["validate", "betti"])
@pytest.mark.parametrize("entry", BAD_BRACKET_ENTRIES, ids=json.dumps)
def test_bad_bracket_entry_rejected_exit_1(capsys, tmp_path, command, entry):
    path = tmp_path / "bad_bracket.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [entry]}))
    code, report = run_cli_error(capsys, command, "--file", str(path))
    assert code == 1
    assert report["error"]["type"] in ("InputError", "ParseError")


def test_bool_in_sub_vector_rejected_exit_1(capsys, tmp_path):
    path = tmp_path / "bool_vector.json"
    path.write_text(json.dumps({"vectors": [[0, 0, True]]}))
    code, report = run_cli_error(
        capsys, "betti", "--builtin", "heisenberg:3", "--relative-file", str(path)
    )
    assert (code, report["error"]["type"]) == (1, "ParseError")


def test_bool_in_morphism_matrix_rejected_exit_1(capsys, tmp_path):
    morphism = {
        "source": {"builtin": "gl:2", "sub": "so:2"},
        "target": {"builtin": "gl:2", "sub": "so:2"},
        "matrix": [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    }
    path = tmp_path / "bool_matrix.json"
    path.write_text(json.dumps(morphism))
    code, report = run_cli_error(capsys, "functoriality", "--morphism", str(path))
    assert (code, report["error"]["type"]) == (1, "ParseError")


BAD_ALGEBRA_DOCUMENTS = [
    {"dim": 2, "brackets": 5},
    {"dim": 2, "brackets": None},
    {"dim": 2, "basis": 5},
    {"dim": 2, "basis": "ab"},
    {"dim": 2, "basis": [None, {"x": 1}]},
    {"dim": 2, "basis": ["a"]},
]


@pytest.mark.parametrize("command", ["validate", "betti"])
@pytest.mark.parametrize("doc", BAD_ALGEBRA_DOCUMENTS, ids=json.dumps)
def test_bad_brackets_or_basis_rejected_exit_1(capsys, tmp_path, command, doc):
    path = tmp_path / "bad_algebra.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli_error(capsys, command, "--file", str(path))
    assert (code, report["error"]["type"]) == (1, "InputError")


@pytest.mark.parametrize("doc", [{"dim": 2}, {"dim": 2, "basis": None, "brackets": []}])
def test_absent_brackets_and_null_basis_accepted(capsys, tmp_path, doc):
    path = tmp_path / "abelian2.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "validate", "--file", str(path))
    assert code == 0
    assert report["result"] == {"valid": True, "dim": 2, "basis": ["e1", "e2"]}


@pytest.mark.parametrize("side", [
    {"file": 1}, {"file": True}, {"file": 2}, {"builtin": 3}, {"sub": 5, "builtin": "gl:2"},
    {"sub_file": ["x"], "builtin": "gl:2"}, {"builtin": "gl:2", "sub": "so:2", "file": 0},
], ids=json.dumps)
def test_morphism_side_that_is_not_a_string_exit_1(tmp_path, side):
    """A number in place of a file name would be opened as that file
    descriptor (1 is stdout): run in a process of its own."""
    morphism = {"source": dict({"builtin": "gl:2", "sub": "so:2"}, **side),
                "target": {"builtin": "gl:2", "sub": "so:2"}, "matrix": [[1]]}
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(morphism))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "liecoh", "functoriality", "--morphism", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "InputError" and error["message"].startswith("morphism source.")


def test_missing_input_names_the_flags_of_the_command(capsys, tmp_path):
    code, report = run_cli_error(capsys, "direct-product-check", "--right-builtin", "so:3")
    assert code == 1
    assert report["error"]["message"] == (
        "an algebra is required: --left-builtin name:n or --left-file path")
    code, report = run_cli_error(capsys, "direct-product-check", "--left-builtin", "so:3")
    assert "--right-builtin" in report["error"]["message"]
    code, report = run_cli_error(capsys, "betti", "--builtin", "so:3", "--relative", "zero",
                                 "--relative-file", "x.json")
    assert report["error"]["message"] == "give either --relative or --relative-file, not both"
    path = tmp_path / "morphism.json"
    for side, message in [
        ({"sub": "so:2"}, "an algebra is required: target.builtin name:n or target.file path"),
        ({"builtin": "gl:2"}, "a subalgebra is required: target.sub spec or target.sub_file path"),
    ]:
        path.write_text(json.dumps({"source": {"builtin": "gl:2", "sub": "so:2"},
                                    "target": side, "matrix": [[1]]}))
        code, report = run_cli_error(capsys, "functoriality", "--morphism", str(path))
        assert (code, report["error"]["message"]) == (1, message)


@pytest.mark.parametrize("argv", [
    ["validate", "--builtin", "gl:1_0"], ["validate", "--builtin", "gl:+3"],
    ["validate", "--builtin", "gl: 3"], ["validate", "--builtin", "gl:3 "],
    ["validate", "--builtin", "gl:３"], ["validate", "--builtin", "gl:٣"],
    ["validate", "--builtin", "gl:-"], ["validate", "--builtin", "gl:1" + "0" * 5000],
    ["betti", "--builtin", "gl:3", "--relative", "so:1_0"],
    ["betti", "--builtin", "gl:3", "--relative", "so:+2"],
    ["betti", "--builtin", "gl:3", "--relative", "so:٢"],
], ids=repr)
def test_parameters_must_be_ascii_decimal_integers(capsys, argv):
    code, report = run_cli_error(capsys, *argv)
    assert (code, report["error"]["type"]) == (1, "InputError")
    assert "parameter must be an integer" in report["error"]["message"]


def test_parameter_range_messages(capsys):
    for argv, message in [
        (["validate", "--builtin", "gl:-1"], "gl(n) needs n >= 1"),
        (["validate", "--builtin", "so:0"], "so(n) needs n >= 2"),
        (["betti", "--builtin", "gl:3", "--relative", "so:0"], "sub parameter must be at least 1: 'so:0'"),
        (["betti", "--builtin", "gl:3", "--relative", "so:-1"], "sub parameter must be at least 1: 'so:-1'"),
    ]:
        code, report = run_cli_error(capsys, *argv)
        assert (code, report["error"]["message"]) == (1, message)
    code, report = run_cli(capsys, "validate", "--builtin", "gl:03")
    assert (code, report["inputs"]["algebra"]) == (0, "builtin:gl:3")
