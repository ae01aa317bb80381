"""Every function in ``src/liecoh`` is run by some CLI command.

``never_entered()`` writes a few input files, runs a fixed list of argvs
through ``liecoh.cli.main`` in one process under ``sys.setprofile``, and
returns the functions of ``src/liecoh`` (nested functions and lambdas
included) whose code was never entered.  The argvs cover every command, its
file inputs, ``--relative-file``, ``export -o``, a morphism file, and
malformed inputs that build each violation and error record.  The test runs
the sweep in a fresh interpreter, so that no cache warmed by another test can
hide a function.  Run this file as a script to print the never-entered list:

    PYTHONPATH=src python tests/test_reachability.py
"""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

# Never entered by the sweep, with the reason each may stay.
ALLOWED = {
    "cli:console": "runs only as the process entry point; covered by test_startup.py",
    "cli:_observed": "runs only inside console(); covered by test_startup.py",
    "linalg:kernel_backend": "the benchmark's environment probe calls it",
    "linalg:Matrix.__hash__": "refuses hashing, which no command attempts",
    "linalg:Matrix.__repr__": "for debugging and test failure messages",
    "liealg:LieAlgebra.__eq__": "value semantics of a record; test_startup.py",
    "liealg:SubalgebraPair.__eq__": "value semantics of a record; test_startup.py",
    "liealg:SubalgebraPair._key": "read only by SubalgebraPair.__eq__",
    "liealg:PairMorphism.__eq__": "value semantics of a record; test_startup.py",
    "errors:AntisymmetryViolation.__eq__": "value semantics of a record; test_startup.py",
    "errors:AntisymmetryViolation.__hash__": "value semantics of a record; test_startup.py",
    "errors:AntisymmetryViolation._key": "read only by __eq__ and __hash__",
    "errors:JacobiViolation.__eq__": "value semantics of a record; test_startup.py",
    "errors:JacobiViolation.__hash__": "value semantics of a record; test_startup.py",
    "errors:JacobiViolation._key": "read only by __eq__ and __hash__",
    # An exact arbiter failed: a bug, which no input can bring about.
    "errors:ChainMapViolation.__init__": "a Koszul chain map failed its check; test_koszul.py",
    "errors:NotAChainMap.__init__": "a chain map failed its check; test_cohomology.py",
    "errors:NotACocycle.__init__": "reduce was given a non-cocycle; test_cohomology.py",
}

GL3_SO3 = [
    [0, 1, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, -1, 0],
]
BOREL_GL2 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
SO3 = {"dim": 3, "brackets": [[0, 1, 2, "-1"], [0, 2, 1, "1"], [1, 2, 0, "-1"]]}
ABELIAN1 = {"dim": 1, "brackets": []}
FILES = {
    "so3.json": SO3,
    "abelian1.json": ABELIAN1,
    "antisymmetry.json": {"dim": 2, "brackets": [[0, 1, 0, "1"], [1, 0, 0, "1"]]},
    "jacobi.json": {"dim": 3, "brackets": [[0, 1, 2, "1"], [1, 2, 0, "1"], [2, 0, 0, "1"]]},
    "gl3_so3.json": {"vectors": GL3_SO3},
    "borel.json": {"vectors": BOREL_GL2},
    "dependent.json": {"vectors": [[0, 1, -1, 0], [0, 2, -2, 0]]},
    "open.json": {"vectors": [[0, 1, 0, 0], [0, 0, 1, 0]]},
    "identity.json": {
        "source": {"builtin": "gl:2", "sub": "so:2"},
        "target": {"builtin": "gl:2", "sub": "so:2"},
        "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    },
    "so3_into_so4.json": {
        "source": {"file": "so3.json", "sub": "zero"},
        "target": {"builtin": "so:4", "sub_file": "so3_in_so4.json"},
        "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]],
    },
    "so3_in_so4.json": {"vectors": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]},
    "not_homomorphism.json": {
        "source": {"builtin": "so:3", "sub": "zero"},
        "target": {"builtin": "so:3", "sub": "zero"},
        "matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
    },
    "not_preserved.json": {
        "source": {"builtin": "gl:2", "sub": "so:2"},
        "target": {"builtin": "gl:2", "sub": "zero"},
        "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    },
}

ARGVS = [
    ["--help"],
    ["betti", "--help"],
    ["validate", "--builtin", "sl:2"],
    ["validate", "--file", "so3.json"],
    ["validate", "--file", "antisymmetry.json"],
    ["validate", "--file", "jacobi.json"],
    ["validate", "--builtin", "nope:3"],
    ["validate", "--builtin", "so:x"],
    ["validate", "--bogus"],
    ["frobnicate"],
    ["export", "--builtin", "heisenberg:3"],
    ["export", "--file", "so3.json", "-o", "out.json"],
    ["export", "--builtin", "so:3", "-o", os.path.join("missing", "out.json")],
    ["betti", "--builtin", "so:3", "--representatives"],
    ["betti", "--builtin", "abelian:2", "--representatives"],
    ["betti", "--file", "so3.json", "--representatives"],
    ["betti", "--builtin", "gl:2", "--relative", "so:2", "--representatives"],
    ["betti", "--builtin", "gl:3", "--relative-file", "gl3_so3.json", "--representatives"],
    ["relative-betti", "--builtin", "so:4", "--relative", "so:3"],
    ["relative-betti", "--builtin", "so:3"],
    ["koszul", "--builtin", "gl:2", "--sub", "so:2", "--kernel", "--matrix", "--factor-check"],
    ["koszul", "--builtin", "gl:3", "--sub-file", "gl3_so3.json", "--kernel"],
    ["koszul", "--builtin", "gl:2", "--sub-file", "dependent.json"],
    ["koszul", "--builtin", "gl:2", "--sub-file", "open.json"],
    ["ncz", "--builtin", "so:4", "--sub", "so:3"],
    ["ncz", "--builtin", "gl:2", "--sub", "so:2"],
    ["reductive", "--builtin", "so:4", "--sub", "so:3"],
    ["reductive", "--builtin", "gl:2", "--sub-file", "borel.json"],
    ["reductive", "--builtin", "abelian:2", "--sub", "zero"],
    ["classes", "--builtin", "gl:3", "--sub", "so:3"],
    ["classes", "--builtin", "heisenberg:3", "--sub", "zero"],
    ["functoriality"],
    ["functoriality", "--morphism", "identity.json"],
    ["functoriality", "--morphism", "so3_into_so4.json"],
    ["functoriality", "--morphism", "not_homomorphism.json"],
    ["functoriality", "--morphism", "not_preserved.json"],
    ["direct-product-check", "--left-builtin", "so:3", "--right-builtin", "abelian:1"],
    ["direct-product-check", "--left-file", "so3.json", "--right-file", "abelian1.json"],
]


def _functions(package_dir):
    """Every function of the package's source, by ``module:qualname``, as
    (file, first line, name); a lambda's key carries its line."""
    out = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            # function code has its own locals; a class body runs at import
            if not const.co_flags & inspect.CO_NEWLOCALS:
                walk(const, module, f"{prefix}{const.co_name}.")
                continue
            qualname = prefix + const.co_name
            # comprehensions and generator expressions run with their function
            if not const.co_name.startswith("<") or const.co_name == "<lambda>":
                key = f"{module}:{qualname}" + (f"@{const.co_firstlineno}" if const.co_name == "<lambda>" else "")
                out[key] = (const.co_filename, const.co_firstlineno, const.co_name)
            walk(const, module, f"{qualname}.<locals>.")

    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            path = os.path.join(package_dir, name)
            with open(path, encoding="utf-8") as fh:
                walk(compile(fh.read(), path, "exec"), name[:-3], "")
    return out


def never_entered():
    """The ``module:qualname`` of every function of the package that the
    argvs above never enter, sorted."""
    import liecoh.cli

    package_dir = os.path.dirname(os.path.realpath(liecoh.cli.__file__))
    functions = _functions(package_dir)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        for name, data in FILES.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        os.chdir(workdir)
        sink = io.StringIO()
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes = [liecoh.cli.main(argv) for argv in ARGVS]
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
    if any(code == 3 for code in codes):
        raise AssertionError(f"an argv of the sweep ended with exit 3: {codes}")
    entered = {(os.path.realpath(path), line, name) for path, line, name in entered}
    return sorted(key for key, site in functions.items() if site not in entered)


def test_every_function_is_run_by_a_command():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    ).stdout
    missed = out.split()
    assert sorted(set(missed) - set(ALLOWED)) == []
    # an allowlist entry that a command now enters is stale
    assert sorted(set(ALLOWED) - set(missed)) == []


if __name__ == "__main__":
    print("\n".join(never_entered()))
