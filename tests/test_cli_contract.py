"""Property test of the CLI contract on malformed input.

Whatever the argv and whatever the bytes of the input file, ``cli.main``
writes exactly one JSON document to stdout, exits 0, 1 or 2, and raises
nothing (so no traceback).  Exit 3 is reserved for a broken internal
invariant, which no input may provoke.

The inputs are near misses of valid ones, so that the examples reach the
computations and not only the parser: well-formed commands on builtins and
on algebra, subalgebra and morphism files that are valid, rescaled (still a
Lie algebra), damaged in one field, or arbitrary JSON or bytes.  Every
algebra has dimension at most 4, so each example runs in milliseconds, and
the examples are derandomized, so the suite is reproducible and bounded in
time.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liecoh import builtin
from liecoh.cli import main
from liecoh.liealg import algebra_to_json
from liecoh.rationals import format_rational

FILE = "<file>"  # stands for the path of the example's input file

BUILTINS = ["gl:1", "gl:2", "sl:2", "so:2", "so:3", "heisenberg:3", "abelian:0", "abelian:4"]
BAD_BUILTINS = ["so:-1", "heisenberg:4", "gl:x", "gl", "nope:1", ""]
SUBS = ["zero", "so:1", "so:2", "so:3"]
BAD_SUBS = ["so:0", "so:-1", "so:x", "gl:2", ""]
SWITCHES = ["--representatives", "--matrix", "--kernel", "--factor-check"]

# Scalars as they appear in JSON documents: rationals as strings, and the
# values that must be refused (bools, floats, bad strings, null).
scalars = st.one_of(
    st.integers(-2, 4),
    st.sampled_from(["1", "-1", "1/2", "0", "2/-4", "1/0", "x", "", " 3 ", "1.5", "1e5000"]),
    st.none(),
    st.booleans(),
    st.floats(),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "basis", "brackets", "vectors", "x"]), inner, max_size=3),
    max_leaves=8,
)


def _rescaled(doc, factor):
    """c -> factor * c keeps the Jacobi identity (0 makes the algebra abelian)."""
    brackets = [[i, j, k, str(int(v) * factor)] for i, j, k, v in doc["brackets"]]
    return dict(doc, brackets=brackets)


valid_algebras = st.sampled_from([
    algebra_to_json(builtin(name, n))
    for name, n in (("gl", 2), ("sl", 2), ("so", 3), ("heisenberg", 3), ("abelian", 2))
])
bracket_entries = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4), st.integers(-1, 4), scalars).map(list),
    values,
)
algebra_documents = st.one_of(
    valid_algebras,
    st.builds(_rescaled, valid_algebras, st.integers(-2, 2)),
    # one field damaged, or dropped (None drops it)
    st.builds(
        lambda doc, key, value: {k: v for k, v in dict(doc, **{key: value}).items() if v is not None},
        valid_algebras, st.sampled_from(["dim", "basis", "brackets"]), values,
    ),
    # one bracket entry added
    st.builds(lambda doc, entry: dict(doc, brackets=doc["brackets"] + [entry]), valid_algebras, bracket_entries),
    st.fixed_dictionaries(
        {"dim": st.one_of(st.integers(-1, 4), scalars)},
        optional={"basis": values, "brackets": st.lists(bracket_entries, max_size=5)},
    ),
)
vector_documents = st.fixed_dictionaries(
    {"vectors": st.one_of(st.lists(st.lists(st.integers(-1, 1), min_size=3, max_size=4), max_size=3), values)}
)
side = st.fixed_dictionaries(
    {"builtin": st.sampled_from(BUILTINS[:6]), "sub": st.sampled_from(SUBS)},
    optional={"file": values, "sub_file": values},
)
morphism_documents = st.fixed_dictionaries(
    {
        "source": side,
        "target": side,
        "matrix": st.one_of(
            st.integers(1, 4).map(lambda n: [[int(i == j) for j in range(n)] for i in range(n)]),
            values,
        ),
    }
)
file_bytes = st.one_of(
    st.one_of(algebra_documents, vector_documents, morphism_documents, values).map(
        lambda doc: json.dumps(doc).encode("utf-8")
    ),
    st.binary(max_size=12),
)

algebra_args = st.one_of(
    st.just(["--file", FILE]),
    st.sampled_from(BUILTINS + BAD_BUILTINS).map(lambda spec: ["--builtin", spec]),
)
sub_args = st.one_of(
    st.just(["--sub-file", FILE]),
    st.sampled_from(SUBS + BAD_SUBS).map(lambda spec: ["--sub", spec]),
    st.just([]),
)


def _side_args(prefix):
    return st.one_of(
        st.just([f"--{prefix}-file", FILE]),
        st.sampled_from(BUILTINS + BAD_BUILTINS).map(lambda spec: [f"--{prefix}-builtin", spec]),
    )


def _relative(args):
    return [a.replace("--sub", "--relative") for a in args]


well_formed_argv = st.one_of(
    st.builds(lambda c, a: [c] + a, st.sampled_from(["validate", "export"]), algebra_args),
    st.builds(
        lambda c, a, s, rep: [c] + a + _relative(s) + rep,
        st.sampled_from(["betti", "relative-betti"]), algebra_args, sub_args,
        st.sampled_from([[], ["--representatives"]]),
    ),
    st.builds(
        lambda c, a, s, sw: [c] + a + s + sw,
        st.sampled_from(["koszul", "ncz", "reductive", "classes"]), algebra_args, sub_args,
        st.lists(st.sampled_from(SWITCHES[1:]), unique=True),
    ),
    st.just(["functoriality", "--morphism", FILE]),
    st.builds(lambda l, r: ["direct-product-check"] + l + r, _side_args("left"), _side_args("right")),
)
tokens = st.one_of(
    st.sampled_from(BUILTINS + BAD_BUILTINS + SUBS + SWITCHES + [FILE, "--file", "--sub", "-o", "--threads"]),
    # free text, without the help flags: help is text on request, not a report
    st.text(alphabet="-abhoz:01/", max_size=4).filter(
        lambda t: not (t.startswith("-h") or t.startswith("--h"))
    ),
)
argvs = st.one_of(
    well_formed_argv,
    st.builds(lambda argv, extra: argv + extra, well_formed_argv, st.lists(tokens, min_size=1, max_size=2)),
    st.lists(tokens, max_size=6),
)


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=file_bytes, argv=argvs)
def test_one_json_document_and_exit_0_1_or_2(raw, argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        argv = [path if t == FILE else t for t in argv]
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)  # an -o in argv writes here
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    json.loads(out.getvalue())  # exactly one document: trailing data would raise
    assert "Traceback" not in err.getvalue()


def test_residual_past_the_int_to_str_limit_is_printed_exactly():
    """c = 10^-4001 on [e0, e1] and [e0, e2]: the Jacobi residual c^2 has a
    denominator of 8003 digits, past Python's int-to-str limit of 4300."""
    c = "0." + "0" * 4000 + "1"
    doc = {"dim": 3, "brackets": [[0, 1, 0, c], [0, 2, 1, c]]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["validate", "--file", path])
    assert code == 2
    assert "Traceback" not in err.getvalue()
    report = json.loads(out.getvalue())
    assert report["result"]["violations"] == [
        {"type": "jacobi", "indices": [0, 1, 2, 1], "residual": "1/1" + "0" * 8002}
    ]


def test_format_rational_past_the_digit_limit():
    for digits in (999, 1000, 1001, 4300, 4301, 9000):
        assert format_rational(10 ** digits) == "1" + "0" * digits
        assert format_rational(-(10 ** digits - 1)) == "-" + "9" * digits
        assert format_rational(Fraction(-7, 10 ** digits)) == "-7/1" + "0" * digits
    # a chunk boundary inside the number keeps its zeros
    assert format_rational(3 * 10 ** 2500 + 42) == "3" + "0" * 2498 + "42"


def test_closed_stdout_exits_1_without_a_traceback():
    """A reader that closes stdout before the report is written: exit 1 and
    one line on stderr, no traceback."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "liecoh", "betti", "--builtin", "so:5", "--representatives"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err
    assert err.strip() == "error: stdout was closed before the report was written"
