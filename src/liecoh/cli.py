"""Command-line interface: exact cohomology reports as JSON documents.

Every command writes a single JSON report to stdout (diagnostics go to
stderr) and is byte-identical across runs for identical inputs, except for
the timing field.  Exit codes: 0 success, 1 input error, 2 mathematical
validation failure, 3 internal invariant violation.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
import types

# The computing modules load with the CLI, not inside the commands that use
# them: the benchmark's tracer wraps only the modules that this import has
# loaded (see the README on start-up cost).
from .classes import canonical_gl_so_pair, identify_generators
from .cohomology import CohomologySpace, ce_cohomology
from .errors import (
    InputError,
    InternalInvariantError,
    InvalidStructure,
    LiecohError,
    MathValidationError,
)
from .exterior import Form, form_to_json
from .koszul import (
    PairAnalysis,
    delta_cohom,
    direct_product_check,
    factorization_check,
    functoriality_check,
    invariant_complement,
    ncz_report,
)
from .liealg import (
    algebra_from_json,
    algebra_to_json,
    builtin,
    pair_morphism,
    so_in_gl_vectors,
    so_in_so_vectors,
    subalgebra,
    vectors_from_json,
    zero_subalgebra,
)
from .rationals import format_rational


def _read_json(path):
    import hashlib  # only file inputs are hashed; builtins never load OpenSSL

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (ValueError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _parse_int(param, what, spec):
    """An optional '-' and ASCII digits; int() also takes '1_0', '+3', ' 3' and non-ASCII digits."""
    digits = param[1:] if param.startswith("-") else param
    if digits.isascii() and digits.isdigit():
        try:
            return int(param)
        except ValueError:  # past the int-to-str digit limit
            pass
    raise InputError(f"{what} parameter must be an integer: {spec!r}")


def _parse_builtin_spec(spec):
    name, sep, param = spec.partition(":")
    if not sep:
        raise InputError(f"builtin spec must be name:param, got {spec!r}")
    return name, _parse_int(param, "builtin", spec)


def resolve_algebra(builtin_spec, file_path, flags=("--builtin", "--file")):
    """Returns (algebra, digest string, spec echo for canonical subs).

    ``flags`` names the two inputs in error messages.
    """
    if builtin_spec and file_path:
        raise InputError(f"give either {flags[0]} or {flags[1]}, not both")
    if builtin_spec:
        name, n = _parse_builtin_spec(builtin_spec)
        return builtin(name, n), f"builtin:{name}:{n}", (name, n)
    if file_path:
        data, digest = _read_json(file_path)
        return algebra_from_json(data), f"sha256:{digest}", None
    raise InputError(f"an algebra is required: {flags[0]} name:n or {flags[1]} path")


def resolve_pair(algebra, builtin_echo, sub_spec, sub_file, flags=("--sub", "--sub-file")):
    """Build the subalgebra pair from a canonical shorthand or a vector file.

    Canonical shorthands: ``zero`` and ``so:k`` inside a builtin gl:n or
    so:n ambient (upper-left block).  For the full pair (gl(n), so(n)) the
    quotient basis is the symmetric-matrix complement, which the generator
    machinery recognizes.  ``flags`` names the two inputs in error messages.
    """
    if sub_spec and sub_file:
        raise InputError(f"give either {flags[0]} or {flags[1]}, not both")
    if sub_file:
        data, digest = _read_json(sub_file)
        return subalgebra(algebra, vectors_from_json(data)), f"sha256:{digest}"
    if not sub_spec:
        raise InputError(f"a subalgebra is required: {flags[0]} spec or {flags[1]} path")
    if sub_spec == "zero":
        return zero_subalgebra(algebra), "zero"
    name, sep, param = sub_spec.partition(":")
    if name != "so" or not sep:
        raise InputError(f"canonical sub shorthand must be 'zero' or 'so:k', got {sub_spec!r}")
    k = _parse_int(param, "sub", sub_spec)
    if k < 1:
        raise InputError(f"sub parameter must be at least 1: {sub_spec!r}")
    if builtin_echo is None:
        raise InputError(f"canonical {flags[0]} shorthand requires a builtin ambient algebra")
    ambient_name, n = builtin_echo
    if ambient_name == "gl":
        if k == n:
            return canonical_gl_so_pair(n), f"so:{k}"
        return subalgebra(algebra, so_in_gl_vectors(k, n)), f"so:{k}"
    if ambient_name == "so":
        return subalgebra(algebra, so_in_so_vectors(k, n)), f"so:{k}"
    raise InputError(f"no canonical embedding of so({k}) in {ambient_name}({n})")


def _betti_json(space):
    return {str(k): b for k, b in sorted(space.betti_dict().items())}


def _matrix_json(m):
    return [
        [format_rational(m.entry(i, j)) for j in range(m.ncols)]
        for i in range(m.nrows)
    ]


def _report(command, inputs, result, started):
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "timing_seconds": round(time.perf_counter() - started, 6),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args, started):
    if args.builtin or not args.file:
        # builtins are validated constructions; both inputs or none are refused
        g, algebra, _ = resolve_algebra(args.builtin, args.file)
        result = {"valid": True, "dim": g.dim, "basis": list(g.basis_names)}
        return _report("validate", {"algebra": algebra}, result, started), 0
    data, digest = _read_json(args.file)
    inputs = {"algebra": f"sha256:{digest}"}
    try:
        g = algebra_from_json(data)
    except InvalidStructure as exc:
        from .errors import JacobiViolation

        violations = []
        for v in exc.violations:
            if isinstance(v, JacobiViolation):
                entry = {"type": "jacobi", "indices": [v.i, v.j, v.k, v.l]}
            else:
                entry = {"type": "antisymmetry", "indices": [v.i, v.j, v.k]}
            entry["residual"] = format_rational(v.residual)
            violations.append(entry)
        result = {"valid": False, "violations": violations}
        return _report("validate", inputs, result, started), 2
    result = {"valid": True, "dim": g.dim, "basis": list(g.basis_names)}
    return _report("validate", inputs, result, started), 0


def cmd_export(args, started):
    g, digest, _ = resolve_algebra(args.builtin, args.file)
    payload = algebra_to_json(g)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
        result = {"path": args.output, "dim": g.dim}
        return _report("export", {"algebra": digest}, result, started), 0
    # bare algebra document, suitable for --file input elsewhere
    return payload, 0


def cmd_betti(args, started, command="betti"):
    g, digest, echo = resolve_algebra(args.builtin, args.file)
    inputs = {"algebra": digest}
    if command == "relative-betti" and not (args.relative or args.relative_file):
        raise InputError("relative-betti requires --relative or --relative-file")
    if args.relative or args.relative_file:
        pair, sub_digest = resolve_pair(g, echo, args.relative, args.relative_file,
                                        ("--relative", "--relative-file"))
        inputs["sub"] = sub_digest
        from .relative import invariant_quotient_complex

        model = invariant_quotient_complex(pair)
        space = CohomologySpace(model.complex)
        form_of_vector = model.form
    else:
        space = ce_cohomology(g)

        def form_of_vector(k, vec):
            return Form.from_vector(g.dim, k, vec)

    if args.representatives:
        from .cohomology import cohomology_to_json

        result = cohomology_to_json(space, form_of_vector)
    else:
        result = {"betti": _betti_json(space)}
    return _report(command, inputs, result, started), 0


def cmd_koszul(args, started):
    g, digest, echo = resolve_algebra(args.builtin, args.file)
    pair, sub_digest = resolve_pair(g, echo, args.sub, args.sub_file)
    inputs = {"algebra": digest, "sub": sub_digest}
    ana = PairAnalysis(pair)
    res = delta_cohom(ana)
    result = {
        "injective": res.injective,
        "betti_source": _betti_json(res.source),
        "betti_target": _betti_json(res.target),
    }
    if args.matrix:
        result["map"] = {
            str(k): _matrix_json(res.cohomology_map.degree(k))
            for k in range(res.source.top_degree + 1)
        }
    if args.kernel:
        result["kernel"] = [
            {"degree": k, "form": form_to_json(f)} for k, f in res.kernel_basis
        ]
    if args.factor_check:
        # a failing check raises, so a report that is written holds
        result["factorization"] = {"holds": True, "degrees": list(factorization_check(ana))}
    return _report("koszul", inputs, result, started), 0


def cmd_ncz(args, started):
    g, digest, echo = resolve_algebra(args.builtin, args.file)
    pair, sub_digest = resolve_pair(g, echo, args.sub, args.sub_file)
    report = ncz_report(pair)
    inputs = {"algebra": digest, "sub": sub_digest}
    return _report("ncz", inputs, report.to_payload(), started), 0


def cmd_reductive(args, started):
    g, digest, echo = resolve_algebra(args.builtin, args.file)
    pair, sub_digest = resolve_pair(g, echo, args.sub, args.sub_file)
    witness = invariant_complement(pair)
    inputs = {"algebra": digest, "sub": sub_digest}
    if witness.reductive:
        result = {
            "reductive": True,
            "witness": "invariant-complement",
            "complement": [
                [format_rational(x) for x in vec] for vec in witness.complement
            ],
        }
    else:
        result = {
            "reductive": False,
            "certificate": [format_rational(x) for x in witness.certificate],
        }
    return _report("reductive", inputs, result, started), 0


def cmd_classes(args, started):
    g, digest, echo = resolve_algebra(args.builtin, args.file)
    pair, sub_digest = resolve_pair(g, echo, args.sub, args.sub_file)
    ana = PairAnalysis(pair)
    report = identify_generators(ana)
    generators = []
    for degree, coords, label in report.generators:
        rep = ana.relative_cohomology.representative_matrix(degree).apply(list(coords))
        form = ana.quotient_model.form(degree, rep)
        generators.append(
            {"degree": degree, "label": label, "form": form_to_json(form)}
        )
    result = {"generators": generators, "presentation": report.presentation}
    inputs = {"algebra": digest, "sub": sub_digest}
    return _report("classes", inputs, result, started), 0


def _resolve_side(entry, what):
    if not isinstance(entry, dict):
        raise InputError(f"morphism {what} must be an object")
    keys = ("builtin", "file", "sub", "sub_file")
    for key in keys:
        # a file name that is a number would be opened as that file descriptor
        if entry.get(key) is not None and not isinstance(entry[key], str):
            raise InputError(f"morphism {what}.{key} must be a string")
    builtin_spec, file_path, sub_spec, sub_file = (entry.get(key) for key in keys)
    flags = [f"{what}.{key}" for key in keys]
    g, digest, echo = resolve_algebra(builtin_spec, file_path, flags[:2])
    pair, sub_digest = resolve_pair(g, echo, sub_spec, sub_file, flags[2:])
    return pair, {"algebra": digest, "sub": sub_digest}


def cmd_functoriality(args, started):
    data, digest = _read_json(args.morphism)
    if not isinstance(data, dict):
        raise InputError("morphism file must be an object with 'source', 'target' and 'matrix'")
    source, src_inputs = _resolve_side(data.get("source"), "source")
    target, dst_inputs = _resolve_side(data.get("target"), "target")
    if "matrix" not in data:
        raise InputError("morphism file needs a 'matrix' field")
    morphism = pair_morphism(source, target, data["matrix"])
    degrees = functoriality_check(morphism)  # raises unless the square commutes
    inputs = {"morphism": f"sha256:{digest}", "source": src_inputs, "target": dst_inputs}
    result = {"commutes": True, "degrees": list(degrees)}
    return _report("functoriality", inputs, result, started), 0


def cmd_direct_product(args, started):
    left, left_digest, _ = resolve_algebra(args.left_builtin, args.left_file,
                                           ("--left-builtin", "--left-file"))
    right, right_digest, _ = resolve_algebra(args.right_builtin, args.right_file,
                                             ("--right-builtin", "--right-file"))
    report = direct_product_check(left, right)
    inputs = {"left": left_digest, "right": right_digest}
    result = {
        "injective": report.injective,
        "formula_holds": True,  # direct_product_check raises unless it holds
        "kunneth_holds": report.kunneth_holds,
        "betti_left": {str(k): b for k, b in enumerate(report.betti_left) if b},
        "betti_right": {str(k): b for k, b in enumerate(report.betti_right) if b},
        "betti_product": {str(k): b for k, b in enumerate(report.betti_sum) if b},
    }
    return _report("direct-product-check", inputs, result, started), 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# The options of every command, one row each: (flags, dest, takes a value,
# required, help).  A switch sets its dest to True; an absent option leaves
# None (False for a switch).  Every command, and the top level before the
# command, also takes -h/--help.
_HELP = (("-h", "--help"), None, False, False, "show this help message and exit")
_ALGEBRA = (
    (("--builtin",), "builtin", True, False, "builtin algebra, e.g. gl:3, so:5, heisenberg:3"),
    (("--file",), "file", True, False, "algebra JSON file"),
)
_SUB = (
    (("--sub",), "sub", True, False, "canonical subalgebra: zero or so:k"),
    (("--sub-file",), "sub_file", True, False, "subalgebra vectors JSON file"),
)
_BETTI = _ALGEBRA + (
    (("--relative",), "relative", True, False, "canonical subalgebra: zero or so:k"),
    (("--relative-file",), "relative_file", True, False, "subalgebra vectors JSON file"),
    (("--representatives",), "representatives", False, False,
     "include representative cocycles as forms"),
)

# command -> (help, options)
_COMMANDS = {
    "validate": ("validate structure constants", _ALGEBRA),
    "export": ("write a builtin algebra as JSON", _ALGEBRA + (
        (("--output", "-o"), "output", True, False, "output path (default: stdout)"),
    )),
    "betti": ("Betti numbers (optionally relative)", _BETTI),
    "relative-betti": ("Betti numbers (optionally relative)", _BETTI),
    "koszul": ("characteristic homomorphism of a pair", _ALGEBRA + _SUB + (
        (("--matrix",), "matrix", False, False, "include per-degree matrices"),
        (("--kernel",), "kernel", False, False, "include kernel forms"),
        (("--factor-check",), "factor_check", False, False, "verify the two-step factorization"),
    )),
    "ncz": ("is H(g) -> H(h) surjective?", _ALGEBRA + _SUB),
    "reductive": ("invariant-complement witness", _ALGEBRA + _SUB),
    "classes": ("ring generators of relative cohomology", _ALGEBRA + _SUB),
    "functoriality": ("naturality square for a morphism file", (
        (("--morphism",), "morphism", True, True, "morphism JSON file"),
    )),
    "direct-product-check": ("characteristic map of (g+h, h)", (
        (("--left-builtin",), "left_builtin", True, False, "first factor, e.g. so:3"),
        (("--left-file",), "left_file", True, False, "first factor, JSON file"),
        (("--right-builtin",), "right_builtin", True, False, "second factor, e.g. abelian:2"),
        (("--right-file",), "right_file", True, False, "second factor, JSON file"),
    )),
}

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Help(Exception):
    """-h/--help was given; the argument is the text to print in place of a report."""


def _flag_table(options):
    return {flag: row for row in (_HELP,) + options for flag in row[0]}


def _read_token(token, flags):
    """How a token reads against a flag table, by argparse's rules.

    Returns None for a value, else (row, flag, attached value or None); the
    row is None for an option that the table does not have.  A long flag may
    be abbreviated to a unique prefix and take its value as ``--flag=value``;
    a short flag may take it attached (``-ovalue``, ``-o=value``).  Negative
    numbers and tokens with a space in them are values.
    """
    if not token.startswith("-"):
        return None
    if token in flags:
        return flags[token], token, None
    if len(token) == 1:
        return None
    name, eq, attached = token.partition("=")
    if eq and name in flags:
        return flags[name], name, attached
    if token[1] == "-":
        hits = [(flags[f], f, attached if eq else None) for f in flags if f.startswith(name)]
    else:
        hits = [(flags[f], f, token[2:] if f == token[:2] else None)
                for f in flags if f == token[:2] or f.startswith(token)]
    if len(hits) > 1:
        matches = ", ".join(f for _, f, _ in hits)
        raise InputError(f"ambiguous option: {token} could match {matches}")
    if hits:
        return hits[0]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, token, None


def _flag_names(row):
    return "/".join(row[0])


class _Parser:
    """Reads an argv against ``_COMMANDS``.

    It accepts exactly the argvs that Python 3.11's argparse accepted with
    these options, with the same values, and refuses every other with
    ``InputError``; ``-h``/``--help`` raises ``_Help``.
    """

    def parse_args(self, argv=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        top = _flag_table(())
        extras = []
        i = 0
        while i < len(argv) and argv[i] != "--":
            read = _read_token(argv[i], top)
            if read is None:
                break
            if read[0] is None:
                extras.append(argv[i])
                i += 1
                continue
            # -h/--help, the only option here; text attached to it may be refused
            _take_option(argv, i, read, None, top)
            raise _Help(_usage(None))
        else:
            if i < len(argv):
                raise InputError("argument command: invalid choice: '--'")
            raise InputError("the following arguments are required: command")
        command = argv[i]
        if command not in _COMMANDS:
            choices = ", ".join(repr(name) for name in _COMMANDS)
            raise InputError(
                f"argument command: invalid choice: {command!r} (choose from {choices})")
        args, more = _parse_command(command, argv[i + 1:])
        extras += more
        if extras:
            raise InputError("unrecognized arguments: " + " ".join(extras))
        return args


def _parse_command(command, tokens):
    """The namespace of a command's options, and the tokens it could not place."""
    options = _COMMANDS[command][1]
    flags = _flag_table(options)
    # every token after the first "--" is a value; "--" itself is neither
    end = tokens.index("--") if "--" in tokens else len(tokens)
    reads = [_read_token(t, flags) for t in tokens[:end]]
    reads += ["--"] + [None] * (len(tokens) - end - 1)
    args = types.SimpleNamespace(command=command)
    for _, dest, takes_value, _, _ in options:
        setattr(args, dest, None if takes_value else False)
    extras, seen = [], set()
    i = 0
    while i < len(tokens):
        read = reads[i]
        if read is None or read == "--" or read[0] is None:
            extras.append(tokens[i])
            i += 1
            continue
        taken, i = _take_option(tokens, i, read, reads, flags)
        for row, value in taken:
            if row is _HELP:
                raise _Help(_usage(command))
            setattr(args, row[1], value)
            seen.add(row[1])
    missing = [_flag_names(row) for row in options if row[3] and row[1] not in seen]
    if missing:
        raise InputError("the following arguments are required: " + ", ".join(missing))
    return args, extras


def _take_option(tokens, i, read, reads, flags):
    """The option read at tokens[i], with its value: ([(row, value)], next index).

    A switch's value is True.  A short switch with text attached (``-hx``)
    is read as ``-h -x``, as argparse reads it, hence the list.  ``reads``
    (the reading of every token) is needed only by options that take a value.
    """
    row, flag, attached = read
    taken = []
    while True:
        if attached is None:
            if not row[2]:
                taken.append((row, True))
                i += 1
            elif i + 1 < len(tokens) and reads[i + 1] is None:
                taken.append((row, tokens[i + 1]))
                i += 2
            else:
                raise InputError(f"argument {_flag_names(row)}: expected one argument")
            return taken, i
        if row[2]:
            taken.append((row, attached))
            return taken, i + 1
        if flag[1] == "-" or attached == "" or flag[0] + attached[0] not in flags:
            raise InputError(f"argument {_flag_names(row)}: ignored explicit argument {attached!r}")
        taken.append((row, True))
        flag = flag[0] + attached[0]
        row, attached = flags[flag], attached[1:] or None


def _usage(command):
    if command is None:
        lines = ["usage: liecoh [-h] COMMAND [options]", "", __doc__.strip(), "", "commands:"]
        lines += [f"  {name:<22}{text}" for name, (text, _) in _COMMANDS.items()]
        lines += ["", "Run 'liecoh COMMAND --help' for the options of a command."]
        return "\n".join(lines)
    text, options = _COMMANDS[command]

    def shape(row):
        return f"{row[0][0]} {row[1].upper()}" if row[2] else row[0][0]

    usage = " ".join(shape(row) if row[3] else f"[{shape(row)}]" for row in options)
    lines = [f"usage: liecoh {command} [-h] {usage}", "", text, "", "options:"]
    for row in (_HELP,) + options:
        names = ", ".join(row[0]) + (f" {row[1].upper()}" if row[2] else "")
        lines.append(f"  {names:<26}{row[4]}")
    return "\n".join(lines)


def build_parser():
    return _Parser()


_HANDLERS = {
    "validate": cmd_validate,
    "export": cmd_export,
    "koszul": cmd_koszul,
    "ncz": cmd_ncz,
    "reductive": cmd_reductive,
    "classes": cmd_classes,
    "functoriality": cmd_functoriality,
    "direct-product-check": cmd_direct_product,
}


def run(argv=None):
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("betti", "relative-betti"):
        return cmd_betti(args, started, command=args.command)
    return _HANDLERS[args.command](args, started)


def main(argv=None) -> int:
    try:
        report, code = run(argv)
        document = json.dumps(report, indent=2)
    except LiecohError as exc:
        if isinstance(exc, InternalInvariantError):
            code, label = 3, "internal invariant violation"
        elif isinstance(exc, MathValidationError):
            code, label = 2, "validation failure"
        else:
            code, label = 1, "error"
        print(f"{label}: {exc}", file=sys.stderr)
        document = json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
    except _Help as request:
        document, code = str(request), 0
    try:
        print(document)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull, so that a
        # later flush, at exit or in console(), does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 1
    return code


def _observed():
    """True under a profiler, a tracer or a sys.monitoring tool (3.12+)."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # tool ids are 0 to 5
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


def console():
    """Run ``main()`` as a process: the ``liecoh`` script and ``python -m liecoh``.

    Once ``main()`` returns, the report and any ``-o`` file are written and
    liecoh registers no exit handler, so the process ends with ``os._exit``
    after flushing stdout and stderr, and skips the interpreter's teardown of
    every loaded module.  Under cProfile, coverage or any other profiler,
    tracer or monitoring tool it exits normally, so that they write their data.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console()
