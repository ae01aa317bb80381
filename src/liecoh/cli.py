"""Command-line interface: exact cohomology reports as JSON documents.

Every command writes a single JSON report to stdout (diagnostics go to
stderr) and is byte-identical across runs for identical inputs, except for
the timing field.  Exit codes: 0 success, 1 input error, 2 mathematical
validation failure, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


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


def _parse_builtin_spec(spec):
    name, sep, param = spec.partition(":")
    if not sep:
        raise InputError(f"builtin spec must be name:param, got {spec!r}")
    try:
        n = int(param)
    except ValueError as exc:
        raise InputError(f"builtin parameter must be an integer: {spec!r}") from exc
    return name, n


def resolve_algebra(builtin_spec, file_path):
    """Returns (algebra, digest string, spec echo for canonical subs)."""
    if builtin_spec and file_path:
        raise InputError("give either --builtin or --file, not both")
    if builtin_spec:
        name, n = _parse_builtin_spec(builtin_spec)
        return builtin(name, n), f"builtin:{name}:{n}", (name, n)
    if file_path:
        data, digest = _read_json(file_path)
        return algebra_from_json(data), f"sha256:{digest}", None
    raise InputError("an algebra is required: --builtin name:n or --file path")


def resolve_pair(algebra, builtin_echo, sub_spec, sub_file):
    """Build the subalgebra pair from a canonical shorthand or a vector file.

    Canonical shorthands: ``zero`` and ``so:k`` inside a builtin gl:n or
    so:n ambient (upper-left block).  For the full pair (gl(n), so(n)) the
    quotient basis is the symmetric-matrix complement, which the generator
    machinery recognizes.
    """
    if sub_spec and sub_file:
        raise InputError("give either --sub or --sub-file, not both")
    if sub_file:
        data, digest = _read_json(sub_file)
        return subalgebra(algebra, vectors_from_json(data)), f"sha256:{digest}"
    if not sub_spec:
        raise InputError("a subalgebra is required: --sub spec or --sub-file path")
    if sub_spec == "zero":
        return zero_subalgebra(algebra), "zero"
    name, sep, param = sub_spec.partition(":")
    if name != "so" or not sep:
        raise InputError(f"canonical sub shorthand must be 'zero' or 'so:k', got {sub_spec!r}")
    try:
        k = int(param)
    except ValueError as exc:
        raise InputError(f"sub parameter must be an integer: {sub_spec!r}") from exc
    if k < 1:
        raise InputError(f"sub parameter must be at least 1: {sub_spec!r}")
    if builtin_echo is None:
        raise InputError("canonical --sub shorthand requires a --builtin ambient algebra")
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
    inputs = {}
    if args.builtin:
        name, n = _parse_builtin_spec(args.builtin)
        inputs["algebra"] = f"builtin:{name}:{n}"
        g = builtin(name, n)  # builtins are validated constructions
        result = {"valid": True, "dim": g.dim, "basis": list(g.basis_names)}
        return _report("validate", inputs, result, started), 0
    if not args.file:
        raise InputError("an algebra is required: --builtin name:n or --file path")
    data, digest = _read_json(args.file)
    inputs["algebra"] = f"sha256:{digest}"
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
        pair, sub_digest = resolve_pair(g, echo, args.relative, args.relative_file)
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
    g, digest, echo = resolve_algebra(entry.get("builtin"), entry.get("file"))
    pair, sub_digest = resolve_pair(g, echo, entry.get("sub"), entry.get("sub_file"))
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
    left, left_digest, _ = resolve_algebra(args.left_builtin, args.left_file)
    right, right_digest, _ = resolve_algebra(args.right_builtin, args.right_file)
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

def _add_algebra_args(p):
    p.add_argument("--builtin", help="builtin algebra, e.g. gl:3, so:5, heisenberg:3")
    p.add_argument("--file", help="algebra JSON file")


def _add_sub_args(p):
    p.add_argument("--sub", help="canonical subalgebra: zero or so:k")
    p.add_argument("--sub-file", dest="sub_file", help="subalgebra vectors JSON file")


def build_parser():
    parser = _Parser(prog="liecoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate structure constants")
    _add_algebra_args(p)

    p = sub.add_parser("export", help="write a builtin algebra as JSON")
    _add_algebra_args(p)
    p.add_argument("--output", "-o", help="output path (default: stdout)")

    for name in ("betti", "relative-betti"):
        p = sub.add_parser(name, help="Betti numbers (optionally relative)")
        _add_algebra_args(p)
        p.add_argument("--relative", help="canonical subalgebra: zero or so:k")
        p.add_argument("--relative-file", dest="relative_file",
                       help="subalgebra vectors JSON file")
        p.add_argument("--representatives", action="store_true",
                       help="include representative cocycles as forms")

    p = sub.add_parser("koszul", help="characteristic homomorphism of a pair")
    _add_algebra_args(p)
    _add_sub_args(p)
    p.add_argument("--matrix", action="store_true", help="include per-degree matrices")
    p.add_argument("--kernel", action="store_true", help="include kernel forms")
    p.add_argument("--factor-check", dest="factor_check", action="store_true",
                   help="verify the two-step factorization")

    p = sub.add_parser("ncz", help="is H(g) -> H(h) surjective?")
    _add_algebra_args(p)
    _add_sub_args(p)

    p = sub.add_parser("reductive", help="invariant-complement witness")
    _add_algebra_args(p)
    _add_sub_args(p)

    p = sub.add_parser("classes", help="ring generators of relative cohomology")
    _add_algebra_args(p)
    _add_sub_args(p)

    p = sub.add_parser("functoriality", help="naturality square for a morphism file")
    p.add_argument("--morphism", required=True, help="morphism JSON file")

    p = sub.add_parser("direct-product-check", help="characteristic map of (g+h, h)")
    p.add_argument("--left-builtin", dest="left_builtin", help="first factor, e.g. so:3")
    p.add_argument("--left-file", dest="left_file")
    p.add_argument("--right-builtin", dest="right_builtin", help="second factor, e.g. abelian:2")
    p.add_argument("--right-file", dest="right_file")

    return parser


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
    try:
        print(document)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull, so that the
        # interpreter's flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
