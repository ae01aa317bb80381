"""Layer map of the benchmark: which functions are wrapped, and which metrics they feed.

``WRAPPED`` lists every public function the traced pass wraps, as
``(module, attribute path, kind, fires_on)``:

* ``module`` is the ``liecoh`` submodule that defines the name, and the
  attribute path is looked up in it (``Class.method`` for methods).  The span
  name is ``"<module>.<attribute path>"``.
* ``kind`` is ``"span"`` (records start, end and parent; self time is the span
  minus its child spans) or ``"count"`` (counts calls only; its time stays in
  the caller's self time, because it is called too often to span cheaply).
* ``fires_on`` names the workloads on which the wrapper must fire at least
  once.  The traced pass checks it, so a missed rebinding cannot read as zero
  time.

``METRICS`` defines every per-layer metric from those spans and counters:
its unit, which direction is better, how it is aggregated, the end-to-end
metrics it should move, and the workloads it should move them ``on``.  On the
other workloads the prediction for that layer is no change.  The traced pass
checks that each metric is nonzero on each workload in its ``on`` list.

``spans`` names the wrapped functions a metric reads.  Aggregations:
``self`` sums their self seconds; ``total`` sums their outermost inclusive
seconds (used for the two exact arbiters, whose matrix products are also
counted in ``linalg.matmul_s``); ``calls`` counts their calls; ``counter``
reads a counter the tracer keeps while they run; ``ratio`` divides two
counters (0 when the denominator is 0).  A wrapped function the package no
longer defines is reported as absent: the checks skip it, and its work shows
in ``trace.unattributed_s``.
"""

# The workloads, as in ``workloads.WORKLOADS`` (``run.py`` checks that they agree).
# This module imports nothing, so the tracer can load it before timing the
# package's import.
ALL = ("ambient", "rational", "pair", "ring")

BUILTIN = ("ambient", "pair", "ring")

WRAPPED = (
    # linalg: sparse exact matrices and the elimination kernel
    ("linalg", "clear_denominators", "span", ALL),
    ("linalg", "row_reduce", "span", ALL),
    ("linalg", "Matrix.rank", "span", ALL),
    ("linalg", "Matrix.rref", "span", ALL),
    ("linalg", "Matrix.nullspace", "span", ALL),
    ("linalg", "Matrix.__matmul__", "span", ALL),
    ("linalg", "ColumnSolver.__init__", "span", BUILTIN),
    ("linalg", "ColumnSolver.solve_with_certificate", "span", BUILTIN),
    ("linalg", "SpanBuilder.insert", "count", ("ring",)),
    ("linalg", "det_dense", "count", ("pair",)),
    # exterior: multi-index bases and operator matrices
    ("exterior", "alternating_differential_matrix", "span", ALL),
    ("exterior", "pullback_matrix", "span", ("pair",)),
    ("exterior", "endo_action_matrix", "span", ("pair", "ring")),
    ("exterior", "lie_derivative_matrix", "span", ("pair",)),
    ("exterior", "interior_matrix", "span", ("pair",)),
    ("exterior", "wedge_vector", "span", ("ring",)),
    ("exterior", "form_to_json", "span", ("ambient", "rational", "ring")),
    # cohomology: complexes, Betti numbers, reduction, induced maps, cup products
    ("cohomology", "CochainComplex.__post_init__", "span", ALL),
    ("cohomology", "CohomologySpace.__init__", "span", ALL),
    ("cohomology", "CohomologySpace._pick_representatives", "span", ALL),
    ("cohomology", "CohomologySpace.reduce", "span", ("pair", "ring")),
    ("cohomology", "induced_map", "span", ("pair",)),
    ("cohomology", "check_chain_map", "span", ("pair",)),
    ("cohomology", "cup_product", "span", ("ring",)),
    ("cohomology", "generated_spans", "span", ("ring",)),
    ("cohomology", "cohomology_to_json", "span", ("ambient", "rational")),
    # relative: the two relative models, their comparison, restriction to h
    ("relative", "basic_subcomplex", "span", ("pair",)),
    ("relative", "invariant_quotient_complex", "span", ("pair", "ring")),
    ("relative", "compare_models", "span", ("pair",)),
    ("relative", "restriction_map", "span", ("pair",)),
    # koszul: the characteristic map and its criteria
    ("koszul", "delta_chain", "span", ("pair",)),
    ("koszul", "delta_cohom", "span", ("pair",)),
    ("koszul", "factorization_check", "span", ("pair",)),
    ("koszul", "ncz_report", "span", ("pair",)),
    ("koszul", "NczReport.to_payload", "span", ("pair",)),
    ("koszul", "invariant_complement", "span", ("pair",)),
    ("koszul", "functoriality_check", "span", ("pair",)),
    # classes: generator search
    ("classes", "identify_generators", "span", ("ring",)),
    ("classes", "_check_exterior_presentation", "span", ("ring",)),
    ("classes", "canonical_gl_so_pair", "span", ("pair", "ring")),
    # liealg: builtins, subalgebras, validation of algebra files
    ("liealg", "builtin", "span", BUILTIN),
    ("liealg", "subalgebra", "span", ("pair", "ring")),
    ("liealg", "validate_structure", "span", ("rational",)),
    ("liealg", "algebra_from_json", "span", ("rational",)),
    ("liealg", "pair_morphism", "span", ("pair",)),
    # cli: argument parsing, input resolution, report serialization
    ("cli", "build_parser", "span", ALL),
    ("cli", "_Parser.parse_args", "span", ALL),
    ("cli", "resolve_algebra", "span", ALL),
    ("cli", "resolve_pair", "span", ("pair", "ring")),
    ("cli", "_read_json", "span", ("rational", "pair")),
    ("cli", "_resolve_side", "span", ("pair",)),
    ("cli", "_matrix_json", "span", ("pair",)),
    ("cli", "json.dumps", "span", ALL),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _, _ in WRAPPED)

# The root spans the tracer adds around the import and around cli.main.
IMPORT_SPAN = "cli.import"
MAIN_SPAN = "cli.main"


def _m(unit, better, kind, spans=(), key=None, num=None, den=None, moves=("wall_s",), on=()):
    return {
        "unit": unit, "better": better, "kind": kind, "spans": tuple(spans),
        "key": key, "num": num, "den": den, "moves": tuple(moves), "on": tuple(on),
    }


METRICS = {
    # Fraction <-> int conversion around every elimination.
    "linalg.clear_denominators_s": _m("s", "lower", "self", ["linalg.clear_denominators"],
                                      on=("ambient", "pair", "ring")),
    "linalg.nullspace_s": _m("s", "lower", "self", ["linalg.Matrix.nullspace", "linalg.Matrix.rref"],
                             on=("ambient", "pair", "ring")),
    "linalg.rank_s": _m("s", "lower", "self", ["linalg.Matrix.rank"], on=("ambient",)),
    # Elimination work and coefficient growth.
    "linalg.row_reduce_s": _m("s", "lower", "self", ["linalg.row_reduce"], on=("rational", "ambient")),
    "linalg.row_reduce_calls": _m("count", "lower", "calls", ["linalg.row_reduce"],
                                  on=("rational", "ambient")),
    "linalg.elim_cells": _m("count", "lower", "counter", ["linalg.row_reduce"], key="elim_cells",
                            on=("rational", "ambient")),
    "linalg.max_entry_bits": _m("bits", "lower", "counter", ["linalg.row_reduce"], key="max_entry_bits",
                                on=("rational", "ambient")),
    # Eliminations (rank, rref, solver builds, representative picks) per distinct matrix.
    "linalg.elims_per_matrix": _m("ratio", "lower", "ratio",
                                  ["linalg.Matrix.rank", "linalg.Matrix.rref", "linalg.ColumnSolver.__init__",
                                   "cohomology.CohomologySpace._pick_representatives"],
                                  num="eliminations",
                                  den="distinct_matrices", on=("ambient", "pair")),
    # The d o d arbiter and the matrix products it (and the chain-map checks) run.
    "linalg.matmul_s": _m("s", "lower", "self", ["linalg.Matrix.__matmul__"], on=("rational", "ambient")),
    "cohomology.dd_check_s": _m("s", "lower", "total", ["cohomology.CochainComplex.__post_init__"],
                                on=("rational", "ambient")),
    # ColumnSolver build and solve.
    "linalg.solver_builds": _m("count", "lower", "calls", ["linalg.ColumnSolver.__init__"],
                               on=("ring", "pair")),
    "linalg.solves": _m("count", "lower", "calls", ["linalg.ColumnSolver.solve_with_certificate"],
                        on=("ring", "pair")),
    "linalg.solve_s": _m("s", "lower", "self",
                         ["linalg.ColumnSolver.__init__", "linalg.ColumnSolver.solve_with_certificate"],
                         on=("ring", "pair")),
    # Building the differentials d_k.
    "exterior.differential_s": _m("s", "lower", "self", ["exterior.alternating_differential_matrix"],
                                  moves=("wall_s", "peak_rss_mb"), on=("ambient",)),
    "exterior.differential_nnz": _m("count", "lower", "counter", ["exterior.alternating_differential_matrix"],
                                    key="differential_nnz",
                                    moves=("wall_s", "peak_rss_mb"), on=("ambient",)),
    # Pullback minors.
    "exterior.pullback_s": _m("s", "lower", "self", ["exterior.pullback_matrix"], on=("pair",)),
    "exterior.minor_calls": _m("count", "lower", "calls", ["linalg.det_dense"], on=("pair",)),
    # theta / i_x matrices and the wedge.
    "exterior.action_s": _m("s", "lower", "self",
                            ["exterior.endo_action_matrix", "exterior.lie_derivative_matrix",
                             "exterior.interior_matrix"], on=("pair", "ring")),
    "exterior.wedge_s": _m("s", "lower", "self", ["exterior.wedge_vector"], on=("ring",)),
    # Cohomology layer self time.
    "cohomology.compute_s": _m("s", "lower", "self",
                               ["cohomology.CohomologySpace.__init__",
                                "cohomology.CohomologySpace._pick_representatives"],
                               on=("ambient", "pair")),
    "cohomology.reduce_calls": _m("count", "lower", "calls", ["cohomology.CohomologySpace.reduce"],
                                  on=("pair", "ring")),
    "cohomology.reduce_s": _m("s", "lower", "self", ["cohomology.CohomologySpace.reduce"],
                              on=("pair", "ring")),
    "cohomology.induced_map_s": _m("s", "lower", "self", ["cohomology.induced_map"], on=("pair",)),
    "cohomology.chain_check_s": _m("s", "lower", "total", ["cohomology.check_chain_map"], on=("pair",)),
    # Ring saturation and its waste.
    "cohomology.cup_calls": _m("count", "lower", "calls", ["cohomology.cup_product"], on=("ring",)),
    "cohomology.cup_s": _m("s", "lower", "self", ["cohomology.cup_product"], on=("ring",)),
    "cohomology.span_growth_ratio": _m("ratio", "higher", "ratio",
                                       ["linalg.SpanBuilder.insert", "cohomology.cup_product"],
                                       num="span_inserts_grew",
                                       den="calls:cohomology.cup_product", on=("ring",)),
    # Relative models.
    "relative.basic_s": _m("s", "lower", "self", ["relative.basic_subcomplex"], on=("pair",)),
    "relative.invariant_s": _m("s", "lower", "self", ["relative.invariant_quotient_complex"],
                               on=("ring", "pair")),
    "relative.compare_s": _m("s", "lower", "self", ["relative.compare_models"], on=("pair",)),
    "relative.restriction_s": _m("s", "lower", "self", ["relative.restriction_map"], on=("pair",)),
    # Criteria self time.
    "koszul.delta_s": _m("s", "lower", "self", ["koszul.delta_chain", "koszul.delta_cohom"], on=("pair",)),
    "koszul.factorization_s": _m("s", "lower", "self", ["koszul.factorization_check"], on=("pair",)),
    "koszul.ncz_s": _m("s", "lower", "self", ["koszul.ncz_report"], on=("pair",)),
    "koszul.reductive_s": _m("s", "lower", "self", ["koszul.invariant_complement"], on=("pair",)),
    "koszul.functoriality_s": _m("s", "lower", "self", ["koszul.functoriality_check"], on=("pair",)),
    # Generator search.
    "classes.identify_s": _m("s", "lower", "self",
                             ["classes.identify_generators", "classes._check_exterior_presentation",
                              "cohomology.generated_spans"], on=("ring",)),
    "classes.generated_spans_calls": _m("count", "lower", "calls", ["cohomology.generated_spans"],
                                        on=("ring",)),
    # Builtins, subalgebras, Jacobi validation of files.
    "liealg.self_s": _m("s", "lower", "self",
                        ["liealg.builtin", "liealg.subalgebra", "liealg.validate_structure",
                         "liealg.algebra_from_json", "liealg.pair_morphism",
                         "classes.canonical_gl_so_pair"], on=("rational",)),
    # Import, input resolution, report.
    "cli.import_s": _m("s", "lower", "total", [IMPORT_SPAN], moves=("setup_s", "wall_s"), on=ALL),
    "cli.parse_s": _m("s", "lower", "self",
                      ["cli.build_parser", "cli._Parser.parse_args", "cli.resolve_algebra",
                       "cli.resolve_pair", "cli._read_json", "cli._resolve_side"],
                      moves=("setup_s", "wall_s"), on=ALL),
    "cli.json_s": _m("s", "lower", "self",
                     ["cli.json.dumps", "cli._matrix_json", "exterior.form_to_json",
                      "cohomology.cohomology_to_json", "koszul.NczReport.to_payload"], on=ALL),
    "cli.report_bytes": _m("bytes", "lower", "counter", key="report_bytes", on=ALL),
    # The trace itself: time inside cli.main outside every wrapped function, and
    # traced minus untraced wall seconds of one pass.
    "trace.unattributed_s": _m("s", "lower", "self", [MAIN_SPAN], moves=(), on=ALL),
    "trace.overhead_s": _m("s", "lower", "counter", key="overhead_s", moves=(), on=()),
}

# Counts that must repeat exactly across the traced passes of one run.
# (``cli.report_bytes`` is not one: the report's timing field varies in length.)
EXACT_COUNTS = (
    "linalg.row_reduce_calls",
    "linalg.elim_cells",
    "exterior.minor_calls",
    "linalg.solves",
    "cohomology.cup_calls",
    "linalg.max_entry_bits",
    "linalg.solver_builds",
    "linalg.elims_per_matrix",
    "exterior.differential_nnz",
    "cohomology.reduce_calls",
    "cohomology.span_growth_ratio",
    "classes.generated_spans_calls",
)


def check_tables():
    """Raise ValueError when the two tables disagree with each other."""
    known = set(SPAN_NAMES) | {IMPORT_SPAN, MAIN_SPAN}
    for name, spec in METRICS.items():
        for span in spec["spans"]:
            if span not in known:
                raise ValueError(f"metric {name} names unknown span {span}")
        for w in spec["on"]:
            if w not in ALL:
                raise ValueError(f"metric {name} names unknown workload {w}")
    for mod, attr, kind, fires_on in WRAPPED:
        if kind not in ("span", "count") or not fires_on or set(fires_on) - set(ALL):
            raise ValueError(f"bad wrapper entry {mod}.{attr}")
    for name in EXACT_COUNTS:
        if name not in METRICS:
            raise ValueError(f"exact count {name} is not a metric")
