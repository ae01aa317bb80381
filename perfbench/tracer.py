"""Run one liecoh CLI command with the public functions of every layer wrapped.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python perfbench/tracer.py TRACE_OUT COMMAND_ID -- <liecoh arguments>

The command runs exactly as ``python -m liecoh <arguments>`` does: same
report on stdout, same exit code.  Every function listed in
``layers.WRAPPED`` is rebound, in every ``liecoh`` module that holds it, to a
wrapper that records a span (name, start, end, parent) or a call count.
Spans stay in memory and are written to TRACE_OUT as JSON when the command
ends, together with the counters below.  The package itself is not modified.

Counters: calls per wrapper; ``elim_cells`` (rows x width summed over
``row_reduce`` calls); ``max_entry_bits`` (largest integer entry seen before
or after a ``row_reduce``); ``differential_nnz`` (nonzeros of every
alternating differential built); ``eliminations`` and ``distinct_matrices``
(rank computations, rref calls, solver builds and representative picks, and
the distinct matrices they eliminate); ``span_inserts_grew`` (span inserts
that enlarged a span).  Bookkeeping for those counters, before and after the
wrapped call, runs in its own ``trace.bookkeeping`` spans, so it is not
charged to the wrapped callers.  Before the ``cli.import`` span opens, this
script imports only ``sys``, ``os``, ``time`` and ``layers`` (which imports
nothing), so that span holds the whole import cost of the package.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.stack = []
        self.calls = {}
        self.counters = {
            "elim_cells": 0, "max_entry_bits": 0, "differential_nnz": 0,
            "eliminations": 0, "span_inserts_grew": 0,
        }
        # Eliminated matrices are kept alive, so their ids are never reused.
        self.eliminated = {}

    def open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf()
        return rec

    def close(self, rec):
        rec[2] = perf()
        self.stack.pop()

    def span(self, name, fn, pre=None, post=None):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            token = None
            if pre is not None:
                book = self.open("trace.bookkeeping")
                token = pre(args)
                self.close(book)
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if post is not None:
                book = self.open("trace.bookkeeping")
                post(args, result, token)
                self.close(book)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn, post=None):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if post is not None:
                post(args, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counter hooks ---------------------------------------------------

    def _eliminated(self, matrix_key, keep):
        self.counters["eliminations"] += 1
        self.eliminated.setdefault(matrix_key, keep)

    def _row_bits(self, rows):
        best = 0
        for row in rows:
            if row:
                b = max(map(int.bit_length, row))
                if b > best:
                    best = b
        if best > self.counters["max_entry_bits"]:
            self.counters["max_entry_bits"] = best

    def row_reduce_pre(self, args):
        rows = args[0]
        self._row_bits(rows)
        return None

    def row_reduce_post(self, args, result, token):
        rows = args[0]
        if rows:
            self.counters["elim_cells"] += len(rows) * len(rows[0])
        self._row_bits(rows)

    def rank_pre(self, args):
        return args[0]._rank is None

    def rank_post(self, args, result, fresh):
        if fresh:
            self._eliminated(id(args[0]), args[0])

    def matrix_post(self, args, result, token):
        self._eliminated(id(args[0]), args[0])

    def solver_post(self, args, result, token):
        self._eliminated(id(args[1]), args[1])

    def pick_post(self, args, result, token):
        space, k = args[0], args[1]
        diffs = space.complex.differentials
        if 0 <= k < len(diffs):
            self._eliminated(id(diffs[k]), diffs[k])
        else:
            self._eliminated((id(space.complex), k), space.complex)

    def nnz_post(self, args, result, token):
        self.counters["differential_nnz"] += len(result.entries)

    def insert_post(self, args, result, token):
        if result:
            self.counters["span_inserts_grew"] += 1


HOOKS = {
    "linalg.row_reduce": ("row_reduce_pre", "row_reduce_post"),
    "linalg.Matrix.rank": ("rank_pre", "rank_post"),
    "linalg.Matrix.rref": (None, "matrix_post"),
    "linalg.ColumnSolver.__init__": (None, "solver_post"),
    "cohomology.CohomologySpace._pick_representatives": (None, "pick_post"),
    "exterior.alternating_differential_matrix": (None, "nnz_post"),
    "linalg.SpanBuilder.insert": (None, "insert_post"),
}


class _JsonProxy:
    """Stands in for the ``json`` module inside ``liecoh.cli`` with a wrapped ``dumps``."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer):
    """Rebind every wrapped name in every loaded liecoh module.

    Returns the names that no longer exist in the package (a refactor may
    remove a function); their work then shows as unattributed time.
    """
    modules = [m for name, m in sys.modules.items() if name == "liecoh" or name.startswith("liecoh.")]
    absent = []
    for mod_name, attr, kind, _ in layers.WRAPPED:
        name = f"{mod_name}.{attr}"
        owner_name, _, leaf = attr.rpartition(".")
        owner = sys.modules.get(f"liecoh.{mod_name}")
        for part in owner_name.split(".") if owner_name else ():
            owner = getattr(owner, part, None)
        orig = getattr(owner, leaf, None)
        if orig is None:
            absent.append(name)
            continue
        if attr == "json.dumps":
            setattr(sys.modules["liecoh.cli"], "json", _JsonProxy(owner, tracer.span(name, orig)))
            continue
        pre_name, post_name = HOOKS.get(name, (None, None))
        pre = getattr(tracer, pre_name) if pre_name else None
        post = getattr(tracer, post_name) if post_name else None
        wrapped = tracer.span(name, orig, pre, post) if kind == "span" else tracer.count(name, orig, post)
        if owner_name:
            setattr(owner, leaf, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    return absent


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TRACE_OUT COMMAND_ID -- <liecoh arguments>", file=sys.stderr)
        return 2
    out_path, command_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    rec = tracer.open(layers.IMPORT_SPAN)
    import liecoh.cli
    tracer.close(rec)
    absent = install(tracer)
    rec = tracer.open(layers.MAIN_SPAN)
    try:
        code = liecoh.cli.main(cli_args)
    finally:
        tracer.close(rec)
        sys.stdout.flush()
        tracer.counters["distinct_matrices"] = len(tracer.eliminated)
        import json
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({
                "command": command_id,
                "spans": tracer.spans,
                "calls": tracer.calls,
                "absent": absent,
                "counters": tracer.counters,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
