#!/usr/bin/env python3
"""liecoh benchmark: CLI commands as users run them, checked against exact answers.

Usage, from the repository root:

    python3 perfbench/run.py --workload {ambient,rational,pair,ring} \\
        [--seed N] [--seconds S] [--trace {0,1}]

Every command is one fresh ``python -m liecoh`` process with ``src`` on
PYTHONPATH, run in a fixed order in a closed loop: one client, no
concurrency, the next command starts when the previous one has exited.
``KOSZUL_THREADS`` is removed from the children's environment, so every
command runs single-threaded, and PYTHONHASHSEED is fixed.  The children
cache their bytecode under ``perfbench/.work/pycache`` whatever the caller's
PYTHONDONTWRITEBYTECODE says, so every command imports compiled modules, as
from an installed package, and ``src`` is left untouched.  Every report is
checked by the exact-answer oracle in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics.  No pass is discarded as a
warm-up: the environment probe before the first pass imports the package
once, which writes its bytecode, and every command is a fresh process, so
the first pass starts as warm as the others.  It repeats passes over the
workload's command list while the next pass is expected to end within
``--seconds``; on ``rational`` each pass runs its own seeded draw of
inputs.  It reports ``wall_s`` (sum of the commands' wall seconds)
and ``cpu_s`` (user + system seconds of the children) as means over passes,
that is, a run's total over its pass count, and ``peak_rss_mb`` (largest
child max-RSS of a pass) as the median over passes.  The mean, not the
median: a run holds only 2 to 15 passes, and on a shared machine the speed
swings between fast and slow phases lasting tens of seconds, so a median of
so few passes jumps with the phase while the mean weighs every second of
the run alike.  ``setup_s`` is the median start-to-exit time of the trivial
command ``validate --builtin abelian:1``, started SETUP_FIRST times before the
passes and then again between commands whenever SETUP_EVERY_S seconds have
passed since the last sample, so that its samples span the whole run.

``--trace 1`` runs one untraced pass, then traced passes (at least two) while
the next one is expected to end within ``--seconds``, all on the first draw
of inputs, each command started
through ``tracer.py``, which wraps the public functions of every
layer from outside the package (``layers.py`` has the map).  It reports the
per-layer metrics, and fails its result (``correct`` false) unless every
wrapper fired on the workloads it must fire on, every metric assigned to
the workload is nonzero, the exact counts repeat across the traced
passes, and the traced reports equal the untraced ones apart from
``timing_seconds``.  The detail line gives each seconds metric's share of
the time spent inside ``cli.main`` (medians over the traced passes).  All
spans go to ``perfbench/.work/trace-<workload>.json``.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it is a detail document: environment stamp,
input statistics, per-command digests of the reports without
``timing_seconds`` (informational), failures with reasons, ``failed_frac``,
and for traced runs each command's unattributed seconds.  A table of the
metrics with their units goes to stderr.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = "perfbench/.work"
PYCACHE_DIR = f"{WORK_DIR}/pycache"
SETUP_FIRST = 3
SETUP_EVERY_S = 1.5
# A run must end within 180 s; no command may run past this many seconds of it.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("KOSZUL_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, PYCACHE_DIR)
    return env


def spawn(argv, out_path, err_path, timeout):
    """Run argv to completion; return (exit code, wall s, cpu s, max RSS MB).

    The child is reaped with wait4, which gives its own resource usage.  A
    child still running after ``timeout`` seconds is killed.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    # A pidfd names this child even after it is reaped, so a late kill cannot hit another process.
    pidfd = os.pidfd_open(pid)
    killer = threading.Timer(max(timeout, 1.0), signal.pidfd_send_signal, (pidfd, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
        killer.join()
        os.close(pidfd)
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def report_digest(report):
    body = {k: v for k, v in report.items() if k != "timing_seconds"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Runner:
    def __init__(self, deadline, setup_every=None):
        self.deadline = deadline
        self.attempted = 0
        self.failures = []
        self.serial = 0
        self.setup_every = setup_every
        self.setup = []
        self.last_setup = 0.0

    def sample_setup(self):
        self.setup.append(self.command(list(workloads.SETUP_ARGS), workloads.check_validate(1)))
        self.last_setup = time.perf_counter()

    def command(self, args, check, trace_path=None):
        """Run one liecoh command, check its report; return a record dict."""
        self.serial += 1
        out_path = f"{WORK_DIR}/stdout.json"
        err_path = f"{WORK_DIR}/stderr.txt"
        if trace_path is None:
            argv = [sys.executable, "-m", "liecoh", *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path,
                    str(self.serial), "--", *args]
        timeout = self.deadline - time.perf_counter()
        code, wall, cpu, rss = spawn(argv, out_path, err_path, timeout)
        with open(out_path, "rb") as fh:
            raw = fh.read()
        with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
            err = fh.read()
        rec = {"args": list(args), "code": code, "wall_s": wall, "cpu_s": cpu,
               "rss_mb": rss, "bytes": len(raw), "digest": None}
        reason = None
        report = None
        if code != 0:
            reason = f"exit code {code}"
        elif "Traceback (most recent call last)" in err:
            reason = "traceback on stderr"
        else:
            try:
                report = json.loads(raw)
            except ValueError:
                reason = "stdout is not one JSON document"
        if report is not None:
            if not isinstance(report, dict) or report.get("command") != args[0]:
                reason = "report names another command"
            else:
                rec["digest"] = report_digest(report)
                try:
                    reason = check(report["result"])
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    reason = f"malformed result ({type(exc).__name__}: {exc})"
        self.attempted += 1
        if reason is not None:
            self.failures.append({"args": list(args), "reason": reason,
                                  "stderr_tail": err[-400:]})
        rec["ok"] = reason is None
        return rec

    def run_pass(self, cmds, trace_dir=None):
        recs = []
        for i, (args, check) in enumerate(cmds):
            path = None if trace_dir is None else f"{trace_dir}/cmd{i}.json"
            recs.append(self.command(args, check, path))
            if trace_dir is not None:
                recs[-1]["trace_path"] = path
            if self.setup_every and time.perf_counter() - self.last_setup >= self.setup_every:
                self.sample_setup()
        return recs


def next_pass_fits(t0, done, seconds):
    """Would one more pass, at the mean pass time so far, end within ``seconds`` of t0?"""
    return (time.perf_counter() - t0) * (done + 1) / done <= seconds


def pass_stats(recs):
    return (sum(r["wall_s"] for r in recs), sum(r["cpu_s"] for r in recs),
            max(r["rss_mb"] for r in recs))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def span_times(spans):
    """Per-span durations and self times (duration minus direct children)."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def command_layers(trace):
    """Aggregate one traced command: self seconds, outermost totals, calls, counters."""
    spans = trace["spans"]
    dur, self_s = span_times(spans)
    by_self = {}
    for (name, _, _, _), s in zip(spans, self_s):
        by_self[name] = by_self.get(name, 0.0) + s
    totals = {}
    for metric, spec in layers.METRICS.items():
        if spec["kind"] != "total":
            continue
        names = set(spec["spans"])
        total = 0.0
        for i, (name, _, _, parent) in enumerate(spans):
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                total += dur[i]
        totals[metric] = total
    main_s = sum(end - start for name, start, end, _ in spans if name == layers.MAIN_SPAN)
    return {"self": by_self, "totals": totals, "calls": trace["calls"], "counters": trace["counters"],
            "main_s": main_s}


def pass_layers(per_command, extra_counters):
    """Per-layer metrics of one traced pass from its commands' aggregates."""
    self_s, totals, calls, counters = {}, {}, {}, dict(extra_counters)
    for agg in per_command:
        for k, v in agg["self"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in agg["totals"].items():
            totals[k] = totals.get(k, 0.0) + v
        for k, v in agg["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in agg["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k == "max_entry_bits" else counters.get(k, 0) + v
    for k, v in calls.items():
        counters[f"calls:{k}"] = v
    out = {}
    for metric, spec in layers.METRICS.items():
        kind = spec["kind"]
        if kind == "self":
            out[metric] = sum(self_s.get(s, 0.0) for s in spec["spans"])
        elif kind == "total":
            out[metric] = totals[metric]
        elif kind == "calls":
            out[metric] = sum(calls.get(s, 0) for s in spec["spans"])
        elif kind == "counter":
            out[metric] = counters.get(spec["key"], 0)
        else:
            den = counters.get(spec["den"], 0)
            out[metric] = counters.get(spec["num"], 0) / den if den else 0.0
    return out, calls


def run_traced(runner, workload, cmds, seconds):
    """One untraced pass, then traced passes (at least two) while time allows.

    Returns (metrics, problems, detail).  Seconds are medians over the traced
    passes; counts come from the first traced pass, and must repeat exactly in
    every other one.
    """
    t0 = time.perf_counter()
    untraced = runner.run_pass(cmds)
    untraced_wall = pass_stats(untraced)[0]
    passes, problems, unattributed, spans_out, absent = [], [], [], [], set()
    main_s = []
    trace_dir = f"{WORK_DIR}/trace"
    os.makedirs(trace_dir, exist_ok=True)
    while True:
        recs = runner.run_pass(cmds, trace_dir)
        per_command = []
        for rec in recs:
            try:
                with open(rec["trace_path"], "r", encoding="utf-8") as fh:
                    trace = json.load(fh)
            except (OSError, ValueError):
                problems.append(f"no trace written for {' '.join(rec['args'])}")
                continue
            agg = command_layers(trace)
            per_command.append(agg)
            absent.update(trace["absent"])
            if not passes:
                unattributed.append({"args": rec["args"],
                                     "command_s": agg["main_s"],
                                     "unattributed_s": agg["self"].get(layers.MAIN_SPAN, 0.0)})
            spans_out.append({"pass": len(passes), "command": trace["command"],
                              "args": rec["args"], "spans": trace["spans"]})
        extra = {"report_bytes": sum(r["bytes"] for r in recs),
                 "overhead_s": pass_stats(recs)[0] - untraced_wall}
        passes.append((recs,) + pass_layers(per_command, extra))
        main_s.append(sum(agg["main_s"] for agg in per_command))
        if len(passes) >= 2 and not next_pass_fits(t0, len(passes) + 1, seconds):
            break
    with open(f"{WORK_DIR}/trace-{workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "commands": spans_out}, fh)

    first = passes[0][1]
    for i, rec_u in enumerate(untraced):
        if rec_u["digest"] is None or any(recs[i]["digest"] != rec_u["digest"] for recs, _, _ in passes):
            problems.append(f"traced report differs from untraced: {' '.join(rec_u['args'])}")
    for mod, attr, _, fires_on in layers.WRAPPED:
        name = f"{mod}.{attr}"
        if workload in fires_on and name not in absent and not all(calls.get(name) for _, _, calls in passes):
            problems.append(f"wrapper {name} never fired on {workload}")
    for metric, spec in layers.METRICS.items():
        gone = spec["spans"] and absent.issuperset(spec["spans"])
        if workload in spec["on"] and not gone and not all(m[metric] for _, m, _ in passes):
            problems.append(f"metric {metric} is zero on {workload}")
    for metric in layers.EXACT_COUNTS:
        values = {m[metric] for _, m, _ in passes}
        if len(values) != 1:
            problems.append(f"{metric} differs across traced passes: {sorted(values)}")
    metrics = {}
    for metric, spec in layers.METRICS.items():
        if spec["unit"] == "s":
            metrics[metric] = statistics.median(m[metric] for _, m, _ in passes)
        else:
            metrics[metric] = first[metric]
    main_median = statistics.median(main_s)
    shares = {metric: round(metrics[metric] / main_median, 4)
              for metric, spec in layers.METRICS.items()
              if spec["kind"] == "self" and main_median > 0}
    detail = {"traced_passes": len(passes), "absent_wrappers": sorted(absent),
              "cli_main_s": main_median, "shares_of_cli_main": shares,
              "unattributed": unattributed,
              "trace_checks": problems or "all passed"}
    return metrics, problems, detail


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def git_rev():
    """HEAD of the checkout's own .git, read as files (never a parent directory)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(seed, runner):
    """Stamp of the run; the backend query also compiles the package's bytecode."""
    argv = [sys.executable, "-c",
            "import liecoh.cli, liecoh.linalg; print(liecoh.linalg.kernel_backend())"]
    code, _, _, _ = spawn(argv, f"{WORK_DIR}/stdout.json", f"{WORK_DIR}/stderr.txt",
                          runner.deadline - time.perf_counter())
    with open(f"{WORK_DIR}/stdout.json", "r", encoding="utf-8") as fh:
        backend = fh.read().strip() if code == 0 else "unavailable"
    return {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "kernel_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "koszul_threads": "unset",
        "pythonhashseed": "0",
        "bytecode_cache": PYCACHE_DIR,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def check_benchmark_file():
    """BENCHMARK.json, when present, must declare exactly the metrics measured here."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        raise ValueError("BENCHMARK.json end_to_end differs from run.END_TO_END")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != {k: (v["unit"], v["better"]) for k, v in layers.METRICS.items()}:
        raise ValueError("BENCHMARK.json per_layer differs from layers.METRICS")
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        raise ValueError("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description="liecoh end-to-end and per-layer benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "liecoh", "cli.py")):
        print("error: src/liecoh is missing; run from a liecoh checkout", file=sys.stderr)
        return 2
    layers.check_tables()
    if layers.ALL != workloads.WORKLOADS:
        raise ValueError("layers.ALL differs from workloads.WORKLOADS")
    check_benchmark_file()
    os.makedirs(WORK_DIR, exist_ok=True)
    runner = Runner(started + RUN_LIMIT_S, None if args.trace else SETUP_EVERY_S)
    env = environment(args.seed, runner)
    cmds, drawn = workloads.commands(args.workload, args.seed, WORK_DIR)
    input_stats = [drawn]
    detail = {"benchmark": "liecoh", "workload": args.workload, "trace": args.trace,
              "env": env, "inputs": input_stats,
              "commands": [" ".join(a) for a, _ in cmds]}

    if args.trace:
        metrics, problems, extra = run_traced(runner, args.workload, cmds, args.seconds)
        detail.update(extra)
        units = {k: spec["unit"] for k, spec in layers.METRICS.items()}
    else:
        problems = []
        for _ in range(SETUP_FIRST):
            runner.sample_setup()
        passes = []
        t0 = time.perf_counter()
        while True:
            if passes:
                cmds, drawn = workloads.commands(args.workload, args.seed, WORK_DIR, len(passes))
                input_stats.append(drawn)
            passes.append(runner.run_pass(cmds))
            if not next_pass_fits(t0, len(passes), args.seconds):
                break
        stats = [pass_stats(p) for p in passes]
        metrics = {
            "setup_s": statistics.median(r["wall_s"] for r in runner.setup),
            "wall_s": statistics.fmean(s[0] for s in stats),
            "cpu_s": statistics.fmean(s[1] for s in stats),
            "peak_rss_mb": statistics.median(s[2] for s in stats),
        }
        units = END_TO_END
        detail["passes"] = len(passes)
        detail["pass_wall_s"] = [round(s[0], 4) for s in stats]
        detail["setup_samples_s"] = [round(r["wall_s"], 4) for r in runner.setup]
        detail["digests"] = {" ".join(r["args"]): r["digest"] for r in passes[0]}

    failed = len(runner.failures)
    detail["failed_frac"] = failed / max(runner.attempted, 1)
    detail["failures"] = runner.failures
    correct = failed == 0 and not problems
    print(json.dumps(detail, sort_keys=True))
    width = max(len(k) for k in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}", file=sys.stderr)
    print(f"  correct={correct} attempted={runner.attempted} failed={failed}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
