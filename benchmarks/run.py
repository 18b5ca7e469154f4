#!/usr/bin/env python3
"""Benchmark of the bml library and its CLI.

Usage, from the root of a checkout (the package is imported from src/):

    python3 benchmarks/run.py                      # every workload, table of end-to-end metrics
    python3 benchmarks/run.py --trace 1            # also the traced runs and per-layer metrics
    python3 benchmarks/run.py --workload cli --seed 3 --seconds 12 --trace 0
    python3 benchmarks/run.py compare A.jsonl B.jsonl

Each workload is a closed loop with one client: the next op starts when
the last one returned, one op at a time in one process (and one child
process at a time for `cli`).  The loop runs whole passes over the
workload's jobs until --seconds have elapsed.  With one --workload the
last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics; --trace 0 gives the end-to-end metrics and
--trace 1 the per-layer metrics of BENCHMARK.json.

`all` runs the four workloads of workloads.WORKLOADS.  BENCHMARK.json,
which gates changes, lists two, polynomial-scan and cli, which between
them reach every traced layer.  On a shared 2-core machine whose speed
drifted by +-25% over tens of seconds, only runs of 45 s kept the
run-to-run spread inside the bounds, and the time allowed for a full
round of 22 runs per gated workload fits such runs for two workloads
only; janowski-scan and long-series are kept for reading, not gating.

End-to-end metrics come only from untraced runs.  setup_s is the median
of SETUP_REPEATS set-ups (import, inputs, non-members, one warm-up op per
method), each in a fresh process.  The traced run alternates untraced and
traced passes; its per-layer figures are per set-up plus one traced pass,
and trace.overhead_ms is the mean traced op minus the mean untraced op.

failed_frac (ops that raised, exited 2 or disagreed with their label,
over ops attempted) is the `failed`/`attempted` pair of the JSON line, and
`correct` is true only when it is zero.  Every op's answer of the first
pass is written to an answer record (JSON lines) that `compare` checks
against another run's.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here: imports count

import argparse
import ctypes
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
# One client runs one op at a time, so BLAS gets one thread (inherited by
# CLI children).  A second BLAS thread on a 2-core machine made the ops
# slower and their timings noisier.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

SETUP_REPEATS = 3  # set-ups per run: this process plus fresh child processes
STARTUP_REPEATS = 5  # import-only processes behind cli.startup_s
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MARGIN_RTOL = 1e-12

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_bml():
    if not (SRC / "bml" / "__init__.py").is_file():
        fail(f"no bml package under {SRC}; run from the root of a bml checkout")
    sys.path.insert(0, str(SRC))
    import bml
    import bml.cli  # noqa: F401  (the cli workload calls bml.cli.main)

    return bml


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(bml, wl, seed):
    import numpy

    threads = blas_threads()
    if threads is not None and threads > NPROC:
        fail(f"BLAS uses {threads} threads but only {NPROC} processors are available")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": threads,
        "nproc": NPROC,
        "workload": wl.name,
        "seed": seed,
        "inputs_sha256": wl.digest(),
    }


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(value, percentile, samples beyond) of the highest percentile with
    at least TAIL_BEYOND samples beyond it; the maximum when there are fewer."""
    xs = sorted(values)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs), TAIL_BEYOND


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Outcome of running the jobs of a workload in whole passes."""

    def __init__(self):
        self.durations = []
        self.records = {}
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.passes = 0


def run_op(bml, wl, job, fresh, inprocess):
    t = time.perf_counter()
    try:
        result = wl.call(bml, job, fresh, inprocess)
    except Exception as exc:  # an op that raises is counted, not fatal
        dt = time.perf_counter() - t
        return dt, [workloads.Answer(job.method, f"error:{type(exc).__name__}: {exc}")]
    dt = time.perf_counter() - t
    return dt, job.judge(result)


def run_pass(bml, wl, loop, fresh, inprocess, tracer=None):
    """One pass over every job; `fresh` numbers the pass (see SeriesJob)."""
    t0 = time.perf_counter()
    for job in wl.jobs:
        if tracer is not None:
            tracer.op = loop.attempted
        dt, answers = run_op(bml, wl, job, fresh, inprocess)
        loop.durations.append(dt)
        loop.attempted += 1
        loop.failed += not all(a.ok for a in answers)
        if fresh == 0:
            loop.records[job.id] = [a.record(wl.name, job.id, str(job.label)) for a in answers]
    loop.elapsed += time.perf_counter() - t0
    loop.passes += 1


def timed_loop(bml, wl, seconds, inprocess):
    """Whole passes over the jobs until `seconds` of them have elapsed."""
    loop = Loop()
    while loop.elapsed < seconds:
        run_pass(bml, wl, loop, loop.passes, inprocess)
    return loop


def traced_loop(bml, wl, seconds, inprocess, tracer):
    """Untraced and traced passes in turn, until the traced ones reach `seconds`.

    Alternating keeps drift of the machine out of the tracing overhead.
    """
    import tracing

    plain, traced = Loop(), Loop()
    while traced.elapsed < seconds:
        run_pass(bml, wl, plain, 2 * plain.passes, inprocess)
        with tracing.traced(tracer):
            run_pass(bml, wl, traced, 2 * traced.passes + 1, inprocess, tracer)
    return plain, traced


def set_up(bml, args, inprocess):
    """Build the inputs (non-members included) and run one warm-up op per method."""
    wl = workloads.build(bml, args.workload, args.seed, str(ROOT), args.work_dir)
    seen = set()
    for job in wl.jobs:
        if job.method not in seen:
            seen.add(job.method)
            run_op(bml, wl, job, -1, inprocess)
    wl.child_rss_kb.clear()
    return wl


def child_setup_seconds(name, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def startup_seconds():
    """Median wall time of processes that only import bml.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(STARTUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bml.cli"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def write_record(path, env, loop):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for job_id in sorted(loop.records):
            for rec in loop.records[job_id]:
                fh.write(json.dumps(rec) + "\n")


def metric(name, value):
    return {"value": value, "unit": END_TO_END.get(name) or PER_LAYER[name]}


def measure_end_to_end(bml, args):
    """Untraced run: the end-to-end metrics."""
    wl = set_up(bml, args, inprocess=False)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        return wl, None, {"setup_s": setup_s}, []
    setups = [setup_s] + [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    loop = timed_loop(bml, wl, args.seconds, inprocess=False)
    if wl.child_rss_kb:
        peak_kb = max(wl.child_rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    value, pct, beyond = tail(loop.durations)
    values = {
        "ops_per_s": loop.attempted / loop.elapsed,
        "op_ms_p50": 1e3 * statistics.median(loop.durations),
        "op_ms_tail": 1e3 * value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    metrics = {name: metric(name, values[name]) for name in END_TO_END}
    notes = [
        f"op_ms_tail is p{pct:.2f} of {len(loop.durations)} ops ({beyond} beyond it)",
        f"setup_s runs = {setups}",
    ]
    return wl, [loop], metrics, notes


def measure_layers(bml, args):
    """Traced run: the per-layer metrics and the tracing overhead.

    CLI ops call bml.cli.main in-process here, in both the untraced and the
    traced passes, so that the spans cover them.
    """
    import tracing

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        wl = set_up(bml, args, inprocess=True)
    plain, traced = traced_loop(bml, wl, args.seconds, True, tracer)
    mean_plain = plain.elapsed / plain.attempted
    overhead_ms = 1e3 * (traced.elapsed / traced.attempted - mean_plain)
    layers = tracing.layer_metrics(tracer.spans, traced.passes)
    layers["cli.startup_s"] = startup_seconds()
    layers["trace.overhead_ms"] = overhead_ms
    metrics = {name: metric(name, float(layers.get(name, 0.0))) for name in PER_LAYER}
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.failed, s.work]) + "\n")
    notes = [
        f"spans = {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
        f"tracing overhead = {overhead_ms:.4f} ms per op (mean op {1e3 * mean_plain:.4f} ms untraced)",
    ]
    return wl, [plain, traced], metrics, notes


def run_workload(args):
    bml = import_bml()
    OUT.mkdir(parents=True, exist_ok=True)
    args.work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        wl, loops, metrics, notes = measure(bml, args)
        if loops is None:
            print(json.dumps(metrics))
            return 0
        env = environment(bml, wl, args.seed)
        record = Path(args.record) if args.record else OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
        write_record(record, env, loops[0])
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    notes += [f"failed_frac = {failed / attempted!r} ({failed} of {attempted})", f"answer record = {record}"]
    print(f"# env {json.dumps(env)}")
    for note in notes:
        print(f"# {args.workload}: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# all workloads, one table


TAIL_NOTE = re.compile(r"op_ms_tail is (p[\d.]+ of \d+ ops)")


def run_all(args):
    names = workloads.WORKLOADS
    results, tails = {}, {}
    for trace in sorted({0, args.trace}):
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(proc.stdout, end="")
                fail(f"workload {name} (trace {trace}) exited with {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if line.startswith("# ")))
            results[name, trace] = json.loads(lines[-1])
            tails[name] = next((m.group(1) for line in lines if (m := TAIL_NOTE.search(line))), tails.get(name))
    summary = {}
    for trace in sorted({0, args.trace}):
        units = END_TO_END if trace == 0 else PER_LAYER
        rows = [("metric", "unit", *names)]
        for m, unit in units.items():
            rows.append((m, unit, *(f"{results[n, trace]['metrics'][m]['value']:.6g}" for n in names)))
            for n in names:
                summary[f"{n}.{m}"] = results[n, trace]["metrics"][m]
        if trace == 0:
            rows.insert(4, ("  tail at", "", *(tails[n] for n in names)))
            fracs = [results[n, 0]["failed"] / results[n, 0]["attempted"] for n in names]
            rows.append(("failed_frac", "1", *(f"{f:.6g}" for f in fracs)))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        print()
        for r in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


# ---------------------------------------------------------------------------
# comparing two answer records


def load_record(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "env" not in rec:
                out[rec["workload"], rec["op"], rec["method"]] = rec
    return out


def compare(path_a, path_b):
    """Verdict changes and margin moves beyond MARGIN_RTOL relative; 1 if any."""
    a, b = load_record(path_a), load_record(path_b)
    problems = 0
    for key in sorted(set(a) & set(b)):
        ra, rb = a[key], b[key]
        if ra["verdict"] != rb["verdict"]:
            problems += 1
            print(f"verdict {key}: {ra['verdict']} -> {rb['verdict']}")
        ma, mb = float(ra["margin"]), float(rb["margin"])
        same_nan = math.isnan(ma) and math.isnan(mb)
        if not same_nan and not abs(ma - mb) <= MARGIN_RTOL * max(abs(ma), abs(mb)):
            problems += 1
            print(f"margin {key}: {ra['margin']} -> {rb['margin']}")
    only = len(set(a) ^ set(b))
    print(f"compared {len(set(a) & set(b))} answers, {problems} changed, {only} in one record only")
    return 1 if problems else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare RECORD_A RECORD_B")
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", help="one workload name, or all (default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", default=None, help="answer record path (default under benchmarks/out)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        import_bml()
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from all, {', '.join(workloads.WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
