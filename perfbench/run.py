#!/usr/bin/env python3
"""perfbench: LSBench's end-to-end benchmark, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script

  1. builds perfbench/ (which compiles the lsbench library from src/) into
     .bench_build/ with CMake, incrementally after the first time;
  2. writes the workload's recorded spec, perfbench/workloads/NAME.lsb,
     with every `seed =` line derived from --seed, to .bench_build/runs/;
  3. runs the std::map reference SUT over that spec once, on the driver's
     virtual clock, for the output check;
  4. for about --seconds seconds, starts one fresh lsbench_perf process
     after another, each a whole user path from spec parse to rendered
     reports (a fresh process per pass keeps peak RSS and the hold-out
     registry per pass). With --trace 0 every pass is untraced; with
     --trace 1 traced and untraced passes alternate;
  5. checks each pass's per-op-class ok/rows totals against the reference
     (fanout_partitioned instead checks a --sim pass of its own SUT, since
     real-time interleaving changes outcomes, plus its timed passes' op
     counts), and
  6. prints, as the last line of stdout, one JSON object: `correct`,
     `attempted`, `failed` and `metrics`, each metric the median over the
     passes. --trace 0 gives the end-to-end metrics, --trace 1 the
     per-layer ones.

Exits non-zero, without a result line, if the build or any pass fails.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lsbench_perf")

# Workload -> SUT and how its outputs are checked. "timed": the timed passes'
# totals must equal the reference's. "sim": a --sim pass of the SUT must.
WORKLOADS = {
    "learned_drift": {"sut": "rmi", "check": "timed"},
    "dispatch_cached": {"sut": "btree", "check": "timed"},
    "fanout_partitioned": {"sut": "partitioned", "check": "sim"},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_ops_per_s": "1/s",
    "post_run_s": "s",
    "e2e_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "completed_ops_frac": "frac",
}

PER_LAYER_UNITS = {
    "core.spec_parse_s": "s",
    "data.keys_generated": "count",
    "stats.drift_measure_s": "s",
    "sut.load_s": "s",
    "sut.train_s": "s",
    "sut.train_items": "count",
    "sut.busy_ns_per_op": "ns",
    "sut.get_ns": "ns",
    "sut.insert_ns": "ns",
    "sut.update_ns": "ns",
    "sut.scan_ns": "ns",
    "sut.range_count_ns": "ns",
    "sut.batch_elem_ns": "ns",
    "sut.memory_mb": "MB",
    "learned.retrains": "count",
    "learned.retrain_s": "s",
    "learned.retrain_share": "frac",
    "core.harness_ns_per_op": "ns",
    "workload.generate_ns_per_op": "ns",
    "core.pace_ns_per_op": "ns",
    "core.record_ns_per_op": "ns",
    "core.merge_s": "s",
    "core.metrics_s": "s",
    "report.render_s": "s",
    "core.event_bytes_per_op": "B",
    "mem.rss_after_setup_mb": "MB",
    "mem.rss_after_run_mb": "MB",
    "trace.overhead_frac": "frac",
}

# glibc raises its mmap threshold each time a large mapped block is freed,
# so whether the spec's big arrays land in fresh mappings or on the heap
# depends on what set-up freed before them; that alone moved learned_drift's
# p99 between ~20 and ~45 us from pass to pass. A fixed threshold (glibc's
# own starting value) keeps every pass's layout alike.
PASS_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")

# Every invocation must end within 180 s of its build; stop starting passes
# well before.
DEADLINE_S = 165.0
MIN_PASSES = 3
BUILD_JOBS = "3"


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds lsbench_perf; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def seeded_spec(workload, seed, run_dir):
    """Writes the workload's spec with every seed derived from `seed`."""
    with open(os.path.join(HERE, "workloads", workload + ".lsb")) as f:
        text = f.read()

    def reseed(match):
        base = int(match.group(2))
        return f"{match.group(1)}{(base * 1000003 + seed) % (1 << 31)}"

    text = re.sub(r"^(seed\s*=\s*)(\d+)", reseed, text, flags=re.M)
    path = os.path.join(run_dir, f"{workload}-seed{seed}.lsb")
    with open(path, "w") as f:
        f.write(text)
    return path


def run_pass(spec, sut, out_dir, deadline, traced=False, sim=False):
    """One fresh lsbench_perf process; returns its record plus timestamps."""
    cmd = [BINARY, f"--spec={spec}", f"--sut={sut}", f"--out={out_dir}"]
    if traced:
        cmd.append("--traced")
    if sim:
        cmd.append("--sim")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, env=PASS_ENV)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass timed out: {' '.join(cmd)}")
    exit_ns = time.monotonic_ns()
    if proc.returncode != 0:
        raise BenchError(f"pass failed ({proc.returncode}): {' '.join(cmd)}\n"
                         + proc.stderr)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["spawn_ns"] = spawn_ns
    record["exit_ns"] = exit_ns
    return record


def mismatched_elements(got, want, fields):
    """Elements in op classes whose totals differ on any of `fields`
    (indices into [count, ok, rows])."""
    bad = 0
    for cls in set(got) | set(want):
        g = got.get(cls, [0, 0, 0])
        w = want.get(cls, [0, 0, 0])
        if any(g[i] != w[i] for i in fields):
            bad += max(g[0], w[0])
            log(f"output mismatch in {cls}: got {g}, want {w} "
                "([count, ok, rows])")
    return bad


def end_to_end(record):
    spawn, exit_ = record["spawn_ns"], record["exit_ns"]
    elements = record["elements"]
    return {
        "setup_s": (record["first_phase_start_ns"] - spawn) * 1e-9,
        "run_ops_per_s": elements / record["window_s"],
        "post_run_s": (record["reports_done_ns"]
                       - record["last_phase_end_ns"]) * 1e-9,
        "e2e_ops_per_s": elements / ((exit_ - spawn) * 1e-9),
        "peak_rss_mb": record["peak_rss_mb"],
        "op_p50_us": record["op_p50_us"],
        "op_p99_us": record["op_p99_us"],
    }


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    # The first run in a checkout also builds, and may take longer for it;
    # the passes' own time limit starts once the build is done.
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(BUILD, "runs", args.workload)
    os.makedirs(run_dir, exist_ok=True)
    spec = seeded_spec(args.workload, args.seed, run_dir)

    # Output check reference: std::map over the same spec, virtual clock.
    reference = run_pass(spec, "reference", run_dir, deadline, sim=True)
    failed = 0
    if workload["check"] == "sim":
        sim = run_pass(spec, workload["sut"], run_dir, deadline, sim=True)
        failed += mismatched_elements(sim["classes"], reference["classes"],
                                      (0, 1, 2))
        timed_fields = (0,)  # Real-time interleaving moves ok/rows.
    else:
        timed_fields = (0, 1, 2)

    # Measurement: fresh processes until --seconds is used up.
    measure_start = time.monotonic()
    untraced, traced = [], []
    while True:
        trace_this = args.trace == 1 and len(traced) <= len(untraced)
        record = run_pass(spec, workload["sut"], run_dir, deadline,
                          traced=trace_this)
        (traced if trace_this else untraced).append(record)
        log(f"pass {len(traced) + len(untraced)}"
            f"{' (traced)' if trace_this else ''}: "
            f"window {record['window_s']:.3f} s, "
            f"p99 {record['op_p99_us']:.2f} us, "
            f"wall {(record['exit_ns'] - record['spawn_ns']) * 1e-9:.2f} s")
        failed += record["failed"]
        failed += mismatched_elements(record["classes"],
                                      reference["classes"], timed_fields)
        passes = len(traced) + len(untraced)
        elapsed = time.monotonic() - measure_start
        per_pass = elapsed / passes
        enough = (len(untraced) >= MIN_PASSES and
                  (args.trace == 0 or len(traced) >= MIN_PASSES))
        if enough and elapsed + per_pass > args.seconds:
            break
        if time.monotonic() + 2 * per_pass > deadline:
            if not enough:
                raise BenchError("too few passes fit in the time limit")
            break

    measured = traced + untraced
    attempted = sum(r["elements"] for r in measured)
    if args.trace == 0:
        rows = [end_to_end(r) for r in untraced]
        values = {k: median_of(rows, k) for k in rows[0]}
        values["completed_ops_frac"] = (attempted - failed) / attempted
        units = END_TO_END_UNITS
    else:
        layers = [r["layers"] for r in traced]
        values = {k: median_of(layers, k) for k in layers[0]}
        values["trace.overhead_frac"] = (median_of(traced, "window_s") /
                                         median_of(untraced, "window_s") - 1)
        units = PER_LAYER_UNITS
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    log(f"{args.workload} seed {args.seed}: {len(untraced)} untraced + "
        f"{len(traced)} traced passes in "
        f"{time.monotonic() - measure_start:.1f} s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(1)
