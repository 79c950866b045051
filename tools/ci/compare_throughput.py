#!/usr/bin/env python3
"""CI gate for the batch-dispatch throughput bench.

Compares a freshly generated bench/throughput_gate JSON against the
committed BENCH_throughput.json and fails (exit 1) when:

  * the configuration grids differ (someone changed the bench without
    regenerating the committed file), or
  * any fresh *scalar* config regressed by more than --tolerance
    (default 10%) below its committed ops/s — the tracked "don't slow
    down the per-op dispatch path" rule, or
  * the fresh btree workers=4 batch-over-scalar speedup dropped below
    --min-speedup (default 3.0) — the batch request unit must keep
    amortizing the per-request dispatch cost.

Batch absolute throughput is reported but not gated on machine-to-machine
absolute numbers beyond the speedup ratio: ratios are stable across
hosts, absolutes are not, and the scalar tolerance is deliberately loose
for the same reason.

Usage: compare_throughput.py COMMITTED_JSON FRESH_JSON
         [--tolerance 0.10] [--min-speedup 3.0]
"""

import argparse
import json
import sys


def config_key(config):
    return (config["sut"], config["workers"], config["mode"])


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"FAIL: cannot load {path}: {err}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("committed", help="tracked BENCH_throughput.json")
    parser.add_argument("fresh", help="freshly generated bench output")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional scalar ops/s regression")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required btree workers=4 batch/scalar ratio")
    args = parser.parse_args()

    committed = load(args.committed)
    fresh = load(args.fresh)
    failures = []

    # Grid / schema match: same bench, same knobs, same config set.
    for field in ("bench", "elements_per_config", "batch_size", "repeats"):
        if committed.get(field) != fresh.get(field):
            failures.append(
                f"config mismatch: {field} committed={committed.get(field)} "
                f"fresh={fresh.get(field)} — regenerate the committed file "
                f"with bench/throughput_gate")
    committed_configs = {config_key(c): c for c in committed.get("configs", [])}
    fresh_configs = {config_key(c): c for c in fresh.get("configs", [])}
    if set(committed_configs) != set(fresh_configs):
        failures.append(
            f"config grid mismatch: committed={sorted(committed_configs)} "
            f"fresh={sorted(fresh_configs)}")

    # Scalar regression gate.
    for key in sorted(set(committed_configs) & set(fresh_configs)):
        if key[2] != "scalar":
            continue
        old = committed_configs[key]["ops_per_sec"]
        new = fresh_configs[key]["ops_per_sec"]
        ratio = new / old if old > 0 else 0.0
        line = (f"scalar {key[0]} workers={key[1]}: committed {old:,.0f} "
                f"fresh {new:,.0f} ops/s ({ratio:.2f}x)")
        if ratio < 1.0 - args.tolerance:
            failures.append(f"scalar regression >{args.tolerance:.0%}: {line}")
        else:
            print(f"ok    {line}")

    # Speedup floor on the acceptance config.
    fresh_speedups = {(s["sut"], s["workers"]): s["batch_over_scalar"]
                      for s in fresh.get("speedups", [])}
    gate = fresh_speedups.get(("btree", 4))
    if gate is None:
        failures.append("fresh JSON is missing the btree workers=4 speedup")
    elif gate < args.min_speedup:
        failures.append(
            f"batch speedup below floor: btree workers=4 is {gate:.2f}x, "
            f"requires >= {args.min_speedup:.1f}x")
    else:
        print(f"ok    speedup btree workers=4: {gate:.2f}x "
              f"(floor {args.min_speedup:.1f}x)")
    for key, value in sorted(fresh_speedups.items()):
        if key != ("btree", 4):
            print(f"info  speedup {key[0]} workers={key[1]}: {value:.2f}x")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("throughput gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
