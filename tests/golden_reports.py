#!/usr/bin/env python3
"""Golden --sim reports: a byte-for-byte differential gate on report output.

For every spec under specs/ (recursively), each SUT in SUTS and each worker
count in WORKERS, runs

    lsbench_cli SPEC --sim --csv --sut=SUT --workers=N

and compares its stdout (the text report plus the CSV, with any
"wrote HTML report to ..." line removed because it carries a path) with
tests/golden/<spec>.<sut>.w<N>.txt. Under --sim every timestamp comes from
the virtual clock, so the output is a pure function of the spec and the
code: any byte that moves is a behaviour change.

Check (the golden_reports CTest target runs this):

    python3 tests/golden_reports.py --cli build/tools/lsbench_cli

Regenerate after an intended report change, then review `git diff
tests/golden` before committing:

    python3 tests/golden_reports.py --cli build/tools/lsbench_cli --update

Exit status: 0 all match, 1 a report differs or a golden is missing or
stale, 2 usage error.
"""

import argparse
import concurrent.futures
import difflib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPECS = os.path.join(os.path.dirname(HERE), "specs")
GOLDEN = os.path.join(HERE, "golden")
JOBS = 4
SUTS = ("btree", "rmi")
WORKERS = (1, 4)
HTML_LINE_PREFIX = "wrote HTML report to "
MAX_DIFF_LINES = 40


def golden_name(spec_rel, sut, workers):
    stem = os.path.splitext(spec_rel)[0].replace(os.sep, "__")
    return f"{stem}.{sut}.w{workers}.txt"


def list_cases(specs_dir):
    cases = []
    for dirpath, dirnames, filenames in os.walk(specs_dir):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".lsb"):
                continue
            spec = os.path.join(dirpath, filename)
            spec_rel = os.path.relpath(spec, specs_dir)
            for sut in SUTS:
                for workers in WORKERS:
                    cases.append((spec, golden_name(spec_rel, sut, workers),
                                  sut, workers))
    return cases


def render(cli, spec, sut, workers):
    proc = subprocess.run(
        [cli, spec, "--sim", "--csv", f"--sut={sut}", f"--workers={workers}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace').strip()}")
    lines = proc.stdout.decode().splitlines(keepends=True)
    return "".join(l for l in lines if not l.startswith(HTML_LINE_PREFIX))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cli", required=True, help="path to lsbench_cli")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the goldens instead of checking them")
    args = parser.parse_args()
    if not os.access(args.cli, os.X_OK):
        print(f"golden_reports: not an executable: {args.cli}",
              file=sys.stderr)
        return 2

    cases = list_cases(SPECS)
    if not cases:
        print(f"golden_reports: no specs under {SPECS}", file=sys.stderr)
        return 2
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        futures = [pool.submit(render, args.cli, spec, sut, workers)
                   for spec, _, sut, workers in cases]
        outputs = []
        for (_, name, _, _), future in zip(cases, futures):
            try:
                outputs.append(future.result())
            except RuntimeError as err:
                print(f"golden_reports: {name}: {err}", file=sys.stderr)
                return 1

    if args.update:
        os.makedirs(GOLDEN, exist_ok=True)
        for old in os.listdir(GOLDEN):
            if old.endswith(".txt"):
                os.remove(os.path.join(GOLDEN, old))
        for (_, name, _, _), text in zip(cases, outputs):
            with open(os.path.join(GOLDEN, name), "w",
                      encoding="utf-8", newline="") as f:
                f.write(text)
        print(f"golden_reports: wrote {len(cases)} goldens to {GOLDEN}")
        return 0

    failures = 0
    for (_, name, _, _), text in zip(cases, outputs):
        path = os.path.join(GOLDEN, name)
        if not os.path.exists(path):
            print(f"MISSING {name} (run with --update)")
            failures += 1
            continue
        with open(path, encoding="utf-8", newline="") as f:
            expected = f.read()
        if text == expected:
            continue
        failures += 1
        print(f"DIFFERS {name}")
        diff = list(difflib.unified_diff(
            expected.splitlines(keepends=True), text.splitlines(keepends=True),
            fromfile=f"golden/{name}", tofile="lsbench_cli"))
        sys.stdout.writelines(diff[:MAX_DIFF_LINES])
    print(f"golden_reports: {len(cases) - failures}/{len(cases)} match")
    expected_names = {name for _, name, _, _ in cases}
    for name in sorted(os.listdir(GOLDEN)):
        if name.endswith(".txt") and name not in expected_names:
            print(f"STALE {name} (no spec produces it; run with --update)")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
