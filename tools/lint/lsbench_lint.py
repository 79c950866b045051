#!/usr/bin/env python3
"""lsbench-lint: repo-invariant static checks for LSBench sources.

LSBench's headline claim is reproducibility: the same spec + seed must
produce bit-identical results. The compiler cannot enforce that, so this
linter bans the constructs that silently break it (wall clocks, ambient
randomness, hash-order-dependent output) and flags error-discipline
violations ([[nodiscard]] catches most discarded Status results at compile
time; this catches the rest in code that is not compiled on every platform).

Rules:
  no-random-device      std::random_device is nondeterministic; all
                        randomness must flow from an explicit seed.
  no-libc-rand          rand()/srand()/random() share hidden global state.
  no-wall-clock         time(...)/std::chrono::system_clock read wall time;
                        use Clock (RealClock/VirtualClock) from util/clock.h.
  no-getenv             getenv outside src/util/ makes behavior depend on
                        ambient process state; route through util helpers.
  no-unseeded-mt19937   std::mt19937{,_64} without an explicit seed falls
                        back to a default or random_device seed.
  unordered-iteration   iterating std::unordered_{map,set} in report/metrics
                        code emits hash-order-dependent output.
  discarded-status      a Status/Result-returning call used as a bare
                        expression statement drops the error.
  no-detached-thread    std::thread::detach() leaks a thread past the
                        driver's phase barrier; every thread must be joined.
  no-raw-sleep          this_thread::sleep_for/sleep_until outside util/
                        bypass the Clock abstraction and burn accuracy;
                        use SleepSpinUntil (util/clock.h) or a Pacer.
  no-raw-mutex          std::mutex / std::condition_variable outside
                        util/sync.h (and the tools/sched/ scheduler that
                        implements the machinery beneath it) dodge the
                        Thread Safety Analysis annotations; use
                        lsbench::Mutex / CondVar.
  no-raw-lock           std::lock_guard / unique_lock / scoped_lock outside
                        util/sync.h / tools/sched/ hold locks the analysis
                        cannot see; use lsbench::MutexLock.
  no-bare-atomic        std::atomic / raw memory_order tokens outside
                        util/atomic.h pick ad-hoc orderings and dodge the
                        lsbench-sched preemption points; use
                        lsbench::Atomic<T>.
  no-self-size-reserve  c.reserve(...) whose argument reads c.size() (even
                        across line breaks): after a push_back, size is one
                        past the last reserve, so every later call asks for
                        more than the capacity and reallocates — a spill
                        path that copies the whole array per element. Grow
                        only when size() == capacity(), from capacity().
  unordered-range-for   range-for over std::unordered_{map,set} anywhere
                        visits elements in hash order; anything that feeds
                        events, traces, reports, or serialization must take
                        a sorted snapshot first. Reviewed order-insensitive
                        reductions live on UNORDERED_ALLOWLIST.

Suppress a finding with an inline comment on the offending line or the line
directly above it:

    // lsbench-lint: allow(no-wall-clock)

Exit status: 0 when clean, 1 when findings were reported, 2 on usage error.
"""

import argparse
import os
import re
import sys

ALL_RULES = (
    "no-random-device",
    "no-libc-rand",
    "no-wall-clock",
    "no-getenv",
    "no-unseeded-mt19937",
    "unordered-iteration",
    "discarded-status",
    "no-detached-thread",
    "no-raw-sleep",
    "no-raw-mutex",
    "no-raw-lock",
    "no-bare-atomic",
    "no-self-size-reserve",
    "unordered-range-for",
)

SOURCE_EXTENSIONS = (".cc", ".cpp", ".cxx", ".h", ".hpp")

# Directories scanned by default, relative to --root.
DEFAULT_SCAN_DIRS = ("src", "bench", "tools")

# Paths containing any of these fragments are never linted (fixtures are
# deliberately full of violations; tests may legitimately poke at time, env
# vars, and discarded results).
EXCLUDED_PATH_FRAGMENTS = (
    "tools/lint/testdata",
    "/tests/",
    "third_party",
)

SUPPRESS_RE = re.compile(r"lsbench-lint:\s*allow\(([^)]*)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments, string literals, and char literals.

    Returns text of identical length/line structure so line numbers and
    column positions keep meaning. Suppression comments are parsed from the
    raw text separately, before stripping.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append('"')
                i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append("'")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def parse_suppressions(raw_lines):
    """Maps 1-based line number -> set of suppressed rule names.

    A suppression comment covers its own line and the line directly below it
    (so it can sit above the offending statement).
    """
    suppressed = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        for target in (idx, idx + 1):
            suppressed.setdefault(target, set()).update(rules)
    return suppressed


# --- Simple per-line pattern rules -----------------------------------------

RANDOM_DEVICE_RE = re.compile(r"\bstd\s*::\s*random_device\b")
LIBC_RAND_RE = re.compile(r"(?<![\w:])(?:s?rand|random)\s*\(")
WALL_CLOCK_TIME_RE = re.compile(r"(?<![\w:.>])time\s*\(")
SYSTEM_CLOCK_RE = re.compile(r"\bsystem_clock\b")
GETENV_RE = re.compile(r"\bgetenv\s*\(")
UNSEEDED_MT_RE = re.compile(
    r"\bstd\s*::\s*mt19937(?:_64)?\b"
    r"(?:\s+\w+\s*(?:;|\{\s*\})|\s*(?:\(\s*\)|\{\s*\}))"
)
DETACH_RE = re.compile(r"\.\s*detach\s*\(\s*\)")
RAW_SLEEP_RE = re.compile(r"\bsleep_(?:for|until)\s*\(")
RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
    r"condition_variable(?:_any)?)\b")
RAW_LOCK_RE = re.compile(
    r"\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b")
BARE_ATOMIC_RE = re.compile(
    r"\bstd\s*::\s*atomic(?:_\w+)?\b|\bmemory_order(?:_\w+)?\b")


def in_util_dir(relpath):
    norm = relpath.replace(os.sep, "/")
    return "src/util/" in norm or norm.startswith("util/")


def is_sanctioned_sync(relpath):
    """Where raw std synchronization may appear: util/sync.h wraps the raw
    types in annotated capabilities, and tools/sched/ implements the
    cooperative scheduler *beneath* those wrappers — a modeled mutex cannot
    be built on the wrapper it models."""
    norm = relpath.replace(os.sep, "/")
    return norm.endswith("util/sync.h") or "tools/sched/" in norm


def is_atomic_header(relpath):
    """util/atomic.h: the one place std::atomic / memory_order may appear —
    it wraps them in the ordering-named, sched-instrumented Atomic<T>."""
    norm = relpath.replace(os.sep, "/")
    return norm.endswith("util/atomic.h")


def in_report_scope(relpath):
    """report/metrics code: where output ordering must be deterministic."""
    norm = relpath.replace(os.sep, "/")
    return "report/" in norm or "metrics" in os.path.basename(norm)


def check_line_rules(relpath, code_lines):
    findings = []
    for idx, line in enumerate(code_lines, start=1):
        if RANDOM_DEVICE_RE.search(line):
            findings.append(Finding(
                relpath, idx, "no-random-device",
                "std::random_device is nondeterministic; derive randomness "
                "from an explicit seed (util/random.h)"))
        if LIBC_RAND_RE.search(line):
            findings.append(Finding(
                relpath, idx, "no-libc-rand",
                "libc rand()/srand()/random() use hidden global state; use "
                "a seeded lsbench::Rng"))
        if WALL_CLOCK_TIME_RE.search(line) or SYSTEM_CLOCK_RE.search(line):
            findings.append(Finding(
                relpath, idx, "no-wall-clock",
                "wall-clock reads (time(), system_clock) are banned; use "
                "Clock from util/clock.h"))
        if GETENV_RE.search(line) and not in_util_dir(relpath):
            findings.append(Finding(
                relpath, idx, "no-getenv",
                "getenv outside src/util/ couples behavior to ambient "
                "process state; use util/env.h"))
        if UNSEEDED_MT_RE.search(line):
            findings.append(Finding(
                relpath, idx, "no-unseeded-mt19937",
                "std::mt19937 without an explicit seed is not reproducible; "
                "pass a seed or use lsbench::Rng"))
        if DETACH_RE.search(line):
            findings.append(Finding(
                relpath, idx, "no-detached-thread",
                "detached threads outlive the driver's phase barrier and "
                "race teardown; join every thread"))
        if RAW_SLEEP_RE.search(line) and not in_util_dir(relpath):
            findings.append(Finding(
                relpath, idx, "no-raw-sleep",
                "raw sleep_for/sleep_until outside util/ bypasses the Clock "
                "abstraction; use SleepSpinUntil (util/clock.h) or a Pacer"))
        if RAW_MUTEX_RE.search(line) and not is_sanctioned_sync(relpath):
            findings.append(Finding(
                relpath, idx, "no-raw-mutex",
                "raw std synchronization primitives outside util/sync.h "
                "are invisible to Thread Safety Analysis; use "
                "lsbench::Mutex / CondVar and annotate guarded fields"))
        if RAW_LOCK_RE.search(line) and not is_sanctioned_sync(relpath):
            findings.append(Finding(
                relpath, idx, "no-raw-lock",
                "raw std lock holders outside util/sync.h are invisible to "
                "Thread Safety Analysis; use lsbench::MutexLock"))
        if BARE_ATOMIC_RE.search(line) and not is_atomic_header(relpath):
            findings.append(Finding(
                relpath, idx, "no-bare-atomic",
                "bare std::atomic / memory_order outside util/atomic.h "
                "picks its own ordering and is invisible to the "
                "lsbench-sched preemption points; use lsbench::Atomic<T> "
                "(util/atomic.h)"))
    return findings


# --- no-self-size-reserve --------------------------------------------------

# `container.reserve(` / `obj->container.reserve(`; group 1 is the container
# expression as written.
RESERVE_CALL_RE = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)"
    r"\s*(?:\.|->)\s*reserve\s*\(")


def balanced_argument(code_text, open_paren):
    """Text between the '(' at `open_paren` and its matching ')'."""
    depth = 0
    for i in range(open_paren, len(code_text)):
        if code_text[i] == "(":
            depth += 1
        elif code_text[i] == ")":
            depth -= 1
            if depth == 0:
                return code_text[open_paren + 1:i]
    return code_text[open_paren + 1:]


def check_self_size_reserve(relpath, code_text):
    findings = []
    for m in RESERVE_CALL_RE.finditer(code_text):
        container = m.group(1)
        parts = re.split(r"\s*(\.|->)\s*", container)
        name_re = r"\s*".join(re.escape(p) for p in parts)
        self_size_re = re.compile(
            r"(?<![\w.>])" + name_re + r"\s*(?:\.|->)\s*size\s*\(")
        arg = balanced_argument(code_text, m.end() - 1)
        if self_size_re.search(arg):
            line = code_text.count("\n", 0, m.start(1)) + 1
            compact = re.sub(r"\s+", "", container)
            findings.append(Finding(
                relpath, line, "no-self-size-reserve",
                f"'{compact}.reserve(...)' sized from '{compact}.size()' "
                "reallocates on every call once size passes the last "
                "reserve; grow only when size() == capacity(), doubling "
                "capacity()"))
    return findings


# --- unordered-iteration / unordered-range-for ------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{}]*?>\s*&?\s*(\w+)\s*[;={(),]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*\*?([\w.\->]+)\s*\)")
UNORDERED_TYPE_RE = re.compile(r"\bunordered_(?:map|set)\b")

# Reviewed sorted-snapshot allowlist for unordered-range-for, keyed by
# "path:container". Every entry must be an order-insensitive reduction (the
# loop body commutes: counting, set-membership sums, min/max accumulations)
# or sort its output before anything downstream can observe the order.
# Adding an entry is a reviewed change — justify it here.
UNORDERED_ALLOWLIST = frozenset({
    # WeightedJaccard: accumulates num/den sums over the merged weight map.
    # Floating-point addition order is fixed for a given libstdc++ build +
    # insertion sequence, and both are pinned by the workload seed.
    "src/stats/similarity.cc:merged",
    # Trace fitting: pushes access counts into a vector that is immediately
    # std::sort-ed; hash order never reaches the fitted spec.
    "src/data/synthesizer.cc:access_counts",
})


def iter_unordered_range_fors(code_lines):
    """Yields (line_idx, sequence_expr) for each range-for over a container
    declared unordered in this file (or an inline unordered temporary)."""
    unordered_names = set()
    for line in code_lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_names.add(m.group(1))
    for idx, line in enumerate(code_lines, start=1):
        m = RANGE_FOR_RE.search(line)
        if not m:
            continue
        seq = m.group(1)
        # `for (auto& kv : counts_)` where counts_ was declared unordered in
        # this file, or an inline unordered temporary in the loop header.
        tail = seq.split("->")[-1].split(".")[-1]
        if tail in unordered_names or UNORDERED_TYPE_RE.search(
                line[:m.start(1)]):
            yield idx, seq


def check_unordered_iteration(relpath, code_lines):
    if not in_report_scope(relpath):
        return []
    findings = []
    for idx, seq in iter_unordered_range_fors(code_lines):
        findings.append(Finding(
            relpath, idx, "unordered-iteration",
            f"iteration over unordered container '{seq}' in "
            "report/metrics code is hash-order-dependent; copy into a "
            "sorted vector/map first"))
    return findings


def check_unordered_range_for(relpath, code_lines):
    # Report/metrics scope is covered by the stricter unordered-iteration
    # rule above (no allowlist there: output code must sort, full stop).
    if in_report_scope(relpath):
        return []
    norm = relpath.replace(os.sep, "/")
    findings = []
    for idx, seq in iter_unordered_range_fors(code_lines):
        tail = seq.split("->")[-1].split(".")[-1]
        if f"{norm}:{tail}" in UNORDERED_ALLOWLIST:
            continue
        findings.append(Finding(
            relpath, idx, "unordered-range-for",
            f"range-for over unordered container '{seq}' visits elements "
            "in hash order; take a sorted snapshot before anything feeds "
            "events/traces/reports/serialization, or add the reviewed "
            "order-insensitive site to UNORDERED_ALLOWLIST"))
    return findings


# --- discarded-status -------------------------------------------------------

STATUS_DECL_RE = re.compile(
    r"(?:^|[;{}]\s*|\n\s*)"
    r"(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+|inline\s+|friend\s+)*"
    r"(?:::)?(?:lsbench\s*::\s*)?"
    r"(?:Status|Result\s*<[^;{}()]*>)\s+"
    r"(?:[A-Za-z_]\w*\s*::\s*)?([A-Za-z_]\w*)\s*\(")

# Statement openers that mean the call result is consumed or flow-controlled.
CONSUMED_PREFIX_RE = re.compile(
    r"^(?:return\b|co_return\b|throw\b|if\b|while\b|for\b|switch\b|"
    r"case\b|do\b|else\b|\(void\)|LSBENCH_\w+\s*\(|[A-Z][A-Z0-9_]*\s*\()")

BARE_CALL_RE = re.compile(
    r"^(?:[\w:]+(?:\(\s*\))?(?:\.|->))*([A-Za-z_]\w*)\s*\(")


def collect_status_returning_names(files):
    """Scans the given files for functions/methods declared to return
    Status or Result<...>; returns the set of their names."""
    names = set()
    for _, text in files:
        code = strip_comments_and_strings(text)
        for m in STATUS_DECL_RE.finditer(code):
            names.add(m.group(1))
    # Construction helpers share names with the Status factories; a bare
    # `Status::Internal("x");` is dead code rather than a dropped error, and
    # flagging it produces noise on the factory definitions themselves.
    names.discard("OK")
    return names


def split_statements(code_text):
    """Yields (start_line, statement_text) for top-level-ish statements.

    Statements are separated by ';', '{', or '}' at paren depth zero.
    Preprocessor lines are skipped.
    """
    statements = []
    current = []
    start_line = 1
    line = 1
    depth = 0
    for c in code_text:
        if c == "\n":
            line += 1
        if c in "([":
            depth += 1
        elif c in ")]":
            depth = max(0, depth - 1)
        if c in ";{}" and depth == 0:
            stmt = "".join(current).strip()
            if stmt:
                statements.append((start_line, stmt + (";" if c == ";" else "")))
            current = []
        else:
            if not current:
                if c.isspace():
                    continue
                start_line = line
            current.append(c)
    stmt = "".join(current).strip()
    if stmt:
        statements.append((start_line, stmt))
    return [(ln, s) for (ln, s) in statements if not s.lstrip().startswith("#")]


def check_discarded_status(relpath, code_text, status_names):
    findings = []
    for start_line, stmt in split_statements(code_text):
        stmt = re.sub(r"\s+", " ", stmt).strip()
        if not stmt.endswith(";"):
            continue
        body = stmt[:-1].strip()
        if CONSUMED_PREFIX_RE.match(body):
            continue
        # Assignment or declaration consumes the result.
        if re.search(r"[^=!<>]=[^=]", body):
            continue
        m = BARE_CALL_RE.match(body)
        if not m:
            continue
        callee = m.group(1)
        if callee in status_names:
            findings.append(Finding(
                relpath, start_line, "discarded-status",
                f"result of Status/Result-returning call '{callee}(...)' is "
                "discarded; handle it, return it, or cast to (void) with a "
                "reason"))
    return findings


# --- Driver -----------------------------------------------------------------

def is_excluded(relpath):
    norm = "/" + relpath.replace(os.sep, "/")
    if any(frag in norm for frag in EXCLUDED_PATH_FRAGMENTS):
        return True
    base = os.path.basename(norm)
    return base.endswith(("_test.cc", "_test.h", "_test.cpp"))


def gather_files(root, paths):
    """Returns [(relpath, text)] for every source file to lint."""
    files = []
    targets = paths or [os.path.join(root, d) for d in DEFAULT_SCAN_DIRS]
    seen = set()
    for target in targets:
        if os.path.isfile(target):
            candidates = [target]
        else:
            candidates = []
            for dirpath, dirnames, filenames in os.walk(target):
                dirnames.sort()
                for name in sorted(filenames):
                    candidates.append(os.path.join(dirpath, name))
        for path in candidates:
            if not path.endswith(SOURCE_EXTENSIONS):
                continue
            rel = os.path.relpath(path, root)
            if rel in seen or is_excluded(rel):
                continue
            seen.add(rel)
            try:
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    files.append((rel, f.read()))
            except OSError as e:
                print(f"lsbench-lint: cannot read {path}: {e}", file=sys.stderr)
    return files


def lint_files(files, rules=ALL_RULES):
    """Lints [(relpath, text)] pairs; returns surviving findings."""
    status_names = (collect_status_returning_names(files)
                    if "discarded-status" in rules else set())
    findings = []
    for relpath, text in files:
        raw_lines = text.splitlines()
        suppressed = parse_suppressions(raw_lines)
        code_text = strip_comments_and_strings(text)
        code_lines = code_text.splitlines()

        file_findings = []
        file_findings += check_line_rules(relpath, code_lines)
        file_findings += check_unordered_iteration(relpath, code_lines)
        file_findings += check_unordered_range_for(relpath, code_lines)
        file_findings += check_self_size_reserve(relpath, code_text)
        if "discarded-status" in rules:
            file_findings += check_discarded_status(
                relpath, code_text, status_names)

        for f in file_findings:
            if f.rule not in rules:
                continue
            if f.rule in suppressed.get(f.line, set()):
                continue
            findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lsbench_lint",
        description="Determinism & error-discipline lint for LSBench.")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated rule subset to run")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: "
                             "src, bench, tools under --root)")
    args = parser.parse_args(argv)

    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    unknown = [r for r in rules if r not in ALL_RULES]
    if unknown:
        print(f"lsbench-lint: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    files = gather_files(os.path.abspath(args.root), args.paths)
    findings = lint_files(files, rules)
    for f in findings:
        print(f)
    if findings:
        print(f"lsbench-lint: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
