#!/usr/bin/env python3
"""Unit tests for lsbench_lint: every rule must fire on its fail fixture,
stay quiet on the pass fixtures, and be silenceable via suppressions."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layering  # noqa: E402
import lsbench_lint as lint  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")
LAYERING_DATA = os.path.join(TESTDATA, "layering")
LAYERS = layering.Layers.load(layering.DEFAULT_LAYERS)

# fail/ fixture (relative to testdata/) -> rule that must fire in it, with
# the number of distinct findings expected.
EXPECTED_FAILURES = {
    "fail/random_device.cc": ("no-random-device", 1),
    "fail/libc_rand.cc": ("no-libc-rand", 2),
    "fail/wall_clock.cc": ("no-wall-clock", 2),
    "fail/env_read.cc": ("no-getenv", 1),
    "fail/unseeded_mt19937.cc": ("no-unseeded-mt19937", 2),
    "fail/report/hash_order.cc": ("unordered-iteration", 1),
    "fail/discarded_status.cc": ("discarded-status", 2),
    "fail/detached_thread.cc": ("no-detached-thread", 1),
    "fail/raw_sleep.cc": ("no-raw-sleep", 2),
    "fail/raw_mutex.cc": ("no-raw-mutex", 2),
    "fail/raw_lock.cc": ("no-raw-lock", 2),
    "fail/bare_atomic.cc": ("no-bare-atomic", 2),
    "fail/unordered_range_for.cc": ("unordered-range-for", 1),
    "fail/self_size_reserve.cc": ("no-self-size-reserve", 3),
}


def lint_dir(subdir):
    """Lints one fixture subtree; returns the findings."""
    root = os.path.join(TESTDATA, subdir)
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, TESTDATA)
            with open(path, "r", encoding="utf-8") as f:
                files.append((rel, f.read()))
    return lint.lint_files(files)


class PassFixtures(unittest.TestCase):
    def test_pass_tree_is_clean(self):
        findings = lint_dir("pass")
        self.assertEqual([], [str(f) for f in findings])


class FailFixtures(unittest.TestCase):
    def test_every_rule_fires(self):
        findings = lint_dir("fail")
        by_file = {}
        for f in findings:
            by_file.setdefault(f.path, []).append(f)
        for rel, (rule, count) in EXPECTED_FAILURES.items():
            with self.subTest(fixture=rel):
                got = by_file.get(rel, [])
                self.assertEqual(
                    count, sum(1 for f in got if f.rule == rule),
                    f"{rel}: expected {count} x {rule}, got "
                    f"{[str(f) for f in got]}")
                # No *other* rule may fire on a single-rule fixture: each
                # fixture isolates exactly one invariant.
                self.assertEqual(
                    [], [str(f) for f in got if f.rule != rule])

    def test_no_unexpected_files_flagged(self):
        findings = lint_dir("fail")
        self.assertEqual(set(EXPECTED_FAILURES), {f.path for f in findings})

    def test_every_rule_is_covered_by_a_fixture(self):
        covered = {rule for rule, _ in EXPECTED_FAILURES.values()}
        self.assertEqual(set(lint.ALL_RULES), covered)


class SuppressedFixtures(unittest.TestCase):
    def test_suppressions_silence_every_rule(self):
        findings = lint_dir("suppressed")
        self.assertEqual([], [str(f) for f in findings])

    def test_suppressed_tree_mirrors_fail_tree(self):
        # Guards against a suppression fixture drifting: every fail fixture
        # must have a suppressed twin.
        fail_files = {os.path.relpath(p, "fail") for p in EXPECTED_FAILURES}
        sup_root = os.path.join(TESTDATA, "suppressed")
        sup_files = set()
        for dirpath, _, filenames in os.walk(sup_root):
            for name in filenames:
                sup_files.add(os.path.relpath(
                    os.path.join(dirpath, name), sup_root))
        self.assertEqual(fail_files, sup_files)


class EngineUnitTests(unittest.TestCase):
    def test_strip_comments_and_strings(self):
        code = 'int x = 1; // time(nullptr)\nconst char* s = "rand()";\n'
        stripped = lint.strip_comments_and_strings(code)
        self.assertNotIn("time", stripped)
        self.assertNotIn("rand", stripped)
        self.assertEqual(code.count("\n"), stripped.count("\n"))

    def test_block_comment_preserves_line_numbers(self):
        code = "a /* one\ntwo\nthree */ b\n"
        stripped = lint.strip_comments_and_strings(code)
        self.assertEqual(3, stripped.count("\n"))
        self.assertNotIn("two", stripped)

    def test_suppression_covers_next_line(self):
        sup = lint.parse_suppressions([
            "// lsbench-lint: allow(no-wall-clock, no-getenv)",
            "time(nullptr);",
        ])
        self.assertIn("no-wall-clock", sup[1])
        self.assertIn("no-getenv", sup[2])

    def test_rules_filter(self):
        files = [("x.cc", "#include <ctime>\nlong n = time(nullptr);\n")]
        self.assertEqual(1, len(lint.lint_files(files)))
        self.assertEqual(
            [], lint.lint_files(files, rules=("no-getenv",)))

    def test_raw_mutex_allowed_in_sync_header(self):
        body = "#include <mutex>\nstruct S { std::mutex mu; };\n"
        flagged = lint.lint_files([("src/core/pool.h", body)])
        allowed = lint.lint_files([("src/util/sync.h", body)])
        self.assertEqual(["no-raw-mutex"], [f.rule for f in flagged])
        self.assertEqual([], allowed)

    def test_raw_lock_allowed_in_sync_header(self):
        body = "void F(std::mutex& m) { std::lock_guard<std::mutex> l(m); }\n"
        flagged = lint.lint_files([("src/core/pool.cc", body)])
        allowed = lint.lint_files([("src/util/sync.h", body)])
        self.assertEqual(["no-raw-lock", "no-raw-mutex"],
                         sorted(f.rule for f in flagged))
        self.assertEqual([], allowed)

    def test_raw_sync_allowed_in_sched_tool(self):
        # tools/sched implements the scheduler beneath the wrappers, so the
        # raw primitives are sanctioned there (docs/STATIC_ANALYSIS.md).
        body = ("#include <mutex>\n"
                "struct R { std::mutex m; };\n"
                "void F(R& r) { std::unique_lock<std::mutex> l(r.m); }\n")
        self.assertEqual([], lint.lint_files([("tools/sched/sched.cc", body)]))

    def test_bare_atomic_allowed_in_atomic_header(self):
        body = ("#include <atomic>\n"
                "std::atomic<int> v{0};\n"
                "int Get() { return v.load(std::memory_order_relaxed); }\n")
        flagged = lint.lint_files([("src/obs/counters.h", body)])
        allowed = lint.lint_files([("src/util/atomic.h", body)])
        self.assertEqual(["no-bare-atomic", "no-bare-atomic"],
                         [f.rule for f in flagged])
        self.assertEqual([], allowed)

    def test_unordered_range_for_allowlist_honored(self):
        body = ("#include <unordered_map>\n"
                "int Sum(const std::unordered_map<int, int>& m) {\n"
                "  std::unordered_map<int, int> merged = m;\n"
                "  int s = 0;\n"
                "  for (const auto& kv : merged) s += kv.second;\n"
                "  return s;\n"
                "}\n")
        flagged = lint.lint_files([("src/core/agg.cc", body)])
        allowed = lint.lint_files([("src/stats/similarity.cc", body)])
        self.assertEqual(["unordered-range-for"], [f.rule for f in flagged])
        self.assertEqual([], allowed)

    def test_getenv_allowed_under_util(self):
        body = "#include <cstdlib>\nconst char* v = std::getenv(\"X\");\n"
        flagged = lint.lint_files([("src/core/a.cc", body)])
        allowed = lint.lint_files([("src/util/env.cc", body)])
        self.assertEqual(["no-getenv"], [f.rule for f in flagged])
        self.assertEqual([], allowed)

    def test_discarded_status_consumed_forms_ok(self):
        body = (
            "class Status { public: bool ok() const; };\n"
            "Status Work();\n"
            "Status Caller() {\n"
            "  Status st = Work();\n"
            "  if (!st.ok()) return st;\n"
            "  (void)Work();\n"
            "  return Work();\n"
            "}\n")
        self.assertEqual([], lint.lint_files([("src/a.cc", body)]))

    def test_discarded_status_multiline_call(self):
        body = (
            "class Status { public: bool ok() const; };\n"
            "Status Work(int a, int b);\n"
            "void Caller() {\n"
            "  Work(1,\n"
            "       2);\n"
            "}\n")
        findings = lint.lint_files([("src/a.cc", body)])
        self.assertEqual(["discarded-status"], [f.rule for f in findings])
        self.assertEqual(4, findings[0].line)

    def test_status_names_collected_across_files(self):
        header = "class Status {};\nStatus Work();\n"
        impl = "void Caller() {\n  Work();\n}\n"
        findings = lint.lint_files(
            [("src/a.h", header), ("src/b.cc", impl)])
        self.assertEqual(["discarded-status"], [f.rule for f in findings])


def analyze_fixture(name):
    """Runs the structural layering analysis over one fixture tree."""
    return layering.analyze_tree(
        os.path.join(LAYERING_DATA, name, "src"), LAYERS)


class LayeringFixtures(unittest.TestCase):
    def test_pass_tree_is_clean(self):
        self.assertEqual([], [str(f) for f in analyze_fixture("pass")])

    def test_reversed_core_sut_edge_fires(self):
        findings = analyze_fixture("cross_layer")
        self.assertEqual(["layering"], [f.rule for f in findings])
        finding = findings[0]
        self.assertEqual("src/sut/bad_reversed.h", finding.path)
        self.assertIn("'sut' (band 3) must not include 'core/driver_api.h'",
                      finding.message)

    def test_cycle_fires(self):
        findings = analyze_fixture("cycle")
        self.assertEqual(["include-cycle"], [f.rule for f in findings])
        self.assertIn("core/a.h <-> core/b.h", findings[0].message)

    def test_suppression_silences_layering(self):
        self.assertEqual([], [str(f) for f in analyze_fixture("suppressed")])

    def test_unknown_module_fires(self):
        findings = analyze_fixture("unknown")
        self.assertEqual(["unknown-module"], [f.rule for f in findings])

    def test_real_tree_is_clean(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        findings = layering.analyze_tree(
            os.path.join(repo_root, "src"), LAYERS)
        self.assertEqual([], [str(f) for f in findings])


class LayersTomlTests(unittest.TestCase):
    def test_bands_cover_every_src_module(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        src = os.path.join(repo_root, "src")
        modules = {name for name in os.listdir(src)
                   if os.path.isdir(os.path.join(src, name))}
        self.assertEqual(modules, set(LAYERS.bands))

    def test_band_order_matches_architecture_doc(self):
        ranks = LAYERS.bands
        self.assertLess(ranks["util"], ranks["stats"])
        self.assertLess(ranks["workload"], ranks["index"])
        self.assertLess(ranks["learned"], ranks["sut"])
        self.assertLess(ranks["sut"], ranks["core"])
        self.assertLess(ranks["core"], ranks["report"])


class UnusedEdgeReport(unittest.TestCase):
    def test_flags_contributing_nothing(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "util"))
            os.makedirs(os.path.join(tmp, "core"))
            with open(os.path.join(tmp, "util", "widget.h"), "w") as f:
                f.write("#ifndef W\n#define W\n"
                        "namespace x { struct WidgetFrobnicator {}; }\n"
                        "#endif\n")
            with open(os.path.join(tmp, "core", "user.cc"), "w") as f:
                f.write('#include "util/widget.h"\nint main() { return 0; }\n')
            files = layering.walk_sources(tmp)
            includes, _ = layering.parse_includes(tmp, files)
            report = layering.report_unused_edges(tmp, includes)
            self.assertEqual(1, len(report))
            self.assertEqual("core/user.cc", report[0][0])

    def test_quiet_when_names_are_used(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "util"))
            os.makedirs(os.path.join(tmp, "core"))
            with open(os.path.join(tmp, "util", "widget.h"), "w") as f:
                f.write("namespace x { struct Widget {}; }\n")
            with open(os.path.join(tmp, "core", "user.cc"), "w") as f:
                f.write('#include "util/widget.h"\nx::Widget w;\n')
            files = layering.walk_sources(tmp)
            includes, _ = layering.parse_includes(tmp, files)
            self.assertEqual([], layering.report_unused_edges(tmp, includes))


class SelfSufficiency(unittest.TestCase):
    COMPILER = __import__("shutil").which(os.environ.get("CXX", "c++"))

    @unittest.skipIf(COMPILER is None, "no C++ compiler on PATH")
    def test_good_passes_bad_fails(self):
        src = os.path.join(LAYERING_DATA, "selfsuff", "src")
        failures = layering.check_self_sufficiency(
            src, ["util/good.h", "util/bad.h"], self.COMPILER, "c++20")
        self.assertEqual(["util/bad.h"], [rel for rel, _ in failures])
        self.assertTrue(failures[0][1])  # Carries the compiler diagnostic.


if __name__ == "__main__":
    unittest.main()
