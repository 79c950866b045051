// lsbench_perf — one pass of LSBench's user path, instrumented for the
// end-to-end benchmark (perfbench/run.py drives it; see perfbench/README.md).
//
// Usage:
//   lsbench_perf --spec=PATH --sut=rmi|btree|partitioned|reference
//                --out=DIR [--traced] [--sim]
//
// It does what `lsbench_cli PATH --sut=... --csv --html=DIR/report.html`
// does — ParseRunSpecText, MeasureDriftTrajectory, BenchmarkDriver::Run,
// then the specialization, SLA-band, drift, CSV and HTML reports, written
// to DIR/report.txt and DIR/report.html — through the library's public
// functions only, and prints one JSON line of measurements on stdout:
//
//   * always: monotonic timestamps of the first phase start, the last phase
//     end and the end of report rendering; the phase window; elements
//     completed and failed; overall service-time p50/p99; peak RSS; and the
//     per-op-class `ok` / `rows` totals the output check compares;
//   * with --traced: the per-layer figures. The SUT is wrapped in the
//     TimingSut decorator and the spec's stage profile is switched on. The
//     timed (untraced) pass runs the bare SUT so the driver keeps its
//     monomorphized engine.
//
// --sim runs on the driver's virtual clock; the benchmark uses it only for
// the output check of multi-worker workloads, whose real-time interleaving
// changes outcomes. Exit status: 0 on success, 1 on a run error, 2 on usage.

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/drift.h"
#include "core/driver.h"
#include "core/spec_text.h"
#include "core/specialization.h"
#include "reference_sut.h"
#include "report/html.h"
#include "report/report.h"
#include "sut/concurrent_kv.h"
#include "sut/systems.h"
#include "timing_sut.h"

namespace lsbench::perf {
namespace {

constexpr double kBytesPerMb = 1e6;

std::unique_ptr<SystemUnderTest> MakeSut(const std::string& kind,
                                         const Clock* clock) {
  if (kind == "rmi") {
    return std::make_unique<LearnedKvSystem>(LearnedSystemOptions(), clock);
  }
  if (kind == "btree") return std::make_unique<BTreeSystem>();
  if (kind == "partitioned") return std::make_unique<PartitionedKvSystem>();
  if (kind == "reference") return std::make_unique<ReferenceSut>();
  return nullptr;
}

double Seconds(int64_t nanos) { return static_cast<double>(nanos) * 1e-9; }

double PerElement(double total, uint64_t elements) {
  return elements > 0 ? total / static_cast<double>(elements) : 0.0;
}

uint64_t PeakResidentBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // Linux: kB.
}

/// Minimal writer for the one flat-ish JSON object the program prints.
class JsonLine {
 public:
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Field(key) << buf;
  }
  void Add(const std::string& key, int64_t value) { Field(key) << value; }
  void Add(const std::string& key, uint64_t value) { Field(key) << value; }
  void Raw(const std::string& key, const std::string& json) {
    Field(key) << json;
  }
  std::string Done() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream& Field(const std::string& key) {
    if (!first_) os_ << ", ";
    first_ = false;
    os_ << '"' << key << "\": ";
    return os_;
  }
  std::ostringstream os_;
  bool first_ = true;
};

/// Per-op-class `[count, ok, rows]` totals over the merged event stream
/// (batch classes count per element) — what the output check compares.
std::string ClassTotals(const EventStream& events) {
  uint64_t ok[kNumOpTypes] = {};
  uint64_t rows[kNumOpTypes] = {};
  uint64_t count[kNumOpTypes] = {};
  for (const OpEvent& e : events) {
    const size_t t = static_cast<size_t>(e.type);
    ++count[t];
    ok[t] += e.ok ? 1 : 0;
    rows[t] += e.rows;
  }
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int t = 0; t < kNumOpTypes; ++t) {
    if (count[t] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << '"' << OpTypeToString(static_cast<OpType>(t)) << "\": ["
       << count[t] << ", " << ok[t] << ", " << rows[t] << "]";
  }
  os << "}";
  return os.str();
}

/// Renders every report `lsbench_cli --csv --html=...` produces and writes
/// them under `out_dir`.
Status WriteReports(const RunSpec& spec, const RunResult& run,
                    const DriftTrajectoryReport& drift,
                    const std::string& out_dir) {
  const SpecializationReport specialization =
      BuildSpecializationReport(spec, run);
  std::ostringstream text;
  text << RenderRunSummary(run) << "\n";
  if (!run.observability.empty()) {
    text << RenderObservability(run.observability) << "\n";
  }
  text << RenderSpecializationReport(specialization) << "\n"
       << RenderSlaBands(run.metrics.bands, run.metrics.sla_nanos) << "\n";
  if (!drift.transitions.empty()) text << RenderDriftReport(drift) << "\n";
  text << "## specialization.csv\n" << SpecializationCsv(specialization)
       << "\n## cumulative.csv\n" << CumulativeCsv(run.metrics.cumulative)
       << "\n## bands.csv\n" << SlaBandsCsv(run.metrics.bands)
       << "\n## phases.csv\n" << PhaseMetricsCsv(run.metrics)
       << "\n## op_types.csv\n" << OpTypeCsv(run.metrics) << "\n";
  if (!run.observability.stages.empty()) {
    text << "## stages.csv\n"
         << StageBreakdownCsv(run.observability.stages) << "\n";
  }
  if (!drift.transitions.empty()) {
    text << "## drift.csv\n" << DriftCsv(drift) << "\n";
  }
  const std::string text_path = out_dir + "/report.txt";
  std::ofstream out(text_path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << text.str())) {
    return Status::IoError("cannot write " + text_path);
  }
  return WriteHtmlReport(run, specialization, out_dir + "/report.html",
                         &drift);
}

/// Stage total over the phases (not the run-level entry), in nanoseconds.
int64_t PhaseStageNanos(const StageBreakdown& stages, Stage stage) {
  int64_t total = 0;
  for (const PhaseStageBreakdown& p : stages) {
    if (p.phase == PhaseStageBreakdown::kRunLevelPhase) continue;
    total += p.stages[static_cast<size_t>(stage)].total_nanos;
  }
  return total;
}

int64_t RunLevelStageNanos(const StageBreakdown& stages, Stage stage) {
  for (const PhaseStageBreakdown& p : stages) {
    if (p.phase == PhaseStageBreakdown::kRunLevelPhase) {
      return p.stages[static_cast<size_t>(stage)].total_nanos;
    }
  }
  return 0;
}

/// Mean SUT time per call of one scalar op class, in nanoseconds.
double ClassNanos(const SutBusy& busy, OpType type) {
  const size_t t = static_cast<size_t>(type);
  return busy.execute_calls[t] > 0
             ? static_cast<double>(busy.execute_nanos[t]) /
                   static_cast<double>(busy.execute_calls[t])
             : 0.0;
}

/// The per-layer figures of a traced pass.
std::string LayerMetrics(const RunSpec& spec, const RunResult& run,
                         const TimingSut& timing, int64_t parse_nanos,
                         int64_t drift_nanos, int64_t render_nanos,
                         uint64_t rss_after_run) {
  const uint64_t elements = run.events.size();
  const SutBusy busy = timing.Busy();
  const double busy_nanos = static_cast<double>(busy.TotalNanos());

  uint64_t keys_generated = 0;
  for (const Dataset& ds : spec.datasets) keys_generated += ds.keys.size();

  // Worker time inside phases: every worker is busy for the whole window.
  int64_t phase_nanos = 0;
  for (const PhaseBoundary& b : run.boundaries) {
    phase_nanos += b.end_nanos - b.start_nanos;
  }
  const double worker_nanos = static_cast<double>(phase_nanos) *
                              static_cast<double>(spec.execution.workers);

  const size_t batch_get = static_cast<size_t>(OpType::kBatchGet);
  const size_t batch_put = static_cast<size_t>(OpType::kBatchPut);
  const int64_t batch_nanos = busy.batch_nanos +
                              busy.execute_nanos[batch_get] +
                              busy.execute_nanos[batch_put];
  const uint64_t batch_elements = busy.batch_elements +
                                  busy.execute_elements[batch_get] +
                                  busy.execute_elements[batch_put];

  const SutStats& before = timing.stats_at_first_phase();
  const SutStats& after = run.final_sut_stats;
  const double retrain_s =
      after.online_train_seconds - before.online_train_seconds;

  const StageBreakdown& stages = run.observability.stages;
  const auto stage_per_element = [&](Stage stage) {
    return PerElement(static_cast<double>(PhaseStageNanos(stages, stage)),
                      elements);
  };
  const double event_bytes =
      static_cast<double>(run.events.capacity() * sizeof(OpEvent));

  JsonLine m;
  m.Add("core.spec_parse_s", Seconds(parse_nanos));
  m.Add("data.keys_generated", keys_generated);
  m.Add("stats.drift_measure_s", Seconds(drift_nanos));
  m.Add("sut.load_s", Seconds(timing.load_nanos()));
  m.Add("sut.train_s", Seconds(timing.train_nanos()));
  m.Add("sut.train_items", timing.train_items());
  m.Add("sut.busy_ns_per_op", PerElement(busy_nanos, elements));
  m.Add("sut.get_ns", ClassNanos(busy, OpType::kGet));
  m.Add("sut.insert_ns", ClassNanos(busy, OpType::kInsert));
  m.Add("sut.update_ns", ClassNanos(busy, OpType::kUpdate));
  m.Add("sut.scan_ns", ClassNanos(busy, OpType::kScan));
  m.Add("sut.range_count_ns", ClassNanos(busy, OpType::kRangeCount));
  m.Add("sut.batch_elem_ns",
        PerElement(static_cast<double>(batch_nanos), batch_elements));
  m.Add("sut.memory_mb",
        static_cast<double>(after.memory_bytes) / kBytesPerMb);
  m.Add("learned.retrains", after.retrain_events - before.retrain_events);
  m.Add("learned.retrain_s", retrain_s);
  m.Add("learned.retrain_share",
        busy_nanos > 0 ? retrain_s * 1e9 / busy_nanos : 0.0);
  m.Add("core.harness_ns_per_op",
        PerElement(worker_nanos - busy_nanos, elements));
  m.Add("workload.generate_ns_per_op", stage_per_element(Stage::kGenerate));
  m.Add("core.pace_ns_per_op", stage_per_element(Stage::kPace));
  m.Add("core.record_ns_per_op", stage_per_element(Stage::kRecord));
  m.Add("core.merge_s", Seconds(RunLevelStageNanos(stages, Stage::kMerge)));
  m.Add("core.metrics_s",
        Seconds(RunLevelStageNanos(stages, Stage::kMetrics)));
  m.Add("report.render_s", Seconds(render_nanos));
  m.Add("core.event_bytes_per_op", PerElement(event_bytes, elements));
  m.Add("mem.rss_after_setup_mb",
        static_cast<double>(timing.rss_at_first_phase()) / kBytesPerMb);
  m.Add("mem.rss_after_run_mb",
        static_cast<double>(rss_after_run) / kBytesPerMb);
  return m.Done();
}

int Run(int argc, char** argv) {
  std::string spec_path;
  std::string sut_kind;
  std::string out_dir;
  bool traced = false;
  bool simulate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--spec=", 0) == 0) {
      spec_path = arg.substr(7);
    } else if (arg.rfind("--sut=", 0) == 0) {
      sut_kind = arg.substr(6);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_dir = arg.substr(6);
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--sim") {
      simulate = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (spec_path.empty() || sut_kind.empty() || out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: lsbench_perf --spec=PATH "
                 "--sut=rmi|btree|partitioned|reference --out=DIR "
                 "[--traced] [--sim]\n");
    return 2;
  }

  // ---- Set-up: spec parse (generates every dataset), drift measurement.
  std::ifstream in(spec_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", spec_path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const int64_t parse_start = MonoNanos();
  Result<RunSpec> parsed = ParseRunSpecText(buffer.str());
  const int64_t parse_nanos = MonoNanos() - parse_start;
  if (!parsed.ok()) {
    std::fprintf(stderr, "spec error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  RunSpec spec = std::move(parsed).value();
  if (traced) spec.observability.profile = true;

  const int64_t drift_start = MonoNanos();
  const DriftTrajectoryReport drift = MeasureDriftTrajectory(spec);
  const int64_t drift_nanos = MonoNanos() - drift_start;

  DriverOptions driver_options;
  VirtualClock virtual_clock;
  const Clock* clock = nullptr;
  if (simulate) {
    driver_options.virtual_clock = &virtual_clock;
    clock = &virtual_clock;
  }
  const std::unique_ptr<SystemUnderTest> sut = MakeSut(sut_kind, clock);
  if (sut == nullptr) {
    std::fprintf(stderr, "unknown --sut: %s\n", sut_kind.c_str());
    return 2;
  }
  std::unique_ptr<TimingSut> timing;
  SystemUnderTest* target = sut.get();
  if (traced) {
    timing = std::make_unique<TimingSut>(sut.get());
    target = timing.get();
  }

  // ---- Load, train, phases, merge, metrics: one driver call.
  BenchmarkDriver driver(clock, driver_options);
  const int64_t run_call = MonoNanos();
  const Result<RunResult> result = driver.Run(spec, target);
  if (!result.ok()) {
    std::fprintf(stderr, "run error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const RunResult& run = result.value();
  if (run.boundaries.empty()) {
    std::fprintf(stderr, "run error: no phase ran\n");
    return 1;
  }
  const uint64_t rss_after_run = ResidentBytes();

  // ---- Reports.
  const int64_t render_start = MonoNanos();
  if (const Status st = WriteReports(spec, run, drift, out_dir); !st.ok()) {
    std::fprintf(stderr, "report error: %s\n", st.ToString().c_str());
    return 1;
  }
  const int64_t reports_done = MonoNanos();

  // Boundaries are relative to the driver's run start, which follows Load
  // and Train directly; the driver times both, so the run start on the
  // monotonic clock is the Run call plus those two. The spec validation
  // before Load (under a microsecond) is thereby counted in post-run time
  // instead of set-up; the phase window is exact.
  const int64_t run_start =
      run_call + static_cast<int64_t>(
                     (run.load_seconds + run.OfflineTrainSeconds()) * 1e9);
  const PhaseBoundary& first = run.boundaries.front();
  const PhaseBoundary& last = run.boundaries.back();

  JsonLine out;
  out.Add("first_phase_start_ns", run_start + first.start_nanos);
  out.Add("last_phase_end_ns", run_start + last.end_nanos);
  out.Add("reports_done_ns", reports_done);
  out.Add("window_s", Seconds(last.end_nanos - first.start_nanos));
  out.Add("elements", static_cast<uint64_t>(run.events.size()));
  out.Add("failed", run.metrics.resilience.failed_operations);
  out.Add("op_p50_us", run.metrics.overall_latency.Median() * 1e-3);
  out.Add("op_p99_us", run.metrics.overall_latency.P99() * 1e-3);
  out.Add("peak_rss_mb",
          static_cast<double>(PeakResidentBytes()) / kBytesPerMb);
  out.Raw("classes", ClassTotals(run.events));
  if (traced) {
    out.Raw("layers", LayerMetrics(spec, run, *timing, parse_nanos,
                                   drift_nanos, reports_done - render_start,
                                   rss_after_run));
  }
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

}  // namespace
}  // namespace lsbench::perf

int main(int argc, char** argv) { return lsbench::perf::Run(argc, argv); }
