// Throughput gate for batch request units in the executor: sweeps
// scalar-vs-batch op classes across workers {1, 4} and the btree/learned
// SUTs, all driving the same number of *elements* through the stack, and
// writes the tracked BENCH_throughput.json that CI diffs against the
// committed copy (>10% scalar ops/s regression fails the job; the batch
// loop must stay >= 3x scalar ops/s on the btree SUT at workers=4).
//
// Measurement: real clock, closed loop, sequential access over a
// cache-resident dataset — the configuration that minimizes SUT-side cache
// noise, so the numbers isolate harness dispatch cost (what this gate
// tracks) rather than index performance (micro_index's job) and stay
// stable across CI runs. The measured window is the phase-boundary span
// of the run — dataset load before the first boundary and the post-run
// shard merge + metrics pass after the last are excluded, so ops/s is the
// throughput of the dispatch loop itself (generator -> executor -> SUT ->
// event sink). Scalar configs pay the full per-op stack; batch configs
// draw kBatchGet/kBatchPut request units of `batch_size` elements, so the
// per-request costs (stream bookkeeping, retry/breaker/deadline logic,
// SUT dispatch) amortize across the batch. Each config reports the best
// of `kRepeats` runs to damp scheduler noise.
//
// Dispatch: every config calls the SUT through the SystemUnderTest vtable,
// once per request unit — the bare btree/learned SUT at workers=1, the
// driver's SerializingSut wrapper (forwarding under its lock) at workers=4.
//
// Usage: throughput_gate [output.json]   (default BENCH_throughput.json)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace lsbench {
namespace {

constexpr uint32_t kBatchSize = 256;
constexpr int kRepeats = 3;
// Elements per configuration: scalar runs issue this many ops, batch runs
// issue (elements / kBatchSize) request units of kBatchSize elements.
constexpr uint64_t kElements = 1 << 20;
constexpr size_t kNumKeys = 4096;  // Cache-resident: index cost stays flat.

RunSpec BuildSpec(const Dataset& dataset, bool batch, uint32_t workers) {
  RunSpec spec;
  spec.name = std::string("throughput_gate_") + (batch ? "batch" : "scalar") +
              "_w" + std::to_string(workers);
  spec.seed = 20260808;
  spec.datasets.push_back(dataset);
  spec.offline_training = true;
  spec.interval_nanos = 1000000000;
  spec.execution.workers = workers;

  PhaseSpec phase;
  phase.name = batch ? "batch" : "scalar";
  phase.dataset_index = 0;
  if (batch) {
    phase.mix.get = 0.0;
    phase.mix.batch_get = 0.9;
    phase.mix.batch_put = 0.1;
    phase.batch_size = kBatchSize;
    phase.num_operations = kElements / kBatchSize;
  } else {
    phase.mix.get = 0.9;
    phase.mix.update = 0.1;
    phase.num_operations = kElements;
  }
  phase.access = AccessPattern::kSequential;
  phase.arrival = ArrivalPattern::kClosedLoop;
  spec.phases.push_back(phase);
  return spec;
}

std::unique_ptr<SystemUnderTest> MakeSut(const std::string& kind) {
  if (kind == "btree") return std::make_unique<BTreeSystem>();
  LearnedSystemOptions options;
  return std::make_unique<LearnedKvSystem>(options);
}

struct ConfigResult {
  std::string sut;
  uint32_t workers = 0;
  std::string mode;  ///< "scalar" or "batch".
  uint32_t batch_size = 1;
  uint64_t elements = 0;  ///< Per-element operation count (from metrics).
  double ops_per_sec = 0.0;
  double window_seconds = 0.0;
};

/// Phase-boundary span of the run in real seconds: excludes load before the
/// first phase and merge/metrics after the last.
double BoundaryWindowSeconds(const RunResult& result) {
  int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const PhaseBoundary& b : result.boundaries) {
    lo = std::min(lo, b.start_nanos);
    hi = std::max(hi, b.end_nanos);
  }
  return lo < hi ? static_cast<double>(hi - lo) * 1e-9 : 0.0;
}

ConfigResult RunConfig(const Dataset& dataset, const std::string& sut_kind,
                       uint32_t workers, bool batch) {
  ConfigResult out;
  out.sut = sut_kind;
  out.workers = workers;
  out.mode = batch ? "batch" : "scalar";
  out.batch_size = batch ? kBatchSize : 1;
  const RunSpec spec = BuildSpec(dataset, batch, workers);
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::unique_ptr<SystemUnderTest> sut = MakeSut(sut_kind);
    const RunResult result = bench::MustRun(spec, sut.get());
    const double window = BoundaryWindowSeconds(result);
    if (window <= 0.0) continue;
    const double ops_per_sec =
        static_cast<double>(result.metrics.total_operations) / window;
    if (ops_per_sec > out.ops_per_sec) {
      out.ops_per_sec = ops_per_sec;
      out.window_seconds = window;
      out.elements = result.metrics.total_operations;
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_throughput.json";
  bench::Header("Throughput gate: scalar vs batch dispatch");
  std::printf("%llu elements/config, batch_size %u, best of %d, "
              "sequential over %zu keys\n",
              static_cast<unsigned long long>(kElements), kBatchSize,
              kRepeats, kNumKeys);

  DatasetOptions dataset_options;
  dataset_options.num_keys = kNumKeys;
  dataset_options.seed = 11;
  const Dataset dataset = GenerateDataset(UniformUnit(), dataset_options);

  std::vector<ConfigResult> configs;
  for (const char* sut_kind : {"btree", "learned"}) {
    for (const uint32_t workers : {1u, 4u}) {
      for (const bool batch : {false, true}) {
        configs.push_back(RunConfig(dataset, sut_kind, workers, batch));
      }
    }
  }

  std::printf("\n| sut     | workers | mode   | batch | elements | Mops/s |\n");
  std::printf("|---------|---------|--------|-------|----------|--------|\n");
  for (const ConfigResult& c : configs) {
    std::printf("| %-7s | %7u | %-6s | %5u | %8llu | %6.2f |\n",
                c.sut.c_str(), c.workers, c.mode.c_str(), c.batch_size,
                static_cast<unsigned long long>(c.elements),
                c.ops_per_sec * 1e-6);
  }

  // Batch-over-scalar speedups per (sut, workers) — the gated ratios.
  struct Speedup {
    std::string sut;
    uint32_t workers = 0;
    double batch_over_scalar = 0.0;
  };
  std::vector<Speedup> speedups;
  for (const ConfigResult& c : configs) {
    if (c.mode != "batch") continue;
    for (const ConfigResult& s : configs) {
      if (s.mode == "scalar" && s.sut == c.sut && s.workers == c.workers &&
          s.ops_per_sec > 0.0) {
        speedups.push_back(
            {c.sut, c.workers, c.ops_per_sec / s.ops_per_sec});
      }
    }
  }
  std::printf("\n| sut     | workers | batch/scalar |\n");
  std::printf("|---------|---------|--------------|\n");
  for (const Speedup& s : speedups) {
    std::printf("| %-7s | %7u | %11.2fx |\n", s.sut.c_str(), s.workers,
                s.batch_over_scalar);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"throughput_gate\",\n");
  std::fprintf(out, "  \"elements_per_config\": %llu,\n",
               static_cast<unsigned long long>(kElements));
  std::fprintf(out, "  \"batch_size\": %u,\n", kBatchSize);
  std::fprintf(out, "  \"repeats\": %d,\n", kRepeats);
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t i = 0; i < configs.size(); ++i) {
    const ConfigResult& c = configs[i];
    std::fprintf(out,
                 "    {\"sut\": \"%s\", \"workers\": %u, \"mode\": \"%s\", "
                 "\"batch_size\": %u, \"elements\": %llu, "
                 "\"ops_per_sec\": %.1f}%s\n",
                 c.sut.c_str(), c.workers, c.mode.c_str(), c.batch_size,
                 static_cast<unsigned long long>(c.elements), c.ops_per_sec,
                 i + 1 < configs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"speedups\": [\n");
  for (size_t i = 0; i < speedups.size(); ++i) {
    const Speedup& s = speedups[i];
    std::fprintf(out,
                 "    {\"sut\": \"%s\", \"workers\": %u, "
                 "\"batch_over_scalar\": %.2f}%s\n",
                 s.sut.c_str(), s.workers, s.batch_over_scalar,
                 i + 1 < speedups.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace lsbench

int main(int argc, char** argv) { return lsbench::Main(argc, argv); }
