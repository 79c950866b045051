// Determinism pinning for the observability layer: simulation-mode runs of
// specs/concurrent_demo.lsb must produce byte-identical merged event and
// trace streams run to run, at workers = 1 and workers = 4 alike, and
// observing a run (tracing + profiling + metrics) must not perturb the
// operation stream at all. These are the repo's strongest reproducibility
// guarantees; any regression fails loudly with the differing hashes.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/driver.h"
#include "core/event_sink.h"
#include "core/spec_text.h"
#include "data/dataset.h"
#include "obs/observability.h"
#include "sut/systems.h"

namespace lsbench {
namespace {

RunSpec LoadConcurrentDemoSpec() {
  const std::string path =
      std::string(LSBENCH_SPEC_DIR) + "/concurrent_demo.lsb";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing spec file: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<RunSpec> parsed = ParseRunSpecText(buffer.str());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

/// One full simulation run with observability on: virtual clock shared by
/// driver and SUT, so every exported timestamp is virtual.
RunResult RunOnce(uint32_t workers, bool observe = true) {
  RunSpec spec = LoadConcurrentDemoSpec();
  spec.execution.workers = workers;
  spec.observability.trace = observe;
  spec.observability.profile = observe;
  spec.observability.metrics = observe;

  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  LearnedSystemOptions sut_options;
  LearnedKvSystem sut(sut_options, &clock);
  Result<RunResult> result = driver.Run(spec, &sut);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

RunSpec LoadSpecFile(const char* name) {
  const std::string path = std::string(LSBENCH_SPEC_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing spec file: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<RunSpec> parsed = ParseRunSpecText(buffer.str());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

/// One full simulation run of an arbitrary spec with observability on.
RunResult RunSpecOnce(RunSpec spec, uint32_t workers) {
  spec.execution.workers = workers;
  spec.observability.trace = true;
  spec.observability.profile = true;
  spec.observability.metrics = true;
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  LearnedSystemOptions sut_options;
  LearnedKvSystem sut(sut_options, &clock);
  Result<RunResult> result = driver.Run(spec, &sut);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

uint64_t MetricValue(const MetricsSnapshot& snapshot,
                     const std::string& name) {
  for (const auto& [metric, value] : snapshot.counters) {
    if (metric == name) return value;
  }
  return 0;
}

class TraceDeterminismTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TraceDeterminismTest, RepeatedRunsAreByteIdentical) {
  const uint32_t workers = GetParam();
  const RunResult a = RunOnce(workers);
  const RunResult b = RunOnce(workers);

  // The merged event stream and the merged trace are byte-identical across
  // two independent runs of the same configuration.
  EXPECT_EQ(SerializeEventStream(a.events), SerializeEventStream(b.events));
  EXPECT_EQ(SerializeTrace(a.observability.trace), SerializeTrace(b.observability.trace));
  EXPECT_EQ(HashTrace(a.observability.trace), HashTrace(b.observability.trace));

  // The --trace-out payload (spans + stages + metrics) is too.
  EXPECT_EQ(RenderTraceFile(a.observability, a.run_name, a.sut_name, workers),
            RenderTraceFile(b.observability, b.run_name, b.sut_name, workers));

#if !defined(LSBENCH_NO_TRACING)
  // The trace actually recorded the hot path. (With tracing compiled out
  // the streams are empty — trivially identical, which is still the
  // documented contract of that build mode.)
  EXPECT_FALSE(a.observability.trace.empty());
  EXPECT_FALSE(a.observability.stages.empty());
#endif
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, TraceDeterminismTest,
                         ::testing::Values(1u, 4u));

class BatchDeterminismTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BatchDeterminismTest, BatchRunsAreByteIdentical) {
  // The batch dispatch path (kBatchGet/kBatchPut as one executor request
  // unit, bulk-recorded into the event arena) is held to the same
  // reproducibility bar as the scalar path: two independent runs of
  // specs/batch_demo.lsb produce byte-identical merged event and trace
  // streams, at workers = 1 and workers = 4 alike.
  const uint32_t workers = GetParam();
  const RunResult a = RunSpecOnce(LoadSpecFile("batch_demo.lsb"), workers);
  const RunResult b = RunSpecOnce(LoadSpecFile("batch_demo.lsb"), workers);
  EXPECT_EQ(SerializeEventStream(a.events), SerializeEventStream(b.events));
  EXPECT_EQ(SerializeTrace(a.observability.trace),
            SerializeTrace(b.observability.trace));
  EXPECT_EQ(RenderTraceFile(a.observability, a.run_name, a.sut_name, workers),
            RenderTraceFile(b.observability, b.run_name, b.sut_name, workers));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, BatchDeterminismTest,
                         ::testing::Values(1u, 4u));

TEST(BatchDeterminismTest, BatchSizeOneIsBitIdenticalToScalar) {
  // batch_size = 1 is not "a batch of one": the generator degrades the draw
  // to the scalar op class with identical RNG consumption, so a batch_mix
  // spec at batch_size = 1 and the equivalent scalar-mix spec produce
  // byte-identical merged event streams. Batching is an execution-strategy
  // knob, never a semantic one.
  RunSpec scalar;
  scalar.name = "degenerate";
  scalar.seed = 99;
  DatasetOptions dataset_options;
  dataset_options.num_keys = 5000;
  dataset_options.seed = 3;
  scalar.datasets.push_back(GenerateDataset(UniformUnit(), dataset_options));
  PhaseSpec phase;
  phase.name = "p";
  phase.dataset_index = 0;
  phase.num_operations = 20000;
  phase.mix.get = 0.9;
  phase.mix.update = 0.1;
  scalar.phases.push_back(phase);

  RunSpec batched = scalar;
  batched.phases[0].mix.get = 0.0;
  batched.phases[0].mix.update = 0.0;
  batched.phases[0].mix.batch_get = 0.9;
  batched.phases[0].mix.batch_put = 0.1;
  batched.phases[0].batch_size = 1;

  for (const uint32_t workers : {1u, 4u}) {
    const RunResult a = RunSpecOnce(scalar, workers);
    const RunResult b = RunSpecOnce(batched, workers);
    EXPECT_EQ(SerializeEventStream(a.events), SerializeEventStream(b.events))
        << "workers=" << workers;
  }
}

TEST(TraceDeterminismTest, ObservingDoesNotPerturbTheRun) {
  // The exact same simulated run with observability fully on and fully off
  // must produce the same operation stream: hooks read clocks, they never
  // advance them or draw randomness.
  const RunResult observed = RunOnce(/*workers=*/4, /*observe=*/true);
  const RunResult blind = RunOnce(/*workers=*/4, /*observe=*/false);
  EXPECT_EQ(SerializeEventStream(observed.events),
            SerializeEventStream(blind.events));
  EXPECT_TRUE(blind.observability.trace.empty());
  EXPECT_TRUE(blind.observability.stages.empty());
}

TEST(TraceDeterminismTest, AggregateTotalsAgreeAcrossWorkerCounts) {
  // workers = 1 and workers = 4 run different (forked) operation streams,
  // so their traces differ span by span — but the aggregate accounting
  // must agree: same operation count, same issued/recorded totals, same
  // per-stage sample counts.
  const RunResult w1 = RunOnce(1);
  const RunResult w4 = RunOnce(4);
  EXPECT_EQ(w1.events.size(), w4.events.size());
  EXPECT_EQ(MetricValue(w1.observability.metrics, "stream.ops_issued"),
            MetricValue(w4.observability.metrics, "stream.ops_issued"));
  EXPECT_EQ(MetricValue(w1.observability.metrics, "sink.events_recorded"),
            MetricValue(w4.observability.metrics, "sink.events_recorded"));
  EXPECT_EQ(MetricValue(w1.observability.metrics, "executor.attempts"),
            MetricValue(w4.observability.metrics, "executor.attempts"));

  uint64_t w1_execute_samples = 0;
  uint64_t w4_execute_samples = 0;
  for (const PhaseStageBreakdown& pb : w1.observability.stages) {
    w1_execute_samples +=
        pb.stages[static_cast<size_t>(Stage::kExecute)].samples;
  }
  for (const PhaseStageBreakdown& pb : w4.observability.stages) {
    w4_execute_samples +=
        pb.stages[static_cast<size_t>(Stage::kExecute)].samples;
  }
  EXPECT_EQ(w1_execute_samples, w4_execute_samples);
}

TEST(TraceDeterminismTest, MergedTraceIsProvenanceOrdered) {
#if defined(LSBENCH_NO_TRACING)
  GTEST_SKIP() << "tracing compiled out (LSBENCH_NO_TRACING)";
#endif
  const RunResult run = RunOnce(4);
  const TraceStream& trace = run.observability.trace;
  ASSERT_FALSE(trace.empty());
  for (size_t i = 1; i < trace.size(); ++i) {
    const TraceSpan& prev = trace[i - 1];
    const TraceSpan& cur = trace[i];
    const bool ordered =
        prev.start_nanos < cur.start_nanos ||
        (prev.start_nanos == cur.start_nanos &&
         (prev.worker < cur.worker ||
          (prev.worker == cur.worker && prev.seq < cur.seq)));
    ASSERT_TRUE(ordered) << "trace out of (start, worker, seq) order at "
                         << i;
  }
}

}  // namespace
}  // namespace lsbench
