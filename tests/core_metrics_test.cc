#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "stats/descriptive.h"
#include "util/random.h"

namespace lsbench {
namespace {

constexpr int64_t kSecond = 1000000000;
constexpr int64_t kMilli = 1000000;

/// Events at a constant rate: `per_second` events/s for `seconds` seconds,
/// each with the given latency, starting at `start`.
EventStream ConstantRate(int64_t start, int seconds, int per_second,
                         int64_t latency, int phase = 0) {
  EventStream events;
  for (int s = 0; s < seconds; ++s) {
    for (int i = 0; i < per_second; ++i) {
      OpEvent e;
      e.timestamp_nanos =
          start + s * kSecond + (i * kSecond) / per_second;
      e.latency_nanos = latency;
      e.phase = phase;
      e.ok = true;
      events.push_back(e);
    }
  }
  return events;
}

// ---------------------------------------------------------------------------
// Cumulative curves (Fig. 1b)
// ---------------------------------------------------------------------------

TEST(CumulativeCurveTest, CountsPerInterval) {
  const EventStream events = ConstantRate(0, 5, 100, kMilli);
  const auto curve = BuildCumulativeCurve(events, kSecond);
  ASSERT_GE(curve.size(), 6u);
  EXPECT_EQ(curve.front().completed, 0u);
  EXPECT_EQ(curve[1].completed, 100u);
  EXPECT_EQ(curve[3].completed, 300u);
  EXPECT_EQ(curve.back().completed, 500u);
}

TEST(CumulativeCurveTest, EmptyStream) {
  const auto curve = BuildCumulativeCurve({}, kSecond);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_EQ(curve[0].completed, 0u);
}

TEST(AreaVsIdealTest, ConstantThroughputIsNearZero) {
  const EventStream events = ConstantRate(0, 10, 100, kMilli);
  const auto curve = BuildCumulativeCurve(events, kSecond);
  const double area = AreaVsIdeal(curve);
  // Perfectly linear accumulation has ~0 area vs the ideal line.
  EXPECT_NEAR(area, 0.0, 60.0);  // 1000 events over 10s: tolerance 6%.
}

TEST(AreaVsIdealTest, SlowStartIsNegative) {
  // 5 s at 10/s then 5 s at 190/s: the curve sags below the ideal line.
  EventStream events = ConstantRate(0, 5, 10, kMilli);
  const EventStream fast = ConstantRate(5 * kSecond, 5, 190, kMilli);
  events.insert(events.end(), fast.begin(), fast.end());
  const auto curve = BuildCumulativeCurve(events, kSecond);
  EXPECT_LT(AreaVsIdeal(curve), -100.0);
}

TEST(AreaVsIdealTest, FastStartIsPositive) {
  EventStream events = ConstantRate(0, 5, 190, kMilli);
  const EventStream slow = ConstantRate(5 * kSecond, 5, 10, kMilli);
  events.insert(events.end(), slow.begin(), slow.end());
  const auto curve = BuildCumulativeCurve(events, kSecond);
  EXPECT_GT(AreaVsIdeal(curve), 100.0);
}

TEST(AreaBetweenCurvesTest, FasterSystemWins) {
  const auto fast =
      BuildCumulativeCurve(ConstantRate(0, 10, 200, kMilli), kSecond);
  const auto slow =
      BuildCumulativeCurve(ConstantRate(0, 10, 100, kMilli), kSecond);
  EXPECT_GT(AreaBetweenCurves(fast, slow), 100.0);
  EXPECT_LT(AreaBetweenCurves(slow, fast), -100.0);
  EXPECT_NEAR(AreaBetweenCurves(fast, fast), 0.0, 1e-6);
}

// ---------------------------------------------------------------------------
// SLA bands (Fig. 1c)
// ---------------------------------------------------------------------------

TEST(SlaBandsTest, SplitsByThreshold) {
  EventStream events;
  for (int i = 0; i < 10; ++i) {
    OpEvent e;
    e.timestamp_nanos = i * 100 * kMilli;  // All within the first second.
    e.latency_nanos = (i % 2 == 0) ? kMilli : 10 * kMilli;
    events.push_back(e);
  }
  const auto bands = BuildSlaBands(events, kSecond, 5 * kMilli);
  ASSERT_EQ(bands.size(), 1u);
  EXPECT_EQ(bands[0].within_sla, 5u);
  EXPECT_EQ(bands[0].violated, 5u);
  EXPECT_EQ(bands[0].Total(), 10u);
}

TEST(SlaBandsTest, MultipleIntervalsIncludingEmpty) {
  EventStream events;
  OpEvent early;
  early.timestamp_nanos = 100 * kMilli;
  early.latency_nanos = 1;
  events.push_back(early);
  OpEvent late;
  late.timestamp_nanos = 3 * kSecond + 500 * kMilli;
  late.latency_nanos = 1;
  events.push_back(late);
  const auto bands = BuildSlaBands(events, kSecond, kMilli);
  ASSERT_EQ(bands.size(), 4u);
  EXPECT_EQ(bands[0].Total(), 1u);
  EXPECT_EQ(bands[1].Total(), 0u);
  EXPECT_EQ(bands[2].Total(), 0u);
  EXPECT_EQ(bands[3].Total(), 1u);
  EXPECT_EQ(bands[2].start_nanos, 2 * kSecond);
}

TEST(SlaBandsTest, EmptyEvents) {
  EXPECT_TRUE(BuildSlaBands({}, kSecond, kMilli).empty());
}

TEST(CalibrateSlaTest, UsesPercentileTimesMargin) {
  EventStream events;
  for (int i = 1; i <= 100; ++i) {
    OpEvent e;
    e.timestamp_nanos = i;
    e.latency_nanos = i * 1000;  // 1..100 us.
    events.push_back(e);
  }
  const int64_t sla = CalibrateSla(events, 0.99, 2.0);
  // p99 of 1..100us is ~99.01us in the interpolated definition; x2 margin.
  EXPECT_NEAR(static_cast<double>(sla), 198020.0, 3000.0);
}

TEST(CalibrateSlaTest, EmptyFallsBack) {
  EXPECT_EQ(CalibrateSla({}, 0.99, 2.0), kMilli);
}

// ---------------------------------------------------------------------------
// Multi-threshold bands (§V-D2 extension)
// ---------------------------------------------------------------------------

TEST(MultiBandTest, ClassifiesByThreshold) {
  EventStream events;
  const int64_t lats[] = {kMilli / 2, kMilli, 2 * kMilli, 10 * kMilli};
  for (int i = 0; i < 4; ++i) {
    OpEvent e;
    e.timestamp_nanos = i * 10 * kMilli;
    e.latency_nanos = lats[i];
    events.push_back(e);
  }
  const auto bands =
      BuildMultiBands(events, kSecond, {kMilli, 4 * kMilli});
  ASSERT_EQ(bands.size(), 1u);
  ASSERT_EQ(bands[0].counts.size(), 3u);
  EXPECT_EQ(bands[0].counts[0], 2u);  // <= 1 ms (inclusive).
  EXPECT_EQ(bands[0].counts[1], 1u);  // <= 4 ms.
  EXPECT_EQ(bands[0].counts[2], 1u);  // Above.
  EXPECT_EQ(bands[0].Total(), 4u);
}

TEST(MultiBandTest, TotalsMatchSimpleBands) {
  EventStream events = ConstantRate(0, 3, 50, kMilli);
  for (size_t i = 0; i < events.size(); i += 7) {
    events[i].latency_nanos = 20 * kMilli;
  }
  const auto simple = BuildSlaBands(events, kSecond, 5 * kMilli);
  const auto multi = BuildMultiBands(events, kSecond, {kMilli, 5 * kMilli});
  ASSERT_EQ(simple.size(), multi.size());
  for (size_t i = 0; i < simple.size(); ++i) {
    EXPECT_EQ(simple[i].Total(), multi[i].Total());
    // Violations = the class above the SLA threshold.
    EXPECT_EQ(simple[i].violated, multi[i].counts[2]);
  }
}

TEST(MultiBandTest, EmptyEvents) {
  EXPECT_TRUE(BuildMultiBands({}, kSecond, {kMilli}).empty());
}

// ---------------------------------------------------------------------------
// Full metric computation
// ---------------------------------------------------------------------------

TEST(RunMetricsTest, TwoPhaseRunEndToEnd) {
  // Phase 0: 5 s at 100/s, 1 ms latency. Phase 1: 5 s at 50/s with a slow
  // patch at the start (simulating a retraining stall after a shift).
  EventStream events = ConstantRate(0, 5, 100, kMilli, /*phase=*/0);
  EventStream p1 = ConstantRate(5 * kSecond, 5, 50, kMilli, /*phase=*/1);
  // First 100 events of phase 1 are 50x over SLA.
  for (size_t i = 0; i < 100; ++i) p1[i].latency_nanos = 100 * kMilli;
  events.insert(events.end(), p1.begin(), p1.end());

  std::vector<PhaseBoundary> boundaries(2);
  boundaries[0] = {0, 0, 5 * kSecond, false, 500};
  boundaries[1] = {1, 5 * kSecond, 10 * kSecond, false, 250};

  MetricsOptions options;
  options.sla_nanos = 10 * kMilli;
  options.adjustment_window_ops = 200;
  const RunMetrics m = ComputeRunMetrics(events, boundaries, options);

  EXPECT_EQ(m.total_operations, 750u);
  EXPECT_NEAR(m.wall_seconds, 10.0, 0.1);
  EXPECT_NEAR(m.mean_throughput, 75.0, 2.0);
  EXPECT_EQ(m.sla_nanos, 10 * kMilli);
  EXPECT_EQ(m.total_sla_violations, 100u);

  ASSERT_EQ(m.phases.size(), 2u);
  EXPECT_EQ(m.phases[0].operations, 500u);
  EXPECT_EQ(m.phases[0].sla_violations, 0u);
  EXPECT_NEAR(m.phases[0].mean_throughput, 100.0, 1.0);
  EXPECT_EQ(m.phases[1].operations, 250u);
  EXPECT_EQ(m.phases[1].sla_violations, 100u);
  // Adjustment excess: 100 events x (100ms - 10ms) = 9 s.
  EXPECT_NEAR(m.phases[1].adjustment_excess_seconds, 9.0, 0.01);
  EXPECT_NEAR(m.phases[0].adjustment_excess_seconds, 0.0, 1e-9);

  // Box plots: phase 0 sampled at ~100 ops/s in every subinterval.
  EXPECT_NEAR(m.phases[0].throughput_box.median, 100.0, 15.0);
  EXPECT_GT(m.phases[0].throughput_box.count, 10u);

  // Cumulative curve ends at the total.
  EXPECT_EQ(m.cumulative.back().completed, 750u);
  EXPECT_FALSE(m.bands.empty());
}

TEST(RunMetricsTest, AutoSlaCalibrationUsesPhaseZero) {
  EventStream events = ConstantRate(0, 2, 100, kMilli, 0);
  const EventStream p1 = ConstantRate(2 * kSecond, 2, 100, 50 * kMilli, 1);
  events.insert(events.end(), p1.begin(), p1.end());
  std::vector<PhaseBoundary> boundaries(2);
  boundaries[0] = {0, 0, 2 * kSecond, false, 200};
  boundaries[1] = {1, 2 * kSecond, 4 * kSecond, false, 200};

  MetricsOptions options;
  options.sla_nanos = 0;  // Calibrate from phase 0 (1 ms * 2 = 2 ms).
  const RunMetrics m = ComputeRunMetrics(events, boundaries, options);
  EXPECT_NEAR(static_cast<double>(m.sla_nanos), 2.0 * kMilli,
              0.1 * kMilli);
  EXPECT_EQ(m.phases[0].sla_violations, 0u);
  EXPECT_EQ(m.phases[1].sla_violations, 200u);  // All of phase 1 violates.
}

TEST(RunMetricsTest, AutoSlaIsTheExactPhaseZeroOrderStatistic) {
  // Phase-0 events interleaved with later phases (as a multi-worker merge
  // leaves them), with duplicate-heavy latencies.
  Rng rng(77);
  EventStream events;
  std::vector<double> phase0_latencies;
  for (int i = 0; i < 3000; ++i) {
    OpEvent e;
    e.timestamp_nanos = i * 1000;
    e.phase = static_cast<int32_t>(rng.NextBounded(3));
    e.latency_nanos =
        1000 + static_cast<int64_t>(rng.NextBounded(50)) * 137 +
        (rng.NextBounded(100) == 0 ? 5 * kMilli : 0);
    e.ok = true;
    if (e.phase == 0) {
      phase0_latencies.push_back(static_cast<double>(e.latency_nanos));
    }
    events.push_back(e);
  }
  std::vector<PhaseBoundary> boundaries(3);
  for (int32_t p = 0; p < 3; ++p) boundaries[p].phase = p;
  std::sort(phase0_latencies.begin(), phase0_latencies.end());
  for (double percentile : {0.5, 0.9, 0.99, 0.999}) {
    for (double margin : {1.0, 1.5, 2.0}) {
      MetricsOptions options;
      options.sla_nanos = 0;
      options.sla_auto_percentile = percentile;
      options.sla_auto_margin = margin;
      const RunMetrics m = ComputeRunMetrics(events, boundaries, options);
      // The historical calibration: fully sort phase 0, interpolate.
      const int64_t expected = static_cast<int64_t>(std::max(
          1.0, QuantileSorted(phase0_latencies, percentile) * margin));
      EXPECT_EQ(m.sla_nanos, expected)
          << "percentile " << percentile << " margin " << margin;
    }
  }
}

TEST(RunMetricsTest, EmptyRun) {
  const RunMetrics m = ComputeRunMetrics({}, {}, MetricsOptions());
  EXPECT_EQ(m.total_operations, 0u);
  EXPECT_EQ(m.mean_throughput, 0.0);
  EXPECT_TRUE(m.phases.empty());
}

TEST(RunMetricsTest, HoldoutFlagPropagates) {
  const EventStream events = ConstantRate(0, 1, 10, kMilli, 0);
  std::vector<PhaseBoundary> boundaries(1);
  boundaries[0] = {0, 0, kSecond, true, 10};
  const RunMetrics m = ComputeRunMetrics(events, boundaries, MetricsOptions());
  ASSERT_EQ(m.phases.size(), 1u);
  EXPECT_TRUE(m.phases[0].holdout);
}

// ---------------------------------------------------------------------------
// Differential test: the single-fold ComputeRunMetrics against the
// multi-pass implementation it replaced
// ---------------------------------------------------------------------------

// The oracle below is the previous ComputeRunMetrics, kept verbatim apart
// from names: one pass each for the phase-0 count, the phase-0 gather, the
// whole-run ShardAccumulation, the cumulative curve, the SLA bands, the
// op-type rollup and the per-phase loop. It lives only here, as the
// reference the fold must reproduce bit for bit.

std::vector<CumulativePoint> OracleCumulativeCurve(const EventStream& events,
                                                   int64_t interval_nanos) {
  std::vector<CumulativePoint> curve;
  curve.push_back({0, 0});
  if (events.empty()) return curve;
  int64_t boundary = interval_nanos;
  uint64_t completed = 0;
  for (const OpEvent& e : events) {
    while (e.timestamp_nanos >= boundary) {
      curve.push_back({boundary, completed});
      boundary += interval_nanos;
    }
    ++completed;
  }
  curve.push_back({boundary, completed});
  return curve;
}

std::vector<LatencyBand> OracleSlaBands(const EventStream& events,
                                        int64_t interval_nanos,
                                        int64_t sla_nanos) {
  std::vector<LatencyBand> bands;
  if (events.empty()) return bands;
  const int64_t last = events.back().timestamp_nanos;
  const size_t num_bands = static_cast<size_t>(last / interval_nanos) + 1;
  bands.resize(num_bands);
  for (size_t i = 0; i < num_bands; ++i) {
    bands[i].start_nanos = static_cast<int64_t>(i) * interval_nanos;
  }
  for (const OpEvent& e : events) {
    const size_t idx = static_cast<size_t>(e.timestamp_nanos / interval_nanos);
    if (e.latency_nanos <= sla_nanos) {
      ++bands[idx].within_sla;
    } else {
      ++bands[idx].violated;
    }
  }
  return bands;
}

int64_t OracleCalibrate(std::vector<double> latencies, double percentile,
                        double margin) {
  if (latencies.empty()) return 1000000;
  const double p = Quantile(std::move(latencies), percentile);
  return static_cast<int64_t>(std::max(1.0, p * margin));
}

RunMetrics OracleRunMetrics(const EventStream& events,
                            const std::vector<PhaseBoundary>& boundaries,
                            const MetricsOptions& options) {
  RunMetrics metrics;
  metrics.total_operations = events.size();
  if (!events.empty()) {
    metrics.wall_seconds =
        static_cast<double>(events.back().timestamp_nanos) * 1e-9;
    if (metrics.wall_seconds > 0.0) {
      metrics.mean_throughput =
          static_cast<double>(events.size()) / metrics.wall_seconds;
    }
  }

  int64_t sla = options.sla_nanos;
  if (sla <= 0) {
    size_t first_phase_ops = 0;
    for (const OpEvent& e : events) {
      if (e.phase == 0) ++first_phase_ops;
    }
    std::vector<double> latencies;
    latencies.reserve(first_phase_ops);
    for (const OpEvent& e : events) {
      if (e.phase == 0) {
        latencies.push_back(static_cast<double>(e.latency_nanos));
      }
    }
    sla = OracleCalibrate(std::move(latencies), options.sla_auto_percentile,
                          options.sla_auto_margin);
  }
  metrics.sla_nanos = sla;

  ShardAccumulation acc;
  for (const OpEvent& e : events) acc.Accumulate(e, sla);
  metrics.overall_latency = acc.latency;
  metrics.total_sla_violations = acc.sla_violations;
  metrics.resilience.failed_operations = acc.failed_operations;
  metrics.resilience.timeouts = acc.timeouts;
  metrics.resilience.shed_operations = acc.shed_operations;
  metrics.resilience.total_retries = acc.total_retries;
  if (!events.empty()) {
    metrics.resilience.availability =
        static_cast<double>(events.size() -
                            metrics.resilience.failed_operations) /
        static_cast<double>(events.size());
  }

  ServiceMetrics& svc = metrics.service;
  svc.enabled = options.service_enabled;
  svc.policy = options.service_policy;
  svc.queue_capacity = options.service_queue_capacity;
  svc.slo_p99_nanos = options.service_slo_p99_nanos;
  svc.max_shed_fraction = options.service_max_shed_fraction;
  svc.response_latency = acc.response_latency;
  svc.service_latency = acc.service_latency;
  svc.queue_wait = acc.queue_wait;
  svc.open_loop_operations = acc.open_loop_operations;
  svc.queue_shed_operations = acc.queue_shed_operations;
  if (acc.open_loop_operations > 0) {
    svc.shed_fraction = static_cast<double>(acc.queue_shed_operations) /
                        static_cast<double>(acc.open_loop_operations);
    const int64_t span = acc.intended_max_nanos - acc.intended_min_nanos;
    if (span > 0) {
      svc.offered_qps = static_cast<double>(acc.open_loop_operations) /
                        (static_cast<double>(span) * 1e-9);
    }
  }
  if (metrics.wall_seconds > 0.0) {
    svc.achieved_qps =
        static_cast<double>(acc.ok_operations) / metrics.wall_seconds;
  }
  svc.shed_bound_met = svc.shed_fraction <= svc.max_shed_fraction;
  svc.slo_met = svc.slo_p99_nanos <= 0 ||
                svc.response_latency.P99() <=
                    static_cast<double>(svc.slo_p99_nanos);

  metrics.cumulative = OracleCumulativeCurve(events, options.interval_nanos);
  metrics.area_vs_ideal = AreaVsIdeal(metrics.cumulative);
  metrics.bands = OracleSlaBands(events, options.interval_nanos, sla);

  metrics.op_types.resize(kNumOpTypes);
  for (size_t i = 0; i < kNumOpTypes; ++i) {
    metrics.op_types[i].type = static_cast<OpType>(i);
  }
  for (const OpEvent& e : events) {
    const size_t idx = static_cast<size_t>(e.type);
    OpTypeMetrics& ot = metrics.op_types[idx];
    ++ot.operations;
    if (e.ok) ++ot.ok_operations;
    if (e.failed) ++ot.failed_operations;
    ot.latency.Record(static_cast<double>(e.latency_nanos));
    const uint32_t batch = e.batch > 0 ? e.batch : 1;
    ot.effective_latency.Record(static_cast<double>(e.latency_nanos) /
                                static_cast<double>(batch));
    ot.batch_sum += batch;
  }

  metrics.phases.reserve(boundaries.size());
  size_t event_idx = 0;
  for (const PhaseBoundary& b : boundaries) {
    PhaseMetrics pm;
    pm.phase = b.phase;
    pm.holdout = b.holdout;
    pm.duration_seconds =
        static_cast<double>(b.end_nanos - b.start_nanos) * 1e-9;
    std::vector<double> per_sample_counts;
    int64_t sample_start = b.start_nanos;
    uint64_t sample_count = 0;
    uint64_t window_ops = 0;
    while (event_idx < events.size() &&
           events[event_idx].phase == b.phase) {
      const OpEvent& e = events[event_idx];
      ++pm.operations;
      pm.latency.Record(static_cast<double>(e.latency_nanos));
      if (e.latency_nanos > sla) ++pm.sla_violations;
      if (e.failed) ++pm.failed_operations;
      if (window_ops < options.adjustment_window_ops) {
        ++window_ops;
        if (e.latency_nanos > sla) {
          pm.adjustment_excess_seconds +=
              static_cast<double>(e.latency_nanos - sla) * 1e-9;
        }
      }
      while (e.timestamp_nanos >=
             sample_start + options.boxplot_sample_nanos) {
        per_sample_counts.push_back(static_cast<double>(sample_count));
        sample_count = 0;
        sample_start += options.boxplot_sample_nanos;
      }
      ++sample_count;
      ++event_idx;
    }
    const double sample_seconds =
        static_cast<double>(options.boxplot_sample_nanos) * 1e-9;
    for (double& c : per_sample_counts) c /= sample_seconds;
    if (sample_count > 0) {
      const double partial_seconds =
          static_cast<double>(b.end_nanos - sample_start) * 1e-9;
      if (partial_seconds >= 0.2 * sample_seconds ||
          per_sample_counts.empty()) {
        per_sample_counts.push_back(static_cast<double>(sample_count) /
                                    std::max(partial_seconds, 1e-9));
      }
    }
    pm.throughput_box = ComputeBoxPlot(std::move(per_sample_counts));
    if (pm.duration_seconds > 0.0) {
      pm.mean_throughput =
          static_cast<double>(pm.operations) / pm.duration_seconds;
    }
    metrics.phases.push_back(std::move(pm));
  }
  return metrics;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

#define EXPECT_BITS_EQ(a, b) EXPECT_EQ(Bits(a), Bits(b)) << (a) << " vs " << (b)

void ExpectSameHistogram(const Histogram& got, const Histogram& want,
                         const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.count(), want.count());
  EXPECT_BITS_EQ(got.sum(), want.sum());
  EXPECT_BITS_EQ(got.min(), want.min());
  EXPECT_BITS_EQ(got.max(), want.max());
  EXPECT_BITS_EQ(got.Mean(), want.Mean());
  EXPECT_BITS_EQ(got.StdDev(), want.StdDev());
  for (int i = 0; i <= 100; ++i) {
    const double q = i / 100.0;
    EXPECT_BITS_EQ(got.Quantile(q), want.Quantile(q));
  }
  EXPECT_BITS_EQ(got.Quantile(0.999), want.Quantile(0.999));
}

void ExpectSameBox(const BoxPlotSummary& got, const BoxPlotSummary& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_BITS_EQ(got.min, want.min);
  EXPECT_BITS_EQ(got.q1, want.q1);
  EXPECT_BITS_EQ(got.median, want.median);
  EXPECT_BITS_EQ(got.q3, want.q3);
  EXPECT_BITS_EQ(got.max, want.max);
  EXPECT_BITS_EQ(got.mean, want.mean);
  EXPECT_BITS_EQ(got.whisker_low, want.whisker_low);
  EXPECT_BITS_EQ(got.whisker_high, want.whisker_high);
  ASSERT_EQ(got.outliers.size(), want.outliers.size());
  for (size_t i = 0; i < got.outliers.size(); ++i) {
    EXPECT_BITS_EQ(got.outliers[i], want.outliers[i]);
  }
}

void ExpectSameRunMetrics(const RunMetrics& got, const RunMetrics& want) {
  EXPECT_EQ(got.total_operations, want.total_operations);
  EXPECT_BITS_EQ(got.wall_seconds, want.wall_seconds);
  EXPECT_BITS_EQ(got.mean_throughput, want.mean_throughput);
  EXPECT_EQ(got.sla_nanos, want.sla_nanos);
  EXPECT_EQ(got.total_sla_violations, want.total_sla_violations);
  ExpectSameHistogram(got.overall_latency, want.overall_latency, "overall");

  ASSERT_EQ(got.op_types.size(), want.op_types.size());
  for (size_t i = 0; i < got.op_types.size(); ++i) {
    SCOPED_TRACE("op type " + std::to_string(i));
    const OpTypeMetrics& g = got.op_types[i];
    const OpTypeMetrics& w = want.op_types[i];
    EXPECT_EQ(g.type, w.type);
    EXPECT_EQ(g.operations, w.operations);
    EXPECT_EQ(g.ok_operations, w.ok_operations);
    EXPECT_EQ(g.failed_operations, w.failed_operations);
    EXPECT_EQ(g.batch_sum, w.batch_sum);
    ExpectSameHistogram(g.latency, w.latency, "latency");
    ExpectSameHistogram(g.effective_latency, w.effective_latency,
                        "effective latency");
  }

  ASSERT_EQ(got.phases.size(), want.phases.size());
  for (size_t i = 0; i < got.phases.size(); ++i) {
    SCOPED_TRACE("phase slot " + std::to_string(i));
    const PhaseMetrics& g = got.phases[i];
    const PhaseMetrics& w = want.phases[i];
    EXPECT_EQ(g.phase, w.phase);
    EXPECT_EQ(g.holdout, w.holdout);
    EXPECT_EQ(g.operations, w.operations);
    EXPECT_BITS_EQ(g.duration_seconds, w.duration_seconds);
    EXPECT_BITS_EQ(g.mean_throughput, w.mean_throughput);
    ExpectSameBox(g.throughput_box, w.throughput_box);
    ExpectSameHistogram(g.latency, w.latency, "phase latency");
    EXPECT_EQ(g.sla_violations, w.sla_violations);
    EXPECT_BITS_EQ(g.adjustment_excess_seconds, w.adjustment_excess_seconds);
    EXPECT_EQ(g.failed_operations, w.failed_operations);
  }

  ASSERT_EQ(got.cumulative.size(), want.cumulative.size());
  for (size_t i = 0; i < got.cumulative.size(); ++i) {
    EXPECT_EQ(got.cumulative[i].t_nanos, want.cumulative[i].t_nanos);
    EXPECT_EQ(got.cumulative[i].completed, want.cumulative[i].completed);
  }
  ASSERT_EQ(got.bands.size(), want.bands.size());
  for (size_t i = 0; i < got.bands.size(); ++i) {
    EXPECT_EQ(got.bands[i].start_nanos, want.bands[i].start_nanos);
    EXPECT_EQ(got.bands[i].within_sla, want.bands[i].within_sla);
    EXPECT_EQ(got.bands[i].violated, want.bands[i].violated);
  }
  EXPECT_BITS_EQ(got.area_vs_ideal, want.area_vs_ideal);

  const ResilienceMetrics& gr = got.resilience;
  const ResilienceMetrics& wr = want.resilience;
  EXPECT_EQ(gr.failed_operations, wr.failed_operations);
  EXPECT_EQ(gr.timeouts, wr.timeouts);
  EXPECT_EQ(gr.shed_operations, wr.shed_operations);
  EXPECT_EQ(gr.total_retries, wr.total_retries);
  EXPECT_EQ(gr.breaker_opens, wr.breaker_opens);
  EXPECT_EQ(gr.failed_trains, wr.failed_trains);
  EXPECT_BITS_EQ(gr.degraded_seconds, wr.degraded_seconds);
  EXPECT_BITS_EQ(gr.availability, wr.availability);

  const ServiceMetrics& gs = got.service;
  const ServiceMetrics& ws = want.service;
  EXPECT_EQ(gs.enabled, ws.enabled);
  EXPECT_EQ(gs.policy, ws.policy);
  EXPECT_EQ(gs.queue_capacity, ws.queue_capacity);
  ExpectSameHistogram(gs.response_latency, ws.response_latency, "response");
  ExpectSameHistogram(gs.service_latency, ws.service_latency, "service");
  ExpectSameHistogram(gs.queue_wait, ws.queue_wait, "queue wait");
  EXPECT_EQ(gs.open_loop_operations, ws.open_loop_operations);
  EXPECT_EQ(gs.queue_shed_operations, ws.queue_shed_operations);
  EXPECT_BITS_EQ(gs.shed_fraction, ws.shed_fraction);
  EXPECT_BITS_EQ(gs.offered_qps, ws.offered_qps);
  EXPECT_BITS_EQ(gs.achieved_qps, ws.achieved_qps);
  EXPECT_EQ(gs.slo_p99_nanos, ws.slo_p99_nanos);
  EXPECT_BITS_EQ(gs.max_shed_fraction, ws.max_shed_fraction);
  EXPECT_EQ(gs.slo_met, ws.slo_met);
  EXPECT_EQ(gs.shed_bound_met, ws.shed_bound_met);
}

/// What a randomized stream exercises on top of plain closed-loop events.
struct StreamShape {
  bool batches = false;       ///< Batch elements (non-integer latency/batch).
  bool open_loop = false;     ///< Open-loop events, some queue-shed.
  bool trailing = false;      ///< Events after the last boundary's phase.
  bool noncontiguous = false; ///< Phase ids that interleave and skip.
};

/// A timestamp-sorted stream over `phases` phase ids with the boundaries a
/// driver would report for it, shaped by `shape`.
EventStream RandomStream(Rng& rng, size_t n, int32_t phases,
                         const StreamShape& shape,
                         std::vector<PhaseBoundary>* boundaries) {
  EventStream events;
  int64_t ts = static_cast<int64_t>(rng.NextBounded(5000));
  uint64_t seq = 0;
  while (events.size() < n) {
    // Phases advance with position; non-contiguous streams jump back and
    // skip ids at random, as a merge of drifted shards never does.
    int32_t phase = static_cast<int32_t>(
        (events.size() * static_cast<size_t>(phases)) / n);
    if (shape.noncontiguous && rng.NextBounded(20) == 0) {
      phase = static_cast<int32_t>(rng.NextBounded(
          static_cast<uint64_t>(phases) + 1));
    }
    if (shape.trailing && events.size() >= n - n / 10) phase = phases + 3;
    ts += static_cast<int64_t>(rng.NextBounded(3) * rng.NextBounded(40000));
    OpEvent e;
    e.timestamp_nanos = ts;
    e.phase = phase;
    // Heavy-tailed integer latencies with duplicates.
    e.latency_nanos = static_cast<int64_t>(rng.NextBounded(2000)) +
                      (rng.NextBounded(10) == 0
                           ? static_cast<int64_t>(rng.NextBounded(2000000))
                           : 0);
    e.issue_nanos = ts - e.latency_nanos;
    e.type = static_cast<OpType>(rng.NextBounded(kNumOpTypes));
    e.retries = static_cast<uint16_t>(rng.NextBounded(8) == 0 ? 2 : 0);
    e.timed_out = rng.NextBounded(50) == 0;
    e.shed = rng.NextBounded(60) == 0;
    e.failed = e.timed_out || e.shed || rng.NextBounded(40) == 0;
    e.ok = !e.failed && rng.NextBounded(5) != 0;
    e.rows = rng.NextBounded(4);
    if (shape.open_loop && rng.NextBounded(2) == 0) {
      e.open_loop = true;
      const int64_t wait = e.latency_nanos == 0
                               ? 0
                               : static_cast<int64_t>(rng.NextBounded(
                                     static_cast<uint64_t>(e.latency_nanos)));
      e.issue_nanos = ts - e.latency_nanos + wait;
      if (rng.NextBounded(6) == 0) {
        e.queue_shed = true;
        e.failed = true;
        e.ok = false;
      }
    }
    uint32_t batch = 1;
    if (shape.batches && rng.NextBounded(3) == 0) {
      static const uint32_t kBatches[] = {3, 7, 64, 129};
      batch = kBatches[rng.NextBounded(4)];
      e.type = rng.NextBounded(2) == 0 ? OpType::kBatchGet : OpType::kBatchPut;
    }
    e.batch = batch;
    for (uint32_t i = 0; i < batch && events.size() < n; ++i) {
      e.seq = seq++;
      events.push_back(e);
    }
  }
  boundaries->clear();
  int64_t start = 0;
  const int64_t last = events.empty() ? 0 : events.back().timestamp_nanos;
  for (int32_t p = 0; p < phases; ++p) {
    // Skipped ids make some boundaries match nothing.
    if (shape.noncontiguous && p == 1) continue;
    PhaseBoundary b;
    b.phase = p;
    b.start_nanos = start;
    b.end_nanos = (last * (p + 1)) / phases + 1;
    b.holdout = p == phases - 1;
    start = b.end_nanos;
    boundaries->push_back(b);
  }
  return events;
}

TEST(RunMetricsDifferentialTest, FoldMatchesMultiPassOracleBitwise) {
  int cases = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (int shape_bits = 0; shape_bits < 16; ++shape_bits) {
      for (const bool auto_sla : {false, true}) {
        Rng rng(seed * 1000 + static_cast<uint64_t>(shape_bits));
        StreamShape shape;
        shape.batches = (shape_bits & 1) != 0;
        shape.open_loop = (shape_bits & 2) != 0;
        shape.trailing = (shape_bits & 4) != 0;
        shape.noncontiguous = (shape_bits & 8) != 0;
        const size_t n = 500 + rng.NextBounded(4000);
        const int32_t phases = 1 + static_cast<int32_t>(rng.NextBounded(4));
        std::vector<PhaseBoundary> boundaries;
        const EventStream events =
            RandomStream(rng, n, phases, shape, &boundaries);

        MetricsOptions options;
        options.interval_nanos = 1000000 + static_cast<int64_t>(
                                               rng.NextBounded(5000000));
        options.boxplot_sample_nanos =
            100000 + static_cast<int64_t>(rng.NextBounded(1000000));
        options.adjustment_window_ops = rng.NextBounded(200);
        options.sla_nanos =
            auto_sla ? 0 : 1 + static_cast<int64_t>(rng.NextBounded(5000));
        options.sla_auto_percentile = rng.NextBounded(2) == 0 ? 0.99 : 0.5;
        options.sla_auto_margin = rng.NextBounded(2) == 0 ? 2.0 : 1.25;
        options.service_enabled = shape.open_loop;
        options.service_policy = "drop_newest";
        options.service_queue_capacity = 16;
        options.service_slo_p99_nanos = rng.NextBounded(2) == 0 ? 0 : 500000;
        options.service_max_shed_fraction = 0.1;

        SCOPED_TRACE("seed " + std::to_string(seed) + " shape " +
                     std::to_string(shape_bits) +
                     (auto_sla ? " auto SLA" : " fixed SLA"));
        ExpectSameRunMetrics(ComputeRunMetrics(events, boundaries, options),
                             OracleRunMetrics(events, boundaries, options));
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 192);
}

TEST(RunMetricsDifferentialTest, EmptyStreamMatchesOracle) {
  std::vector<PhaseBoundary> boundaries(2);
  boundaries[0] = {0, 0, kSecond, false, 0};
  boundaries[1] = {1, kSecond, 2 * kSecond, true, 0};
  for (const int64_t sla : {int64_t{0}, 5 * kMilli}) {
    MetricsOptions options;
    options.sla_nanos = sla;
    ExpectSameRunMetrics(ComputeRunMetrics({}, boundaries, options),
                         OracleRunMetrics({}, boundaries, options));
    ExpectSameRunMetrics(ComputeRunMetrics({}, {}, options),
                         OracleRunMetrics({}, {}, options));
  }
}

TEST(RunMetricsDifferentialTest, PublicBuildersMatchOracle) {
  Rng rng(4242);
  std::vector<PhaseBoundary> boundaries;
  StreamShape shape;
  shape.batches = true;
  const EventStream events = RandomStream(rng, 3000, 3, shape, &boundaries);
  for (const int64_t interval : {int64_t{700000}, 3 * kMilli, kSecond}) {
    const auto curve = BuildCumulativeCurve(events, interval);
    const auto want_curve = OracleCumulativeCurve(events, interval);
    ASSERT_EQ(curve.size(), want_curve.size());
    for (size_t i = 0; i < curve.size(); ++i) {
      EXPECT_EQ(curve[i].t_nanos, want_curve[i].t_nanos);
      EXPECT_EQ(curve[i].completed, want_curve[i].completed);
    }
    const auto bands = BuildSlaBands(events, interval, 1500);
    const auto want_bands = OracleSlaBands(events, interval, 1500);
    ASSERT_EQ(bands.size(), want_bands.size());
    for (size_t i = 0; i < bands.size(); ++i) {
      EXPECT_EQ(bands[i].start_nanos, want_bands[i].start_nanos);
      EXPECT_EQ(bands[i].within_sla, want_bands[i].within_sla);
      EXPECT_EQ(bands[i].violated, want_bands[i].violated);
    }
  }
}

}  // namespace
}  // namespace lsbench
