#include <gtest/gtest.h>

#include <algorithm>
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

}  // namespace
}  // namespace lsbench
