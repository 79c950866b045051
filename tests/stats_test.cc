#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "stats/descriptive.h"
#include "stats/reservoir.h"
#include "stats/similarity.h"
#include "util/random.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// StreamingStats
// ---------------------------------------------------------------------------

TEST(StreamingStatsTest, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
}

TEST(StreamingStatsTest, MatchesExactFormulas) {
  StreamingStats s;
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) s.Add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);
}

TEST(StreamingStatsTest, MergeEquivalentToSequential) {
  Rng rng(41);
  StreamingStats a, b, all;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.NextGaussian() * 10 + 5;
    (i < 700 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingStatsTest, MergeWithEmptySides) {
  StreamingStats a, b;
  a.Add(1.0);
  a.Merge(b);  // Empty other.
  EXPECT_EQ(a.count(), 1u);
  b.Merge(a);  // Empty this.
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(StreamingStatsTest, CoefficientOfVariation) {
  StreamingStats s;
  for (double v : {10.0, 10.0, 10.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.CoefficientOfVariation(), 0.0);
}

// ---------------------------------------------------------------------------
// Quantiles & box plots
// ---------------------------------------------------------------------------

TEST(QuantileTest, LinearInterpolation) {
  const std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 10);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 40);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 25);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0 / 3.0), 20);
}

TEST(QuantileTest, EmptyAndSingle) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.9), 7.0);
}

TEST(QuantileTest, SelectionMatchesSortBitForBit) {
  Rng rng(31);
  std::vector<std::vector<double>> inputs;
  std::vector<double> random(1001);
  for (double& v : random) v = rng.NextDouble() * 1e6;
  inputs.push_back(random);
  std::vector<double> duplicates(517);
  for (double& v : duplicates) v = static_cast<double>(rng.NextBounded(5));
  inputs.push_back(duplicates);
  std::vector<double> spiky(64, 3.0);
  spiky[17] = 1e9;
  spiky[40] = -2.5;
  inputs.push_back(spiky);
  inputs.push_back({42.0});
  inputs.push_back({9.0, -1.0});
  inputs.push_back({1.0, 1.0});
  for (const std::vector<double>& input : inputs) {
    std::vector<double> sorted = input;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
      const double expected = QuantileSorted(sorted, q);
      const double got = Quantile(input, q);
      // Bitwise equality, not just ==: the selection path must reproduce
      // the sorted path's interpolation exactly.
      EXPECT_EQ(std::memcmp(&expected, &got, sizeof(double)), 0)
          << "n=" << input.size() << " q=" << q << " expected " << expected
          << " got " << got;
    }
  }
}

TEST(BoxPlotTest, FiveNumberSummary) {
  const BoxPlotSummary s = ComputeBoxPlot({1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_EQ(s.count, 9u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.median, 5);
  EXPECT_DOUBLE_EQ(s.max, 9);
  EXPECT_DOUBLE_EQ(s.q1, 3);
  EXPECT_DOUBLE_EQ(s.q3, 7);
  EXPECT_DOUBLE_EQ(s.mean, 5);
  EXPECT_TRUE(s.outliers.empty());
  EXPECT_DOUBLE_EQ(s.whisker_low, 1);
  EXPECT_DOUBLE_EQ(s.whisker_high, 9);
}

TEST(BoxPlotTest, DetectsOutliers) {
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) values.push_back(100.0 + i % 5);
  values.push_back(1000.0);  // Far outlier.
  values.push_back(-500.0);  // Far outlier.
  const BoxPlotSummary s = ComputeBoxPlot(values);
  ASSERT_EQ(s.outliers.size(), 2u);
  EXPECT_DOUBLE_EQ(s.outliers.front(), -500.0);
  EXPECT_DOUBLE_EQ(s.outliers.back(), 1000.0);
  EXPECT_GE(s.whisker_low, 100.0);
  EXPECT_LE(s.whisker_high, 104.0);
  EXPECT_DOUBLE_EQ(s.min, -500.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST(BoxPlotTest, EmptyInput) {
  const BoxPlotSummary s = ComputeBoxPlot({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.median, 0.0);
}

TEST(BoxPlotTest, ConstantData) {
  const BoxPlotSummary s = ComputeBoxPlot({5, 5, 5, 5});
  EXPECT_DOUBLE_EQ(s.Iqr(), 0.0);
  EXPECT_TRUE(s.outliers.empty());
  EXPECT_DOUBLE_EQ(s.whisker_low, 5.0);
  EXPECT_DOUBLE_EQ(s.whisker_high, 5.0);
}

TEST(PearsonTest, PerfectCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(PearsonTest, DegenerateInputs) {
  EXPECT_EQ(PearsonCorrelation({1, 2}, {1}), 0.0);
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {2, 3, 4}), 0.0);
}

// ---------------------------------------------------------------------------
// Kolmogorov–Smirnov
// ---------------------------------------------------------------------------

std::vector<double> SampleUniform(Rng* rng, int n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->NextDouble();
  return v;
}

TEST(KsTest, IdenticalSamplesHaveZeroStatistic) {
  Rng rng(43);
  const auto a = SampleUniform(&rng, 500);
  const KsResult r = KolmogorovSmirnov(a, a);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);
  EXPECT_GT(r.p_value, 0.99);
}

TEST(KsTest, SameDistributionHasSmallStatistic) {
  Rng rng(47);
  const auto a = SampleUniform(&rng, 4000);
  const auto b = SampleUniform(&rng, 4000);
  const KsResult r = KolmogorovSmirnov(a, b);
  EXPECT_LT(r.statistic, 0.05);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(KsTest, DisjointDistributionsHaveStatisticOne) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {10, 20, 30};
  const KsResult r = KolmogorovSmirnov(a, b);
  EXPECT_DOUBLE_EQ(r.statistic, 1.0);
  EXPECT_LT(r.p_value, 0.1);
}

TEST(KsTest, ShiftedGaussiansDetected) {
  Rng rng(53);
  std::vector<double> a, b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.NextGaussian());
    b.push_back(rng.NextGaussian() + 1.0);
  }
  const KsResult r = KolmogorovSmirnov(a, b);
  EXPECT_GT(r.statistic, 0.3);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTest, EmptyInputs) {
  EXPECT_DOUBLE_EQ(KolmogorovSmirnov({}, {}).statistic, 0.0);
  EXPECT_DOUBLE_EQ(KolmogorovSmirnov({1.0}, {}).statistic, 1.0);
}

TEST(KsTest, StatisticIsSymmetric) {
  Rng rng(59);
  const auto a = SampleUniform(&rng, 300);
  std::vector<double> b;
  for (int i = 0; i < 500; ++i) b.push_back(rng.NextGaussian() * 0.1 + 0.3);
  EXPECT_DOUBLE_EQ(KolmogorovSmirnov(a, b).statistic,
                   KolmogorovSmirnov(b, a).statistic);
}

// ---------------------------------------------------------------------------
// MMD
// ---------------------------------------------------------------------------

TEST(MmdTest, SameDistributionNearZero) {
  Rng rng(61);
  const auto a = SampleUniform(&rng, 300);
  const auto b = SampleUniform(&rng, 300);
  EXPECT_NEAR(MmdSquared(a, b), 0.0, 0.01);
}

TEST(MmdTest, DifferentDistributionsPositive) {
  Rng rng(67);
  std::vector<double> a, b;
  for (int i = 0; i < 300; ++i) {
    a.push_back(rng.NextGaussian() * 0.05 + 0.2);
    b.push_back(rng.NextGaussian() * 0.05 + 0.8);
  }
  EXPECT_GT(MmdSquared(a, b), 0.1);
}

TEST(MmdTest, GreaterSeparationGreaterMmd) {
  Rng rng(71);
  std::vector<double> base, near, far;
  for (int i = 0; i < 200; ++i) {
    base.push_back(rng.NextGaussian() * 0.1);
    near.push_back(rng.NextGaussian() * 0.1 + 0.2);
    far.push_back(rng.NextGaussian() * 0.1 + 2.0);
  }
  EXPECT_LT(MmdSquared(base, near, 0.5), MmdSquared(base, far, 0.5));
}

TEST(MmdTest, TinySamplesReturnZero) {
  EXPECT_EQ(MmdSquared({1.0}, {2.0}), 0.0);
}

// ---------------------------------------------------------------------------
// Similarity metric properties (what the drift factor builds on)
// ---------------------------------------------------------------------------

TEST(KsTest, InvariantUnderMonotoneRescaling) {
  // KS compares CDFs through order statistics only: applying the same
  // affine map to both samples cannot change the statistic.
  Rng rng(73);
  const auto a = SampleUniform(&rng, 400);
  const auto b = SampleUniform(&rng, 300);
  std::vector<double> a_scaled, b_scaled;
  for (double x : a) a_scaled.push_back(1000.0 * x + 5.0);
  for (double x : b) b_scaled.push_back(1000.0 * x + 5.0);
  EXPECT_DOUBLE_EQ(KolmogorovSmirnov(a, b).statistic,
                   KolmogorovSmirnov(a_scaled, b_scaled).statistic);
}

TEST(MmdTest, SymmetricInArguments) {
  Rng rng(79);
  std::vector<double> a, b;
  for (int i = 0; i < 250; ++i) {
    a.push_back(rng.NextGaussian() * 0.2 + 0.3);
    b.push_back(rng.NextDouble());
  }
  // Symmetric up to floating-point summation order (the cross term is
  // accumulated in a different sequence when the arguments swap).
  EXPECT_NEAR(MmdSquared(a, b), MmdSquared(b, a), 1e-9);
  EXPECT_NEAR(MmdSquared(a, b, 0.5), MmdSquared(b, a, 0.5), 1e-9);
}

TEST(MmdTest, IdenticalSamplesEstimateZero) {
  // d(X, X): the unbiased estimator may dip slightly below zero but must
  // stay within sampling noise of it — this is the property the drift
  // factor's clamp-then-sqrt relies on.
  Rng rng(83);
  const auto a = SampleUniform(&rng, 400);
  EXPECT_NEAR(MmdSquared(a, a), 0.0, 5e-3);
}

TEST(MmdTest, MedianHeuristicIsScaleInvariant) {
  // With the default bandwidth (median heuristic), rescaling both samples
  // by the same factor rescales the bandwidth too, so the estimate is
  // (numerically) scale-free. A fixed bandwidth loses this property.
  Rng rng(89);
  std::vector<double> a, b;
  for (int i = 0; i < 300; ++i) {
    a.push_back(rng.NextGaussian() * 0.05 + 0.2);
    b.push_back(rng.NextGaussian() * 0.05 + 0.6);
  }
  std::vector<double> a_scaled, b_scaled;
  for (double x : a) a_scaled.push_back(40.0 * x);
  for (double x : b) b_scaled.push_back(40.0 * x);
  EXPECT_NEAR(MmdSquared(a, b), MmdSquared(a_scaled, b_scaled), 1e-9);
}

TEST(MmdTest, DeterministicAcrossCalls) {
  Rng rng(97);
  const auto a = SampleUniform(&rng, 300);
  const auto b = SampleUniform(&rng, 300);
  EXPECT_EQ(MmdSquared(a, b), MmdSquared(a, b));
}

// ---------------------------------------------------------------------------
// Jaccard
// ---------------------------------------------------------------------------

TEST(JaccardTest, IdenticalSetsAreOne) {
  const std::unordered_set<uint64_t> a = {1, 2, 3};
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, a), 1.0);
}

TEST(JaccardTest, DisjointSetsAreZero) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2}, {3, 4}), 0.0);
}

TEST(JaccardTest, PartialOverlap) {
  // |{2,3}| / |{1,2,3,4}| = 0.5.
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2, 3}, {2, 3, 4}), 0.5);
}

TEST(JaccardTest, EmptySetsAreSimilar) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1}, {}), 0.0);
}

TEST(WeightedJaccardTest, MatchesUnweightedOnUnitWeights) {
  const double w = WeightedJaccard({1, 2, 3}, {1, 1, 1}, {2, 3, 4}, {1, 1, 1});
  EXPECT_DOUBLE_EQ(w, 0.5);
}

TEST(WeightedJaccardTest, WeightsMatter) {
  // min(10,1)/max(10,1) = 0.1 on the shared key.
  EXPECT_DOUBLE_EQ(WeightedJaccard({1}, {10.0}, {1}, {1.0}), 0.1);
}

TEST(WeightedJaccardTest, EmptyInputs) {
  EXPECT_DOUBLE_EQ(WeightedJaccard({}, {}, {}, {}), 1.0);
}

// ---------------------------------------------------------------------------
// Subsample & Phi
// ---------------------------------------------------------------------------

TEST(SubsampleTest, NoOpWhenSmall) {
  const std::vector<double> v = {1, 2, 3};
  EXPECT_EQ(Subsample(v, 10), v);
}

TEST(SubsampleTest, ReducesToCap) {
  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const auto s = Subsample(v, 100);
  EXPECT_EQ(s.size(), 100u);
  // Strided subsample preserves order and span.
  EXPECT_DOUBLE_EQ(s.front(), 0.0);
  EXPECT_GT(s.back(), 900.0);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(PhiTest, BoundsAndBlending) {
  EXPECT_DOUBLE_EQ(PhiDissimilarity(0.0, 1.0), 0.0);   // Identical.
  EXPECT_DOUBLE_EQ(PhiDissimilarity(1.0, 0.0), 1.0);   // Maximal.
  EXPECT_DOUBLE_EQ(PhiDissimilarity(1.0, 1.0, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(PhiDissimilarity(1.0, 1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(PhiDissimilarity(0.4, 0.7, 0.5), 0.5 * 0.4 + 0.5 * 0.3);
}

// ---------------------------------------------------------------------------
// Reservoir
// ---------------------------------------------------------------------------

TEST(ReservoirTest, KeepsAllWhenUnderCapacity) {
  ReservoirSampler<int> r(10);
  for (int i = 0; i < 5; ++i) r.Add(i);
  EXPECT_EQ(r.sample().size(), 5u);
  EXPECT_EQ(r.seen(), 5u);
}

TEST(ReservoirTest, CapsAtCapacity) {
  ReservoirSampler<int> r(16);
  for (int i = 0; i < 1000; ++i) r.Add(i);
  EXPECT_EQ(r.sample().size(), 16u);
  EXPECT_EQ(r.seen(), 1000u);
}

TEST(ReservoirTest, SampleIsRoughlyUniform) {
  // Each element should be retained with probability capacity/stream.
  const int trials = 400;
  const int stream = 200;
  const size_t capacity = 20;
  int first_half = 0, total = 0;
  for (int t = 0; t < trials; ++t) {
    ReservoirSampler<int> r(capacity, /*seed=*/1000 + t);
    for (int i = 0; i < stream; ++i) r.Add(i);
    for (int v : r.sample()) {
      ++total;
      if (v < stream / 2) ++first_half;
    }
  }
  EXPECT_NEAR(static_cast<double>(first_half) / total, 0.5, 0.05);
}

TEST(ReservoirTest, ClearResets) {
  ReservoirSampler<int> r(4);
  r.Add(1);
  r.Clear();
  EXPECT_EQ(r.sample().size(), 0u);
  EXPECT_EQ(r.seen(), 0u);
}

}  // namespace
}  // namespace lsbench
