#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "data/dataset.h"
#include "data/distribution.h"
#include "data/quality.h"
#include "index/kv_index.h"
#include "stats/descriptive.h"
#include "stats/similarity.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

class DistributionTest
    : public ::testing::TestWithParam<
          std::function<std::unique_ptr<UnitDistribution>()>> {};

TEST_P(DistributionTest, SamplesStayInUnitInterval) {
  const auto dist = GetParam()();
  Rng rng(101);
  for (int i = 0; i < 20000; ++i) {
    const double v = dist->Sample(&rng);
    ASSERT_GE(v, 0.0) << dist->name();
    ASSERT_LT(v, 1.0) << dist->name();
  }
}

TEST_P(DistributionTest, HasDescriptiveName) {
  EXPECT_FALSE(GetParam()()->name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionTest,
    ::testing::Values(
        [] { return MakeUniform(); }, [] { return MakeGaussian(0.5, 0.1); },
        [] { return MakeLognormal(0.0, 1.0); }, [] { return MakePareto(1.5); },
        [] { return MakeClustered(5, 0.02, 3); }));

TEST(DistributionTest, GaussianConcentratesAroundMean) {
  GaussianUnit g(0.5, 0.05);
  Rng rng(103);
  StreamingStats s;
  for (int i = 0; i < 20000; ++i) s.Add(g.Sample(&rng));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_LT(s.StdDev(), 0.1);
}

TEST(DistributionTest, UniformIsFlat) {
  UniformUnit u;
  Rng rng(107);
  StreamingStats s;
  for (int i = 0; i < 20000; ++i) s.Add(u.Sample(&rng));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.StdDev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(DistributionTest, ParetoIsRightSkewed) {
  ParetoUnit p(1.2);
  Rng rng(109);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(p.Sample(&rng));
  // Median far below mean: heavy right tail.
  const double median = Quantile(samples, 0.5);
  double mean = 0;
  for (double v : samples) mean += v;
  mean /= static_cast<double>(samples.size());
  EXPECT_LT(median, mean * 0.5);
}

TEST(DistributionTest, BlendInterpolates) {
  UniformUnit a;
  GaussianUnit b(0.9, 0.01);
  Rng rng(113);
  BlendUnit pure_a(&a, &b, 0.0);
  BlendUnit pure_b(&a, &b, 1.0);
  StreamingStats sa, sb;
  for (int i = 0; i < 10000; ++i) {
    sa.Add(pure_a.Sample(&rng));
    sb.Add(pure_b.Sample(&rng));
  }
  EXPECT_NEAR(sa.mean(), 0.5, 0.02);
  EXPECT_NEAR(sb.mean(), 0.9, 0.02);
}

TEST(DistributionTest, MixtureRespectsWeights) {
  std::vector<std::unique_ptr<UnitDistribution>> comps;
  comps.push_back(MakeGaussian(0.1, 0.001));
  comps.push_back(MakeGaussian(0.9, 0.001));
  MixtureUnit mix(std::move(comps), {0.8, 0.2});
  Rng rng(127);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (mix.Sample(&rng) < 0.5) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.8, 0.02);
}

// ---------------------------------------------------------------------------
// Dataset generation
// ---------------------------------------------------------------------------

TEST(DatasetTest, ExactSizeSortedUnique) {
  DatasetOptions options;
  options.num_keys = 5000;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  EXPECT_EQ(ds.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(ds.keys.begin(), ds.keys.end()));
  const std::set<Key> unique(ds.keys.begin(), ds.keys.end());
  EXPECT_EQ(unique.size(), ds.keys.size());
  for (Key k : ds.keys) EXPECT_LT(k, options.domain_max);
}

/// The historical generator, kept as the differential oracle: one hash-set
/// membership check per draw, stopping at the first draw that makes
/// num_keys distinct keys.
std::vector<Key> OracleDatasetKeys(const UnitDistribution& dist,
                                   const DatasetOptions& options) {
  Rng rng(options.seed);
  std::unordered_set<uint64_t> seen;
  seen.reserve(options.num_keys * 2);
  const double scale = static_cast<double>(options.domain_max);
  while (seen.size() < options.num_keys) {
    const double u = dist.Sample(&rng);
    seen.insert(static_cast<uint64_t>(u * scale));
  }
  std::vector<Key> keys(seen.begin(), seen.end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::unique_ptr<UnitDistribution>> EveryDistributionKind() {
  std::vector<std::unique_ptr<UnitDistribution>> dists;
  dists.push_back(MakeUniform());
  dists.push_back(MakeGaussian(0.5, 0.1));
  dists.push_back(MakeLognormal(0.0, 1.0));
  dists.push_back(MakePareto(1.5));
  dists.push_back(MakeClustered(5, 0.02, 3));
  std::vector<std::unique_ptr<UnitDistribution>> components;
  components.push_back(MakeGaussian(0.2, 0.01));
  components.push_back(MakeUniform());
  dists.push_back(std::make_unique<MixtureUnit>(std::move(components),
                                                std::vector<double>{0.7, 0.3}));
  return dists;
}

TEST(DatasetTest, MatchesHashSetOracleForEveryKind) {
  const auto dists = EveryDistributionKind();
  // Blend borrows two of the kinds above.
  const BlendUnit blend(dists[0].get(), dists[4].get(), 0.35);
  std::vector<const UnitDistribution*> kinds;
  for (const auto& d : dists) kinds.push_back(d.get());
  kinds.push_back(&blend);
  for (const UnitDistribution* dist : kinds) {
    for (uint64_t seed : {1u, 42u, 9001u}) {
      for (size_t num_keys : {1u, 2u, 97u, 5000u}) {
        // The smaller domain makes duplicates, and so refill rounds,
        // common for the skewed kinds.
        for (uint64_t domain_max : {uint64_t{1} << 48, uint64_t{1} << 24}) {
          const DatasetOptions options{num_keys, domain_max, seed};
          ASSERT_EQ(GenerateDataset(*dist, options).keys,
                    OracleDatasetKeys(*dist, options))
              << dist->name() << " seed=" << seed << " n=" << num_keys
              << " domain=" << domain_max;
        }
      }
    }
  }
}

/// Forwards to `inner`, counting draws.
class CountingUnit final : public UnitDistribution {
 public:
  explicit CountingUnit(const UnitDistribution* inner) : inner_(inner) {}
  double Sample(Rng* rng) const override {
    ++draws_;
    return inner_->Sample(rng);
  }
  std::string name() const override { return inner_->name(); }
  uint64_t draws() const { return draws_; }

 private:
  const UnitDistribution* inner_;
  mutable uint64_t draws_ = 0;
};

TEST(DatasetTest, MatchesHashSetOracleUnderHeavyCollisions) {
  // stddev 1e-9 of a 2^48 domain spans ~10^6 key values, so 100k draws
  // collide often and generation takes several refill rounds.
  const GaussianUnit narrow(0.5, 1e-9);
  const CountingUnit counted(&narrow);
  const DatasetOptions options{100000, uint64_t{1} << 48, 5};
  const Dataset ds = GenerateDataset(counted, options);
  EXPECT_EQ(ds.size(), options.num_keys);
  EXPECT_EQ(ds.keys, OracleDatasetKeys(narrow, options));
  // The first round draws exactly num_keys; collisions forced more.
  EXPECT_GT(counted.draws(), options.num_keys + 1000);
}

TEST(DriftSequenceTest, MatchesHashSetOracle) {
  const auto from = MakeUniform();
  const auto to = MakeClustered(4, 0.01, 9);
  const DatasetOptions options{3000, uint64_t{1} << 40, 17};
  const std::vector<Dataset> seq =
      GenerateDriftSequence(*from, *to, 4, options);
  ASSERT_EQ(seq.size(), 4u);
  for (size_t i = 0; i < seq.size(); ++i) {
    const double t = static_cast<double>(i) / 3.0;
    const BlendUnit blend(from.get(), to.get(), t);
    DatasetOptions step = options;
    step.seed = options.seed + static_cast<uint64_t>(i) * 7919;
    EXPECT_EQ(seq[i].keys, OracleDatasetKeys(blend, step)) << "step " << i;
  }
}

TEST(DatasetTest, StridedNormalizedKeysEqualSubsample) {
  const Dataset ds =
      GenerateDataset(*MakeLognormal(0.0, 1.0), {10007, uint64_t{1} << 44, 3});
  for (size_t max_n : {0u, 1u, 7u, 4096u, 10006u, 10007u, 20000u}) {
    EXPECT_EQ(ds.NormalizedKeys(max_n), Subsample(ds.NormalizedKeys(), max_n))
        << "max_n=" << max_n;
  }
}

TEST(DatasetTest, DeterministicBySeed) {
  DatasetOptions options;
  options.num_keys = 1000;
  options.seed = 77;
  const Dataset a = GenerateDataset(LognormalUnit(0, 1), options);
  const Dataset b = GenerateDataset(LognormalUnit(0, 1), options);
  EXPECT_EQ(a.keys, b.keys);
  options.seed = 78;
  const Dataset c = GenerateDataset(LognormalUnit(0, 1), options);
  EXPECT_NE(a.keys, c.keys);
}

TEST(DatasetTest, NormalizedKeysInUnitInterval) {
  DatasetOptions options;
  options.num_keys = 100;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  for (double v : ds.NormalizedKeys()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(DatasetTest, DistributionShapesAreDistinguishable) {
  DatasetOptions options;
  options.num_keys = 5000;
  const Dataset uniform = GenerateDataset(UniformUnit(), options);
  const Dataset skewed = GenerateDataset(LognormalUnit(0, 2), options);
  const double ks =
      KolmogorovSmirnov(uniform.NormalizedKeys(), skewed.NormalizedKeys())
          .statistic;
  EXPECT_GT(ks, 0.3);
}

TEST(DriftSequenceTest, EndpointsMatchSourcesAndDriftIsGradual) {
  DatasetOptions options;
  options.num_keys = 3000;
  const UniformUnit from;
  const GaussianUnit to(0.2, 0.02);
  const auto seq = GenerateDriftSequence(from, to, 5, options);
  ASSERT_EQ(seq.size(), 5u);

  // Consecutive steps are closer than the endpoints.
  const double end_to_end =
      KolmogorovSmirnov(seq.front().NormalizedKeys(),
                        seq.back().NormalizedKeys())
          .statistic;
  for (size_t i = 1; i < seq.size(); ++i) {
    const double step = KolmogorovSmirnov(seq[i - 1].NormalizedKeys(),
                                          seq[i].NormalizedKeys())
                            .statistic;
    EXPECT_LT(step, end_to_end);
  }
  EXPECT_GT(end_to_end, 0.4);
}

// ---------------------------------------------------------------------------
// Email generator
// ---------------------------------------------------------------------------

TEST(EmailGeneratorTest, ProducesPlausibleAddresses) {
  EmailGenerator gen(1);
  for (int i = 0; i < 100; ++i) {
    const std::string email = gen.Next();
    const size_t at = email.find('@');
    ASSERT_NE(at, std::string::npos) << email;
    EXPECT_GT(at, 0u);
    EXPECT_NE(email.find(".example"), std::string::npos) << email;
  }
}

TEST(EmailGeneratorTest, DeterministicBySeed) {
  EmailGenerator a(9), b(9), c(10);
  EXPECT_EQ(a.Next(), b.Next());
  // Different seeds diverge quickly (not necessarily on the first draw).
  bool diverged = false;
  EmailGenerator a2(9);
  for (int i = 0; i < 20 && !diverged; ++i) {
    diverged = a2.Next() != c.Next();
  }
  EXPECT_TRUE(diverged);
}

TEST(EmailGeneratorTest, ToKeyIsPrefixOrderPreserving) {
  EXPECT_LT(EmailGenerator::ToKey("aaa@x.example"),
            EmailGenerator::ToKey("bbb@x.example"));
  EXPECT_EQ(EmailGenerator::ToKey("abcdefgh-tail-1"),
            EmailGenerator::ToKey("abcdefgh-tail-2"));  // Same 8-byte prefix.
}

TEST(EmailGeneratorTest, DatasetIsSortedUniqueNonUniform) {
  const Dataset ds = GenerateEmailDataset(2000, 42);
  EXPECT_GT(ds.size(), 1000u);  // Prefix collisions may trim a few.
  EXPECT_TRUE(std::is_sorted(ds.keys.begin(), ds.keys.end()));
  // Email keys are clustered by first letter: far from uniform.
  const DataQualityReport report = ScoreDataset(ds);
  EXPECT_GT(report.skew_score, 30.0);
}

// ---------------------------------------------------------------------------
// Quality scorer (the paper's §V-C tool)
// ---------------------------------------------------------------------------

TEST(QualityTest, UniformDataGetsLowMarks) {
  DatasetOptions options;
  options.num_keys = 20000;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  const DataQualityReport report = ScoreDataset(ds);
  EXPECT_LT(report.overall, 20.0);
  EXPECT_LT(report.skew_score, 10.0);
  EXPECT_NE(report.summary.find("poor"), std::string::npos);
}

TEST(QualityTest, SkewedDataScoresHigherThanUniform) {
  DatasetOptions options;
  options.num_keys = 20000;
  const Dataset uniform = GenerateDataset(UniformUnit(), options);
  const Dataset skewed = GenerateDataset(ClusteredUnit(8, 0.005, 5), options);
  EXPECT_GT(ScoreDataset(skewed).overall, ScoreDataset(uniform).overall + 15);
}

TEST(QualityTest, DriftRaisesSequenceScore) {
  DatasetOptions options;
  options.num_keys = 5000;
  const UniformUnit from;
  const GaussianUnit to(0.1, 0.01);
  const auto drifting = GenerateDriftSequence(from, to, 4, options);
  // A static sequence: same distribution four times.
  const auto same = GenerateDriftSequence(from, from, 4, options);
  const DataQualityReport drift_report = ScoreDatasetSequence(drifting);
  const DataQualityReport static_report = ScoreDatasetSequence(same);
  EXPECT_GT(drift_report.drift_score, static_report.drift_score + 20);
  EXPECT_GT(drift_report.overall, static_report.overall);
}

TEST(QualityTest, EmptySequence) {
  EXPECT_EQ(ScoreDatasetSequence({}).overall, 0.0);
}

TEST(QualityTest, WorkloadScorerPrefersVariedSkewedTraces) {
  // Flat arrivals, uniform access: poor.
  const std::vector<double> flat(50, 100.0);
  const std::vector<double> uniform_access(1000, 5.0);
  const WorkloadQualityReport poor =
      ScoreWorkloadTrace(flat, uniform_access);
  EXPECT_LT(poor.overall, 15.0);

  // Bursty arrivals, zipf-ish access: good.
  std::vector<double> bursty;
  for (int i = 0; i < 50; ++i) bursty.push_back(i % 10 == 0 ? 1000.0 : 50.0);
  std::vector<double> skewed_access;
  for (int i = 0; i < 1000; ++i) {
    skewed_access.push_back(i < 50 ? 500.0 : 1.0);
  }
  const WorkloadQualityReport good =
      ScoreWorkloadTrace(bursty, skewed_access);
  EXPECT_GT(good.overall, 50.0);
  EXPECT_GT(good.load_variation_score, 30.0);
  EXPECT_GT(good.access_skew_score, 50.0);
}

}  // namespace
}  // namespace lsbench
