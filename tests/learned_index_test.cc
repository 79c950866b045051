#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "data/dataset.h"
#include "index/skiplist.h"
#include "index/sorted_array.h"
#include "learned/adaptive.h"
#include "learned/delta_buffer.h"
#include "stats/model.h"
#include "learned/pgm.h"
#include "learned/rmi.h"
#include "util/random.h"

namespace lsbench {
namespace {

std::vector<KeyValue> PairsFromDataset(const Dataset& ds) {
  std::vector<KeyValue> pairs;
  pairs.reserve(ds.keys.size());
  for (size_t i = 0; i < ds.keys.size(); ++i) {
    pairs.emplace_back(ds.keys[i], static_cast<Value>(i));
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// LinearModel / CdfModel
// ---------------------------------------------------------------------------

TEST(LinearModelTest, FitsExactLinearData) {
  std::vector<Key> keys;
  for (Key i = 0; i < 100; ++i) keys.push_back(1000 + i * 10);
  const LinearModel m = FitLinear(keys.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_NEAR(m.Predict(static_cast<double>(keys[i])),
                static_cast<double>(i), 1e-6);
  }
}

TEST(LinearModelTest, DegenerateInputs) {
  const LinearModel empty = FitLinear(nullptr, 0);
  EXPECT_EQ(empty.Predict(5.0), 0.0);
  const Key one = 42;
  const LinearModel single = FitLinear(&one, 1);
  EXPECT_EQ(single.Predict(42.0), 0.0);
}

TEST(LinearModelTest, PredictClampedStaysInBounds) {
  LinearModel m{1.0, -100.0};
  EXPECT_EQ(m.PredictClamped(0.0, 10), 0u);
  EXPECT_EQ(m.PredictClamped(1e9, 10), 9u);
  EXPECT_EQ(m.PredictClamped(105.0, 10), 5u);
  EXPECT_EQ(m.PredictClamped(5.0, 0), 0u);
}

TEST(LinearModelTest, LargeKeysStayWellConditioned) {
  std::vector<Key> keys;
  const Key base = Key{1} << 62;
  for (Key i = 0; i < 1000; ++i) keys.push_back(base + i * 1000);
  const LinearModel m = FitLinear(keys.data(), keys.size());
  for (size_t i = 0; i < keys.size(); i += 97) {
    EXPECT_NEAR(m.Predict(static_cast<double>(keys[i])),
                static_cast<double>(i), 1.0);
  }
}

TEST(CdfModelTest, MonotoneAndBounded) {
  Rng rng(77);
  std::vector<Key> sample;
  for (int i = 0; i < 5000; ++i) sample.push_back(rng.Next() % 1000000);
  std::sort(sample.begin(), sample.end());
  const CdfModel cdf = CdfModel::FitFromSorted(sample, 64);
  double prev = -1.0;
  for (Key k = 0; k <= 1000000; k += 10000) {
    const double v = cdf.Evaluate(k);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(CdfModelTest, ApproximatesEmpiricalCdf) {
  std::vector<Key> sample;
  for (Key i = 0; i < 10000; ++i) sample.push_back(i * 100);
  const CdfModel cdf = CdfModel::FitFromSorted(sample, 128);
  EXPECT_NEAR(cdf.Evaluate(500000), 0.5, 0.02);
  EXPECT_NEAR(cdf.Evaluate(100000), 0.1, 0.02);
  EXPECT_DOUBLE_EQ(cdf.Evaluate(0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Evaluate(999900), 1.0);
}

TEST(CdfModelTest, InverseRoundTrips) {
  std::vector<Key> sample;
  for (Key i = 0; i < 10000; ++i) sample.push_back(i * 100);
  const CdfModel cdf = CdfModel::FitFromSorted(sample, 128);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const Key k = cdf.EvaluateInverse(q);
    EXPECT_NEAR(cdf.Evaluate(k), q, 0.02);
  }
}

TEST(CdfModelTest, EmptySampleGivesDefault) {
  const CdfModel cdf = CdfModel::FitFromSorted({}, 8);
  EXPECT_DOUBLE_EQ(cdf.Evaluate(0), 0.0);
  EXPECT_GT(cdf.Evaluate(~Key{0}), 0.99);
}

// ---------------------------------------------------------------------------
// DeltaBuffer
// ---------------------------------------------------------------------------

TEST(DeltaBufferTest, LookupStates) {
  DeltaBuffer delta;
  Value v = 0;
  EXPECT_EQ(delta.Lookup(1, &v), DeltaBuffer::Presence::kAbsent);
  delta.Put(1, 10);
  EXPECT_EQ(delta.Lookup(1, &v), DeltaBuffer::Presence::kLive);
  EXPECT_EQ(v, 10u);
  delta.Delete(1);
  EXPECT_EQ(delta.Lookup(1, &v), DeltaBuffer::Presence::kTombstone);
}

TEST(DeltaBufferTest, MergeIntoAppliesShadowsAndTombstones) {
  DeltaBuffer delta;
  delta.Put(2, 20);      // Overwrites static.
  delta.Put(5, 50);      // New key.
  delta.Delete(3);       // Removes static.
  delta.Delete(99);      // Tombstone for non-existent key: no effect.
  // Stale output contents are discarded, not appended to.
  std::vector<Key> keys = {7, 8};
  std::vector<Value> values = {70};
  delta.MergeInto({1, 2, 3, 4}, {1, 2, 3, 4}, &keys, &values);
  std::vector<KeyValue> merged;
  ASSERT_EQ(keys.size(), values.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    merged.emplace_back(keys[i], values[i]);
  }
  const std::vector<KeyValue> expected = {{1, 1}, {2, 20}, {4, 4}, {5, 50}};
  EXPECT_EQ(merged, expected);
}

TEST(DeltaBufferTest, MergeScanInterleaves) {
  DeltaBuffer delta;
  delta.Put(15, 150);
  delta.Delete(20);
  const std::vector<Key> keys = {10, 20, 30};
  const std::vector<Value> values = {1, 2, 3};
  std::vector<KeyValue> out;
  const size_t got = delta.MergeScan(keys, values, 0, 10, &out);
  EXPECT_EQ(got, 3u);
  const std::vector<KeyValue> expected = {{10, 1}, {15, 150}, {30, 3}};
  EXPECT_EQ(out, expected);
}

TEST(DeltaBufferTest, MergeScanRespectsFromAndLimit) {
  DeltaBuffer delta;
  delta.Put(25, 250);
  const std::vector<Key> keys = {10, 20, 30, 40};
  const std::vector<Value> values = {1, 2, 3, 4};
  std::vector<KeyValue> out;
  EXPECT_EQ(delta.MergeScan(keys, values, 21, 2, &out), 2u);
  const std::vector<KeyValue> expected = {{25, 250}, {30, 3}};
  EXPECT_EQ(out, expected);
}

// ---------------------------------------------------------------------------
// RMI
// ---------------------------------------------------------------------------

class RmiParamTest : public ::testing::TestWithParam<int> {};

TEST_P(RmiParamTest, FindsEveryKeyOnVariedDistributions) {
  const int num_models = GetParam();
  const std::vector<std::unique_ptr<UnitDistribution>> dists = [] {
    std::vector<std::unique_ptr<UnitDistribution>> d;
    d.push_back(MakeUniform());
    d.push_back(MakeLognormal(0.0, 1.5));
    d.push_back(MakeClustered(10, 0.01, 7));
    return d;
  }();
  for (const auto& dist : dists) {
    DatasetOptions options;
    options.num_keys = 20000;
    options.seed = 99;
    const Dataset ds = GenerateDataset(*dist, options);
    RmiOptions rmi_options;
    rmi_options.num_leaf_models = num_models;
    RmiIndex rmi(rmi_options);
    rmi.BulkLoad(PairsFromDataset(ds));
    for (size_t i = 0; i < ds.keys.size(); i += 37) {
      ASSERT_TRUE(rmi.Get(ds.keys[i]).has_value())
          << dist->name() << " models=" << num_models;
      EXPECT_EQ(*rmi.Get(ds.keys[i]), static_cast<Value>(i));
    }
    // Absent probes.
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
      const Key probe = rng.Next() % ds.domain_max;
      const bool stored =
          std::binary_search(ds.keys.begin(), ds.keys.end(), probe);
      EXPECT_EQ(rmi.Get(probe).has_value(), stored);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ModelCounts, RmiParamTest,
                         ::testing::Values(1, 8, 64, 512));

TEST(RmiTest, MoreModelsTightenErrorBounds) {
  DatasetOptions options;
  options.num_keys = 50000;
  const Dataset ds = GenerateDataset(LognormalUnit(0.0, 2.0), options);
  RmiOptions few, many;
  few.num_leaf_models = 4;
  many.num_leaf_models = 1024;
  RmiIndex rmi_few(few), rmi_many(many);
  rmi_few.BulkLoad(PairsFromDataset(ds));
  rmi_many.BulkLoad(PairsFromDataset(ds));
  EXPECT_LT(rmi_many.MeanLeafError(), rmi_few.MeanLeafError());
}

TEST(RmiTest, DeltaInsertEraseRetrain) {
  Dataset ds = GenerateDataset(UniformUnit(), {10000, uint64_t{1} << 40, 3});
  RmiIndex rmi;
  rmi.BulkLoad(PairsFromDataset(ds));
  const size_t base = rmi.size();

  EXPECT_TRUE(rmi.Insert(ds.keys[10] + 1, 777));
  EXPECT_EQ(rmi.size(), base + 1);
  EXPECT_EQ(rmi.delta_size(), 1u);
  EXPECT_EQ(*rmi.Get(ds.keys[10] + 1), 777u);

  EXPECT_TRUE(rmi.Erase(ds.keys[20]));
  EXPECT_FALSE(rmi.Get(ds.keys[20]).has_value());
  EXPECT_EQ(rmi.size(), base);

  // Retrain folds the delta into the static part.
  rmi.Retrain();
  EXPECT_EQ(rmi.delta_size(), 0u);
  EXPECT_EQ(rmi.size(), base);
  EXPECT_EQ(*rmi.Get(ds.keys[10] + 1), 777u);
  EXPECT_FALSE(rmi.Get(ds.keys[20]).has_value());
}

TEST(RmiTest, TrainingSampleTradesAccuracy) {
  const Dataset ds =
      GenerateDataset(ClusteredUnit(30, 0.005, 11), {30000, uint64_t{1} << 40, 5});
  RmiOptions full, sampled;
  full.num_leaf_models = 64;
  sampled.num_leaf_models = 64;
  sampled.train_sample_every = 64;
  RmiIndex rmi_full(full), rmi_sampled(sampled);
  rmi_full.BulkLoad(PairsFromDataset(ds));
  rmi_sampled.BulkLoad(PairsFromDataset(ds));
  // Both stay correct (error bounds are exact regardless of sampling)...
  for (size_t i = 0; i < ds.keys.size(); i += 503) {
    ASSERT_TRUE(rmi_sampled.Get(ds.keys[i]).has_value());
    ASSERT_TRUE(rmi_full.Get(ds.keys[i]).has_value());
  }
  // ...and the cheap fit's error stays within a sane factor of the full
  // fit's. (Least squares minimizes *squared* error, so the subsampled fit
  // can occasionally have a smaller max error — no ordering is guaranteed.)
  EXPECT_LT(rmi_sampled.MeanLeafError(),
            rmi_full.MeanLeafError() * 50.0 + 50.0);
}

// ---------------------------------------------------------------------------
// PGM
// ---------------------------------------------------------------------------

class PgmParamTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PgmParamTest, FindsEveryKeyWithinEpsilon) {
  const uint32_t epsilon = GetParam();
  const Dataset ds = GenerateDataset(LognormalUnit(0.0, 1.0),
                                     {20000, uint64_t{1} << 44, 13});
  PgmIndex pgm(epsilon);
  pgm.BulkLoad(PairsFromDataset(ds));
  EXPECT_GT(pgm.segment_count(), 0u);
  for (size_t i = 0; i < ds.keys.size(); i += 29) {
    ASSERT_TRUE(pgm.Get(ds.keys[i]).has_value()) << "eps=" << epsilon;
    EXPECT_EQ(*pgm.Get(ds.keys[i]), static_cast<Value>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, PgmParamTest,
                         ::testing::Values(1u, 4u, 16u, 128u));

TEST(PgmTest, LargerEpsilonFewerSegments) {
  const Dataset ds = GenerateDataset(ClusteredUnit(50, 0.002, 17),
                                     {40000, uint64_t{1} << 44, 19});
  PgmIndex tight(4), loose(256);
  tight.BulkLoad(PairsFromDataset(ds));
  loose.BulkLoad(PairsFromDataset(ds));
  EXPECT_GT(tight.segment_count(), loose.segment_count());
}

TEST(PgmTest, PerfectlyLinearDataNeedsOneSegment) {
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 10000; ++i) pairs.emplace_back(i * 64, i);
  PgmIndex pgm(8);
  pgm.BulkLoad(pairs);
  EXPECT_EQ(pgm.segment_count(), 1u);
}

TEST(PgmTest, SurvivesDoublePrecisionCollapse) {
  // Near 2^63 the double ULP is 2048, so adjacent uint64 keys convert to
  // the *same* double. The cone must break segments there, not die.
  std::vector<KeyValue> pairs;
  const Key base = Key{1} << 63;
  for (Key i = 0; i < 5000; ++i) pairs.emplace_back(base + i * 3, i);
  PgmIndex pgm(8);
  pgm.BulkLoad(pairs);
  for (Key i = 0; i < 5000; i += 13) {
    ASSERT_TRUE(pgm.Get(base + i * 3).has_value()) << i;
    EXPECT_EQ(*pgm.Get(base + i * 3), i);
  }
  EXPECT_FALSE(pgm.Get(base + 1).has_value());
}

TEST(PgmTest, DeltaOperations) {
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 1000; ++i) pairs.emplace_back(i * 10, i);
  PgmIndex pgm(8);
  pgm.BulkLoad(pairs);
  EXPECT_TRUE(pgm.Insert(5, 500));
  EXPECT_FALSE(pgm.Insert(10, 600));  // Overwrite of static key.
  EXPECT_EQ(*pgm.Get(10), 600u);
  EXPECT_TRUE(pgm.Erase(20));
  EXPECT_EQ(pgm.size(), 1000u);  // 1000 + 1 insert - 1 erase (overwrite is neutral).
  pgm.Retrain();
  EXPECT_EQ(pgm.delta_size(), 0u);
  EXPECT_EQ(*pgm.Get(5), 500u);
  EXPECT_EQ(*pgm.Get(10), 600u);
  EXPECT_FALSE(pgm.Get(20).has_value());
}

// ---------------------------------------------------------------------------
// Retrain merge path (shared by RMI and PGM)
// ---------------------------------------------------------------------------

template <typename Index>
class RetrainTest : public ::testing::Test {};

using RetrainIndexes = ::testing::Types<RmiIndex, PgmIndex>;
TYPED_TEST_SUITE(RetrainTest, RetrainIndexes);

/// Applies `ops` seeded mutations drawn around the live keys: fresh
/// inserts, overwrites of live keys and deletes (live and absent), to both
/// the index and the oracle.
template <typename Index>
void MutateBoth(Index* index, std::map<Key, Value>* oracle, uint64_t seed,
                int ops) {
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const Key fresh = rng.Next() % (uint64_t{1} << 40);
    auto live = oracle->lower_bound(fresh);
    if (live == oracle->end()) live = oracle->begin();
    const Value value = rng.Next();
    switch (rng.NextBounded(4)) {
      case 0:
        index->Insert(fresh, value);
        (*oracle)[fresh] = value;
        break;
      case 1:
        index->Insert(live->first, value);
        live->second = value;
        break;
      case 2:
        index->Erase(live->first);
        oracle->erase(live);
        break;
      default:
        index->Erase(fresh);
        oracle->erase(fresh);
        break;
    }
  }
}

template <typename Index>
std::vector<KeyValue> ScanAll(const Index& index) {
  std::vector<KeyValue> out;
  index.Scan(0, index.size() + 1, &out);
  return out;
}

TYPED_TEST(RetrainTest, MatchesMapOracleAfterMixedWrites) {
  const Dataset ds =
      GenerateDataset(UniformUnit(), {5000, uint64_t{1} << 40, 11});
  TypeParam index;
  index.BulkLoad(PairsFromDataset(ds));
  std::map<Key, Value> oracle;
  for (size_t i = 0; i < ds.keys.size(); ++i) {
    oracle[ds.keys[i]] = static_cast<Value>(i);
  }
  for (uint64_t round = 0; round < 3; ++round) {
    MutateBoth(&index, &oracle, 100 + round, 800);
    EXPECT_EQ(index.Retrain(), oracle.size());
    EXPECT_EQ(index.delta_size(), 0u);
    ASSERT_EQ(index.size(), oracle.size());
    const std::vector<KeyValue> expected(oracle.begin(), oracle.end());
    EXPECT_EQ(ScanAll(index), expected) << "round " << round;
    for (const auto& [k, v] : oracle) {
      const std::optional<Value> got = index.Get(k);
      ASSERT_TRUE(got.has_value()) << "round " << round << " key " << k;
      ASSERT_EQ(*got, v);
    }
  }
}

TYPED_TEST(RetrainTest, StaticKeysEqualScanSnapshot) {
  const Dataset ds =
      GenerateDataset(UniformUnit(), {3000, uint64_t{1} << 40, 12});
  TypeParam index;
  index.BulkLoad(PairsFromDataset(ds));
  std::map<Key, Value> oracle;
  for (Key k : ds.keys) oracle[k] = 0;
  MutateBoth(&index, &oracle, 7, 600);
  index.Retrain();
  // The keys the learned system trains its estimator on, versus the full
  // Scan snapshot it used to take.
  std::vector<Key> scanned;
  for (const auto& [k, v] : ScanAll(index)) scanned.push_back(k);
  EXPECT_EQ(index.static_keys(), scanned);
}

TYPED_TEST(RetrainTest, SecondRetrainReusesSpareCapacity) {
  const Dataset ds =
      GenerateDataset(UniformUnit(), {4000, uint64_t{1} << 40, 13});
  TypeParam index;
  index.BulkLoad(PairsFromDataset(ds));
  const Key* loaded = index.static_keys().data();

  // First merge fills a fresh spare array and swaps it in.
  for (size_t i = 0; i < 200; ++i) ASSERT_TRUE(index.Erase(ds.keys[2 * i]));
  ASSERT_TRUE(index.Insert(ds.keys[1] + 1, 5));
  index.Retrain();
  EXPECT_NE(index.static_keys().data(), loaded);
  EXPECT_EQ(index.size(), 4000u - 200u + 1u);

  // The second merge fits the bulk-loaded array, now the spare: no
  // reallocation, the static keys land back in the original buffer.
  for (size_t i = 0; i < 50; ++i) index.Insert(ds.keys[3 * i + 1] + 2, 9);
  index.Retrain();
  EXPECT_EQ(index.static_keys().data(), loaded);
  EXPECT_EQ(index.size(), 4000u - 200u + 1u + 50u);
}

TYPED_TEST(RetrainTest, EmptyDeltaRetrainKeepsArrays) {
  const Dataset ds =
      GenerateDataset(UniformUnit(), {2000, uint64_t{1} << 40, 14});
  TypeParam index;
  index.BulkLoad(PairsFromDataset(ds));
  const Key* loaded = index.static_keys().data();
  EXPECT_EQ(index.Retrain(), ds.keys.size());
  EXPECT_EQ(index.static_keys().data(), loaded);
  EXPECT_EQ(index.static_keys(), ds.keys);
}

// ---------------------------------------------------------------------------
// AdaptiveLearnedIndex
// ---------------------------------------------------------------------------

TEST(AdaptiveTest, SplitsUnderInsertPressure) {
  AdaptiveOptions options;
  options.max_segment_entries = 128;
  AdaptiveLearnedIndex alex(options);
  for (Key i = 0; i < 5000; ++i) {
    alex.Insert(i * 3, i);
  }
  alex.CheckInvariants();
  EXPECT_GT(alex.segment_count(), 1u);
  EXPECT_GT(alex.retrain_count(), 0u);
  EXPECT_GT(alex.retrain_work(), 0u);
  for (Key i = 0; i < 5000; i += 61) {
    ASSERT_TRUE(alex.Get(i * 3).has_value());
  }
}

TEST(AdaptiveTest, SkewedInsertBurstStaysCorrect) {
  AdaptiveOptions options;
  options.max_segment_entries = 256;
  AdaptiveLearnedIndex alex(options);
  // Bulk load uniform, then hammer one region (distribution shift).
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 10000; ++i) pairs.emplace_back(i * 1000, i);
  alex.BulkLoad(pairs);
  Rng rng(23);
  for (int i = 0; i < 20000; ++i) {
    const Key key = 5000000 + rng.NextBounded(100000);  // Hot region.
    alex.Insert(key, i);
  }
  alex.CheckInvariants();
  // Everything loaded and inserted is still findable.
  for (Key i = 0; i < 10000; i += 101) {
    ASSERT_TRUE(alex.Get(i * 1000).has_value());
  }
}

TEST(AdaptiveTest, EraseDrainsSegments) {
  AdaptiveOptions options;
  options.max_segment_entries = 64;
  AdaptiveLearnedIndex alex(options);
  for (Key i = 0; i < 1000; ++i) alex.Insert(i, i);
  const size_t segments_before = alex.segment_count();
  for (Key i = 0; i < 1000; ++i) EXPECT_TRUE(alex.Erase(i));
  EXPECT_EQ(alex.size(), 0u);
  EXPECT_LE(alex.segment_count(), segments_before);
  alex.CheckInvariants();
  // Still usable after draining.
  EXPECT_TRUE(alex.Insert(5, 5));
  EXPECT_EQ(*alex.Get(5), 5u);
}

// ---------------------------------------------------------------------------
// SkipList / SortedArray specifics
// ---------------------------------------------------------------------------

TEST(SkipListTest, InvariantsUnderRandomOps) {
  SkipList list;
  Rng rng(29);
  for (int i = 0; i < 5000; ++i) {
    const Key key = rng.NextBounded(2000);
    if (rng.NextBool(0.7)) {
      list.Insert(key, key);
    } else {
      list.Erase(key);
    }
  }
  list.CheckInvariants();
}

TEST(SortedArrayTest, InterpolationMatchesBinaryOnSkewedData) {
  const Dataset ds = GenerateDataset(ParetoUnit(1.2),
                                     {20000, uint64_t{1} << 40, 31});
  SortedArrayIndex binary(SortedArrayIndex::SearchMode::kBinary);
  SortedArrayIndex interp(SortedArrayIndex::SearchMode::kInterpolation);
  binary.BulkLoad(PairsFromDataset(ds));
  interp.BulkLoad(PairsFromDataset(ds));
  Rng rng(37);
  for (int i = 0; i < 2000; ++i) {
    const Key probe = rng.Next() % ds.domain_max;
    EXPECT_EQ(binary.Get(probe).has_value(), interp.Get(probe).has_value());
  }
  for (size_t i = 0; i < ds.keys.size(); i += 97) {
    EXPECT_EQ(*interp.Get(ds.keys[i]), static_cast<Value>(i));
  }
}

}  // namespace
}  // namespace lsbench
