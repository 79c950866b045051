#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "data/dataset.h"
#include "sut/cost_model.h"
#include "sut/systems.h"
#include "util/clock.h"

namespace lsbench {
namespace {

std::vector<KeyValue> UniformPairs(size_t n, uint64_t seed) {
  const Dataset ds = GenerateDataset(UniformUnit(), {n, uint64_t{1} << 40, seed});
  std::vector<KeyValue> pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < ds.keys.size(); ++i) {
    pairs.emplace_back(ds.keys[i], static_cast<Value>(i));
  }
  return pairs;
}

Operation MakeGet(Key key) {
  Operation op;
  op.type = OpType::kGet;
  op.key = key;
  return op;
}

Operation MakeRangeCount(Key lo, Key hi) {
  Operation op;
  op.type = OpType::kRangeCount;
  op.key = lo;
  op.range_end = hi;
  return op;
}

// ---------------------------------------------------------------------------
// BTreeSystem
// ---------------------------------------------------------------------------

TEST(BTreeSystemTest, BasicOps) {
  BTreeSystem sut;
  const auto pairs = UniformPairs(10000, 1);
  ASSERT_TRUE(sut.Load(pairs).ok());
  EXPECT_EQ(sut.name(), "btree_system");
  // No training for traditional systems.
  EXPECT_FALSE(sut.Train().trained);

  const OpResult hit = sut.Execute(MakeGet(pairs[5].first));
  EXPECT_TRUE(hit.ok);
  EXPECT_EQ(hit.rows, 1u);
  const OpResult miss = sut.Execute(MakeGet(pairs[5].first + 1));
  EXPECT_FALSE(miss.ok);

  Operation insert;
  insert.type = OpType::kInsert;
  insert.key = pairs[5].first + 1;
  insert.value = 42;
  EXPECT_TRUE(sut.Execute(insert).ok);
  EXPECT_TRUE(sut.Execute(MakeGet(insert.key)).ok);

  Operation del;
  del.type = OpType::kDelete;
  del.key = insert.key;
  EXPECT_TRUE(sut.Execute(del).ok);
  EXPECT_FALSE(sut.Execute(MakeGet(insert.key)).ok);

  Operation scan;
  scan.type = OpType::kScan;
  scan.key = 0;
  scan.scan_length = 25;
  EXPECT_EQ(sut.Execute(scan).rows, 25u);

  EXPECT_GT(sut.GetStats().memory_bytes, 0u);
}

TEST(BTreeSystemTest, RangeCountMatchesBruteForce) {
  BTreeSystem sut;
  const auto pairs = UniformPairs(20000, 2);
  ASSERT_TRUE(sut.Load(pairs).ok());
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    const Key lo = rng.Next() % (uint64_t{1} << 40);
    const Key hi = lo + (rng.Next() % (uint64_t{1} << 36));
    uint64_t expected = 0;
    for (const auto& [k, v] : pairs) {
      (void)v;
      if (k >= lo && k <= hi) ++expected;
    }
    const OpResult r = sut.Execute(MakeRangeCount(lo, hi));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.rows, expected) << "range " << lo << ".." << hi;
  }
}

// ---------------------------------------------------------------------------
// LearnedKvSystem
// ---------------------------------------------------------------------------

class LearnedSystemTest
    : public ::testing::TestWithParam<LearnedSystemOptions::IndexKind> {};

TEST_P(LearnedSystemTest, TrainThenServe) {
  LearnedSystemOptions options;
  options.index_kind = GetParam();
  LearnedKvSystem sut(options);
  const auto pairs = UniformPairs(20000, 4);
  ASSERT_TRUE(sut.Load(pairs).ok());
  const TrainReport report = sut.Train();
  EXPECT_TRUE(report.trained);
  EXPECT_EQ(report.work_items, pairs.size());

  for (size_t i = 0; i < pairs.size(); i += 203) {
    EXPECT_TRUE(sut.Execute(MakeGet(pairs[i].first)).ok);
  }
  // Range counts match brute force through the learned path too.
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const Key lo = rng.Next() % (uint64_t{1} << 40);
    const Key hi = lo + (uint64_t{1} << 35);
    uint64_t expected = 0;
    for (const auto& [k, v] : pairs) {
      (void)v;
      if (k >= lo && k <= hi) ++expected;
    }
    EXPECT_EQ(sut.Execute(MakeRangeCount(lo, hi)).rows, expected);
  }
}

TEST_P(LearnedSystemTest, RetrainTrainsOnTheLiveKeySet) {
  LearnedSystemOptions options;
  options.index_kind = GetParam();
  options.retrain_policy = RetrainPolicy::kOnPhaseStart;
  LearnedKvSystem sut(options);
  const auto pairs = UniformPairs(8000, 13);
  ASSERT_TRUE(sut.Load(pairs).ok());
  (void)sut.Train();
  std::map<Key, Value> oracle(pairs.begin(), pairs.end());
  const std::vector<Key> loaded_keys = [&] {
    std::vector<Key> keys;
    for (const auto& [k, v] : oracle) keys.push_back(k);
    return keys;
  }();
  EXPECT_EQ(sut.TrainingKeys(), loaded_keys);

  // Inserts, overwrites and deletes land in the delta until the phase-start
  // retrain merges them.
  Rng rng(14);
  for (int i = 0; i < 3000; ++i) {
    Operation op;
    op.value = static_cast<Value>(i);
    switch (rng.NextBounded(3)) {
      case 0:
        op.type = OpType::kInsert;
        op.key = rng.Next() % (uint64_t{1} << 40);
        oracle[op.key] = op.value;
        break;
      case 1:
        // Update upserts, so it may also revive a deleted key.
        op.type = OpType::kUpdate;
        op.key = pairs[rng.NextBounded(pairs.size())].first;
        oracle[op.key] = op.value;
        break;
      default:
        op.type = OpType::kDelete;
        op.key = pairs[rng.NextBounded(pairs.size())].first;
        oracle.erase(op.key);
        break;
    }
    (void)sut.Execute(op);
  }
  ASSERT_GT(sut.delta_size(), 0u);
  sut.OnPhaseStart(1, /*holdout=*/false);
  ASSERT_EQ(sut.retrain_events(), 1u);
  EXPECT_EQ(sut.delta_size(), 0u);

  // The estimator's training keys equal the full-scan snapshot of the live
  // key set (the std::map oracle).
  std::vector<Key> live;
  for (const auto& [k, v] : oracle) live.push_back(k);
  EXPECT_EQ(sut.TrainingKeys(), live);
  Operation scan;
  scan.type = OpType::kScan;
  scan.key = 0;
  scan.scan_length = static_cast<uint32_t>(live.size() + 1);
  EXPECT_EQ(sut.Execute(scan).rows, live.size());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LearnedSystemTest,
    ::testing::Values(LearnedSystemOptions::IndexKind::kRmi,
                      LearnedSystemOptions::IndexKind::kPgm),
    [](const ::testing::TestParamInfo<LearnedSystemOptions::IndexKind>& param_info) {
      return param_info.param == LearnedSystemOptions::IndexKind::kRmi ? "rmi"
                                                                 : "pgm";
    });

TEST(LearnedSystemTest, DeltaThresholdPolicyRetrains) {
  LearnedSystemOptions options;
  options.retrain_policy = RetrainPolicy::kDeltaThreshold;
  options.delta_threshold_fraction = 0.01;
  VirtualClock clock;
  LearnedKvSystem sut(options, &clock);
  const auto pairs = UniformPairs(10000, 6);
  ASSERT_TRUE(sut.Load(pairs).ok());
  (void)sut.Train();
  ASSERT_EQ(sut.retrain_events(), 0u);

  // Insert enough fresh keys to cross the 1% delta threshold repeatedly.
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    Operation op;
    op.type = OpType::kInsert;
    op.key = rng.Next();
    op.value = i;
    (void)sut.Execute(op);
  }
  EXPECT_GT(sut.retrain_events(), 0u);
  EXPECT_LT(sut.delta_size(), 200u);  // Deltas were folded in.
  const SutStats stats = sut.GetStats();
  EXPECT_EQ(stats.retrain_events, sut.retrain_events());
}

TEST(LearnedSystemTest, DriftTriggeredPolicyRetrainsAfterShift) {
  LearnedSystemOptions options;
  options.retrain_policy = RetrainPolicy::kDriftTriggered;
  options.drift.min_window = 256;
  options.drift.window_capacity = 512;
  LearnedKvSystem sut(options);
  const auto pairs = UniformPairs(10000, 8);
  ASSERT_TRUE(sut.Load(pairs).ok());
  (void)sut.Train();

  // Keep reading the trained distribution: no drift.
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    (void)sut.Execute(MakeGet(pairs[rng.NextBounded(pairs.size())].first));
  }
  EXPECT_EQ(sut.retrain_events(), 0u);

  // Shift: hammer a tiny corner of the key space (inserts carry the new
  // distribution).
  for (int i = 0; i < 2000; ++i) {
    Operation op;
    op.type = OpType::kInsert;
    op.key = (uint64_t{1} << 39) + rng.NextBounded(1 << 20);
    op.value = i;
    (void)sut.Execute(op);
  }
  EXPECT_GT(sut.retrain_events(), 0u);
}

TEST(LearnedSystemTest, HoldoutPhaseSuppressesPhaseStartRetrain) {
  LearnedSystemOptions options;
  options.retrain_policy = RetrainPolicy::kOnPhaseStart;
  LearnedKvSystem sut(options);
  ASSERT_TRUE(sut.Load(UniformPairs(5000, 10)).ok());
  (void)sut.Train();
  sut.OnPhaseStart(1, /*holdout=*/true);
  EXPECT_EQ(sut.retrain_events(), 0u);
  sut.OnPhaseStart(2, /*holdout=*/false);
  EXPECT_EQ(sut.retrain_events(), 1u);
}

TEST(LearnedSystemTest, NeverPolicyNeverRetrains) {
  LearnedSystemOptions options;
  options.retrain_policy = RetrainPolicy::kNever;
  LearnedKvSystem sut(options);
  ASSERT_TRUE(sut.Load(UniformPairs(5000, 11)).ok());
  (void)sut.Train();
  Rng rng(12);
  for (int i = 0; i < 3000; ++i) {
    Operation op;
    op.type = OpType::kInsert;
    op.key = rng.Next();
    op.value = i;
    (void)sut.Execute(op);
  }
  EXPECT_EQ(sut.retrain_events(), 0u);
  EXPECT_GT(sut.delta_size(), 2000u);
}

TEST(LearnedSystemTest, NamesEncodeConfiguration) {
  LearnedSystemOptions rmi;
  rmi.retrain_policy = RetrainPolicy::kNever;
  EXPECT_EQ(LearnedKvSystem(rmi).name(), "learned_rmi_system(never)");
  LearnedSystemOptions pgm;
  pgm.index_kind = LearnedSystemOptions::IndexKind::kPgm;
  pgm.retrain_policy = RetrainPolicy::kDriftTriggered;
  EXPECT_EQ(LearnedKvSystem(pgm).name(),
            "learned_pgm_system(drift_triggered)");
}

// ---------------------------------------------------------------------------
// AdaptiveKvSystem
// ---------------------------------------------------------------------------

TEST(AdaptiveSystemTest, AdaptsWithoutExplicitTraining) {
  AdaptiveKvSystem sut;
  ASSERT_TRUE(sut.Load(UniformPairs(10000, 13)).ok());
  EXPECT_FALSE(sut.Train().trained);  // No offline training phase.

  Rng rng(14);
  for (int i = 0; i < 10000; ++i) {
    Operation op;
    op.type = OpType::kInsert;
    op.key = (uint64_t{1} << 38) + rng.NextBounded(1 << 24);
    op.value = i;
    EXPECT_TRUE(sut.Execute(op).ok);
  }
  const SutStats stats = sut.GetStats();
  EXPECT_GT(stats.retrain_events, 0u);  // Online splits/retrains happened.
  EXPECT_GT(stats.offline_train_items, 0u);
}

// ---------------------------------------------------------------------------
// Cost models
// ---------------------------------------------------------------------------

TEST(HardwareProfileTest, CostAndTimeScaling) {
  const HardwareProfile cpu = HardwareProfile::Cpu();
  const HardwareProfile gpu = HardwareProfile::Gpu();
  EXPECT_DOUBLE_EQ(cpu.TrainingSeconds(120.0), 120.0);
  EXPECT_DOUBLE_EQ(gpu.TrainingSeconds(120.0), 10.0);
  EXPECT_DOUBLE_EQ(cpu.TrainingDollars(3600.0), 1.0);
  // GPU: 3600/12=300 s at 3 $/h = 0.25 $.
  EXPECT_DOUBLE_EQ(gpu.TrainingDollars(3600.0), 0.25);
}

TEST(DbaCostModelTest, StepFunction) {
  const DbaCostModel dba = DbaCostModel::Default();
  EXPECT_DOUBLE_EQ(dba.MultiplierAt(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dba.MultiplierAt(119.0), 1.0);    // < 2h * 60.
  EXPECT_DOUBLE_EQ(dba.MultiplierAt(120.0), 1.2);    // Tier 1 unlocked.
  EXPECT_DOUBLE_EQ(dba.MultiplierAt(599.0), 1.2);
  EXPECT_DOUBLE_EQ(dba.MultiplierAt(600.0), 1.6);    // Tier 2 (2h+8h)*60.
  EXPECT_DOUBLE_EQ(dba.MultiplierAt(100000.0), 2.2);
  EXPECT_DOUBLE_EQ(dba.CumulativeDollars(0), 120.0);
  EXPECT_DOUBLE_EQ(dba.CumulativeDollars(2), 2040.0);
  EXPECT_DOUBLE_EQ(dba.TotalDollars(), 2040.0);
}

TEST(TrainingCostToOutperformTest, FindsCrossover) {
  const DbaCostModel dba = DbaCostModel::Default();
  const double base = 1000.0;
  // Learned system throughput rises with training cost.
  const std::vector<double> costs = {1, 10, 100, 1000};
  const std::vector<double> tputs = {500, 900, 1500, 3000};
  // At $100 the DBA has reached x1.0 (<$120), learned does 1500 > 1000.
  EXPECT_DOUBLE_EQ(TrainingCostToOutperform(costs, tputs, base, dba), 100.0);
}

TEST(TrainingCostToOutperformTest, NeverWins) {
  const DbaCostModel dba = DbaCostModel::Default();
  EXPECT_DOUBLE_EQ(
      TrainingCostToOutperform({1, 10}, {100, 200}, 1000.0, dba), -1.0);
}

TEST(TrainingCostToOutperformTest, ComparesAgainstUnlockedTier) {
  const DbaCostModel dba = DbaCostModel::Default();
  // At $150 the DBA already has x1.2 (=1200): 1100 is NOT enough.
  EXPECT_DOUBLE_EQ(
      TrainingCostToOutperform({150, 700}, {1100, 2000}, 1000.0, dba), 700.0);
}

}  // namespace
}  // namespace lsbench
