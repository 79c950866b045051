// Runtime ground truth for lsbench-deepcheck's hot-alloc claim: counts
// every global operator new during two simulated runs that differ only in
// operation count, and asserts the marginal allocations per additional
// operation stay within the pinned budget (LSBENCH_PER_OP_HEAP_ALLOCS,
// injected by CMake from tools/lint/hotpath_budget.json — the same file the
// static checker cross-checks its baseline against).
//
// The workload is read-only so the SUT performs no inserts of its own: the
// measured loop's steady state (generate -> pace -> execute -> record) is
// exactly what the static rule audits, and with the event/trace/key arenas
// reserved up front the marginal cost per op must be zero heap calls. The
// absolute slack term absorbs O(log n) container regrowth in post-run
// metrics, which scales with run size but not per operation.
//
// The spill tests drive each arena past its reservation on purpose and
// bound the growth allocations by O(log n): a spill path must double
// capacity, never reallocate per element.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/driver.h"
#include "core/event_sink.h"
#include "core/run_spec.h"
#include "data/dataset.h"
#include "obs/trace.h"
#include "sut/sut.h"
#include "sut/systems.h"
#include "util/clock.h"

namespace {

std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace lsbench {
namespace {

RunSpec MakeReadOnlySpec(uint64_t num_operations) {
  RunSpec spec;
  spec.name = "hotpath_alloc_" + std::to_string(num_operations);
  spec.seed = 7;
  DatasetOptions options;
  options.num_keys = 4000;
  options.seed = 7;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));

  PhaseSpec phase;
  phase.name = "read_only";
  phase.dataset_index = 0;
  phase.mix = OperationMix{};  // get = 1.0, everything else 0.
  phase.num_operations = num_operations;
  spec.phases.push_back(phase);
  spec.interval_nanos = 100000000;  // 100 ms.
  return spec;
}

/// Batch analogue of MakeReadOnlySpec: the same element count driven as
/// kBatchGet request units of `batch_size` keys through the executor's
/// batch attempt (one event per element, so the arenas see the same load).
RunSpec MakeBatchReadOnlySpec(uint64_t num_elements, uint32_t batch_size) {
  RunSpec spec = MakeReadOnlySpec(num_elements);
  spec.name = "hotpath_alloc_batch_" + std::to_string(num_elements);
  PhaseSpec& phase = spec.phases[0];
  phase.mix.get = 0.0;
  phase.mix.batch_get = 1.0;
  phase.batch_size = batch_size;
  phase.num_operations = num_elements / batch_size;
  return spec;
}

uint64_t HeapAllocsForSpec(const RunSpec& spec, uint64_t expected_events) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  options.virtual_service_nanos = 100000;  // 100 us per op.
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;

  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const Result<RunResult> result = driver.Run(spec, &sut);
  const uint64_t used = g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().events.size(), expected_events);
  return used;
}

uint64_t HeapAllocsForRun(uint64_t num_operations) {
  return HeapAllocsForSpec(MakeReadOnlySpec(num_operations), num_operations);
}

TEST(HotpathAllocTest, MarginalAllocationsPerOpWithinBudget) {
  constexpr uint64_t kOps = 4000;
  // First run also warms whatever process-lifetime lazy state the driver
  // touches; the comparison below is between two equally-warm runs.
  (void)HeapAllocsForRun(kOps);

  const uint64_t base = HeapAllocsForRun(kOps);
  const uint64_t doubled = HeapAllocsForRun(2 * kOps);
  ASSERT_GE(doubled, base);
  const uint64_t marginal = doubled - base;

  // Container regrowth in post-run merge/metrics is O(log n) allocation
  // calls regardless of op count; 96 absolute calls of slack covers it
  // with room while still failing loudly on any real per-op allocation
  // (which would cost kOps extra calls at minimum).
  constexpr uint64_t kSlack = 96;
  constexpr uint64_t kBudget = LSBENCH_PER_OP_HEAP_ALLOCS;
  EXPECT_LE(marginal, kBudget * kOps + kSlack)
      << "marginal heap allocations for " << kOps << " extra ops: "
      << marginal << " (per-op budget " << kBudget << ", slack " << kSlack
      << ") — the hot path regressed to allocating per operation; run "
      << "tools/lint/deepcheck.py to find the new call path";
}

TEST(HotpathAllocTest, BatchSteadyStateAllocatesZeroPerElement) {
  // The batch loop's steady state (draw ranks into the pre-sized scratch,
  // fill the key ring, one ExecuteBatch, bulk-record into the event arena)
  // must be exactly as allocation-free as the scalar loop: zero marginal
  // heap calls per additional *element*, pinned with the same
  // doubled-run-minus-base technique as the scalar test.
  constexpr uint64_t kElements = 4096;
  constexpr uint32_t kBatchSize = 64;
  (void)HeapAllocsForSpec(MakeBatchReadOnlySpec(kElements, kBatchSize),
                          kElements);

  const uint64_t base = HeapAllocsForSpec(
      MakeBatchReadOnlySpec(kElements, kBatchSize), kElements);
  const uint64_t doubled = HeapAllocsForSpec(
      MakeBatchReadOnlySpec(2 * kElements, kBatchSize), 2 * kElements);
  ASSERT_GE(doubled, base);
  const uint64_t marginal = doubled - base;

  constexpr uint64_t kSlack = 96;
  EXPECT_LE(marginal, kSlack)
      << "marginal heap allocations for " << kElements
      << " extra batch elements: " << marginal << " (slack " << kSlack
      << ") — the batch hot path regressed to allocating in steady state; "
      << "run tools/lint/deepcheck.py to find the new call path";
}

/// A SUT that allocates nothing per operation, so a write-heavy run's heap
/// calls are the harness's own (a real index allocates on insert).
class NullSut final : public SystemUnderTest {
 public:
  std::string name() const override { return "null"; }
  Status Load(const std::vector<KeyValue>& sorted_pairs) override {
    (void)sorted_pairs;
    return Status::OK();
  }
  OpResult Execute(const Operation& op) override {
    (void)op;
    OpResult result;
    result.ok = true;
    result.rows = 1;
    return result;
  }
  SutStats GetStats() const override { return {}; }
};

/// learned_drift's shape at small sizes: a write-heavy phase, then a phase
/// blending in linearly over `num_operations` ops. During the blend the
/// write-heavy phase's generator keeps drawing inserts past the arena it
/// sized for its own ops, so every such insert takes the spill path.
RunSpec MakeSpillingSpec(uint64_t num_operations) {
  RunSpec spec = MakeReadOnlySpec(num_operations);
  spec.name = "hotpath_alloc_spill_" + std::to_string(num_operations);
  PhaseSpec& writes = spec.phases[0];
  writes.name = "insert_heavy";
  writes.mix.get = 0.5;
  writes.mix.insert = 0.5;
  PhaseSpec shift = writes;
  shift.name = "linear_shift";
  shift.mix = OperationMix{};
  shift.transition_in = TransitionKind::kLinear;
  shift.transition_operations = num_operations;
  spec.phases.push_back(shift);
  return spec;
}

uint64_t HeapAllocsForSpillingRun(uint64_t num_operations) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  options.virtual_service_nanos = 100000;  // 100 us per op.
  BenchmarkDriver driver(&clock, options);
  NullSut sut;
  const RunSpec spec = MakeSpillingSpec(num_operations);

  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const Result<RunResult> result = driver.Run(spec, &sut);
  const uint64_t used = g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().events.size(), 2 * num_operations);
  return used;
}

TEST(HotpathAllocTest, InsertedKeyArenaSpillsAreAmortized) {
  // ~num_operations / 8 inserts overflow the first phase's arena. Spills
  // that double capacity cost O(log n) allocations, so doubling the run
  // adds a handful; a spill that reallocates every time adds thousands.
  constexpr uint64_t kOps = 16000;
  (void)HeapAllocsForSpillingRun(kOps);

  const uint64_t base = HeapAllocsForSpillingRun(kOps);
  const uint64_t doubled = HeapAllocsForSpillingRun(2 * kOps);
  ASSERT_GE(doubled, base);
  constexpr uint64_t kSlack = 96;
  EXPECT_LE(doubled - base, kSlack)
      << "doubling a run whose generator spills its inserted-key arena "
      << "added " << doubled - base << " heap allocations — the spill path "
      << "is reallocating per insert instead of doubling capacity";
}

// 64x past the reserved arena: doubling needs log2(64) = 6 growth steps.
constexpr size_t kReserved = 64;
constexpr size_t kOverfill = 64 * kReserved;
constexpr uint64_t kMaxGrowthAllocs = 7;

TEST(HotpathAllocTest, EventSinkSpillsGrowGeometrically) {
  EventSink sink(0);
  sink.Reserve(kReserved);
  OpEvent event;
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kOverfill; ++i) sink.Record(event);
  const uint64_t used = g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_LE(used, kMaxGrowthAllocs);
  const EventStream events = sink.TakeEvents();
  ASSERT_EQ(events.size(), kOverfill);
  for (size_t i = 0; i < events.size(); ++i) ASSERT_EQ(events[i].seq, i);
}

TEST(HotpathAllocTest, TracerSpillsGrowGeometrically) {
  VirtualClock clock;
  Tracer tracer(0);
  tracer.Bind(&clock, 0);
  tracer.Reserve(kReserved);
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kOverfill; ++i) {
    tracer.Record("span", static_cast<int64_t>(i), static_cast<int64_t>(i));
  }
  const uint64_t used = g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_LE(used, kMaxGrowthAllocs);
  const TraceStream spans = tracer.TakeSpans();
  ASSERT_EQ(spans.size(), kOverfill);
  for (size_t i = 0; i < spans.size(); ++i) ASSERT_EQ(spans[i].seq, i);
}

}  // namespace
}  // namespace lsbench
