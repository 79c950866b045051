#ifndef LSBENCH_PERFBENCH_TIMING_SUT_H_
#define LSBENCH_PERFBENCH_TIMING_SUT_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sut/sut.h"
#include "util/atomic.h"
#include "util/sync.h"

namespace lsbench::perf {

/// Nanoseconds on the monotonic clock (CLOCK_MONOTONIC on Linux, the clock
/// Python's time.monotonic_ns reads), so the benchmark program and its
/// runner share one time base.
inline int64_t MonoNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The process's resident set in bytes, from the `VmRSS:` line of
/// /proc/self/status; 0 where that file is unavailable.
inline uint64_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // Reported in kB.
    }
  }
  return 0;
}

/// Busy time the SUT spent, summed over every worker thread.
struct SutBusy {
  std::array<int64_t, kNumOpTypes> execute_nanos{};
  std::array<uint64_t, kNumOpTypes> execute_calls{};
  std::array<uint64_t, kNumOpTypes> execute_elements{};
  int64_t batch_nanos = 0;
  uint64_t batch_elements = 0;

  int64_t TotalNanos() const {
    int64_t total = batch_nanos;
    for (int64_t n : execute_nanos) total += n;
    return total;
  }
};

/// The traced run's per-layer probe: a SystemUnderTest decorator that times
/// every call into the SUT from the benchmark's side. concurrency(),
/// OnPhaseStart and BindObservability forward untouched; ExecuteBatch is
/// forwarded whole (never unbatched) and timed as one call. Any decorator
/// sends the driver to its virtual-dispatch engine, so the timed run must
/// pass the bare SUT instead; the traced-minus-untraced difference is the
/// tracing overhead the benchmark reports.
///
/// Per-thread accumulators keep concurrent workers off each other's cache
/// lines; Busy() sums them once the run is over.
class TimingSut final : public SystemUnderTest {
 public:
  explicit TimingSut(SystemUnderTest* inner)
      : inner_(inner), id_(NextId().Add(1) + 1) {}

  std::string name() const override { return inner_->name(); }
  SutConcurrency concurrency() const override { return inner_->concurrency(); }

  Status Load(const std::vector<KeyValue>& sorted_pairs) override {
    const int64_t start = MonoNanos();
    Status st = inner_->Load(sorted_pairs);
    load_nanos_ += MonoNanos() - start;
    return st;
  }

  TrainReport Train() override {
    const int64_t start = MonoNanos();
    TrainReport report = inner_->Train();
    train_nanos_ += MonoNanos() - start;
    train_items_ += report.work_items;
    return report;
  }

  OpResult Execute(const Operation& op) override {
    const int64_t start = MonoNanos();
    OpResult result = inner_->Execute(op);
    const int64_t elapsed = MonoNanos() - start;
    SutBusy& busy = Local();
    const size_t type = static_cast<size_t>(op.type);
    busy.execute_nanos[type] += elapsed;
    ++busy.execute_calls[type];
    busy.execute_elements[type] += OpResultCount(op);
    return result;
  }

  void ExecuteBatch(const Operation& op, OpResult* results) override {
    const int64_t start = MonoNanos();
    inner_->ExecuteBatch(op, results);
    const int64_t elapsed = MonoNanos() - start;
    SutBusy& busy = Local();
    busy.batch_nanos += elapsed;
    busy.batch_elements += OpResultCount(op);
  }

  void OnPhaseStart(int phase_index, bool holdout) override {
    if (phase_index == 0 && first_phase_start_nanos_ == 0) {
      first_phase_start_nanos_ = MonoNanos();
      stats_at_first_phase_ = inner_->GetStats();
      rss_at_first_phase_ = ResidentBytes();
    }
    inner_->OnPhaseStart(phase_index, holdout);
  }

  SutStats GetStats() const override { return inner_->GetStats(); }

  void BindObservability(MetricsRegistry* registry) override {
    inner_->BindObservability(registry);
  }

  /// Sum of every thread's accumulator. Call only after the run returned
  /// (the driver joins its workers before Run returns).
  SutBusy Busy() const {
    MutexLock lock(mu_);
    SutBusy total;
    for (const std::unique_ptr<SutBusy>& slot : slots_) {
      for (int i = 0; i < kNumOpTypes; ++i) {
        total.execute_nanos[i] += slot->execute_nanos[i];
        total.execute_calls[i] += slot->execute_calls[i];
        total.execute_elements[i] += slot->execute_elements[i];
      }
      total.batch_nanos += slot->batch_nanos;
      total.batch_elements += slot->batch_elements;
    }
    return total;
  }

  int64_t load_nanos() const { return load_nanos_; }
  int64_t train_nanos() const { return train_nanos_; }
  uint64_t train_items() const { return train_items_; }
  /// Monotonic time at which phase 0 started; 0 before it did.
  int64_t first_phase_start_nanos() const { return first_phase_start_nanos_; }
  /// SUT statistics just before phase 0, the base of the run's deltas.
  const SutStats& stats_at_first_phase() const { return stats_at_first_phase_; }
  /// Resident set just before phase 0: the footprint set-up left behind.
  uint64_t rss_at_first_phase() const { return rss_at_first_phase_; }

 private:
  static Atomic<uint64_t>& NextId() {
    static Atomic<uint64_t> next{0};
    return next;
  }

  /// This thread's accumulator for this decorator, created on first use.
  /// Keyed by a process-unique id, never by address, so a later decorator
  /// at a reused address cannot inherit a stale slot.
  SutBusy& Local() {
    thread_local uint64_t owner = 0;
    thread_local SutBusy* slot = nullptr;
    if (owner != id_) {
      MutexLock lock(mu_);
      slots_.push_back(std::make_unique<SutBusy>());
      slot = slots_.back().get();
      owner = id_;
    }
    return *slot;
  }

  SystemUnderTest* inner_;
  const uint64_t id_;
  int64_t load_nanos_ = 0;
  int64_t train_nanos_ = 0;
  uint64_t train_items_ = 0;
  int64_t first_phase_start_nanos_ = 0;
  SutStats stats_at_first_phase_;
  uint64_t rss_at_first_phase_ = 0;
  mutable Mutex mu_;
  std::vector<std::unique_ptr<SutBusy>> slots_ LSBENCH_GUARDED_BY(mu_);
};

}  // namespace lsbench::perf

#endif  // LSBENCH_PERFBENCH_TIMING_SUT_H_
