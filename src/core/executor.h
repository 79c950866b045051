#ifndef LSBENCH_CORE_EXECUTOR_H_
#define LSBENCH_CORE_EXECUTOR_H_

#include <cstdint>
#include <optional>

#include "core/resilience.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sut/sut.h"
#include "util/annotate.h"
#include "util/clock.h"
#include "workload/operation.h"

namespace lsbench {

/// Advances one worker's notion of time to an absolute instant: jumps the
/// VirtualClock in simulation mode, hybrid sleep-then-spins on the real
/// clock otherwise (sub-microsecond pacing without burning a core — see
/// SleepSpinUntil).
class Pacer {
 public:
  /// `clock` must be non-null; `virtual_clock`, when non-null, must be the
  /// same object as `clock` (simulation mode).
  Pacer(const Clock* clock, VirtualClock* virtual_clock)
      : clock_(clock), virtual_clock_(virtual_clock) {}

  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  void PaceUntil(int64_t target_abs_nanos) const {
    if (virtual_clock_ != nullptr) {
      if (virtual_clock_->NowNanos() < target_abs_nanos) {
        virtual_clock_->SetNanos(target_abs_nanos);
      }
      return;
    }
    SleepSpinUntil(*clock_, target_abs_nanos);
  }

  const Clock* clock() const { return clock_; }
  VirtualClock* virtual_clock() const { return virtual_clock_; }

 private:
  const Clock* clock_;
  VirtualClock* virtual_clock_;
};

/// What resilient execution of one operation produced, beyond the SUT's own
/// OpResult: retries consumed and the failure classification the event
/// stream records.
struct ExecOutcome {
  OpResult result;
  uint16_t retries = 0;
  bool failed = false;     ///< Operation ultimately failed (any cause).
  bool timed_out = false;  ///< Exceeded its per-op timeout budget.
  bool shed = false;       ///< Dropped unexecuted by the open breaker.
};

/// Stage 2 of the execution core: the timeout/retry/circuit-breaker policy
/// around one request unit (a scalar op or a whole batch). One instance per
/// worker — each worker gets its own backoff jitter stream and breaker so
/// fan-out never serializes on resilience bookkeeping. Semantics are exactly
/// the monolithic driver's retry loop: deadline measured from the intended
/// arrival, breaker checked before every attempt, transient failures retried
/// with seeded backoff inside the deadline, open breaker shedding operations
/// unexecuted.
class ResilientExecutor {
 public:
  struct Options {
    int64_t run_start_nanos = 0;
    /// Simulated service/shed cost per attempt (simulation mode only).
    int64_t virtual_service_nanos = 100000;
    int64_t virtual_shed_nanos = 1000;
  };

  /// `sut` must outlive the executor. A disabled breaker is expressed by
  /// passing nullopt-constructed state: pass `enable_breaker = false`.
  ResilientExecutor(SystemUnderTest* sut, const ResilienceSpec& spec,
                    Pacer pacer, uint64_t backoff_seed, bool enable_breaker,
                    Options options);

  /// Runs one request unit through the resilience policy: a scalar op, or
  /// a whole batch op. `arrival_rel_nanos` is the unit's intended start
  /// (run-relative) from which its deadline is measured. A batch is ONE
  /// unit: one breaker check per attempt, one deadline, and a transient
  /// failure retries the whole batch. In simulation mode each attempt
  /// advances the virtual clock by virtual_service_nanos per *element*
  /// (OpResultCount), so simulated batch latency scales with batch size
  /// and effective per-op latency stays comparable to the scalar path.
  ///
  /// For a batch op, `batch_results` must have room for OpResultCount(op)
  /// entries and receives the per-element results (default, failed results
  /// on a shed); the outcome's `result` is then the attempt aggregate:
  /// the first non-OK element status classifies the batch (element
  /// "misses" — ok == false with an OK status — are data-level outcomes,
  /// not failures) and rows sum across elements. For a scalar op
  /// `batch_results` is unused and `result` is the SUT's own.
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  ExecOutcome ExecuteUnit(const Operation& op, int64_t arrival_rel_nanos,
                          OpResult* batch_results);

  /// Breaker state for run-level accounting (null when disabled).
  const CircuitBreaker* breaker() const {
    return breaker_ ? &*breaker_ : nullptr;
  }

  /// Arms the execute/retry observability hooks: per-attempt spans on
  /// `tracer`, Stage::kExecute / Stage::kBackoff on `profiler`, and
  /// attempt/retry/timeout/shed/failure counters from `registry`. Any
  /// argument may be null. Observing execution never perturbs it — no
  /// clock writes, no extra RNG draws.
  void BindObservability(Tracer* tracer, StageProfiler* profiler,
                         MetricsRegistry* registry);

 private:
  SystemUnderTest* sut_;
  ResilienceSpec spec_;
  Pacer pacer_;
  RetryBackoff backoff_;
  std::optional<CircuitBreaker> breaker_;
  Options options_;

  // Observability hooks (null = disabled). Counters are resolved once at
  // bind time so the retry loop never touches the registry lock.
  Tracer* tracer_ = nullptr;
  StageProfiler* profiler_ = nullptr;
  Counter* attempts_ = nullptr;
  Counter* retries_ = nullptr;
  Counter* timeouts_ = nullptr;
  Counter* shed_ = nullptr;
  Counter* failures_ = nullptr;
};

}  // namespace lsbench

#endif  // LSBENCH_CORE_EXECUTOR_H_
