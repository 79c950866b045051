#include "core/executor.h"

#include <limits>

#include "util/assert.h"

namespace lsbench {

namespace {

/// One attempt at the SUT: the only step of the retry loop that depends on
/// the op class. A batch attempt is classified by its first non-OK element
/// status; rows sum across elements.
OpResult Attempt(SystemUnderTest* sut, const Operation& op,
                 OpResult* batch_results) {
  if (!IsBatchOp(op.type)) return sut->Execute(op);
  sut->ExecuteBatch(op, batch_results);
  const uint32_t count = OpResultCount(op);
  OpResult aggregate;
  aggregate.ok = true;
  for (uint32_t i = 0; i < count; ++i) {
    if (aggregate.ok && !batch_results[i].status.ok()) {
      aggregate.ok = false;
      aggregate.status = batch_results[i].status;
    }
    aggregate.rows += batch_results[i].rows;
  }
  return aggregate;
}

}  // namespace

ResilientExecutor::ResilientExecutor(SystemUnderTest* sut,
                                     const ResilienceSpec& spec, Pacer pacer,
                                     uint64_t backoff_seed,
                                     bool enable_breaker, Options options)
    : sut_(sut),
      spec_(spec),
      pacer_(pacer),
      backoff_(spec, backoff_seed),
      options_(options) {
  LSBENCH_ASSERT(sut != nullptr);
  if (enable_breaker && spec.breaker_enabled) breaker_.emplace(spec);
}

void ResilientExecutor::BindObservability(Tracer* tracer,
                                          StageProfiler* profiler,
                                          MetricsRegistry* registry) {
  tracer_ = tracer;
  profiler_ = profiler;
  if (registry != nullptr) {
    attempts_ = registry->GetCounter("executor.attempts");
    retries_ = registry->GetCounter("executor.retries");
    timeouts_ = registry->GetCounter("executor.timeouts");
    shed_ = registry->GetCounter("executor.shed");
    failures_ = registry->GetCounter("executor.failures");
    if (breaker_) {
      breaker_->BindObservability(registry->GetCounter("breaker.opens"),
                                  registry->GetCounter("breaker.closes"));
    }
  }
}

ExecOutcome ResilientExecutor::ExecuteUnit(const Operation& op,
                                           int64_t arrival_rel_nanos,
                                           OpResult* batch_results) {
  const Clock* clock = pacer_.clock();
  VirtualClock* vclock = pacer_.virtual_clock();
  const uint32_t count = OpResultCount(op);
  const int64_t deadline_rel =
      spec_.op_timeout_nanos > 0
          ? arrival_rel_nanos + spec_.op_timeout_nanos
          : std::numeric_limits<int64_t>::max();

  ExecOutcome out;
  for (;;) {
    if (breaker_ && !breaker_->AllowRequest(clock->NowNanos())) {
      // Open breaker: degraded mode sheds the whole unit unexecuted.
      out.shed = true;
      out.failed = true;
      out.result = OpResult();
      if (IsBatchOp(op.type)) {
        for (uint32_t i = 0; i < count; ++i) batch_results[i] = OpResult();
      }
      if (shed_ != nullptr) shed_->Increment();
      if (vclock != nullptr) {
        vclock->AdvanceNanos(options_.virtual_shed_nanos);
      }
      break;
    }
    {
      LSBENCH_TRACE_SPAN(tracer_, "execute");
      LSBENCH_PROFILE_STAGE(profiler_, Stage::kExecute);
      if (attempts_ != nullptr) attempts_->Increment();
      out.result = Attempt(sut_, op, batch_results);
      if (vclock != nullptr) {
        vclock->AdvanceNanos(options_.virtual_service_nanos *
                             static_cast<int64_t>(count));
      }
    }
    const int64_t now_rel = clock->NowNanos() - options_.run_start_nanos;
    const bool past_deadline = now_rel > deadline_rel;
    if (out.result.status.ok() && !past_deadline) {
      if (breaker_) breaker_->RecordSuccess(clock->NowNanos());
      break;
    }
    // Failure: a SUT error, a blown latency budget, or both.
    if (breaker_) breaker_->RecordFailure(clock->NowNanos());
    if (past_deadline) {
      // The deadline is spent; retrying cannot deliver in time.
      out.timed_out = true;
      out.failed = true;
      if (timeouts_ != nullptr) timeouts_->Increment();
      break;
    }
    if (out.result.status.IsTransient() && out.retries < spec_.max_retries) {
      ++out.retries;
      if (retries_ != nullptr) retries_->Increment();
      LSBENCH_TRACE_SPAN(tracer_, "backoff");
      LSBENCH_PROFILE_STAGE(profiler_, Stage::kBackoff);
      pacer_.PaceUntil(clock->NowNanos() +
                       backoff_.NextDelayNanos(out.retries));
      continue;
    }
    out.failed = true;
    break;
  }
  if (out.failed && failures_ != nullptr) failures_->Increment();
  return out;
}

}  // namespace lsbench
