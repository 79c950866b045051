#include "core/driver.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/event_sink.h"
#include "core/executor.h"
#include "core/service.h"
#include "core/workload_stream.h"
#include "obs/observability.h"
#include "sut/fault_injection.h"
#include "sut/serializing.h"
#include "util/assert.h"
#include "util/sync.h"

namespace lsbench {

namespace {

/// Process-wide registry of spec hashes whose hold-out phases have already
/// executed (§V-A: hold-out distributions may only run once). Heap-allocated
/// and never destroyed (trivial-destruction rule for statics). The set is
/// process-global mutable state, so it carries its own mutex: two drivers
/// running concurrently on different threads must not race the check-insert
/// (the unguarded set was a latent data race the thread-safety pass
/// surfaced).
struct HoldoutRegistry {
  Mutex mu;
  std::unordered_set<uint64_t> executed LSBENCH_GUARDED_BY(mu);
};

HoldoutRegistry& Holdouts() {
  static auto* registry = new HoldoutRegistry();
  return *registry;
}

/// Atomically records `hash` as executed; returns false if it already was
/// (the spec must be rejected).
bool TryClaimHoldout(uint64_t hash) {
  HoldoutRegistry& registry = Holdouts();
  MutexLock lock(registry.mu);
  return registry.executed.insert(hash).second;
}

/// Stream tag for per-worker RNG roots. Worker 0's root is the master
/// itself, so enabling fan-out never perturbs the single-worker stream.
constexpr uint64_t kWorkerStreamTag = 0x3077ab5cULL;

/// Stream tag for the backoff-jitter fork (historical constant — worker 0
/// must reproduce the monolithic driver's backoff sequence).
constexpr uint64_t kBackoffStreamTag = 0x0ba2c0ffULL;

/// Routes one worker's Execute calls through its fault lane. Phase
/// notifications and lifecycle calls are orchestrator business — the
/// wrapped injector receives OnPhaseStart exactly once per phase, from the
/// driver, never per worker.
class LaneSut final : public SystemUnderTest {
 public:
  LaneSut(FaultInjectingSut* fault, size_t lane)
      : fault_(fault), lane_(lane) {}

  std::string name() const override { return fault_->name(); }
  SutConcurrency concurrency() const override {
    return fault_->concurrency();
  }
  Status Load(const std::vector<KeyValue>& sorted_pairs) override {
    return fault_->Load(sorted_pairs);
  }
  TrainReport Train() override { return fault_->Train(); }
  OpResult Execute(const Operation& op) override {
    return fault_->ExecuteLane(lane_, op);
  }
  void ExecuteBatch(const Operation& op, OpResult* results) override {
    fault_->ExecuteLaneBatch(lane_, op, results);
  }
  void OnPhaseStart(int phase_index, bool holdout) override {
    // Intentionally empty: the orchestrator notifies the injector directly.
    (void)phase_index;
    (void)holdout;
  }
  SutStats GetStats() const override { return fault_->GetStats(); }

 private:
  FaultInjectingSut* fault_;
  size_t lane_;
};

/// One worker's slice of the staged execution core: its workload stream,
/// resilient executor, event shard, clocks, and (under fan-out) its lane
/// adapter and private virtual clock.
struct WorkerContext {
  uint32_t worker_id = 0;
  const Clock* clock = nullptr;
  /// The virtual clock this worker paces against in simulation mode: the
  /// driver's own clock at workers == 1, a private per-worker clock under
  /// fan-out, nullptr on the real clock.
  VirtualClock* sim_clock = nullptr;
  std::optional<VirtualClock> private_clock;  ///< Simulation fan-out only.
  std::optional<LaneSut> lane;
  std::optional<WorkloadStream> stream;
  std::optional<ResilientExecutor> executor;
  /// Per-element result arena for batch ops, sized once (off the measured
  /// loop) to the run's largest batch so the hot loop never allocates.
  std::vector<OpResult> batch_results;
  /// Armed only in [service] mode; persists across phases (the shed budget
  /// and the smoothed service time are run-scoped, like the breaker).
  std::optional<AdmissionQueue> admission;
  EventSink sink{0};
  int32_t current_phase = 0;
  /// Armed only when the spec enables observability (and the build keeps
  /// hooks). Heap-held: WorkerObs is immovable (it owns a Mutex) while
  /// WorkerContext lives in a resizable vector.
  std::unique_ptr<WorkerObs> obs;
};

/// Executes one issued request unit resiliently and records it: one event
/// for a scalar op, one per element for a batch op. Elements share the
/// unit's outcome (timestamp, latency, retries, failure flags) and carry
/// their own data-level ok/rows and consecutive seqs. `issue_rel_nanos` is
/// when the unit left the driver: its intended arrival under inline pacing,
/// its dequeue time in service mode. Returns the completion time
/// (run-relative).
int64_t ExecuteAndRecord(WorkerContext* ctx, const WorkloadStream::Issue& issue,
                         int64_t issue_rel_nanos, int64_t run_start_nanos) {
  OpResult* batch_results = ctx->batch_results.data();
  const ExecOutcome outcome = ctx->executor->ExecuteUnit(
      issue.op, issue.arrival_rel_nanos, batch_results);
  const int64_t completion_rel = ctx->clock->NowNanos() - run_start_nanos;

  OpEvent proto;
  proto.timestamp_nanos = completion_rel;
  proto.latency_nanos =
      std::max<int64_t>(0, completion_rel - issue.arrival_rel_nanos);
  // A unit is never issued after it completed; the clamp only matters
  // under inline pacing, where issue time IS the intended arrival.
  proto.issue_nanos = std::min(issue_rel_nanos, completion_rel);
  proto.phase = ctx->current_phase;
  proto.type = issue.op.type;
  proto.retries = outcome.retries;
  proto.failed = outcome.failed;
  proto.timed_out = outcome.timed_out;
  proto.shed = outcome.shed;
  proto.open_loop = issue.open_loop;
  proto.batch = OpResultCount(issue.op);
  ctx->sink.RecordBatch(
      proto, IsBatchOp(issue.op.type) ? batch_results : &outcome.result,
      proto.batch);
  ctx->stream->RecordCompletion(completion_rel);
  return completion_rel;
}

/// Drains one worker's current phase: issue, pace, execute resiliently,
/// record. This is the inner loop both the serial path and every worker
/// thread run; at workers == 1 it reproduces the monolithic driver's loop
/// bit-for-bit.
void RunWorkerPhase(WorkerContext* ctx, int64_t run_start_nanos) {
  WorkloadStream& stream = *ctx->stream;
  const Pacer pacer(ctx->clock, ctx->sim_clock);
#if !defined(LSBENCH_NO_TRACING)
  StageProfiler* profiler =
      ctx->obs != nullptr ? &ctx->obs->profiler : nullptr;
#endif
  while (stream.HasNext()) {
    const WorkloadStream::Issue issue = stream.Next();
    {
      LSBENCH_PROFILE_STAGE(profiler, Stage::kPace);
      pacer.PaceUntil(run_start_nanos + issue.arrival_rel_nanos);
    }
    // Inline pacing issues the unit the moment its arrival is due — no
    // queueing here.
    ExecuteAndRecord(ctx, issue, issue.arrival_rel_nanos, run_start_nanos);
  }
}

/// Drains one worker's current phase in [service] mode: arrivals fire at
/// their intended times into the bounded admission queue, the executor
/// drains the queue as fast as the SUT allows, and the overload policy
/// sheds what cannot be served. Unlike RunWorkerPhase, an operation's issue
/// time can lag its intended arrival — that gap (queue wait) is exactly
/// what coordinated-omission-correct latency must include.
void RunWorkerServicePhase(WorkerContext* ctx, int64_t run_start_nanos) {
  WorkloadStream& stream = *ctx->stream;
  const ResilientExecutor& executor = *ctx->executor;
  AdmissionQueue& queue = *ctx->admission;
  const Pacer pacer(ctx->clock, ctx->sim_clock);
#if !defined(LSBENCH_NO_TRACING)
  StageProfiler* profiler =
      ctx->obs != nullptr ? &ctx->obs->profiler : nullptr;
#endif

  // Sheds complete instantly at the decision point: no SUT work happens,
  // and the virtual clock does not advance (that keeps overload schedules
  // hand-computable). Their response time still counts from the intended
  // arrival — a dropped request is a served-badly request, not a missing
  // sample. A shed batch op sheds all of its elements: one event each,
  // sharing the request unit's timestamps.
  const auto record_shed = [ctx](const WorkloadStream::Issue& issue,
                                 int64_t now_rel) {
    OpEvent event;
    event.timestamp_nanos = now_rel;
    event.latency_nanos =
        std::max<int64_t>(0, now_rel - issue.arrival_rel_nanos);
    event.issue_nanos = now_rel;
    event.phase = ctx->current_phase;
    event.type = issue.op.type;
    event.ok = false;
    event.failed = true;
    event.queue_shed = true;
    event.open_loop = issue.open_loop;
    event.batch = OpResultCount(issue.op);
    for (uint32_t i = 0; i < event.batch; ++i) ctx->sink.Record(event);
  };

  while (stream.HasNext() || !queue.empty()) {
    const int64_t now_rel = ctx->clock->NowNanos() - run_start_nanos;

    // Fire every arrival that is due. Admission consults the breaker: a
    // non-closed state means the SUT is degraded and the SLO-aware policy
    // sheds more eagerly.
    while (stream.HasNext() &&
           stream.Peek().arrival_rel_nanos <= now_rel) {
      const CircuitBreaker* breaker = executor.breaker();
      const bool degraded = breaker != nullptr &&
                            breaker->state() != CircuitBreaker::State::kClosed;
      const WorkloadStream::Issue arrival = stream.Next();
      const AdmissionQueue::Admission admission =
          queue.Offer(arrival, now_rel, degraded);
      if (admission.shed.has_value()) record_shed(*admission.shed, now_rel);
    }

    if (queue.empty()) {
      if (!stream.HasNext()) break;
      {
        LSBENCH_PROFILE_STAGE(profiler, Stage::kPace);
        pacer.PaceUntil(run_start_nanos + stream.Peek().arrival_rel_nanos);
      }
      continue;
    }

    const WorkloadStream::Issue issue = queue.PopFront(now_rel);
    const int64_t completion_rel =
        ExecuteAndRecord(ctx, issue, now_rel, run_start_nanos);
    queue.RecordServiceTime(completion_rel - now_rel);
  }
}

}  // namespace

double RunResult::OfflineTrainSeconds() const {
  double total = 0.0;
  for (const TrainEvent& t : train_events) total += t.Seconds();
  return total;
}

std::vector<KeyValue> BuildLoadImage(const RunSpec& spec) {
  LSBENCH_ASSERT(!spec.phases.empty());
  const Dataset& ds = spec.datasets[spec.phases[0].dataset_index];
  std::vector<KeyValue> pairs;
  pairs.reserve(ds.keys.size());
  for (size_t i = 0; i < ds.keys.size(); ++i) {
    pairs.emplace_back(ds.keys[i], static_cast<Value>(i));
  }
  return pairs;
}

uint64_t WorkerShare(uint64_t total, uint32_t workers, uint32_t worker) {
  LSBENCH_ASSERT(workers > 0 && worker < workers);
  return total / workers + (worker < total % workers ? 1 : 0);
}

BenchmarkDriver::BenchmarkDriver(const Clock* clock, DriverOptions options)
    : clock_(clock != nullptr ? clock : &default_clock_), options_(options) {
  if (options_.virtual_clock != nullptr) {
    LSBENCH_ASSERT_MSG(clock == options_.virtual_clock,
                       "simulation mode requires clock == virtual_clock");
  }
}

void BenchmarkDriver::ResetHoldoutRegistryForTesting() {
  HoldoutRegistry& registry = Holdouts();
  MutexLock lock(registry.mu);
  registry.executed.clear();
}

Result<RunResult> BenchmarkDriver::Run(const RunSpec& spec,
                                       SystemUnderTest* sut) {
  LSBENCH_ASSERT(sut != nullptr);
  LSBENCH_RETURN_IF_ERROR(spec.Validate());

  const bool has_holdout =
      std::any_of(spec.phases.begin(), spec.phases.end(),
                  [](const PhaseSpec& p) { return p.holdout; });
  if (has_holdout && options_.enforce_holdout_once) {
    if (!TryClaimHoldout(spec.StructuralHash())) {
      return Status::FailedPrecondition(
          "spec '" + spec.name +
          "' contains hold-out phases and has already executed once");
    }
  }

  RunResult result;
  result.sut_name = sut->name();
  result.run_name = spec.name;

  const uint32_t workers = spec.execution.workers;

  // ---- SUT concurrency contract ----
  // Serial systems keep working under fan-out behind a driver-side lock;
  // thread-safe systems run bare.
  std::optional<SerializingSut> serializer;
  if (workers > 1 && sut->concurrency() == SutConcurrency::kSerial) {
    serializer.emplace(sut);
    sut = &*serializer;
  }

  // ---- Fault injection (spec-driven, deterministic) ----
  std::optional<FaultInjectingSut> fault_wrapper;
  if (!spec.faults.Empty()) {
    fault_wrapper.emplace(sut, spec.faults, clock_, options_.virtual_clock);
    sut = &*fault_wrapper;
  }

  // ---- Observability arming (driver level) ----
  // The driver's own instruments carry run-scoped work: load/train before
  // the phases, merge/metrics after, plus the SUT's registry instruments
  // (the SUT is shared across workers, so it binds into this registry —
  // its instruments are thread-safe by construction). Workers get private
  // shards below. Compiled out entirely under LSBENCH_NO_TRACING.
  const ObservabilitySpec& obs_spec = spec.observability;
#if !defined(LSBENCH_NO_TRACING)
  std::unique_ptr<WorkerObs> driver_obs;
  if (obs_spec.Enabled()) {
    driver_obs = std::make_unique<WorkerObs>(kDriverTraceWorker);
    if (obs_spec.profile) driver_obs->profiler.Bind(clock_);
    if (obs_spec.metrics) sut->BindObservability(&driver_obs->registry);
  }
#endif

  // ---- Load ----
  {
    Stopwatch watch(clock_);
    LSBENCH_RETURN_IF_ERROR(sut->Load(BuildLoadImage(spec)));
    result.load_seconds = watch.ElapsedSeconds();
#if !defined(LSBENCH_NO_TRACING)
    if (driver_obs != nullptr) {
      driver_obs->profiler.Add(Stage::kLoad, watch.ElapsedNanos());
    }
#endif
  }

  // ---- Offline training (timed, first-class) ----
  uint64_t failed_trains = 0;
  if (spec.offline_training) {
    TrainEvent te;
    te.start_nanos = clock_->NowNanos();
    const TrainReport report = sut->Train();
    te.end_nanos = clock_->NowNanos();
    te.work_items = report.work_items;
    te.ok = report.status.ok();
    if (!te.ok) ++failed_trains;
    if (report.trained || !te.ok) result.train_events.push_back(te);
#if !defined(LSBENCH_NO_TRACING)
    if (driver_obs != nullptr) {
      driver_obs->profiler.Add(Stage::kTrain, te.end_nanos - te.start_nanos);
    }
#endif
  }

  // ---- Execution ----
  const int64_t run_start = clock_->NowNanos();
#if !defined(LSBENCH_NO_TRACING)
  if (driver_obs != nullptr && obs_spec.trace) {
    driver_obs->tracer.Bind(clock_, run_start);
  }
#endif
  const Rng master(spec.seed);
  const bool simulated = options_.virtual_clock != nullptr;

  ResilientExecutor::Options exec_options;
  exec_options.run_start_nanos = run_start;
  exec_options.virtual_service_nanos = options_.virtual_service_nanos;
  exec_options.virtual_shed_nanos = options_.virtual_shed_nanos;

  std::vector<WorkerContext> contexts(workers);
  uint64_t total_ops = 0;
  for (const PhaseSpec& p : spec.phases) total_ops += p.num_operations;

  // Batch accounting: a batch issue expands into batch_size per-element
  // events, and transition blending can carry the previous phase's batch
  // class into this phase's window — so each phase's event multiplier is
  // the largest batch its window can draw.
  const auto phase_has_batch = [](const PhaseSpec& p) {
    return p.mix.batch_get > 0.0 || p.mix.batch_put > 0.0;
  };
  uint32_t max_batch = 1;
  std::vector<uint64_t> phase_event_mult(spec.phases.size(), 1);
  for (size_t i = 0; i < spec.phases.size(); ++i) {
    uint64_t mult = 1;
    if (phase_has_batch(spec.phases[i])) mult = spec.phases[i].batch_size;
    if (i > 0 && phase_has_batch(spec.phases[i - 1])) {
      mult = std::max<uint64_t>(mult, spec.phases[i - 1].batch_size);
    }
    phase_event_mult[i] = mult;
    max_batch = std::max<uint32_t>(max_batch,
                                   static_cast<uint32_t>(mult));
  }

  for (uint32_t w = 0; w < workers; ++w) {
    WorkerContext& ctx = contexts[w];
    ctx.worker_id = w;
    ctx.sink = EventSink(w);
    uint64_t worker_events = 0;
    for (size_t i = 0; i < spec.phases.size(); ++i) {
      worker_events +=
          WorkerShare(spec.phases[i].num_operations, workers, w) *
          phase_event_mult[i];
    }
    ctx.sink.Reserve(worker_events + workers);
    ctx.batch_results.resize(max_batch);

    // Clocks: the single worker shares the driver's; under simulated
    // fan-out each worker advances a private virtual clock, synchronized
    // at phase boundaries.
    if (workers > 1 && simulated) {
      ctx.private_clock.emplace();
      ctx.private_clock->SetNanos(run_start);
      ctx.clock = &*ctx.private_clock;
      ctx.sim_clock = &*ctx.private_clock;
    } else {
      ctx.clock = clock_;
      ctx.sim_clock = options_.virtual_clock;  // nullptr on the real clock.
    }

    // RNG roots: worker 0 IS the master stream (bit-identity), workers
    // w > 0 fork disjoint streams.
    const Rng root = w == 0 ? master : master.Fork(kWorkerStreamTag + w);
    ctx.stream.emplace(&spec, root, 1.0 / static_cast<double>(workers));

    SystemUnderTest* target = sut;
    if (workers > 1 && fault_wrapper) {
      ctx.lane.emplace(&*fault_wrapper, w);
      target = &*ctx.lane;
    }
    ctx.executor.emplace(target, spec.resilience,
                         Pacer(ctx.clock, ctx.sim_clock),
                         root.Fork(kBackoffStreamTag).Next(),
                         spec.resilience.breaker_enabled, exec_options);
    if (spec.service.enabled) ctx.admission.emplace(spec.service);

#if !defined(LSBENCH_NO_TRACING)
    // Per-worker observability shard. The hooks only *read* the worker's
    // clock — they never advance it or draw randomness — so arming them
    // cannot perturb the operation stream (pinned by test).
    if (obs_spec.Enabled()) {
      ctx.obs = std::make_unique<WorkerObs>(w);
      Tracer* tracer = nullptr;
      StageProfiler* profiler = nullptr;
      MetricsRegistry* registry = nullptr;
      if (obs_spec.trace) {
        ctx.obs->tracer.Bind(ctx.clock, run_start);
        ctx.obs->tracer.Reserve(static_cast<size_t>(std::min<uint64_t>(
            WorkerShare(total_ops, workers, w), uint64_t{1} << 20)));
        tracer = &ctx.obs->tracer;
      }
      if (obs_spec.profile) {
        ctx.obs->profiler.Bind(ctx.clock);
        profiler = &ctx.obs->profiler;
      }
      if (obs_spec.metrics) registry = &ctx.obs->registry;
      ctx.stream->BindObservability(
          profiler, registry != nullptr
                        ? registry->GetCounter("stream.ops_issued")
                        : nullptr);
      ctx.sink.BindObservability(
          profiler, registry != nullptr
                        ? registry->GetCounter("sink.events_recorded")
                        : nullptr);
      ctx.executor->BindObservability(tracer, profiler, registry);
      if (ctx.admission.has_value() && registry != nullptr) {
        ctx.admission->BindObservability(
            registry->GetGauge("service.queue_depth"),
            registry->GetGauge("service.queue_peak_depth"),
            registry->GetCounter("service.admitted"),
            registry->GetCounter("service.shed"),
            registry->GetHistogram("service.queue_wait"));
      }
    }
#endif
  }

  // Under fan-out, bind one fault lane (with its clocks) per worker.
  if (workers > 1 && fault_wrapper) {
    std::vector<FaultInjectingSut::LaneClocks> lanes(workers);
    for (uint32_t w = 0; w < workers; ++w) {
      lanes[w].clock = contexts[w].clock;
      lanes[w].virtual_clock = contexts[w].sim_clock;
    }
    fault_wrapper->ConfigureLanes(std::move(lanes));
  }

  for (size_t phase_idx = 0; phase_idx < spec.phases.size(); ++phase_idx) {
    const PhaseSpec& phase = spec.phases[phase_idx];

    PhaseBoundary boundary;
    boundary.phase = static_cast<int32_t>(phase_idx);
    boundary.holdout = phase.holdout;
    boundary.start_nanos = clock_->NowNanos() - run_start;

    // Exactly one notification per phase, through the full wrapper chain.
    sut->OnPhaseStart(static_cast<int>(phase_idx), phase.holdout);

    for (uint32_t w = 0; w < workers; ++w) {
      WorkerContext& ctx = contexts[w];
      ctx.current_phase = static_cast<int32_t>(phase_idx);
#if !defined(LSBENCH_NO_TRACING)
      if (ctx.obs != nullptr) {
        ctx.obs->tracer.set_phase(static_cast<int32_t>(phase_idx));
        ctx.obs->profiler.set_phase(static_cast<int32_t>(phase_idx));
      }
#endif
      ctx.stream->BeginPhase(
          phase_idx, WorkerShare(phase.num_operations, workers, w),
          WorkerShare(phase.transition_operations, workers, w),
          ctx.clock->NowNanos() - run_start);
    }

    // Service mode swaps the inner loop: arrivals fire into the admission
    // queue instead of pacing inline. Everything around it (barriers,
    // merge, clocks) is unchanged.
    const auto run_worker =
        spec.service.enabled ? &RunWorkerServicePhase : &RunWorkerPhase;

    if (workers == 1) {
      run_worker(&contexts[0], run_start);
    } else if (simulated) {
      // Deterministic simulated fan-out: workers run sequentially on
      // private virtual clocks, then a *virtual barrier* advances every
      // clock to the phase's maximum. Event order is recovered at merge.
      for (WorkerContext& ctx : contexts) run_worker(&ctx, run_start);
      int64_t max_nanos = options_.virtual_clock->NowNanos();
      for (const WorkerContext& ctx : contexts) {
        max_nanos = std::max(max_nanos, ctx.clock->NowNanos());
      }
      for (WorkerContext& ctx : contexts) {
        if (ctx.private_clock->NowNanos() < max_nanos) {
          ctx.private_clock->SetNanos(max_nanos);
        }
      }
      if (options_.virtual_clock->NowNanos() < max_nanos) {
        options_.virtual_clock->SetNanos(max_nanos);
      }
    } else {
      // Real-clock fan-out: one joined thread per worker; the join is the
      // phase barrier. Threads are never detached (lsbench-lint:
      // no-detached-thread).
      std::vector<std::thread> threads;
      threads.reserve(workers);
      for (WorkerContext& ctx : contexts) {
        threads.emplace_back(run_worker, &ctx, run_start);
      }
      for (std::thread& t : threads) t.join();
    }

    boundary.end_nanos = clock_->NowNanos() - run_start;
    boundary.operations = phase.num_operations;
    result.boundaries.push_back(boundary);

#if !defined(LSBENCH_NO_TRACING)
    // Orchestrator-level phase span, recorded from the already-measured
    // boundary so it costs nothing extra. No-op while the tracer is unbound.
    if (driver_obs != nullptr) {
      driver_obs->tracer.set_phase(static_cast<int32_t>(phase_idx));
      driver_obs->tracer.Record("phase", boundary.start_nanos,
                                boundary.end_nanos);
    }
#endif
  }

  // ---- Merge shards ----
  Stopwatch merge_watch(clock_);
  std::vector<EventStream> shards;
  shards.reserve(workers);
  for (WorkerContext& ctx : contexts) {
    shards.push_back(ctx.sink.TakeEvents());
  }
  result.events = MergeEventShards(std::move(shards));
#if !defined(LSBENCH_NO_TRACING)
  if (driver_obs != nullptr) {
    driver_obs->profiler.set_phase(PhaseStageBreakdown::kRunLevelPhase);
    driver_obs->profiler.Add(Stage::kMerge, merge_watch.ElapsedNanos());
  }
#endif

  // ---- Metrics ----
  Stopwatch metrics_watch(clock_);
  result.metrics = ComputeRunMetrics(result.events, result.boundaries,
                                     MetricsOptions::FromSpec(spec));
#if !defined(LSBENCH_NO_TRACING)
  if (driver_obs != nullptr) {
    driver_obs->profiler.Add(Stage::kMetrics, metrics_watch.ElapsedNanos());
  }
#endif
  // Driver-owned resilience state the metric layer cannot derive from the
  // event stream alone.
  result.metrics.resilience.failed_trains = failed_trains;
  for (const WorkerContext& ctx : contexts) {
    const CircuitBreaker* breaker = ctx.executor->breaker();
    if (breaker == nullptr) continue;
    result.metrics.resilience.breaker_opens += breaker->open_count();
    result.metrics.resilience.degraded_seconds +=
        static_cast<double>(breaker->DegradedNanos(ctx.clock->NowNanos())) *
        1e-9;
  }
  result.final_sut_stats = sut->GetStats();
  if (fault_wrapper) result.fault_stats = fault_wrapper->fault_stats();

  // ---- Observability collection ----
  // Worker shards plus the driver's own shard merge exactly like event
  // shards: the result is a pure function of shard contents.
  result.observability.spec = obs_spec;
#if !defined(LSBENCH_NO_TRACING)
  if (obs_spec.Enabled()) {
    std::vector<TraceStream> trace_shards;
    std::vector<MetricsSnapshot> metric_shards;
    for (WorkerContext& ctx : contexts) {
      if (ctx.obs == nullptr) continue;
      trace_shards.push_back(ctx.obs->tracer.TakeSpans());
      MergeStageBreakdown(&result.observability.stages,
                          ctx.obs->profiler.Breakdown());
      metric_shards.push_back(ctx.obs->registry.Snapshot());
    }
    if (driver_obs != nullptr) {
      trace_shards.push_back(driver_obs->tracer.TakeSpans());
      MergeStageBreakdown(&result.observability.stages,
                          driver_obs->profiler.Breakdown());
      metric_shards.push_back(driver_obs->registry.Snapshot());
    }
    if (obs_spec.trace) {
      result.observability.trace = MergeTraceShards(std::move(trace_shards));
    }
    if (obs_spec.metrics) {
      LSBENCH_ASSIGN_OR_RETURN(result.observability.metrics,
                               MergeMetricsShards(metric_shards));
    }
  }
#endif
  return result;
}

}  // namespace lsbench
