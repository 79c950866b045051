// lsbench-sched model checks: exhaustive interleaving exploration of the
// REAL concurrent core (tools/sched/sched.h). Where concurrency_test.cc
// hammers components with OS threads and hopes the scheduler finds a bad
// interleaving, these tests enumerate every schedule of a small model and
// prove the invariant families the multi-worker driver rests on:
//
//   (a) shard-merge byte-identity: per-worker pipelines through a shared
//       SerializingSut produce the same merged, serialized event stream
//       under every schedule;
//   (b) AdmissionQueue conservation: offered == admitted + shed, the ring
//       never over/underflows, and predictive shedding respects
//       max_shed_fraction — under every schedule of concurrent
//       producers/consumers sharing the queue behind a Mutex;
//   (c) CircuitBreaker transition legality: open/close tallies stay
//       consistent with the observable state no matter how two workers'
//       outcome recordings interleave;
//   (d) EventSink single-writer discipline and per-shard seq contiguity.
//
// Engine fixtures (lost update, dropped lock, deadlock, condvar handoff)
// pin the checker itself: the seeded bugs MUST be caught, their decision
// strings MUST replay, and the correct variants MUST pass exhaustively.
//
// Standalone usage (the replay workflow; see docs/STATIC_ANALYSIS.md):
//   sched_model_test --sched-model=<name>                 explore one model
//   sched_model_test --sched-model=<name> --sched-replay=<schedule>
//                                                         re-run one schedule
// A violation's schedule string is printed on failure and accepted verbatim
// by --sched-replay.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/event_sink.h"
#include "core/executor.h"
#include "core/resilience.h"
#include "core/run_spec.h"
#include "core/service.h"
#include "obs/metrics_registry.h"
#include "sched/sched.h"
#include "sut/serializing.h"
#include "sut/systems.h"
#include "util/assert.h"
#include "util/atomic.h"
#include "util/clock.h"
#include "util/env.h"
#include "util/sync.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// Engine fixtures: minimal models that pin the checker's own behavior.

/// Classic lost update: two tasks read-modify-write a shared Atomic without
/// synchronization. Some schedule loses an increment; the checker must find
/// it.
sched::Model LostUpdateModel() {
  auto counter = std::make_shared<Atomic<uint64_t>>(0);
  sched::Model m;
  m.setup = [counter] { counter->Store(0); };
  for (int t = 0; t < 2; ++t) {
    m.tasks.push_back([counter] {
      const uint64_t v = counter->Load();
      counter->Store(v + 1);
    });
  }
  m.check = [counter] {
    sched::Check(counter->Load() == 2, "lost update: counter != 2");
  };
  return m;
}

/// A writer keeps `a == b`; an observer asserts it. With the Mutex the
/// invariant holds on every schedule; `locked = false` drops the lock and
/// the observer can land between the two stores.
sched::Model PairInvariantModel(bool locked) {
  struct State {
    Mutex mu;
    Atomic<uint64_t> a{0};
    Atomic<uint64_t> b{0};
  };
  auto st = std::make_shared<State>();
  const auto bump = [](Atomic<uint64_t>& x) { x.Store(x.Load() + 1); };
  sched::Model m;
  m.setup = [st] {
    st->a.Store(0);
    st->b.Store(0);
  };
  m.tasks.push_back([st, bump, locked] {
    if (locked) {
      MutexLock lock(st->mu);
      bump(st->a);
      bump(st->b);
    } else {
      bump(st->a);
      bump(st->b);
    }
  });
  m.tasks.push_back([st, locked] {
    uint64_t av = 0;
    uint64_t bv = 0;
    if (locked) {
      MutexLock lock(st->mu);
      av = st->a.Load();
      bv = st->b.Load();
    } else {
      av = st->a.Load();
      bv = st->b.Load();
    }
    sched::Check(av == bv, "pair invariant: observer saw a != b");
  });
  return m;
}

/// AB/BA lock-order inversion: some schedule deadlocks; the checker must
/// report it (with the schedule) rather than hang.
sched::Model DeadlockModel() {
  struct State {
    Mutex a;
    Mutex b;
  };
  auto st = std::make_shared<State>();
  sched::Model m;
  m.tasks.push_back([st] {
    MutexLock la(st->a);
    MutexLock lb(st->b);
  });
  m.tasks.push_back([st] {
    MutexLock lb(st->b);
    MutexLock la(st->a);
  });
  return m;
}

/// Producer/consumer handoff over Mutex + CondVar: exercises the modeled
/// wait (release, park, reacquire) and Signal. Must complete on every
/// schedule — a wedged wait would surface as a deadlock violation.
sched::Model CondVarHandoffModel() {
  struct State {
    Mutex mu;
    CondVar cv;
    bool ready = false;  // Guarded by mu; plain data is fine under a lock.
    Atomic<uint64_t> data{0};
  };
  auto st = std::make_shared<State>();
  sched::Model m;
  m.setup = [st] {
    st->ready = false;
    st->data.Store(0);
  };
  m.tasks.push_back([st] {
    st->data.Store(42);
    MutexLock lock(st->mu);
    st->ready = true;
    st->cv.Signal();
  });
  m.tasks.push_back([st] {
    {
      MutexLock lock(st->mu);
      st->cv.Wait(st->mu, [&st] { return st->ready; });
    }
    sched::Check(st->data.Load() == 42, "handoff: consumer ran before data");
  });
  return m;
}

// ---------------------------------------------------------------------------
// Invariant family (a): shard-merge byte-identity, plus (d) seq contiguity.
// Real pipeline: per-worker ResilientExecutor (own breaker, own
// VirtualClock) -> shared SerializingSut(BTreeSystem) -> per-worker
// EventSink, with a shared registry counter on the record path. Per-worker
// state is schedule-independent by construction; the model proves the
// *merged* artifact is too.

struct MergeFixture {
  explicit MergeFixture(int num_workers) : n(num_workers) {}

  void Reset() {
    btree = std::make_unique<BTreeSystem>();
    std::vector<KeyValue> pairs;
    for (Key k = 1; k <= 8; ++k) pairs.push_back({k, k * 10});
    MustOk(btree->Load(pairs));
    shared = std::make_unique<SerializingSut>(btree.get());
    registry = std::make_unique<MetricsRegistry>();
    Counter* recorded = registry->GetCounter("sched_model.events_recorded");
    workers.clear();
    workers.resize(static_cast<size_t>(n));
    ResilienceSpec spec;
    spec.breaker_enabled = true;
    spec.breaker_window_ops = 4;
    for (int w = 0; w < n; ++w) {
      Worker& worker = workers[static_cast<size_t>(w)];
      worker.clock = std::make_unique<VirtualClock>();
      worker.exec = std::make_unique<ResilientExecutor>(
          shared.get(), spec,
          Pacer(worker.clock.get(), worker.clock.get()),
          /*backoff_seed=*/7 + static_cast<uint64_t>(w),
          /*enable_breaker=*/true, ResilientExecutor::Options());
      worker.sink = std::make_unique<EventSink>(static_cast<uint32_t>(w));
      worker.sink->Reserve(kOpsPerWorker);
      worker.sink->BindObservability(nullptr, recorded);
    }
  }

  static void MustOk(const Status& s) { LSBENCH_ASSERT(s.ok()); }

  void RunWorker(int w) {
    Worker& worker = workers[static_cast<size_t>(w)];
    for (uint64_t i = 0; i < kOpsPerWorker; ++i) {
      // Disjoint key ranges: workers 0/1/2 probe {1,2}, {3,4}, {5,6}.
      Operation op;
      op.type = OpType::kGet;
      op.key = static_cast<Key>(w) * 2 + 1 + i;
      const int64_t arrival = static_cast<int64_t>(i) * 50000;
      const ExecOutcome out = worker.exec->ExecuteUnit(op, arrival, nullptr);
      OpEvent ev;
      ev.timestamp_nanos = worker.clock->NowNanos();
      ev.latency_nanos = ev.timestamp_nanos - arrival;
      ev.issue_nanos = arrival;
      ev.type = op.type;
      ev.ok = out.result.ok;
      ev.rows = out.result.rows;
      ev.retries = out.retries;
      ev.failed = out.failed;
      ev.timed_out = out.timed_out;
      ev.shed = out.shed;
      ev.open_loop = true;
      worker.sink->Record(ev);
    }
  }

  /// Drains the sinks, merges, and serializes. `contiguous` (optional)
  /// reports whether every shard's seqs ran 0..len-1.
  std::string SerializeMerged(bool* contiguous) {
    bool ok = true;
    std::vector<EventStream> shards;
    for (Worker& w : workers) {
      EventStream shard = w.sink->TakeEvents();
      for (size_t i = 0; i < shard.size(); ++i) {
        ok = ok && shard[i].seq == i;
      }
      ok = ok && shard.size() == kOpsPerWorker;
      shards.push_back(std::move(shard));
    }
    if (contiguous != nullptr) *contiguous = ok;
    return SerializeEventStream(MergeEventShards(std::move(shards)));
  }

  static constexpr uint64_t kOpsPerWorker = 2;

  struct Worker {
    std::unique_ptr<VirtualClock> clock;
    std::unique_ptr<ResilientExecutor> exec;
    std::unique_ptr<EventSink> sink;
  };

  const int n;
  std::unique_ptr<BTreeSystem> btree;
  std::unique_ptr<SerializingSut> shared;
  std::unique_ptr<MetricsRegistry> registry;
  std::vector<Worker> workers;
};

sched::Model MergePipelineModel(int num_workers) {
  auto fx = std::make_shared<MergeFixture>(num_workers);
  sched::Model m;
  m.setup = [fx] { fx->Reset(); };
  for (int w = 0; w < num_workers; ++w) {
    m.tasks.push_back([fx, w] { fx->RunWorker(w); });
  }
  // Reference artifact from one sequential (unmanaged, real-primitive) run;
  // every explored schedule must reproduce it byte for byte.
  m.setup();
  for (auto& task : m.tasks) task();
  const std::string expected = fx->SerializeMerged(nullptr);
  LSBENCH_ASSERT(!expected.empty());
  m.check = [fx, expected] {
    bool contiguous = false;
    const std::string got = fx->SerializeMerged(&contiguous);
    sched::Check(contiguous, "event shard seqs not contiguous from 0");
    sched::Check(got == expected,
                 "merged event stream diverged across schedules");
  };
  return m;
}

// ---------------------------------------------------------------------------
// Invariant family (b): AdmissionQueue conservation under concurrent
// producers and a consumer sharing the queue behind a Mutex. Parameters are
// chosen so the SLO shedder is always triggered (service EMA 400ns versus a
// 100ns SLO) and only the max_shed_fraction budget decides: sheds are
// predictive, never forced, so the budget bound must hold exactly.

struct QueueFixture {
  void Reset() {
    ServiceSpec spec;
    spec.enabled = true;
    spec.queue_capacity = 4;
    spec.policy = OverloadPolicy::kSloShed;
    spec.slo_p99_nanos = 100;
    spec.max_shed_fraction = 0.5;
    queue = std::make_unique<AdmissionQueue>(spec);
    queue->RecordServiceTime(400);  // Seed the EMA: every offer predicts a miss.
    popped = 0;
  }

  Mutex mu;
  std::unique_ptr<AdmissionQueue> queue;
  uint64_t popped = 0;
};

sched::Model QueueConservationModel() {
  auto fx = std::make_shared<QueueFixture>();
  sched::Model m;
  m.setup = [fx] { fx->Reset(); };
  for (int p = 0; p < 2; ++p) {
    m.tasks.push_back([fx, p] {
      for (int i = 0; i < 2; ++i) {
        WorkloadStream::Issue issue;
        issue.op.type = OpType::kGet;
        issue.op.key = static_cast<Key>(p * 10 + i);
        issue.arrival_rel_nanos = p * 10 + i;
        issue.open_loop = true;
        MutexLock lock(fx->mu);
        (void)fx->queue->Offer(issue, issue.arrival_rel_nanos,
                               /*degraded=*/false);
        // Ring bound, checked at every intermediate state the schedule can
        // produce, not just at the end.
        sched::Check(fx->queue->depth() <= 4, "queue depth exceeds capacity");
      }
    });
  }
  m.tasks.push_back([fx] {
    for (int i = 0; i < 2; ++i) {
      MutexLock lock(fx->mu);
      if (!fx->queue->empty()) {
        (void)fx->queue->PopFront(/*now_rel_nanos=*/100 + i);
        ++fx->popped;
      }
    }
  });
  m.check = [fx] {
    const AdmissionQueue& q = *fx->queue;
    sched::Check(q.offered() == 4, "offer count lost");
    sched::Check(q.admitted() + q.shed() == q.offered(),
                 "admitted + shed != offered");
    sched::Check(q.admitted() == fx->popped + q.depth(),
                 "admitted ops neither queued nor popped");
    sched::Check(q.peak_depth() <= 4, "peak depth exceeds capacity");
    // Capacity 4 and 4 offers: no forced shed is possible, so every shed
    // was predictive and the budget applies to all of them.
    sched::Check(static_cast<double>(q.shed()) <=
                     0.5 * static_cast<double>(q.offered()),
                 "predictive sheds exceed max_shed_fraction budget");
  };
  return m;
}

// ---------------------------------------------------------------------------
// Invariant family (c): CircuitBreaker transition legality. One breaker
// shared by two workers recording interleaved failures/successes; the
// registry mirror (opens/closes counters) must stay consistent with the
// observable state under every schedule, and open_count must be monotone
// from any single observer's point of view.

struct BreakerFixture {
  void Reset() {
    ResilienceSpec spec;
    spec.breaker_enabled = true;
    spec.breaker_window_ops = 2;
    spec.breaker_failure_threshold = 0.5;
    spec.breaker_cooldown_nanos = 100;
    spec.breaker_half_open_probes = 1;
    registry = std::make_unique<MetricsRegistry>();
    breaker = std::make_unique<CircuitBreaker>(spec);
    breaker->BindObservability(registry->GetCounter("breaker.opens"),
                               registry->GetCounter("breaker.closes"));
  }

  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<CircuitBreaker> breaker;
};

sched::Model BreakerLegalityModel() {
  auto fx = std::make_shared<BreakerFixture>();
  sched::Model m;
  m.setup = [fx] { fx->Reset(); };
  for (int w = 0; w < 2; ++w) {
    m.tasks.push_back([fx, w] {
      CircuitBreaker& b = *fx->breaker;
      const int64_t base = w * 7;
      uint64_t last_opens = 0;
      const auto observe = [&] {
        const uint64_t oc = b.open_count();
        sched::Check(oc >= last_opens, "open_count went backwards");
        last_opens = oc;
      };
      b.RecordFailure(base + 10);
      observe();
      b.RecordFailure(base + 20);
      observe();
      // Past the cooldown of any open taken above: may half-open.
      (void)b.AllowRequest(base + 200);
      b.RecordSuccess(base + 210);
      observe();
    });
  }
  m.check = [fx] {
    const CircuitBreaker& b = *fx->breaker;
    const MetricsSnapshot snap = fx->registry->Snapshot();
    uint64_t opens = 0;
    uint64_t closes = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name == "breaker.opens") opens = value;
      if (name == "breaker.closes") closes = value;
    }
    sched::Check(opens == b.open_count(),
                 "opens counter diverged from breaker's own tally");
    sched::Check(opens >= closes, "more closes than opens");
    // open_count ticks on HalfOpen -> Open re-trips too (a failed probe is
    // a fresh degraded-mode entry), so opens can outrun closes by more than
    // one while re-tripping — the checker itself surfaced that schedule: a
    // worker's pre-open RecordFailure can land as a half-open probe opened
    // by its peer. What IS legal: ending closed requires the last
    // transition to have been a Close, so an open surplus is only allowed
    // while the breaker is still open or half-open.
    const bool closed = b.state() == CircuitBreaker::State::kClosed;
    sched::Check(closed || opens > closes,
                 "breaker outside closed but every open was closed");
    sched::Check(!closed || opens >= closes,
                 "breaker closed with unmatched closes");
    // Each Record* call performs at most one transition into open, and the
    // model makes six of them.
    sched::Check(opens <= 6, "more opens than recorded outcomes");
  };
  return m;
}

// ---------------------------------------------------------------------------
// Invariant family (d): EventSink single-writer discipline. One shared sink
// behind a Mutex; a CAS guard inside the critical section proves mutual
// exclusion on every schedule. The `locked = false` variant is the seeded
// dropped-lock bug the checker must catch (acceptance fixture): with the
// Mutex gone, some schedule lands a second writer between the guard's CAS
// and its reset.

struct SinkFixture {
  void Reset() {
    sink = std::make_unique<EventSink>(/*worker=*/0);
    sink->Reserve(4);
    guard.Store(0);
  }

  Mutex mu;
  Atomic<uint64_t> guard{0};
  std::unique_ptr<EventSink> sink;
};

sched::Model SharedSinkModel(bool locked) {
  auto fx = std::make_shared<SinkFixture>();
  sched::Model m;
  m.setup = [fx] { fx->Reset(); };
  for (int w = 0; w < 2; ++w) {
    m.tasks.push_back([fx, w, locked] {
      const auto record = [&] {
        uint64_t expected = 0;
        sched::Check(
            fx->guard.CompareExchange(expected,
                                      static_cast<uint64_t>(w) + 1),
            "second writer entered the sink critical section");
        OpEvent ev;
        ev.timestamp_nanos = w * 100 + 1;
        ev.type = OpType::kGet;
        ev.ok = true;
        fx->sink->Record(ev);
        fx->guard.Store(0);
      };
      if (locked) {
        MutexLock lock(fx->mu);
        record();
      } else {
        record();
      }
    });
  }
  m.check = [fx] {
    const EventStream events = fx->sink->TakeEvents();
    sched::Check(events.size() == 2, "sink lost a record");
    for (size_t i = 0; i < events.size(); ++i) {
      sched::Check(events[i].seq == i, "sink seqs not contiguous");
    }
  };
  return m;
}

// ---------------------------------------------------------------------------
// Model registry: shared by the gtest cases and the --sched-model /
// --sched-replay command line (the replay workflow).

using ModelFactory = sched::Model (*)();

sched::Model MergePipeline2() { return MergePipelineModel(2); }
sched::Model MergePipeline3() { return MergePipelineModel(3); }
sched::Model PairLocked() { return PairInvariantModel(true); }
sched::Model PairDroppedLock() { return PairInvariantModel(false); }
sched::Model SinkLocked() { return SharedSinkModel(true); }
sched::Model SinkDroppedLock() { return SharedSinkModel(false); }

const std::map<std::string, ModelFactory>& ModelRegistry() {
  static const std::map<std::string, ModelFactory> kModels = {
      {"lost-update", &LostUpdateModel},
      {"pair-locked", &PairLocked},
      {"pair-dropped-lock", &PairDroppedLock},
      {"deadlock", &DeadlockModel},
      {"condvar-handoff", &CondVarHandoffModel},
      {"merge-pipeline-2w", &MergePipeline2},
      {"merge-pipeline-3w", &MergePipeline3},
      {"queue-conservation", &QueueConservationModel},
      {"breaker-legality", &BreakerLegalityModel},
      {"sink-locked", &SinkLocked},
      {"sink-dropped-lock", &SinkDroppedLock},
  };
  return kModels;
}

// ---------------------------------------------------------------------------
// Checker self-tests: seeded bugs are caught and replayable.

TEST(SchedChecker, FindsLostUpdateAndReplayReproducesIt) {
  const sched::ExploreResult result = sched::Explore(LostUpdateModel());
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_NE(result.violation->message.find("lost update"), std::string::npos);
  ASSERT_FALSE(result.violation->schedule.empty());

  // The decision string re-executes deterministically to the same failure.
  const sched::ExploreResult replay =
      sched::Replay(LostUpdateModel(), result.violation->schedule);
  ASSERT_TRUE(replay.violation.has_value());
  EXPECT_EQ(replay.violation->message, result.violation->message);
}

TEST(SchedChecker, DroppedLockPairInvariantCaught) {
  const sched::ExploreResult result =
      sched::Explore(PairInvariantModel(false));
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_NE(result.violation->message.find("pair invariant"),
            std::string::npos);
  const sched::ExploreResult replay = sched::Replay(
      PairInvariantModel(false), result.violation->schedule);
  ASSERT_TRUE(replay.violation.has_value());
}

TEST(SchedChecker, CorrectLockingPassesExhaustively) {
  const sched::ExploreResult result = sched::Explore(PairInvariantModel(true));
  EXPECT_TRUE(result.ok()) << result.violation->message << "  schedule="
                           << result.violation->schedule;
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.schedules, 1u);  // The mutex still admits several orders.
}

TEST(SchedChecker, DeadlockDetectedWithSchedule) {
  const sched::ExploreResult result = sched::Explore(DeadlockModel());
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_NE(result.violation->message.find("deadlock"), std::string::npos);
  ASSERT_FALSE(result.violation->schedule.empty());
  const sched::ExploreResult replay =
      sched::Replay(DeadlockModel(), result.violation->schedule);
  ASSERT_TRUE(replay.violation.has_value());
  EXPECT_NE(replay.violation->message.find("deadlock"), std::string::npos);
}

TEST(SchedChecker, CondVarHandoffCompletesOnEverySchedule) {
  const sched::ExploreResult result = sched::Explore(CondVarHandoffModel());
  EXPECT_TRUE(result.ok()) << result.violation->message << "  schedule="
                           << result.violation->schedule;
  EXPECT_TRUE(result.complete);
}

TEST(SchedChecker, ExplorationIsDeterministic) {
  const sched::ExploreResult a = sched::Explore(LostUpdateModel());
  const sched::ExploreResult b = sched::Explore(LostUpdateModel());
  ASSERT_TRUE(a.violation.has_value());
  ASSERT_TRUE(b.violation.has_value());
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.violation->schedule, b.violation->schedule);
  EXPECT_EQ(a.violation->message, b.violation->message);
}

TEST(SchedChecker, EmptyReplayRunsDefaultSchedule) {
  const sched::ExploreResult result =
      sched::Replay(PairInvariantModel(true), "");
  EXPECT_TRUE(result.ok());
}

// ---------------------------------------------------------------------------
// The real-component invariant families.

TEST(SchedModel, MergeByteIdentityUnderEverySchedule) {
  sched::Options options;
  options.max_schedules = 500000;
  const sched::ExploreResult result =
      sched::Explore(MergePipelineModel(2), options);
  EXPECT_TRUE(result.ok()) << result.violation->message << "  schedule="
                           << result.violation->schedule;
  EXPECT_TRUE(result.complete)
      << "2-worker exploration must exhaust within budget; ran "
      << result.schedules;
  EXPECT_GT(result.schedules, 1u);
}

TEST(SchedModel, QueueConservationUnderEverySchedule) {
  sched::Options options;
  options.max_schedules = 500000;
  const sched::ExploreResult result =
      sched::Explore(QueueConservationModel(), options);
  EXPECT_TRUE(result.ok()) << result.violation->message << "  schedule="
                           << result.violation->schedule;
  EXPECT_TRUE(result.complete) << "ran " << result.schedules;
}

TEST(SchedModel, BreakerTransitionsLegalUnderEverySchedule) {
  sched::Options options;
  options.max_schedules = 500000;
  const sched::ExploreResult result =
      sched::Explore(BreakerLegalityModel(), options);
  EXPECT_TRUE(result.ok()) << result.violation->message << "  schedule="
                           << result.violation->schedule;
  EXPECT_TRUE(result.complete) << "ran " << result.schedules;
}

TEST(SchedModel, SharedSinkSingleWriterHoldsWithLock) {
  const sched::ExploreResult result = sched::Explore(SharedSinkModel(true));
  EXPECT_TRUE(result.ok()) << result.violation->message << "  schedule="
                           << result.violation->schedule;
  EXPECT_TRUE(result.complete);
}

TEST(SchedModel, SharedSinkDroppedLockCaughtAndReplayed) {
  const sched::ExploreResult result = sched::Explore(SharedSinkModel(false));
  ASSERT_TRUE(result.violation.has_value())
      << "the dropped-lock sink bug must be caught";
  EXPECT_NE(result.violation->message.find("second writer"),
            std::string::npos);
  const sched::ExploreResult replay =
      sched::Replay(SharedSinkModel(false), result.violation->schedule);
  ASSERT_TRUE(replay.violation.has_value());
  EXPECT_EQ(replay.violation->message, result.violation->message);
}

TEST(SchedModel, ThreeWorkerPipelineUnderPreemptionBound) {
  sched::Options options;
  options.preemption_bound = 2;  // CHESS-style fallback for the deep state.
  options.max_schedules = EnvFlagEnabled("LSBENCH_QUICK") ? 20000 : 200000;
  const sched::ExploreResult result =
      sched::Explore(MergePipelineModel(3), options);
  EXPECT_TRUE(result.ok()) << result.violation->message << "  schedule="
                           << result.violation->schedule;
  EXPECT_GT(result.schedules, 1u);
}

}  // namespace
}  // namespace lsbench

// ---------------------------------------------------------------------------
// Custom main: --sched-model / --sched-replay for the replay workflow;
// everything else falls through to gtest.

int main(int argc, char** argv) {
  std::string model_name;
  std::string replay;
  std::vector<char*> gtest_args;
  gtest_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sched-model=", 14) == 0) {
      model_name = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--sched-replay=", 15) == 0) {
      replay = argv[i] + 15;
    } else {
      gtest_args.push_back(argv[i]);
    }
  }

  if (!model_name.empty()) {
    const auto& registry = lsbench::ModelRegistry();
    const auto it = registry.find(model_name);
    if (it == registry.end()) {
      std::fprintf(stderr, "unknown model '%s'; available:\n",
                   model_name.c_str());
      for (const auto& [name, factory] : registry) {
        std::fprintf(stderr, "  %s\n", name.c_str());
      }
      return 2;
    }
    const lsbench::sched::ExploreResult result =
        replay.empty()
            ? lsbench::sched::Explore(it->second())
            : lsbench::sched::Replay(it->second(), replay);
    std::printf("model=%s schedules=%llu complete=%d\n", model_name.c_str(),
                static_cast<unsigned long long>(result.schedules),
                result.complete ? 1 : 0);
    if (result.violation) {
      std::printf("VIOLATION: %s\n  schedule=%s\n  replay with: "
                  "--sched-model=%s --sched-replay=%s\n",
                  result.violation->message.c_str(),
                  result.violation->schedule.c_str(), model_name.c_str(),
                  result.violation->schedule.c_str());
      return 1;
    }
    std::printf("OK: no violation on any explored schedule\n");
    return 0;
  }

  int gtest_argc = static_cast<int>(gtest_args.size());
  ::testing::InitGoogleTest(&gtest_argc, gtest_args.data());
  return RUN_ALL_TESTS();
}
