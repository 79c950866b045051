// Property test: the post-run shard merges are permutation-invariant. The
// repo's reproducibility contract says the merged event stream, trace,
// metrics snapshot, and stage breakdown are pure functions of the shards'
// CONTENTS — never of the order workers happened to finish (which is the
// order the driver collects them in). lsbench-sched proves this under every
// interleaving for small pipelines (tests/sched_model_test.cc); this test
// attacks the same invariant from the other side, feeding every permutation
// of synthetic shards through the real merge functions and requiring
// byte-identical serialized output.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/event_sink.h"
#include "core/events.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/random.h"

namespace lsbench {
namespace {

// Runs `body(perm)` for every permutation of {0, ..., n-1}.
void ForEachPermutation(size_t n,
                        const std::function<void(const std::vector<size_t>&)>&
                            body) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  do {
    body(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

// --- Event shards -----------------------------------------------------------

// One worker's shard: seqs ascend per shard (the sink contract), timestamps
// overlap across shards and deliberately collide so the (timestamp, worker,
// seq) tie-break is exercised, not just the timestamp sort.
EventStream MakeEventShard(uint32_t worker, size_t n) {
  Rng rng(1000 + worker);
  EventStream shard;
  shard.reserve(n);
  int64_t ts = 0;
  for (size_t i = 0; i < n; ++i) {
    // Step 0 half the time: equal timestamps within AND across shards.
    ts += static_cast<int64_t>(rng.NextBounded(2) * 100);
    OpEvent e;
    e.timestamp_nanos = ts;
    e.latency_nanos = static_cast<int64_t>(rng.NextBounded(1000));
    e.issue_nanos = ts - e.latency_nanos;
    e.phase = static_cast<int32_t>(rng.NextBounded(2));
    e.ok = rng.NextBounded(4) != 0;
    e.rows = rng.NextBounded(8);
    e.retries = static_cast<uint16_t>(rng.NextBounded(3));
    e.worker = worker;
    e.seq = i;
    shard.push_back(e);
  }
  return shard;
}

TEST(MergePermutation, EventShardsMergeByteIdentically) {
  constexpr size_t kShards = 4;
  std::vector<EventStream> shards;
  for (size_t w = 0; w < kShards; ++w) {
    shards.push_back(MakeEventShard(static_cast<uint32_t>(w), 16));
  }
  const std::string reference = SerializeEventStream(
      MergeEventShards(shards));
  ASSERT_FALSE(reference.empty());

  ForEachPermutation(kShards, [&](const std::vector<size_t>& perm) {
    std::vector<EventStream> permuted;
    for (size_t idx : perm) permuted.push_back(shards[idx]);
    const EventStream merged = MergeEventShards(std::move(permuted));
    EXPECT_EQ(reference, SerializeEventStream(merged))
        << "shard order changed the merged event stream";
  });
}

TEST(MergePermutation, MergedEventStreamIsProvenanceOrdered) {
  std::vector<EventStream> shards;
  for (size_t w = 0; w < 3; ++w) {
    shards.push_back(MakeEventShard(static_cast<uint32_t>(w), 12));
  }
  const EventStream merged = MergeEventShards(std::move(shards));
  for (size_t i = 1; i < merged.size(); ++i) {
    const OpEvent& a = merged[i - 1];
    const OpEvent& b = merged[i];
    const auto key = [](const OpEvent& e) {
      return std::make_tuple(e.timestamp_nanos, e.worker, e.seq);
    };
    EXPECT_LT(key(a), key(b)) << "merge order violated at index " << i;
  }
}

// --- Trace shards -----------------------------------------------------------

TraceStream MakeTraceShard(uint32_t worker, size_t n) {
  static const char* const kNames[] = {"generate", "pace", "execute",
                                       "record"};
  Rng rng(2000 + worker);
  TraceStream shard;
  shard.reserve(n);
  int64_t start = 0;
  for (size_t i = 0; i < n; ++i) {
    start += static_cast<int64_t>(rng.NextBounded(2) * 50);
    TraceSpan span;
    span.name = kNames[rng.NextBounded(4)];
    span.start_nanos = start;
    span.end_nanos = start + static_cast<int64_t>(rng.NextBounded(500));
    span.phase = static_cast<int32_t>(rng.NextBounded(2));
    span.worker = worker;
    span.seq = i;
    shard.push_back(span);
  }
  return shard;
}

TEST(MergePermutation, TraceShardsMergeByteIdentically) {
  constexpr size_t kShards = 4;
  std::vector<TraceStream> shards;
  for (size_t w = 0; w < kShards; ++w) {
    shards.push_back(MakeTraceShard(static_cast<uint32_t>(w), 12));
  }
  // Driver-level spans sort after all workers at equal timestamps.
  shards.push_back(MakeTraceShard(kDriverTraceWorker, 6));

  const std::string reference = SerializeTrace(MergeTraceShards(shards));
  ASSERT_FALSE(reference.empty());

  ForEachPermutation(shards.size(), [&](const std::vector<size_t>& perm) {
    std::vector<TraceStream> permuted;
    for (size_t idx : perm) permuted.push_back(shards[idx]);
    EXPECT_EQ(reference, SerializeTrace(MergeTraceShards(
                             std::move(permuted))))
        << "shard order changed the merged trace";
  });
}

// --- Oracle: k-way merge against concatenate-then-sort ---------------------

// Random shards for the oracle cases: `workers` shards of uneven size summing
// to about `total` events, timestamps drawn from a narrow range so ties are
// heavy within and across shards, every third shard empty when
// `with_empty` is set, and shard `shuffled` (if in range) deliberately out
// of order.
std::vector<EventStream> RandomEventShards(Rng& rng, size_t workers,
                                           size_t total, bool with_empty,
                                           size_t shuffled) {
  std::vector<EventStream> shards(workers);
  for (size_t w = 0; w < workers; ++w) {
    if (with_empty && w % 3 == 1) continue;
    const size_t n = rng.NextBounded(2 * total / workers + 1);
    int64_t ts = 0;
    for (size_t i = 0; i < n; ++i) {
      ts += static_cast<int64_t>(rng.NextBounded(3));  // Mostly ties.
      OpEvent e;
      e.timestamp_nanos = ts;
      e.latency_nanos = static_cast<int64_t>(rng.NextBounded(5000));
      e.issue_nanos = ts - e.latency_nanos;
      e.phase = static_cast<int32_t>(rng.NextBounded(3));
      e.ok = rng.NextBounded(4) != 0;
      e.rows = rng.NextBounded(8);
      e.batch = 1 + static_cast<uint32_t>(rng.NextBounded(2));
      e.worker = static_cast<uint32_t>(w);
      e.seq = i;
      shards[w].push_back(e);
    }
    if (w == shuffled) {
      for (size_t i = shards[w].size(); i > 1; --i) {
        std::swap(shards[w][i - 1], shards[w][rng.NextBounded(i)]);
      }
    }
  }
  return shards;
}

// The first line where two serialized streams differ, or "" when they are
// identical. The oracle streams run to megabytes, too large for gtest's
// string diff, so failures report this one line instead.
std::string FirstDifference(const std::string& got, const std::string& want) {
  if (got == want) return "";
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(),
                                    want.end());
  const auto line_of = [](const std::string& text,
                          std::string::const_iterator at) {
    const size_t pos = static_cast<size_t>(at - text.begin());
    const size_t begin = text.rfind('\n', pos == 0 ? 0 : pos - 1);
    const size_t start = begin == std::string::npos ? 0 : begin + 1;
    return text.substr(start, text.find('\n', pos) - start);
  };
  return "got '" + line_of(got, g) + "', want '" + line_of(want, w) + "'";
}

bool EventBefore(const OpEvent& a, const OpEvent& b) {
  return std::make_tuple(a.timestamp_nanos, a.worker, a.seq) <
         std::make_tuple(b.timestamp_nanos, b.worker, b.seq);
}

TEST(MergeOracle, EventMergeEqualsConcatenateThenSort) {
  Rng rng(9090);
  for (size_t workers = 2; workers <= 8; ++workers) {
    for (const bool with_empty : {false, true}) {
      // Out of order: none, the first shard, or a middle one.
      for (const size_t shuffled : {workers, size_t{0}, workers / 2}) {
        const std::vector<EventStream> shards = RandomEventShards(
            rng, workers, 100000 / workers, with_empty, shuffled);
        EventStream oracle;
        for (const EventStream& shard : shards) {
          oracle.insert(oracle.end(), shard.begin(), shard.end());
        }
        std::sort(oracle.begin(), oracle.end(), EventBefore);
        const std::string merged =
            SerializeEventStream(MergeEventShards(shards));
        EXPECT_EQ(FirstDifference(merged, SerializeEventStream(oracle)), "")
            << workers << " workers, empty shards " << with_empty
            << ", shuffled shard " << shuffled;
      }
    }
  }
}

TEST(MergeOracle, TraceMergeEqualsConcatenateThenStableSort) {
  static const char* const kNames[] = {"execute", "backoff", "phase"};
  const auto before = [](const TraceSpan& a, const TraceSpan& b) {
    return std::make_tuple(a.start_nanos, a.worker, a.seq) <
           std::make_tuple(b.start_nanos, b.worker, b.seq);
  };
  Rng rng(9191);
  for (size_t workers = 2; workers <= 8; ++workers) {
    for (const size_t shuffled : {workers, size_t{1}}) {
      std::vector<TraceStream> shards(workers);
      for (size_t w = 0; w < workers; ++w) {
        if (w % 3 == 2) continue;  // Some empty shards.
        // The last shard reuses worker 0's id: its spans tie worker 0's on
        // every key field, and only the stable shard order separates them.
        const uint32_t worker = w + 1 == workers && workers > 2
                                    ? 0
                                    : static_cast<uint32_t>(w);
        const size_t n = rng.NextBounded(2 * 100000 / workers + 1);
        int64_t start = 0;
        for (size_t i = 0; i < n; ++i) {
          start += static_cast<int64_t>(rng.NextBounded(3));
          TraceSpan span;
          span.name = kNames[rng.NextBounded(3)];
          span.start_nanos = start;
          span.end_nanos = start + static_cast<int64_t>(rng.NextBounded(90));
          span.phase = static_cast<int32_t>(rng.NextBounded(3));
          span.worker = worker;
          span.seq = i;
          shards[w].push_back(span);
        }
        if (w == shuffled) {
          for (size_t i = shards[w].size(); i > 1; --i) {
            std::swap(shards[w][i - 1], shards[w][rng.NextBounded(i)]);
          }
        }
      }
      TraceStream oracle;
      for (const TraceStream& shard : shards) {
        oracle.insert(oracle.end(), shard.begin(), shard.end());
      }
      std::stable_sort(oracle.begin(), oracle.end(), before);
      const std::string merged = SerializeTrace(MergeTraceShards(shards));
      EXPECT_EQ(FirstDifference(merged, SerializeTrace(oracle)), "")
          << workers << " workers, shuffled shard " << shuffled;
    }
  }
}

// --- Metrics shards ---------------------------------------------------------

// Canonical text form of a snapshot: MetricsSnapshot has no serializer of
// its own (reports consume it structurally), so byte-identity here means
// identity of this exhaustive stringification.
std::string StringifySnapshot(const MetricsSnapshot& snap) {
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    out << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out << "gauge " << name << " " << value << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out << "hist " << name << " count=" << h.count << " sum=" << h.sum
        << " min=" << h.min << " max=" << h.max << " counts=";
    for (uint64_t c : h.counts) out << c << ",";
    out << "\n";
  }
  return out.str();
}

// Shards with overlapping AND disjoint instrument sets: merge must sum the
// shared names and pass the rest through, independent of shard order.
MetricsSnapshot MakeMetricsShard(uint32_t worker) {
  MetricsRegistry registry;
  Rng rng(3000 + worker);
  registry.GetCounter("ops.total")->Increment(rng.NextBounded(100));
  registry.GetCounter("worker." + std::to_string(worker) + ".ops")
      ->Increment(worker + 1);
  registry.GetGauge("queue.depth")->Add(
      static_cast<int64_t>(rng.NextBounded(16)));
  FixedHistogram* hist = registry.GetHistogram("latency");
  for (int i = 0; i < 32; ++i) {
    hist->Record(static_cast<int64_t>(rng.NextBounded(4000000)));
  }
  return registry.Snapshot();
}

TEST(MergePermutation, MetricsShardsMergeByteIdentically) {
  constexpr size_t kShards = 4;
  std::vector<MetricsSnapshot> shards;
  for (size_t w = 0; w < kShards; ++w) {
    shards.push_back(MakeMetricsShard(static_cast<uint32_t>(w)));
  }
  auto reference = MergeMetricsShards(shards);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  const std::string reference_text = StringifySnapshot(reference.value());
  ASSERT_FALSE(reference_text.empty());

  ForEachPermutation(kShards, [&](const std::vector<size_t>& perm) {
    std::vector<MetricsSnapshot> permuted;
    for (size_t idx : perm) permuted.push_back(shards[idx]);
    auto merged = MergeMetricsShards(permuted);
    ASSERT_TRUE(merged.ok()) << merged.status().message();
    EXPECT_EQ(reference_text, StringifySnapshot(merged.value()))
        << "shard order changed the merged metrics snapshot";
  });
}

// --- Stage breakdown shards -------------------------------------------------

std::string StringifyBreakdown(const StageBreakdown& breakdown) {
  std::ostringstream out;
  for (const PhaseStageBreakdown& phase : breakdown) {
    out << "phase " << phase.phase << ":";
    for (size_t s = 0; s < kNumStages; ++s) {
      out << " " << phase.stages[s].total_nanos << "/"
          << phase.stages[s].samples;
    }
    out << "\n";
  }
  return out.str();
}

// Shards cover overlapping phase sets (worker 0 has the run-level phase,
// later workers only their own); the accumulate must stay phase-aligned.
StageBreakdown MakeStageShard(uint32_t worker) {
  Rng rng(4000 + worker);
  StageBreakdown shard;
  const int32_t first_phase =
      worker == 0 ? PhaseStageBreakdown::kRunLevelPhase : 0;
  for (int32_t phase = first_phase; phase <= 1; ++phase) {
    PhaseStageBreakdown p;
    p.phase = phase;
    for (size_t s = 0; s < kNumStages; ++s) {
      p.stages[s].total_nanos = static_cast<int64_t>(rng.NextBounded(100000));
      p.stages[s].samples = rng.NextBounded(50);
    }
    shard.push_back(p);
  }
  return shard;
}

TEST(MergePermutation, StageBreakdownMergesByteIdentically) {
  constexpr size_t kShards = 4;
  std::vector<StageBreakdown> shards;
  for (size_t w = 0; w < kShards; ++w) {
    shards.push_back(MakeStageShard(static_cast<uint32_t>(w)));
  }
  StageBreakdown reference;
  for (const StageBreakdown& shard : shards) {
    MergeStageBreakdown(&reference, shard);
  }
  const std::string reference_text = StringifyBreakdown(reference);
  ASSERT_FALSE(reference_text.empty());

  ForEachPermutation(kShards, [&](const std::vector<size_t>& perm) {
    StageBreakdown merged;
    for (size_t idx : perm) MergeStageBreakdown(&merged, shards[idx]);
    EXPECT_EQ(reference_text, StringifyBreakdown(merged))
        << "accumulation order changed the stage breakdown";
  });
}

}  // namespace
}  // namespace lsbench
