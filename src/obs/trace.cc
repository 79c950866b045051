#include "obs/trace.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/shard_merge.h"

namespace lsbench {
namespace {

/// Strict weak ordering by (start, worker, seq) — the event-shard merge
/// discipline. Names deliberately do not participate: provenance alone
/// determines the order, names are payload.
bool SpanBefore(const TraceSpan& a, const TraceSpan& b) {
  if (a.start_nanos != b.start_nanos) return a.start_nanos < b.start_nanos;
  if (a.worker != b.worker) return a.worker < b.worker;
  return a.seq < b.seq;
}

}  // namespace

// lsbench-deepcheck: allow(hot-alloc, hot-throw)
void Tracer::RecordSlow(const TraceSpan& span) {
  // Only reached when Reserve undersized the arena. Growing only when full,
  // doubling capacity, keeps repeat spills amortized.
  if (spans_.size() == spans_.capacity()) {
    spans_.reserve(std::max<size_t>(spans_.capacity() * 2, 64));
  }
  spans_.push_back(span);
  used_ = spans_.size();
}

TraceStream MergeTraceShards(std::vector<TraceStream> shards) {
  // Each shard is already in (start, seq) order for its single worker: its
  // spans never nest, so they start in the order they close. The k-way
  // merge keeps the result equal to a stable sort of the concatenation for
  // any input.
  return MergeSortedShards(std::move(shards), SpanBefore);
}

std::string SerializeTrace(const TraceStream& trace) {
  std::ostringstream out;
  out << "# lsbench-trace v1 spans=" << trace.size() << "\n";
  for (const TraceSpan& span : trace) {
    out << "span " << span.start_nanos << ' ' << span.end_nanos << ' '
        << span.phase << ' ' << span.worker << ' ' << span.seq << ' '
        << span.name << '\n';
  }
  return out.str();
}

uint64_t HashTrace(const TraceStream& trace) {
  const std::string text = SerializeTrace(trace);
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis.
  for (const char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;  // FNV-1a prime.
  }
  return hash;
}

}  // namespace lsbench
