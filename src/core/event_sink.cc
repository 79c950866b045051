#include "core/event_sink.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/shard_merge.h"

namespace lsbench {

// lsbench-deepcheck: allow(hot-alloc, hot-throw)
void EventSink::RecordSlow(const OpEvent& event) {
  // Only reached when Reserve undersized the arena (e.g. retries exceeding
  // the per-worker headroom). Growing only when full, doubling capacity,
  // keeps repeat spills amortized.
  if (events_.size() == events_.capacity()) {
    events_.reserve(std::max<size_t>(events_.capacity() * 2, 64));
  }
  events_.push_back(event);
  used_ = events_.size();
}

EventStream MergeEventShards(std::vector<EventStream> shards) {
  return MergeSortedShards(
      std::move(shards), [](const OpEvent& a, const OpEvent& b) {
        if (a.timestamp_nanos != b.timestamp_nanos) {
          return a.timestamp_nanos < b.timestamp_nanos;
        }
        if (a.worker != b.worker) return a.worker < b.worker;
        return a.seq < b.seq;
      });
}

std::string SerializeEventStream(const EventStream& events) {
  std::ostringstream out;
  out << "# lsbench-events v3 events=" << events.size() << "\n";
  for (const OpEvent& e : events) {
    out << e.timestamp_nanos << ' ' << e.latency_nanos << ' ' << e.issue_nanos
        << ' ' << e.phase << ' ' << static_cast<int>(e.type) << ' '
        << (e.ok ? 1 : 0) << ' ' << e.rows << ' ' << e.retries << ' '
        << (e.failed ? 1 : 0) << ' ' << (e.timed_out ? 1 : 0) << ' '
        << (e.shed ? 1 : 0) << ' ' << (e.queue_shed ? 1 : 0) << ' '
        << (e.open_loop ? 1 : 0) << ' ' << e.batch << ' ' << e.worker << ' '
        << e.seq << '\n';
  }
  return out.str();
}

}  // namespace lsbench
