#ifndef LSBENCH_CORE_EVENT_SINK_H_
#define LSBENCH_CORE_EVENT_SINK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/events.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "sut/sut.h"
#include "util/annotate.h"

namespace lsbench {

/// Stage 3 of the execution core: one worker's event shard. Each worker
/// records into its own sink with no synchronization; the sink stamps the
/// worker id and a per-shard issue sequence number so shards can later be
/// merged into one deterministic stream regardless of thread scheduling.
class EventSink {
 public:
  explicit EventSink(uint32_t worker) : worker_(worker) {}

  /// Sizes the arena for `n` more events. All allocation happens here, off
  /// the measured loop; Record then fills slots by index.
  void Reserve(size_t n) { events_.resize(used_ + n); }

  /// Records one completed operation, stamping provenance. Allocation-free
  /// while the arena has room (the steady state — the driver Reserves the
  /// full phase up front); growth is delegated to the cold slow path.
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  void Record(OpEvent event) {
    LSBENCH_PROFILE_STAGE(profiler_, Stage::kRecord);
    if (events_recorded_ != nullptr) events_recorded_->Increment();
    event.worker = worker_;
    event.seq = next_seq_++;
    if (used_ < events_.size()) {
      events_[used_++] = event;
    } else {
      RecordSlow(event);
    }
  }

  /// Records one event per element of a completed batch op. `proto` carries
  /// the request-unit outcome shared by every element (timestamp, latency,
  /// issue, phase, type, retries, failure flags, batch size); each element
  /// contributes its own data-level ok/rows from `results[i]`. Elements get
  /// consecutive seqs from this shard, so the (timestamp, worker, seq)
  /// merge contract keeps a batch contiguous and deterministic.
  ///
  /// The whole-batch arena fast path stamps provenance once and writes
  /// slots directly: one proto copy plus three patched fields per element,
  /// instead of a full per-element copy through Record. Identical recorded
  /// bytes either way (pinned by the batch determinism tests).
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  void RecordBatch(const OpEvent& proto, const OpResult* results,
                   uint32_t count) {
    if (used_ + count <= events_.size()) {
      LSBENCH_PROFILE_STAGE(profiler_, Stage::kRecord);
      if (events_recorded_ != nullptr) events_recorded_->Increment(count);
      OpEvent event = proto;
      event.worker = worker_;
      for (uint32_t i = 0; i < count; ++i) {
        event.ok = !proto.failed && results[i].ok;
        event.rows = results[i].rows;
        event.seq = next_seq_++;
        events_[used_++] = event;
      }
      return;
    }
    for (uint32_t i = 0; i < count; ++i) {
      OpEvent event = proto;
      event.ok = !proto.failed && results[i].ok;
      event.rows = results[i].rows;
      Record(event);
    }
  }

  /// Arms the append profiling hook (Stage::kRecord) and the record
  /// counter. Either pointer may be null; observing the sink never changes
  /// what it records.
  void BindObservability(StageProfiler* profiler, Counter* events_recorded) {
    profiler_ = profiler;
    events_recorded_ = events_recorded;
  }

  uint32_t worker() const { return worker_; }
  size_t recorded() const { return used_; }

  /// Moves the shard out, trimmed to what was actually recorded (the sink
  /// is spent afterwards).
  EventStream TakeEvents() {
    events_.resize(used_);
    used_ = 0;
    return std::move(events_);
  }

 private:
  /// Cold path: the arena is full. Grows the shard (allocates); out of line
  /// so the hot-alloc frontier is this function, not Record.
  void RecordSlow(const OpEvent& event);

  uint32_t worker_;
  uint64_t next_seq_ = 0;
  /// Arena: slots [0, used_) hold recorded events; the rest is headroom
  /// created by Reserve.
  EventStream events_;
  size_t used_ = 0;

  // Observability hooks (null = disabled).
  StageProfiler* profiler_ = nullptr;
  Counter* events_recorded_ = nullptr;
};

/// Merges per-worker event shards into one stream ordered by
/// (timestamp, worker, seq). The tie-break on provenance makes the merged
/// order a pure function of the shards' contents — two runs with identical
/// shards merge identically no matter how threads interleaved.
///
/// Each sink records in completion order and stamps `seq` at record time,
/// so every shard arrives in (timestamp, seq) order and the merge is a
/// linear k-way merge of the shard heads (MergeSortedShards). A shard that
/// breaks that order is sorted first, so any input still yields the sorted
/// permutation. A single shard passes through unchanged.
EventStream MergeEventShards(std::vector<EventStream> shards);

/// Canonical one-line-per-event text form of a merged stream. Two runs
/// produced identical event streams iff their serializations are
/// byte-identical — the representation the determinism tests hash.
std::string SerializeEventStream(const EventStream& events);

}  // namespace lsbench

#endif  // LSBENCH_CORE_EVENT_SINK_H_
