#ifndef LSBENCH_UTIL_SHARD_MERGE_H_
#define LSBENCH_UTIL_SHARD_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace lsbench {

/// Merges per-worker shards into one stream ordered by `less`, a strict weak
/// ordering. Shards are expected to arrive already sorted (each worker
/// records in completion order), so the common case is a linear k-way merge
/// over the shard heads: O(n log k) comparisons and one copy per element.
/// A shard that fails the O(n) is_sorted check is stable-sorted first, so
/// the result is the same for any input: exactly
/// `std::stable_sort(concatenation of shards, less)`, with elements that
/// compare equal kept in shard order, then in within-shard order.
///
/// A single shard passes through unchanged, without the check: the serial
/// driver's stream is never reordered.
template <typename T, typename Less>
std::vector<T> MergeSortedShards(std::vector<std::vector<T>> shards,
                                 Less less) {
  if (shards.empty()) return {};
  if (shards.size() == 1) return std::move(shards[0]);

  // One cursor per non-empty shard, kept as a binary min-heap on
  // (head element, shard index); the index makes ties resolve in shard
  // order, which is what makes the merge equal to a stable sort.
  struct Cursor {
    T* next;
    T* end;
    size_t shard;
  };
  const auto before = [&less](const Cursor& a, const Cursor& b) {
    if (less(*a.next, *b.next)) return true;
    if (less(*b.next, *a.next)) return false;
    return a.shard < b.shard;
  };
  std::vector<Cursor> heap;
  heap.reserve(shards.size());
  size_t total = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    std::vector<T>& shard = shards[i];
    if (shard.empty()) continue;
    if (!std::is_sorted(shard.begin(), shard.end(), less)) {
      std::stable_sort(shard.begin(), shard.end(), less);
    }
    total += shard.size();
    heap.push_back({shard.data(), shard.data() + shard.size(), i});
  }
  const auto sift_down = [&heap, &before](size_t at) {
    for (;;) {
      size_t child = 2 * at + 1;
      if (child >= heap.size()) return;
      if (child + 1 < heap.size() && before(heap[child + 1], heap[child])) {
        ++child;
      }
      if (!before(heap[child], heap[at])) return;
      std::swap(heap[child], heap[at]);
      at = child;
    }
  };
  for (size_t i = heap.size() / 2; i-- > 0;) sift_down(i);

  std::vector<T> merged;
  merged.reserve(total);
  while (heap.size() > 1) {
    Cursor& top = heap.front();
    merged.push_back(std::move(*top.next));
    if (++top.next == top.end) {
      top = heap.back();
      heap.pop_back();
    }
    sift_down(0);
  }
  // The last shard standing is appended in one bulk move.
  if (!heap.empty()) {
    merged.insert(merged.end(), std::make_move_iterator(heap.front().next),
                  std::make_move_iterator(heap.front().end));
  }
  return merged;
}

}  // namespace lsbench

#endif  // LSBENCH_UTIL_SHARD_MERGE_H_
