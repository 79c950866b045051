#include "learned/delta_buffer.h"

#include <algorithm>

namespace lsbench {

DeltaBuffer::Presence DeltaBuffer::Lookup(Key key, Value* value) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return Presence::kAbsent;
  if (it->second.tombstone) return Presence::kTombstone;
  if (value != nullptr) *value = it->second.value;
  return Presence::kLive;
}

void DeltaBuffer::Put(Key key, Value value) {
  entries_[key] = Entry{false, value};
}

void DeltaBuffer::Delete(Key key) { entries_[key] = Entry{true, 0}; }

void DeltaBuffer::MergeInto(const std::vector<Key>& static_keys,
                            const std::vector<Value>& static_values,
                            std::vector<Key>* out_keys,
                            std::vector<Value>* out_values) const {
  out_keys->clear();
  out_values->clear();
  out_keys->reserve(static_keys.size() + entries_.size());
  out_values->reserve(static_keys.size() + entries_.size());
  // Copy each static run between consecutive delta keys in bulk; the delta
  // entry then replaces (or, as a tombstone, drops) an equal static key.
  const auto keys_begin = static_keys.begin();
  const auto values_begin = static_values.begin();
  auto si = keys_begin;
  for (const auto& [key, entry] : entries_) {
    const auto run_end = std::lower_bound(si, static_keys.end(), key);
    out_keys->insert(out_keys->end(), si, run_end);
    out_values->insert(out_values->end(), values_begin + (si - keys_begin),
                       values_begin + (run_end - keys_begin));
    si = run_end;
    if (si != static_keys.end() && *si == key) ++si;  // Shadowed.
    if (!entry.tombstone) {
      out_keys->push_back(key);
      out_values->push_back(entry.value);
    }
  }
  out_keys->insert(out_keys->end(), si, static_keys.end());
  out_values->insert(out_values->end(), values_begin + (si - keys_begin),
                     static_values.end());
}

size_t DeltaBuffer::MergeScan(const std::vector<Key>& static_keys,
                              const std::vector<Value>& static_values,
                              Key from, size_t limit,
                              std::vector<KeyValue>* out) const {
  size_t si = std::lower_bound(static_keys.begin(), static_keys.end(), from) -
              static_keys.begin();
  auto dit = entries_.lower_bound(from);
  size_t appended = 0;
  while (appended < limit &&
         (si < static_keys.size() || dit != entries_.end())) {
    const bool take_delta =
        dit != entries_.end() &&
        (si >= static_keys.size() || dit->first <= static_keys[si]);
    if (take_delta) {
      if (si < static_keys.size() && static_keys[si] == dit->first) {
        ++si;  // Shadowed.
      }
      if (!dit->second.tombstone) {
        out->emplace_back(dit->first, dit->second.value);
        ++appended;
      }
      ++dit;
    } else {
      out->emplace_back(static_keys[si], static_values[si]);
      ++si;
      ++appended;
    }
  }
  return appended;
}

}  // namespace lsbench
