#ifndef LSBENCH_PERFBENCH_REFERENCE_SUT_H_
#define LSBENCH_PERFBENCH_REFERENCE_SUT_H_

#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "sut/sut.h"

namespace lsbench::perf {

/// The output check's oracle: a plain std::map with the data-level
/// semantics every bundled SUT implements (KvSystemBase::Execute). A
/// workload's per-op-class `ok` and `rows` totals on a real SUT must equal
/// this system's on the same spec and seed.
class ReferenceSut final : public SystemUnderTest {
 public:
  std::string name() const override { return "std_map_reference"; }

  Status Load(const std::vector<KeyValue>& sorted_pairs) override {
    data_.clear();
    for (const KeyValue& kv : sorted_pairs) data_.emplace_hint(data_.end(), kv);
    return Status::OK();
  }

  OpResult Execute(const Operation& op) override {
    OpResult result;
    switch (op.type) {
      case OpType::kGet:
        result.ok = data_.count(op.key) > 0;
        result.rows = result.ok ? 1 : 0;
        break;
      case OpType::kScan: {
        uint64_t rows = 0;
        for (auto it = data_.lower_bound(op.key);
             it != data_.end() && rows < op.scan_length; ++it) {
          ++rows;
        }
        result.ok = true;
        result.rows = rows;
        break;
      }
      case OpType::kInsert:
      case OpType::kUpdate:
        data_[op.key] = op.value;
        result.ok = true;
        result.rows = 1;
        break;
      case OpType::kDelete:
        result.ok = data_.erase(op.key) > 0;
        result.rows = result.ok ? 1 : 0;
        break;
      case OpType::kRangeCount: {
        const auto lo = data_.lower_bound(op.key);
        const auto hi = data_.upper_bound(op.range_end);
        result.ok = true;
        result.rows = op.range_end < op.key
                          ? 0
                          : static_cast<uint64_t>(std::distance(lo, hi));
        break;
      }
      case OpType::kBatchGet:
      case OpType::kBatchPut: {
        uint64_t rows = 0;
        for (uint32_t i = 0; i < op.batch_size; ++i) {
          rows += Execute(ScalarViewOf(op, i)).rows;
        }
        result.ok = true;
        result.rows = rows;
        break;
      }
    }
    return result;
  }

  void ExecuteBatch(const Operation& op, OpResult* results) override {
    if (!IsBatchOp(op.type)) {
      results[0] = Execute(op);
      return;
    }
    for (uint32_t i = 0; i < op.batch_size; ++i) {
      results[i] = Execute(ScalarViewOf(op, i));
    }
  }

  SutStats GetStats() const override {
    SutStats stats;
    stats.memory_bytes = data_.size() * (sizeof(Key) + sizeof(Value));
    return stats;
  }

 private:
  std::map<Key, Value> data_;
};

}  // namespace lsbench::perf

#endif  // LSBENCH_PERFBENCH_REFERENCE_SUT_H_
