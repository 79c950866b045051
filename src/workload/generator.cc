#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace lsbench {

OperationGenerator::OperationGenerator(const Dataset* dataset,
                                       const PhaseSpec& spec, uint64_t seed,
                                       size_t batch_arena_slots)
    : dataset_(dataset),
      spec_(spec),
      rng_(seed),
      access_(MakeAccessDistribution(spec.access, spec.access_param,
                                     spec.access_param2)),
      batch_arena_slots_(batch_arena_slots) {
  LSBENCH_ASSERT(dataset_ != nullptr);
  LSBENCH_ASSERT(!dataset_->empty());
  if (spec_.batch_size == 0) spec_.batch_size = 1;
  const double total = spec_.mix.Total();
  LSBENCH_ASSERT(total > 0.0);
  const double fractions[kNumOpTypes] = {
      spec_.mix.get,    spec_.mix.scan,        spec_.mix.insert,
      spec_.mix.update, spec_.mix.del,         spec_.mix.range_count,
      spec_.mix.batch_get, spec_.mix.batch_put};
  double acc = 0.0;
  for (int i = 0; i < kNumOpTypes; ++i) {
    acc += fractions[i] / total;
    cumulative_mix_[i] = acc;
  }
  cumulative_mix_[kNumOpTypes - 1] = 1.0;
  // Size the inserted-key arena for the expected number of kInsert draws
  // (binomial mean + ~4 sigma of slack) so steady-state generation never
  // allocates; overshoot spills to the cold slow path.
  const double insert_frac = spec_.mix.insert / total;
  const double expected =
      insert_frac * static_cast<double>(spec_.num_operations +
                                        spec_.transition_operations);
  inserted_keys_.resize(static_cast<size_t>(
      expected + 4.0 * std::sqrt(expected + 1.0) + 16.0));
  // Pre-size the batch-payload ring only when batch ops can actually be
  // drawn at batch_size > 1 (batch_size == 1 degrades to scalar draws and
  // never touches the ring).
  if ((spec_.mix.batch_get > 0.0 || spec_.mix.batch_put > 0.0) &&
      spec_.batch_size > 1) {
    LSBENCH_ASSERT(batch_arena_slots_ > 0);
    batch_keys_.resize(batch_arena_slots_ * spec_.batch_size);
    if (spec_.mix.batch_put > 0.0) {
      batch_values_.resize(batch_arena_slots_ * spec_.batch_size);
    }
    batch_ranks_.resize(spec_.batch_size);
  }
}

// lsbench-deepcheck: allow(hot-alloc, hot-throw)
void OperationGenerator::AppendInsertedKeySlow(Key key) {
  // Grow only when full, doubling capacity, so repeat spills stay amortized.
  if (inserted_keys_.size() == inserted_keys_.capacity()) {
    inserted_keys_.reserve(
        std::max<size_t>(inserted_keys_.capacity() * 2, 64));
  }
  inserted_keys_.push_back(key);
  inserted_count_ = inserted_keys_.size();
}

Key* OperationGenerator::NextBatchSlot(Value** values) {
  LSBENCH_ASSERT(!batch_keys_.empty());
  const size_t slot = batch_slot_;
  batch_slot_ = (batch_slot_ + 1) % batch_arena_slots_;
  const size_t offset = slot * spec_.batch_size;
  if (values != nullptr) {
    LSBENCH_ASSERT(!batch_values_.empty());
    *values = &batch_values_[offset];
  }
  return &batch_keys_[offset];
}

OpType OperationGenerator::PickType() {
  const double u = rng_.NextDouble();
  for (int i = 0; i < kNumOpTypes; ++i) {
    if (u < cumulative_mix_[i]) return static_cast<OpType>(i);
  }
  return OpType::kGet;
}

void OperationGenerator::FillBatchKeys(Key* keys) {
  const uint64_t population = dataset_->keys.size() + inserted_count_;
  const uint32_t count = spec_.batch_size;
  access_->FillRanks(&rng_, population, batch_ranks_.data(), count);
  const Key* base = dataset_->keys.data();
  const uint64_t base_size = dataset_->keys.size();
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t rank = batch_ranks_[i];
    keys[i] = rank < base_size ? base[rank]
                               : inserted_keys_[rank - base_size];
  }
}

Key OperationGenerator::PickExistingKey() {
  const uint64_t population =
      dataset_->keys.size() + inserted_count_;
  const uint64_t rank = access_->NextRank(&rng_, population);
  if (rank < dataset_->keys.size()) return dataset_->keys[rank];
  return inserted_keys_[rank - dataset_->keys.size()];
}

Key OperationGenerator::MakeFreshKey() {
  // Fresh keys are planted near an existing key of this phase's dataset so
  // that the *stored* distribution drifts toward the phase's data
  // distribution as the phase runs.
  const Key base = dataset_->keys[rng_.NextBounded(dataset_->keys.size())];
  const uint64_t jitter = rng_.NextBounded(1 << 16);
  const Key key = base + jitter;  // Wraps harmlessly on overflow.
  return key;
}

Operation OperationGenerator::Next() {
  ++generated_;
  Operation op;
  op.type = PickType();
  switch (op.type) {
    case OpType::kGet:
      op.key = PickExistingKey();
      break;
    case OpType::kScan:
      op.key = PickExistingKey();
      // Vary scan length geometrically around the configured typical value.
      op.scan_length = std::max<uint32_t>(
          1, static_cast<uint32_t>(
                 static_cast<double>(spec_.scan_length) *
                 (0.5 + rng_.NextDouble())));
      break;
    case OpType::kInsert:
      op.key = MakeFreshKey();
      op.value = ++value_counter_;
      AppendInsertedKey(op.key);
      break;
    case OpType::kUpdate:
      op.key = PickExistingKey();
      op.value = ++value_counter_;
      break;
    case OpType::kDelete:
      op.key = PickExistingKey();
      break;
    case OpType::kRangeCount: {
      op.key = PickExistingKey();
      const double width_frac =
          spec_.range_selectivity * (0.5 + rng_.NextDouble());
      const Key domain =
          dataset_->domain_max > 0 ? dataset_->domain_max : ~Key{0};
      const Key width = static_cast<Key>(
          width_frac * static_cast<double>(domain));
      op.range_end =
          op.key > ~Key{0} - width ? ~Key{0} : op.key + width;
      break;
    }
    case OpType::kBatchGet: {
      if (spec_.batch_size <= 1) {
        // Degrade to the scalar equivalent with identical RNG consumption
        // (one type draw + one rank draw) so batch_size=1 runs are
        // bit-identical to scalar runs.
        op.type = OpType::kGet;
        op.key = PickExistingKey();
        break;
      }
      Key* keys = NextBatchSlot(nullptr);
      FillBatchKeys(keys);
      op.key = keys[0];
      op.batch_keys = keys;
      op.batch_size = spec_.batch_size;
      break;
    }
    case OpType::kBatchPut: {
      if (spec_.batch_size <= 1) {
        op.type = OpType::kUpdate;
        op.key = PickExistingKey();
        op.value = ++value_counter_;
        break;
      }
      Value* values = nullptr;
      Key* keys = NextBatchSlot(&values);
      FillBatchKeys(keys);
      for (uint32_t i = 0; i < spec_.batch_size; ++i) {
        values[i] = ++value_counter_;
      }
      op.key = keys[0];
      op.batch_keys = keys;
      op.batch_values = values;
      op.batch_size = spec_.batch_size;
      break;
    }
  }
  return op;
}

WorkloadSignature ComputePhaseSignature(const Dataset& dataset,
                                        const PhaseSpec& spec,
                                        size_t sample_ops, uint64_t seed) {
  OperationGenerator gen(&dataset, spec, seed);
  WorkloadSignature sig;
  const Key domain = dataset.domain_max > 0 ? dataset.domain_max : ~Key{0};
  for (size_t i = 0; i < sample_ops; ++i) {
    sig.AddOperation(gen.Next(), domain);
  }
  return sig;
}

}  // namespace lsbench
