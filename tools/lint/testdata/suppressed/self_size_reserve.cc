// Same violations as fail/self_size_reserve.cc, silenced by suppressions.
#include <algorithm>
#include <cstdint>
#include <vector>

struct Arena {
  std::vector<uint64_t> slots;
};

void SpillOne(std::vector<uint64_t>& events, uint64_t e) {
  // lsbench-lint: allow(no-self-size-reserve)
  events.reserve(std::max<size_t>(events.size() * 2, 64));
  events.push_back(e);
}

void SpillSplit(std::vector<uint64_t>& keys, uint64_t k) {
  keys.reserve(  // lsbench-lint: allow(no-self-size-reserve)
      std::max<size_t>(keys.size() * 2,
                       64));
  keys.push_back(k);
}

void SpillMember(Arena* arena, uint64_t k) {
  // lsbench-lint: allow(no-self-size-reserve)
  arena->slots.reserve(arena->slots.size() + 1);
  arena->slots.push_back(k);
}
