// Must fire: no-self-size-reserve (reserve sized from the same container's
// size(): once a push_back lands past the last reserve, every later call
// asks for more than the capacity and reallocates).
#include <algorithm>
#include <cstdint>
#include <vector>

struct Arena {
  std::vector<uint64_t> slots;
};

void SpillOne(std::vector<uint64_t>& events, uint64_t e) {
  events.reserve(std::max<size_t>(events.size() * 2, 64));
  events.push_back(e);
}

void SpillSplit(std::vector<uint64_t>& keys, uint64_t k) {
  keys.reserve(
      std::max<size_t>(keys.size() * 2,
                       64));
  keys.push_back(k);
}

void SpillMember(Arena* arena, uint64_t k) {
  arena->slots.reserve(arena->slots.size() + 1);
  arena->slots.push_back(k);
}
