// Reserve patterns no-self-size-reserve must leave alone.
#include <algorithm>
#include <cstdint>
#include <vector>

struct Pair {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> other;
};

// Sized from another container.
std::vector<uint64_t> Copy(const std::vector<uint64_t>& in) {
  std::vector<uint64_t> out;
  out.reserve(in.size());
  out.insert(out.end(), in.begin(), in.end());
  return out;
}

// A name that merely ends like the container's, or a member of another
// object, is not the container.
void Merge(Pair* p, const std::vector<uint64_t>& keys) {
  p->keys.reserve(keys.size() + p->other.size());
  p->other.reserve(p->keys.size());
}

// The amortized spill: grow only when full, from capacity().
void Spill(std::vector<uint64_t>& v, uint64_t x) {
  if (v.size() == v.capacity()) {
    v.reserve(std::max<size_t>(v.capacity() * 2, 64));
  }
  v.push_back(x);
}
