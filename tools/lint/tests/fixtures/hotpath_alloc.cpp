// Fixture: hotpath-alloc rule. Allocation inside MHRP_HOT_PATH functions
// fires, in the class body and in a qualified out-of-line definition
// alike; identical code in unmarked functions is clean; the amortized
// slab-growth idiom carries an inline suppression.
#include <cstdint>
#include <memory>
#include <vector>

#include "util/annotations.hpp"

namespace fixture {

struct Item {
  std::uint64_t v = 0;
};

class Queue {
 public:
  MHRP_HOT_PATH void push_hot(Item item) {
    items_.push_back(item);       // EXPECT-LINT: hotpath-alloc
    auto* leak = new Item(item);  // EXPECT-LINT: hotpath-alloc
    (void)leak;
    auto shared = std::make_shared<Item>(item);  // EXPECT-LINT: hotpath-alloc
    (void)shared;
  }

  MHRP_HOT_PATH void push_slab(Item item) {
    // mhrp-lint: allow(hotpath-alloc) amortized slab growth (DESIGN.md §8)
    items_.push_back(item);
  }

  void push_cold(Item item) {  // unmarked: allocation is fine here
    items_.push_back(item);
    items_.reserve(items_.size() * 2);
  }

  void push_late(Item item);  // marked where it is defined, below

 private:
  std::vector<Item> items_;
};

MHRP_HOT_PATH inline void Queue::push_late(Item item) {
  items_.push_back(item);  // EXPECT-LINT: hotpath-alloc
}

}  // namespace fixture
