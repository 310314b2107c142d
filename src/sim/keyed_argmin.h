#pragma once

// KeyedArgmin<Key>: a tournament (winner) tree over a dense id range with
// an explicit priority key per id; argmin() is O(1), set()/clear() are
// O(log n), ties go to the LOWER id. The engine's release front relies on
// that tie rule (event_before's org clause), as do the incremental policies
// (sched/org_index.h) and the coalition bank.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fairsched {

// Key needs operator<.
template <typename Key>
class KeyedArgmin {
 public:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  void init(std::uint32_t n) {
    base_ = 1;
    while (base_ < n) base_ <<= 1;
    keys_.assign(base_, Key{});
    present_.assign(base_, 0);
    win_.assign(2 * base_, kNone);
  }

  void set(std::uint32_t i, Key key) {
    keys_[i] = std::move(key);
    present_[i] = 1;
    win_[base_ + i] = i;
    pull_up(i);
  }

  void clear(std::uint32_t i) {
    if (!present_[i]) return;
    present_[i] = 0;
    win_[base_ + i] = kNone;
    pull_up(i);
  }

  // Id with the smallest key (lowest id on ties), kNone when empty.
  std::uint32_t argmin() const { return win_[1]; }

  // Key of argmin(). Precondition: argmin() != kNone.
  const Key& min_key() const { return keys_[win_[1]]; }

 private:
  bool better(std::uint32_t a, std::uint32_t b) const {
    if (b == kNone) return true;
    if (a == kNone) return false;
    if (keys_[a] < keys_[b]) return true;
    if (keys_[b] < keys_[a]) return false;
    return a < b;
  }

  void pull_up(std::uint32_t i) {
    for (std::size_t node = (base_ + i) >> 1; node >= 1; node >>= 1) {
      const std::uint32_t left = win_[2 * node];
      const std::uint32_t right = win_[2 * node + 1];
      win_[node] = better(left, right) ? left : right;
    }
  }

  std::size_t base_ = 1;
  std::vector<Key> keys_;
  std::vector<char> present_;
  std::vector<std::uint32_t> win_;
};

}  // namespace fairsched
