#pragma once

// Coalition: a subset of organizations represented as a bitmask.
//
// REF maintains one schedule per subcoalition of the grand coalition
// (2^k of them), and Shapley computations sum over subsets; this type
// provides the enumeration helpers those loops need. k is bounded by 31.

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace fairsched {

class Coalition {
 public:
  using Mask = std::uint32_t;
  static constexpr std::uint32_t kMaxOrgs = 31;

  constexpr Coalition() = default;
  constexpr explicit Coalition(Mask mask) : mask_(mask) {}

  // The grand coalition over k organizations.
  static constexpr Coalition grand(std::uint32_t k) {
    return Coalition((k >= 32 ? 0 : (Mask{1} << k)) - 1);
  }
  static constexpr Coalition empty() { return Coalition(0); }
  static constexpr Coalition singleton(OrgId u) {
    return Coalition(Mask{1} << u);
  }

  constexpr Mask mask() const { return mask_; }
  constexpr bool contains(OrgId u) const {
    // Organization ids past the mask width only ever meet the two
    // saturated masks: grand(k >= 32) (all ones — every org is a member,
    // however many there are) and empty(). A shift by u >= 32 would be
    // undefined, so answer from the saturation directly.
    if (u >= 32) return mask_ == static_cast<Mask>(-1);
    return (mask_ >> u) & Mask{1};
  }
  constexpr bool is_empty() const { return mask_ == 0; }
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(__builtin_popcount(mask_));
  }

  constexpr Coalition with(OrgId u) const {
    return Coalition(mask_ | (Mask{1} << u));
  }
  constexpr Coalition without(OrgId u) const {
    return Coalition(mask_ & ~(Mask{1} << u));
  }
  constexpr bool subset_of(Coalition other) const {
    return (mask_ & other.mask_) == mask_;
  }

  // Members as a sorted list of org ids.
  std::vector<OrgId> members() const;

  // All subsets of this coalition, including the empty set and itself,
  // in increasing mask order.
  std::vector<Coalition> subsets() const;

  // All subsets grouped by size s = 0..size(): Fig. 1's per-moment order,
  // in which subcoalition schedules are ready when a coalition decides.
  std::vector<std::vector<Coalition>> subsets_by_size() const;

  friend constexpr bool operator==(Coalition, Coalition) = default;

 private:
  Mask mask_ = 0;
};

// Iterates proper and improper subsets of `mask` via the standard
// (sub - 1) & mask trick; calls fn(Coalition) for each subset including the
// empty one and mask itself.
template <typename Fn>
void for_each_subset(Coalition coalition, Fn&& fn) {
  const Coalition::Mask mask = coalition.mask();
  Coalition::Mask sub = mask;
  for (;;) {
    fn(Coalition(sub));
    if (sub == 0) break;
    sub = (sub - 1) & mask;
  }
}

// Shapley weight table: weight(s, k) = (s-1)! (k-s)! / k! for a coalition of
// size s within a game of k players (the weight of the marginal contribution
// of the joining player completing a set of size s). Exact rationals are not
// required downstream; doubles are accurate for k <= 20.
class ShapleyWeights {
 public:
  explicit ShapleyWeights(std::uint32_t k);
  double weight(std::uint32_t coalition_size_with_player) const {
    return weights_[coalition_size_with_player];
  }
  std::uint32_t k() const {
    return static_cast<std::uint32_t>(weights_.size()) - 1;
  }

 private:
  std::vector<double> weights_;  // index = size including the player, 1..k
};

}  // namespace fairsched
