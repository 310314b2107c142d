#pragma once

// Indexed per-organization state for incremental (push-based) policies.
//
// The push lifecycle of sim/policy.h lets a policy mirror the engine state
// it ranks organizations by, instead of rescanning every organization per
// decision. This header packages the three pieces every in-tree port uses:
//
//   * IncrementalPolicy — the mirror-bookkeeping base. The engine's
//     PolicyView::state_version() counts every observable state change
//     (events processed + jobs started); the base records the version the
//     mirror was last synchronized at. Notification handlers call track():
//     when the notification is exactly the next unseen change, the handler
//     applies its O(log n) delta; otherwise the mirror is stale (the policy
//     is being driven by a loop that steps the engine without attaching —
//     see Engine::attach) and select() heals itself by rebuilding from the
//     view via ensure_synced(). This keeps every port exact under BOTH
//     drivers: attached runs pay O(log n) per event, detached drivers
//     degrade to the historical O(n)-per-decision cost, never to a wrong
//     answer.
//
//   * KeyedArgmin<Key> (sim/keyed_argmin.h, shared with the engine) — a
//     tournament tree over organization ids with an explicit priority key
//     per id. argmin() is O(1), set()/clear() are O(log n). Ties on equal
//     keys resolve to the LOWER id, which is exactly the "first strict
//     improvement wins" rule of the scan loops these trees replace — so
//     scan and tree agree bit-for-bit as long as the key is computed by
//     the same expression the scan used.
//
//   * OrderStatSet — a Fenwick-backed set of organization ids supporting
//     O(log n) insert/erase/count_below/kth. Backs ROUNDROBIN (first member
//     at-or-after the cursor = kth(count_below(cursor))) and RANDOM (the
//     i-th smallest member is position i of the ascending candidate vector
//     the scan used to build, so one uniform draw indexes identically).

#include <cstdint>
#include <vector>

#include "sim/keyed_argmin.h"
#include "sim/policy.h"

namespace fairsched {

// Base for policies that mirror engine state incrementally.
class IncrementalPolicy : public Policy {
 public:
  void reset(const PolicyView& view) override {
    rebuild(view);
    synced_version_ = view.state_version();
    ready_ = true;
  }

 protected:
  // True iff this notification is exactly the next unseen state change;
  // bumps the synced version. Apply the incremental delta only then —
  // otherwise skip it: the mirror is stale and select() will rebuild.
  bool track(const PolicyView& view) {
    if (ready_ && view.state_version() == synced_version_ + 1) {
      ++synced_version_;
      return true;
    }
    return false;
  }

  // Call on entry to select(): rebuilds the mirror when state changes were
  // missed (detached driver, or a policy that was never reset).
  void ensure_synced(const PolicyView& view) {
    if (!ready_ || view.state_version() != synced_version_) {
      rebuild(view);
      synced_version_ = view.state_version();
      ready_ = true;
    }
  }

  // Reconstructs the whole mirror from the view. Must be callable at any
  // time (it is the detached-driver fallback), so it cannot rely on any
  // notification having been delivered.
  virtual void rebuild(const PolicyView& view) = 0;

 private:
  std::uint64_t synced_version_ = 0;
  bool ready_ = false;
};

// Order-statistics set over a dense id range (Fenwick tree of membership).
class OrderStatSet {
 public:
  void init(std::uint32_t n) {
    n_ = n;
    log_ = 0;
    while ((std::uint32_t{1} << (log_ + 1)) <= n_) ++log_;
    tree_.assign(n_ + 1, 0);
    member_.assign(n_, 0);
    size_ = 0;
  }

  std::uint32_t size() const { return size_; }
  bool contains(std::uint32_t i) const { return member_[i] != 0; }

  void insert(std::uint32_t i) {
    if (member_[i]) return;
    member_[i] = 1;
    ++size_;
    for (std::uint32_t x = i + 1; x <= n_; x += x & (~x + 1)) tree_[x] += 1;
  }

  void erase(std::uint32_t i) {
    if (!member_[i]) return;
    member_[i] = 0;
    --size_;
    for (std::uint32_t x = i + 1; x <= n_; x += x & (~x + 1)) tree_[x] -= 1;
  }

  // Number of members with id strictly below i.
  std::uint32_t count_below(std::uint32_t i) const {
    std::uint32_t sum = 0;
    for (std::uint32_t x = i; x > 0; x -= x & (~x + 1)) sum += tree_[x];
    return sum;
  }

  // k-th smallest member id (0-based). Precondition: k < size().
  std::uint32_t kth(std::uint32_t k) const {
    std::uint32_t pos = 0;
    std::uint32_t remaining = k + 1;
    for (std::uint32_t step = std::uint32_t{1} << log_; step > 0; step >>= 1) {
      const std::uint32_t next = pos + step;
      if (next <= n_ && tree_[next] < remaining) {
        pos = next;
        remaining -= tree_[next];
      }
    }
    return pos;
  }

 private:
  std::uint32_t n_ = 0;
  std::uint32_t log_ = 0;
  std::uint32_t size_ = 0;
  std::vector<std::uint32_t> tree_;
  std::vector<char> member_;
};

}  // namespace fairsched
