#include "sched/ref.h"

#include <stdexcept>

namespace fairsched {

namespace {

// The bank holds all 2^k coalitions, so k is checked before it is built.
const Instance& checked(const Instance& inst) {
  const std::uint32_t k = inst.num_orgs();
  if (k == 0) throw std::invalid_argument("RefScheduler: empty instance");
  if (k > RefScheduler::kMaxOrgs) {
    throw std::invalid_argument(
        "RefScheduler: too many organizations for the exponential reference "
        "algorithm (max 16)");
  }
  return inst;
}

}  // namespace

RefScheduler::RefScheduler(const Instance& inst)
    : inst_(&inst), bank_(checked(inst)) {
  vcache_.assign(bank_.size(), 0.0);
  weights_.reserve(inst.num_orgs());
  for (std::uint32_t s = 1; s <= inst.num_orgs(); ++s) weights_.emplace_back(s);
}

const std::vector<double>& RefScheduler::contributions2_of(
    Coalition c, Time t, Coalition relevant) const {
  // One O(1) closed-form read per subcoalition off the bank's flat
  // aggregate mirror (valid by the bank's invariant).
  for_each_subset(c, [&](Coalition sub) {
    if (sub.is_empty()) return;
    vcache_[sub.mask()] = static_cast<double>(bank_.value2_at(sub.mask(), t));
  });
  std::vector<double>& phi = phi_scratch_;
  phi.assign(inst_->num_orgs(), 0.0);
  const ShapleyWeights& w = weights_[c.size() - 1];
  // Subset enumeration order and the ascending member order of the inner
  // loop match the historical scan, so every floating-point accumulation
  // happens in the same sequence. The inner loop visits only members of
  // `relevant`: phi[u] accumulators are independent, so skipping orgs the
  // caller will not read leaves the computed entries bit-identical while
  // cutting the pass by |relevant|/|c|.
  for_each_subset(c, [&](Coalition sub) {
    if (sub.is_empty()) return;
    const double v_sub = vcache_[sub.mask()];
    const double weight = w.weight(sub.size());
    for (Coalition::Mask rest = sub.mask() & relevant.mask(); rest != 0;
         rest &= rest - 1) {
      const OrgId u = static_cast<OrgId>(__builtin_ctz(rest));
      const Coalition::Mask without = sub.mask() & ~(Coalition::Mask{1} << u);
      const double v_without = without == 0 ? 0.0 : vcache_[without];
      phi[u] += weight * (v_sub - v_without);
    }
  });
  return phi;
}

void RefScheduler::run(Time horizon) {
  bank_.run(horizon, [&](std::uint32_t slot, Time t) {
    const Coalition c(slot);
    // Subcoalition engines are NOT advanced here: their values are O(1)
    // closed-form reads at t off untouched engines (the bank's invariant),
    // so a burst costs no O(2^s) clock-advance sweep. The Shapley pass is
    // restricted to the waiting orgs, the only ones start_by_deficit reads.
    start_by_deficit(bank_.engine(slot),
                     [&](Coalition waiting) -> const std::vector<double>& {
                       return contributions2_of(c, t, waiting);
                     });
  });
}

std::vector<double> RefScheduler::contributions() const {
  const Engine& grand = grand_engine();
  std::vector<double> phi2 =
      contributions2_of(grand.active(), grand.now(), grand.active());
  for (double& p : phi2) p /= 2.0;
  return phi2;
}

}  // namespace fairsched
