#include "sched/ref.h"

#include <cmath>
#include <stdexcept>

namespace fairsched {

double SpUtilityFn::eval(const Instance& inst, const Schedule& schedule,
                         OrgId org, Time t) const {
  return static_cast<double>(sp_org_half_utility(inst, schedule, org, t)) /
         2.0;
}

double CompletedWorkUtilityFn::eval(const Instance& inst,
                                    const Schedule& schedule, OrgId org,
                                    Time t) const {
  double total = 0.0;
  const auto jobs = inst.jobs_of(org);
  for (std::uint32_t i = 0; i < jobs.size(); ++i) {
    if (auto s = schedule.start_of(org, i)) {
      if (*s < t) {
        total += static_cast<double>(
            std::min<Time>(jobs[i].processing, t - *s));
      }
    }
  }
  return total;
}

namespace {

// The bank's slots: every coalition, ascending (slot = mask).
std::vector<Coalition> all_coalitions(const Instance& inst) {
  const std::uint32_t k = inst.num_orgs();
  if (k == 0) throw std::invalid_argument("RefScheduler: empty instance");
  if (k > RefScheduler::kMaxOrgs) {
    throw std::invalid_argument(
        "RefScheduler: too many organizations for the exponential reference "
        "algorithm (max 16)");
  }
  std::vector<Coalition> slots;
  for (Coalition::Mask mask = 0; mask < (Coalition::Mask{1} << k); ++mask) {
    slots.push_back(Coalition(mask));
  }
  return slots;
}

}  // namespace

RefScheduler::RefScheduler(const Instance& inst, RefOptions options)
    : inst_(&inst),
      options_(options),
      bank_(inst, all_coalitions(inst)) {
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
  return shapley_of(c, relevant);
}

const std::vector<double>& RefScheduler::shapley_of(Coalition c,
                                                    Coalition relevant) const {
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

double RefScheduler::generic_distance(Coalition c, OrgId u, Time t,
                                      const std::vector<double>& phi,
                                      const std::vector<double>& psi) const {
  const Engine& e = engine(c);
  const UtilityFunction& util = *options_.generic_utility;
  // Tentatively start u's front job at t and evaluate the utility delta one
  // step ahead (at t; for psi_sp and any non-clairvoyant utility the value
  // at t itself cannot change by starting a job at t).
  Schedule tentative = e.schedule();
  const std::uint32_t index = e.completed(u) + e.running(u);
  tentative.add(Placement{u, index, t, kNoMachine});
  const double delta =
      util.eval(*inst_, tentative, u, t + 1) -
      util.eval(*inst_, e.schedule(), u, t + 1);
  const double s = static_cast<double>(c.size());
  double dist = std::abs(phi[u] + delta / s - psi[u] - delta);
  for (OrgId v = 0; v < inst_->num_orgs(); ++v) {
    if (v == u || !c.contains(v)) continue;
    dist += std::abs(phi[v] + delta / s - psi[v]);
  }
  return dist;
}

OrgId RefScheduler::select_generic(Coalition c, Time t) {
  const Engine& e = engine(c);
  // Generic Distance rule (Fig. 1).
  const UtilityFunction& util = *options_.generic_utility;
  // v(C', t) from the generic utility, then Eq. 1 as in the psi_sp rule.
  for_each_subset(c, [&](Coalition sub) {
    if (sub.is_empty()) return;
    double v_sub = 0.0;
    for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
      if (sub.contains(u)) {
        v_sub += util.eval(*inst_, engine(sub).schedule(), u, t);
      }
    }
    vcache_[sub.mask()] = v_sub;
  });
  const std::vector<double>& phi = shapley_of(c, c);
  std::vector<double> psi(inst_->num_orgs(), 0.0);
  for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
    if (c.contains(u)) {
      psi[u] = util.eval(*inst_, e.schedule(), u, t);
    }
  }
  OrgId best = kNoOrg;
  double best_dist = 0.0;
  for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
    if (!c.contains(u) || e.waiting(u) == 0) continue;
    const double dist = generic_distance(c, u, t, phi, psi);
    if (best == kNoOrg || dist < best_dist) {
      best = u;
      best_dist = dist;
    }
  }
  return best;
}

void RefScheduler::run(Time horizon) {
  bank_.run(horizon, [&](std::uint32_t slot, Time t) {
    const Coalition c(slot);
    Engine& e = bank_.engine(slot);
    if (options_.generic_utility == nullptr) {
      // Subcoalition engines are NOT advanced here: their values are O(1)
      // closed-form reads at t off untouched engines (the bank's
      // invariant), so a burst costs no O(2^s) clock-advance sweep. The
      // Shapley pass is restricted to the waiting orgs, the only ones
      // start_by_deficit reads.
      start_by_deficit(e, [&](Coalition waiting) -> const std::vector<double>& {
        return contributions2_of(c, t, waiting);
      });
      return;
    }
    // Generic Distance rule: bring every subcoalition to t (closed-form
    // accrual only, their events at times <= t are already processed) and
    // evaluate per decision, completely unhoisted — an arbitrary
    // UtilityFunction may react to schedule changes in ways we do not
    // control.
    for_each_subset(c, [&](Coalition sub) {
      if (sub.is_empty() || sub == c) return;
      bank_.engine(sub.mask()).advance_to(t);
    });
    while (e.needs_decision()) {
      const OrgId u = select_generic(c, t);
      if (u == kNoOrg) {
        throw std::logic_error("RefScheduler: no selectable organization");
      }
      e.start_front(u);
    }
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
