#include "sched/rand_fair.h"

#include <map>
#include <stdexcept>

#include "util/rng.h"

namespace fairsched {

std::vector<Coalition> RandScheduler::sample(
    const Instance& inst, const RandOptions& options,
    std::vector<std::vector<PrefixPair>>& prefixes) {
  const std::uint32_t k = inst.num_orgs();
  if (k == 0) throw std::invalid_argument("RandScheduler: empty instance");
  if (k > Coalition::kMaxOrgs) {
    throw std::invalid_argument("RandScheduler: too many organizations");
  }
  if (options.samples == 0) {
    throw std::invalid_argument("RandScheduler: need at least one sample");
  }
  // N random orderings; each prefix pair (C', C' | u) is recorded for u,
  // as masks until the slots are numbered.
  Rng rng(options.seed);
  prefixes.resize(k);
  std::map<Coalition::Mask, std::uint32_t> slot_of{{0, 0}};
  for (std::size_t i = 0; i < options.samples; ++i) {
    Coalition::Mask mask = 0;
    for (OrgId u : rng.permutation(k)) {
      const Coalition::Mask with = mask | Coalition::Mask{1} << u;
      prefixes[u].push_back({mask, with});
      slot_of.emplace(with, 0);  // numbered below
      mask = with;
    }
  }
  // Distinct coalitions share one engine; slots are the ascending masks,
  // the empty one included, then the RAND-driven grand engine.
  std::vector<Coalition> slots;
  for (auto& [mask, slot] : slot_of) {
    slot = static_cast<std::uint32_t>(slots.size());
    slots.push_back(Coalition(mask));
  }
  for (auto& pairs : prefixes) {
    for (PrefixPair& pair : pairs) {
      pair = {slot_of[pair.before], slot_of[pair.with]};
    }
  }
  slots.push_back(Coalition::grand(k));
  return slots;
}

RandScheduler::RandScheduler(const Instance& inst, RandOptions options)
    : options_(options),
      bank_(inst, sample(inst, options, prefix_slots_)) {
  fcfs_.resize(grand_slot());
  for (std::uint32_t slot = 0; slot < grand_slot(); ++slot) {
    bank_.engine(slot).attach(&fcfs_[slot]);
    fcfs_[slot].reset(PolicyView(bank_.engine(slot)));
  }
}

std::vector<double> RandScheduler::contributions2(Time t) const {
  std::vector<double> phi2(prefix_slots_.size(), 0.0);
  for (OrgId u = 0; u < phi2.size(); ++u) {
    double total = 0.0;
    for (const PrefixPair& pair : prefix_slots_[u]) {
      total += static_cast<double>(bank_.value2_at(pair.with, t)) -
               static_cast<double>(bank_.value2_at(pair.before, t));
    }
    phi2[u] = total / static_cast<double>(options_.samples);
  }
  return phi2;
}

void RandScheduler::run(Time horizon) {
  bank_.run(horizon, [&](std::uint32_t slot, Time t) {
    Engine& e = bank_.engine(slot);
    if (slot == grand_slot()) {
      start_by_deficit(e, [&](Coalition) { return contributions2(t); });
      return;
    }
    // A sampled coalition's simplified schedule: FCFS. The driver that
    // decides also delivers on_start (start_front does not synthesize it).
    FcfsPolicy& fcfs = fcfs_[slot];
    const PolicyView view(e);
    while (e.needs_decision()) {
      const OrgId u = fcfs.select(view);
      const std::uint32_t index = e.running(u) + e.completed(u);
      const MachineId m = e.start_front(u);
      fcfs.on_start(view, u, index, m);
    }
  });
}

std::vector<double> RandScheduler::contributions() const {
  std::vector<double> phi2 = contributions2(grand().now());
  for (double& p : phi2) p /= 2.0;
  return phi2;
}

}  // namespace fairsched
