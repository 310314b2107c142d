#include "sched/coalition_bank.h"

#include <stdexcept>

#include "sched/org_index.h"

namespace fairsched {

CoalitionBank::CoalitionBank(const Instance& inst)
    : agg_(std::size_t{1} << inst.num_orgs()) {
  engines_.reserve(agg_.size());
  for (Coalition::Mask mask = 0; mask < agg_.size(); ++mask) {
    engines_.push_back(std::make_unique<Engine>(inst, Coalition(mask)));
    engines_.back()->mirror_aggregate(&agg_[mask]);
  }
}

void CoalitionBank::run(
    Time horizon,
    const std::function<void(std::uint32_t slot, Time t)>& decide) {
  if (ran_) throw std::logic_error("CoalitionBank::run called twice");
  ran_ = true;
  // Keyed by wake-up time; KeyedArgmin breaks ties toward the lower id,
  // i.e. the lower slot. A slot's entry never goes stale: only processing a
  // slot changes its own wake-up time. The tournament tree stays
  // L1-resident and a re-arm is log2(slots) node updates.
  KeyedArgmin<Time> queue;
  queue.init(size());
  auto arm = [&](std::uint32_t slot) {
    const Time t = engines_[slot]->next_decision_time();
    if (t != kTimeInfinity && t < horizon) {
      queue.set(slot, t);
    } else {
      queue.clear(slot);
    }
  };
  for (std::uint32_t slot = 0; slot < size(); ++slot) arm(slot);
  for (;;) {
    const std::uint32_t slot = queue.argmin();
    if (slot == KeyedArgmin<Time>::kNone) break;
    Engine& e = *engines_[slot];
    // The armed time: unchanged since arming, because no other slot's
    // processing touches this engine.
    const Time t = e.next_decision_time();
    e.advance_to(t);
    if (e.needs_decision()) decide(slot, t);
    arm(slot);
  }
  for (auto& e : engines_) e->advance_to(horizon);
}

}  // namespace fairsched
