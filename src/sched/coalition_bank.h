#pragma once

// REF's coalition-simulation core (Fig. 3): one engine per coalition, its
// slot being its mask 0..2^k-1, a flat mirror of each engine's value
// aggregates, and ONE wake-up loop; REF supplies only its per-slot
// decision. The empty coalition's engine never wakes and its value stays
// v({}) = 0, so readers need no special case for it. RAND needs no bank:
// its sampled coalitions are FCFS list schedules (sched/rand_fair.h), and
// only its Fig. 3 selection, start_by_deficit below, is shared.
//
// Slots wake at their engine's next_decision_time() in (time, slot) order.
// While no machine is free, releases cannot enable a decision, so the
// skipped wake-ups are batch-processed, in identical order, by the
// advance_to of the next completion-time wake.
//
// Invariant: when a slot decides at time t, every wake-up before t has been
// processed, so no engine has an unprocessed completion before t and each
// engine's running count is unchanged since its mirror's `at`. Every
// slot's value v(C', t) is then AggSnapshot::value2_at(t) off the mirror,
// bit-identical to advancing that engine to t and reading value2(). Events
// at t move no value at t (a job completing at t ran through slot t - 1;
// one started at t has run nothing), so the read does not depend on which
// same-time slots went first, and a decision needs no engine but its own
// slot's.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/coalition.h"
#include "core/instance.h"
#include "core/types.h"
#include "sim/engine.h"

namespace fairsched {

class CoalitionBank {
 public:
  // One engine per coalition of inst's organizations, slot = mask.
  explicit CoalitionBank(const Instance& inst);

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(engines_.size());
  }
  Engine& engine(std::uint32_t slot) { return *engines_[slot]; }
  const Engine& engine(std::uint32_t slot) const { return *engines_[slot]; }

  // 2 * v(slot's coalition, t) off the flat aggregate mirror. Valid for
  // t >= the engine's clock under the invariant above (and at the horizon
  // after run()).
  HalfUtil value2_at(std::uint32_t slot, Time t) const {
    return agg_[slot].value2_at(t);
  }

  // The wake-up loop: processes every slot's decisions before `horizon` in
  // the order above, then advances every engine to `horizon`. `decide` is
  // called when a slot's engine stands at t and needs a decision, and must
  // start jobs until it needs none; it may read any slot's value but must
  // not advance another slot's engine. May be called once.
  void run(Time horizon,
           const std::function<void(std::uint32_t slot, Time t)>& decide);

 private:
  std::vector<std::unique_ptr<Engine>> engines_;
  // Write-through aggregate mirrors, one per slot: each engine refreshes
  // its entry whenever its aggregates change, so value reads come from one
  // flat, cache-friendly array instead of a pointer per engine. Never
  // resized after the constructor registers them.
  std::vector<Engine::AggSnapshot> agg_;
  bool ran_ = false;
};

// Fig. 3's selection, shared by REF and RAND: while `e` needs a decision,
// starts the front job of the waiting organization maximizing
// phi2[u] - psi2(u). Deficits are compared as doubles, and only exactly
// equal doubles go to the lower id: phi2 sums factorial-weighted doubles
// (Eq. 1), so deficits equal in exact arithmetic may differ by a few ulps,
// and then the rounding decides (pinned by
// Ref.NearTieIsDecidedByFloatingPointRounding). Starting a job at t moves no
// value at t, so the contributions cannot change while the clock stands
// still and `phi2_of(waiting)` — the waiting orgs, the only entries read —
// is called at most once per burst. When one org waits, every pick is
// forced and it is not called at all.
template <typename Phi2Of>
void start_by_deficit(Engine& e, Phi2Of&& phi2_of) {
  Coalition::Mask waiting = 0;
  for (OrgId u = 0; u < e.num_orgs(); ++u) {
    if (e.waiting(u) > 0) waiting |= Coalition::Mask{1} << u;
  }
  if ((waiting & (waiting - 1)) == 0) {
    const OrgId u = static_cast<OrgId>(__builtin_ctz(waiting));
    while (e.needs_decision()) e.start_front(u);
    return;
  }
  const std::vector<double>& phi2 = phi2_of(Coalition(waiting));
  while (e.needs_decision()) {
    OrgId best = kNoOrg;
    double best_deficit = 0.0;
    for (Coalition::Mask rest = waiting; rest != 0; rest &= rest - 1) {
      const OrgId u = static_cast<OrgId>(__builtin_ctz(rest));
      if (e.waiting(u) == 0) continue;
      const double deficit = phi2[u] - static_cast<double>(e.psi2(u));
      if (best == kNoOrg || deficit > best_deficit) {
        best = u;
        best_deficit = deficit;
      }
    }
    e.start_front(best);
  }
}

}  // namespace fairsched
