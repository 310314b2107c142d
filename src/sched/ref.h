#pragma once

// REF (Fig. 3): the exact, exponential fair scheduling algorithm.
//
// REF maintains a greedy schedule for *every* nonempty subcoalition of the
// grand coalition (2^k - 1 of them). Whenever a coalition C must start a job
// (free machine + waiting job), the contributions phi(u) of its members are
// computed from the current values v(C') of all subcoalitions C' of C via
// the Shapley subset formula (Eq. 1), and the job of the organization
// maximizing phi(u) - psi(u) is started: Fig. 3's psi_sp specialisation of
// Fig. 1's generic Distance rule. The contributions are doubles, so
// deficits that are equal in exact arithmetic can differ by a few ulps,
// and then floating-point rounding, not the org id, breaks the tie
// (start_by_deficit in sched/coalition_bank.h). tests/test_ref.cc keeps a
// per-time-moment transcription of Fig. 1 as the reference this scheduler
// is checked against.
//
// Scheduling decisions of C recursively depend on the subcoalitions'
// values *at the same time moment* (Definition 3.1). All 2^k-1 engines run
// on the one wake-up loop of sched/coalition_bank.h, which orders them by
// (time, slot) and makes each v(C', t) an O(1) read
// when C acts at t. Between events, engines advance by closed-form accrual
// only (a greedy algorithm makes no decision while no machine frees and no
// job arrives), which makes the event-driven run identical to the paper's
// per-time-moment loop.
//
// Complexity per decision *burst* of a size-s coalition: O(2^s * s) for the
// hoisted Shapley subset formula (the contribution vector cannot change
// while the clock stands still, so repeat decisions at one time moment
// reuse it; Prop. 3.4 aggregate: O(k * 3^k) per time moment), with each
// subcoalition value an O(1) closed-form read off the engine's aggregate
// accounting. Memory O(2^k) engines. The constructor rejects k > 16.

#include <cstdint>
#include <vector>

#include "core/coalition.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "core/types.h"
#include "sched/coalition_bank.h"
#include "sim/engine.h"

namespace fairsched {

class RefScheduler {
 public:
  static constexpr std::uint32_t kMaxOrgs = 16;

  explicit RefScheduler(const Instance& inst);

  // Runs all coalitions up to `horizon`. May be called once.
  void run(Time horizon);

  // --- results (valid after run) -----------------------------------------
  const Schedule& schedule() const { return grand_engine().schedule(); }
  // The reference fair utility vector psi* (2*psi per organization).
  std::vector<HalfUtil> utilities2() const {
    return grand_engine().utilities2();
  }
  // p_tot: completed unit parts in the fair schedule by the horizon.
  std::int64_t reference_work() const { return grand_engine().total_work_done(); }
  // Shapley contributions phi(u) (time units) of the grand coalition at the
  // horizon — the ideal fair division REF chases.
  std::vector<double> contributions() const;
  // Access to any subcoalition's engine (diagnostics, tests).
  const Engine& engine(Coalition c) const { return bank_.engine(c.mask()); }

 private:
  // The grand coalition's mask is the highest, so its slot is the last.
  const Engine& grand_engine() const { return bank_.engine(bank_.size() - 1); }

  // Contributions phi2 (in half-units, doubles because of the factorial
  // weights) of the members of `relevant` (a subset of `c`): the Shapley
  // subset formula (Eq. 1) over the subcoalition values at time t (valid
  // under the bank's invariant, or at the horizon after run()). Entries
  // outside `relevant` are left at zero. Returns a reference to a scratch
  // buffer overwritten by the next call.
  const std::vector<double>& contributions2_of(Coalition c, Time t,
                                               Coalition relevant) const;

  const Instance* inst_;
  CoalitionBank bank_;                   // slot = mask
  std::vector<ShapleyWeights> weights_;  // per coalition size 1..k
  // Per-burst scratch for contributions2_of: subcoalition values indexed by
  // mask, and the returned contribution vector (both overwritten per call).
  mutable std::vector<double> vcache_;
  mutable std::vector<double> phi_scratch_;
};

}  // namespace fairsched
