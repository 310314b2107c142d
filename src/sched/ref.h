#pragma once

// REF (Fig. 1 / Fig. 3): the exact, exponential fair scheduling algorithm.
//
// REF maintains a greedy schedule for *every* nonempty subcoalition of the
// grand coalition (2^k - 1 of them). Whenever a coalition C must start a job
// (free machine + waiting job), the contributions phi(u) of its members are
// computed from the current values v(C') of all subcoalitions C' of C via
// the Shapley subset formula (Eq. 1), and the job of the organization
// maximizing phi(u) - psi(u) is started (the specialized psi_sp rule of
// Fig. 3; with the generic Distance rule of Fig. 1 available for arbitrary
// utility functions — both provably coincide for psi_sp, which tests verify).
//
// Scheduling decisions of C recursively depend on the subcoalitions'
// schedules *at the same time moment* (Definition 3.1). All 2^k-1 engines
// run on the one wake-up loop of sched/coalition_bank.h, shared with RAND,
// which orders them by (time, coalition size) and makes each v(C', t) an
// O(1) read when C acts at t. Between events, engines advance by
// closed-form accrual only (a greedy algorithm makes no decision while no
// machine frees and no job arrives), which makes the event-driven run
// identical to the paper's per-time-moment loop.
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
#include "metrics/utility.h"
#include "sched/coalition_bank.h"
#include "sim/engine.h"

namespace fairsched {

// Pluggable utility for the generic Distance rule (Fig. 1). Evaluates the
// utility of organization `org` at time `t` in the given schedule. Only the
// executed parts of jobs may influence the value (non-clairvoyance).
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;
  virtual double eval(const Instance& inst, const Schedule& schedule,
                      OrgId org, Time t) const = 0;
};

// The strategy-proof utility psi_sp as a UtilityFunction.
class SpUtilityFn final : public UtilityFunction {
 public:
  double eval(const Instance& inst, const Schedule& schedule, OrgId org,
              Time t) const override;
};

// Throughput-like utility: completed unit parts (breaks the starting-times
// anonymity axiom; provided for generic-REF experiments).
class CompletedWorkUtilityFn final : public UtilityFunction {
 public:
  double eval(const Instance& inst, const Schedule& schedule, OrgId org,
              Time t) const override;
};

struct RefOptions {
  // When set, REF uses the generic Distance rule of Fig. 1 with this
  // utility (slower: re-evaluates utilities from schedules). When null, the
  // specialized psi_sp rule of Fig. 3 runs on the engines' exact integer
  // accounting.
  const UtilityFunction* generic_utility = nullptr;
};

class RefScheduler {
 public:
  static constexpr std::uint32_t kMaxOrgs = 16;

  RefScheduler(const Instance& inst, RefOptions options = {});

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
  // weights) of the members of `relevant` (a subset of `c`) from the
  // subcoalition values at time t (valid under the bank's invariant, or at
  // the horizon after run()).
  const std::vector<double>& contributions2_of(Coalition c, Time t,
                                               Coalition relevant) const;
  // The Shapley subset formula (Eq. 1) over the values vcache_ holds for
  // every nonempty subset of `c`. Entries outside `relevant` are left at
  // zero. Returns a reference to a scratch buffer overwritten by the next
  // call.
  const std::vector<double>& shapley_of(Coalition c, Coalition relevant) const;

  // Distance rule of Fig. 1 for the generic utility: the (doubled) distance
  // after tentatively starting `u`'s front job at time t.
  double generic_distance(Coalition c, OrgId u, Time t,
                          const std::vector<double>& phi,
                          const std::vector<double>& psi) const;

  // Fig. 1 Distance rule for the generic utility; evaluated per decision.
  OrgId select_generic(Coalition c, Time t);

  const Instance* inst_;
  RefOptions options_;
  CoalitionBank bank_;                   // slot = mask
  std::vector<ShapleyWeights> weights_;  // per coalition size 1..k
  // Per-burst scratch for shapley_of: subcoalition values indexed by mask,
  // and the returned contribution vector (both overwritten per call).
  mutable std::vector<double> vcache_;
  mutable std::vector<double> phi_scratch_;
};

}  // namespace fairsched
