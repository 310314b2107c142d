#pragma once

// RAND (Fig. 6): randomized approximation of the fair schedule.
//
// N random orderings (permutations) of the organizations are drawn up
// front. Every prefix of every ordering yields a pair of coalitions
// (C', C' + u) for the organization u that follows the prefix; the Shapley
// contribution of u is estimated as the average marginal value over its N
// pairs (Eq. 2 sampled; Theorem 5.6's Hoeffding bound, rand_sample_bound
// in shapley/shapley.h, gives the FPRAS for unit-size jobs).
//
// The value v(C') of a sampled coalition is read off a *simplified*
// schedule maintained for it. For unit-size jobs any greedy schedule yields
// the same value (Prop. 5.4), so the simplified schedules are driven by an
// arbitrary greedy policy (FCFS here); with jobs of mixed sizes this is the
// heuristic the paper evaluates in Section 7. Distinct permutation prefixes
// that induce the same coalition share one engine.
//
// The real (grand-coalition) schedule starts the front job of the waiting
// organization maximizing the estimated deficit phi(u) - psi(u), exactly as
// REF does with the exact contributions.
//
// All engines run on REF's wake-up loop (sched/coalition_bank.h): each
// sampled coalition with its own FCFS policy attached for the whole run,
// then the grand engine as the last slot, which reads the sampled values
// v(C', t) off the bank's mirror and selects with REF's Fig. 3 rule
// (start_by_deficit, forced-choice fast path included).

#include <cstdint>
#include <vector>

#include "core/coalition.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "core/types.h"
#include "sched/coalition_bank.h"
#include "sched/fcfs.h"

namespace fairsched {

struct RandOptions {
  std::size_t samples = 15;  // N; the paper evaluates N = 15 and N = 75
  std::uint64_t seed = 1;
};

class RandScheduler {
 public:
  RandScheduler(const Instance& inst, RandOptions options = {});

  void run(Time horizon);

  const Schedule& schedule() const { return grand().schedule(); }
  std::vector<HalfUtil> utilities2() const { return grand().utilities2(); }
  std::int64_t work_done() const { return grand().total_work_done(); }
  // Estimated contributions phi (time units) at the current clock.
  std::vector<double> contributions() const;
  // Number of distinct nonempty sampled coalitions actually simulated (the
  // bank also holds the empty coalition and the RAND-driven grand engine).
  std::size_t distinct_coalitions() const { return bank_.size() - 2; }

 private:
  // The sampled pair (C', C' | u) of one permutation prefix, as bank slots.
  struct PrefixPair {
    std::uint32_t before;
    std::uint32_t with;
  };

  // Prepare(C): draws the N orderings, fills `prefixes` and returns the
  // bank's slots.
  static std::vector<Coalition> sample(
      const Instance& inst, const RandOptions& options,
      std::vector<std::vector<PrefixPair>>& prefixes);

  std::uint32_t grand_slot() const { return bank_.size() - 1; }
  const Engine& grand() const { return bank_.engine(grand_slot()); }
  // phi2 estimates from the sampled values at time t.
  std::vector<double> contributions2(Time t) const;

  RandOptions options_;
  // Per organization: one sampled pair per permutation. Multiplicity
  // matters.
  std::vector<std::vector<PrefixPair>> prefix_slots_;
  // One FCFS policy per sampled slot, attached to its engine for the whole
  // run. Declared before bank_ so it outlives the engines that point to it.
  std::vector<FcfsPolicy> fcfs_;
  CoalitionBank bank_;
};

}  // namespace fairsched
