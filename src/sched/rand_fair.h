#pragma once

// RAND (Fig. 6): randomized approximation of the fair schedule.
//
// N random orderings of the organizations are drawn up front. Every prefix
// of every ordering yields a pair (C', C' + u) for the organization u that
// follows it; u's Shapley contribution is estimated as its average marginal
// value over its N pairs (Eq. 2 sampled; Theorem 5.6's Hoeffding bound,
// rand_sample_bound in shapley/shapley.h, gives the FPRAS for unit jobs).
// The grand engine starts the front job of the waiting organization
// maximizing the estimated deficit phi(u) - psi(u): REF's Fig. 3 rule,
// start_by_deficit in sched/coalition_bank.h.
//
// v(C', t) is read off one fixed greedy schedule of C': any greedy schedule
// gives the same value on unit jobs (Prop. 5.4); with mixed sizes this is
// the Section 7 heuristic. The schedule is FCFS, which needs no engine:
// each organization's jobs are release-sorted, so FCFS starts jobs in list
// order (release, org, index), each at max(release, earliest machine free
// time), i.e. Graham's list schedule (FcfsValueTrajectory). A monotone
// cursor replays its sorted starts and completions, folding the aggregate
// sums forward per event as the engine does (Engine::AggSnapshot). It is
// all exact integer arithmetic, so each value equals the one an Engine
// driven by FcfsPolicy reads. Distinct prefixes that induce the same
// coalition share one trajectory.

#include <cstdint>
#include <vector>

#include "core/coalition.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "core/types.h"
#include "sim/engine.h"

namespace fairsched {

struct RandOptions {
  std::size_t samples = 15;  // N; the paper evaluates N = 15 and N = 75
  std::uint64_t seed = 1;
};

// t -> 2 * v(C, t) of coalition C's FCFS schedule up to `horizon`.
class FcfsValueTrajectory {
 public:
  FcfsValueTrajectory(const Instance& inst, Coalition c, Time horizon);

  // Reads must come at nondecreasing t <= horizon.
  HalfUtil value2_at(Time t);

 private:
  // Sorted, each ending with a kTimeInfinity sentinel.
  std::vector<Time> starts_;
  std::vector<Time> completions_;
  std::size_t next_start_ = 0;
  std::size_t next_completion_ = 0;
  Engine::AggSnapshot agg_;
};

class RandScheduler {
 public:
  RandScheduler(const Instance& inst, RandOptions options = {});

  // May be called once.
  void run(Time horizon);

  const Schedule& schedule() const { return grand_.schedule(); }
  std::vector<HalfUtil> utilities2() const { return grand_.utilities2(); }
  std::int64_t work_done() const { return grand_.total_work_done(); }
  // Estimated contributions phi (time units) at the current clock.
  std::vector<double> contributions() const;
  // Number of distinct nonempty sampled coalitions.
  std::size_t distinct_coalitions() const { return masks_.size() - 1; }

 private:
  // The sampled pair (C', C' | u) of one permutation prefix, as indices
  // into masks_.
  struct PrefixPair {
    std::uint32_t before;
    std::uint32_t with;
  };

  // phi2 estimates from the sampled values at time t.
  std::vector<double> contributions2(Time t) const;

  const Instance* inst_;
  RandOptions options_;
  // The distinct sampled coalitions, ascending, the empty one first.
  std::vector<Coalition::Mask> masks_;
  // Per organization: one sampled pair per permutation. Multiplicity
  // matters.
  std::vector<std::vector<PrefixPair>> prefix_slots_;
  // One trajectory per entry of masks_, built by run(). A read moves its
  // cursor, which is safe because the grand clock only moves forward.
  mutable std::vector<FcfsValueTrajectory> sampled_;
  Engine grand_;
  bool ran_ = false;
};

}  // namespace fairsched
