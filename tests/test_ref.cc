// Tests for the REF exponential fair scheduler.

#include "sched/ref.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "exp/scenarios.h"
#include "exp/sweep.h"
#include "metrics/utility.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fairsched {
namespace {

Instance symmetric_instance(std::uint32_t k, std::uint32_t jobs_per_org,
                            Time processing) {
  InstanceBuilder b;
  for (std::uint32_t u = 0; u < k; ++u) {
    b.add_org(std::string("o").append(std::to_string(u)), 1);
  }
  for (std::uint32_t i = 0; i < jobs_per_org; ++i) {
    for (std::uint32_t u = 0; u < k; ++u) {
      b.add_job(u, 0, processing);
    }
  }
  return std::move(b).build();
}

// A consortium that keeps its machines contended: one or two machines per
// organization, jobs of 1..8 time units released over [0, 60).
Instance contended_instance(std::uint32_t k, std::uint32_t jobs_per_org,
                            std::uint64_t seed) {
  InstanceBuilder b;
  Rng rng(seed);
  for (std::uint32_t u = 0; u < k; ++u) {
    b.add_org(std::string("o").append(std::to_string(u)),
              1 + static_cast<std::uint32_t>(rng.uniform_u64(2)));
  }
  for (std::uint32_t u = 0; u < k; ++u) {
    for (std::uint32_t i = 0; i < jobs_per_org; ++i) {
      b.add_job(u, static_cast<Time>(rng.uniform_u64(60)),
                1 + static_cast<Time>(rng.uniform_u64(8)));
    }
  }
  return std::move(b).build();
}

// A utility for Fig. 1's generic Distance rule: 2 * the utility of
// organization `org` at time t in `schedule`, an exact integer (psi_sp is
// a half-integer). Only the executed parts of jobs may influence the value
// (non-clairvoyance).
using HalfUtilityFn = HalfUtil (*)(const Instance& inst,
                                   const Schedule& schedule, OrgId org,
                                   Time t);

// The strategy-proof utility psi_sp.
HalfUtil sp_utility2(const Instance& inst, const Schedule& schedule, OrgId org,
                     Time t) {
  return sp_org_half_utility(inst, schedule, org, t);
}

// Throughput-like utility: completed unit parts (breaks the starting-times
// anonymity axiom).
HalfUtil completed_work_utility2(const Instance& inst,
                                 const Schedule& schedule, OrgId org, Time t) {
  HalfUtil total = 0;
  const auto jobs = inst.jobs_of(org);
  for (std::uint32_t i = 0; i < jobs.size(); ++i) {
    if (auto s = schedule.start_of(org, i)) {
      if (*s < t) total += 2 * std::min<Time>(jobs[i].processing, t - *s);
    }
  }
  return total;
}

std::int64_t factorial(std::uint32_t n) {
  std::int64_t f = 1;
  for (std::uint32_t i = 2; i <= n; ++i) f *= i;
  return f;
}

// Eager transcription of Fig. 1, the reference the library REF (Fig. 3's
// psi_sp specialisation on the event-driven coalition bank) is checked
// against. At every time moment t it takes the coalitions in increasing
// size, advances each one's engine to t and, while a machine is free and a
// job waits, starts the job the Distance rule picks, re-reading every
// utility off the subcoalitions' schedules for each decision. Nothing is
// hoisted or skipped, and no code is shared with the library's decision
// path.
//
// The rule runs in exact integer arithmetic: contributions scaled by |C|!
// (Eq. 1's weights become integers) and the Euclidean distance by
// (|C| * |C|!)^2. Fig. 1 leaves ties open. Among exactly tied candidates
// the reference takes the largest floating-point deficit phi2 - psi2, Eq. 1
// accumulated in the library's subset order, then the lowest id — the tie
// rule Fig. 3 states, including the rounding that separates mathematically
// equal contributions.
class EagerRef {
 public:
  EagerRef(const Instance& inst, HalfUtilityFn utility2)
      : inst_(&inst), utility2_(utility2) {
    const Coalition grand = Coalition::grand(inst.num_orgs());
    for (Coalition::Mask mask = 0; mask <= grand.mask(); ++mask) {
      engines_.push_back(std::make_unique<Engine>(inst, Coalition(mask)));
    }
    for (const auto& same_size : grand.subsets_by_size()) {
      for (Coalition c : same_size) {
        if (!c.is_empty()) by_size_.push_back(c);
      }
    }
  }

  void run(Time horizon) {
    for (Time t = 0; t < horizon; ++t) {
      for (Coalition c : by_size_) {
        Engine& e = *engines_[c.mask()];
        e.advance_to(t);
        while (e.needs_decision()) e.start_front(select(c, t));
      }
    }
    for (auto& e : engines_) e->advance_to(horizon);
  }

  const Engine& engine(Coalition c) const { return *engines_[c.mask()]; }
  const Schedule& schedule() const {
    return engine(Coalition::grand(inst_->num_orgs())).schedule();
  }

 private:
  HalfUtil utility2(const Schedule& schedule, OrgId u, Time t) const {
    return utility2_(*inst_, schedule, u, t);
  }

  // 2 * v(c, t): the summed utility of c's members in c's own schedule.
  HalfUtil value2(Coalition c, Time t) const {
    HalfUtil v = 0;
    for (OrgId u : c.members()) v += utility2(engine(c).schedule(), u, t);
    return v;
  }

  // Eq. 1 over the subsets S of c that contain u:
  //   phi2(u) = sum (|S|-1)! (|c|-|S|)! / |c|! * (v2(S) - v2(S \ {u})),
  // once exactly times |c|!, once in floating point.
  struct Contributions {
    std::vector<std::int64_t> scaled;  // |c|! * phi2, exact
    std::vector<double> rounded;       // phi2
  };
  Contributions contributions(Coalition c, Time t) const {
    const ShapleyWeights w(c.size());
    Contributions phi{std::vector<std::int64_t>(inst_->num_orgs(), 0),
                      std::vector<double>(inst_->num_orgs(), 0.0)};
    for_each_subset(c, [&](Coalition sub) {
      for (OrgId u : sub.members()) {
        const HalfUtil gain = value2(sub, t) - value2(sub.without(u), t);
        phi.scaled[u] += factorial(sub.size() - 1) *
                         factorial(c.size() - sub.size()) * gain;
        phi.rounded[u] += w.weight(sub.size()) * static_cast<double>(gain);
      }
    });
    return phi;
  }

  // The Distance rule: start the front job of the waiting member whose
  // start leaves the contribution and utility vectors closest. Starting
  // u's job changes u's utility, and so v(c), by delta (measured one step
  // ahead: a job started at t has run nothing at t); Eq. 1 shares a change
  // of v(c) alone equally, so every member's contribution moves by
  // delta / |c|.
  OrgId select(Coalition c, Time t) const {
    const Engine& e = engine(c);
    const Contributions phi = contributions(c, t);
    const std::int64_t size = c.size();
    const std::int64_t size_factorial = factorial(c.size());
    OrgId best = kNoOrg;
    __int128 best_dist = 0;
    double best_deficit = 0.0;
    for (OrgId u : c.members()) {
      if (e.waiting(u) == 0) continue;
      Schedule tentative = e.schedule();
      tentative.add(
          Placement{u, e.completed(u) + e.running(u), t, kNoMachine});
      const HalfUtil delta2 = utility2(tentative, u, t + 1) -
                              utility2(e.schedule(), u, t + 1);
      // Each gap phi2 + delta2 / |c| - psi2 times |c| * |c|!.
      __int128 dist = 0;
      for (OrgId v : c.members()) {
        const HalfUtil psi2_after =
            utility2(e.schedule(), v, t) + (v == u ? delta2 : 0);
        const __int128 gap = size * __int128{phi.scaled[v]} +
                             size_factorial * __int128{delta2} -
                             size * size_factorial * __int128{psi2_after};
        dist += gap * gap;
      }
      const double deficit =
          phi.rounded[u] - static_cast<double>(utility2(e.schedule(), u, t));
      if (best == kNoOrg || dist < best_dist ||
          (dist == best_dist && deficit > best_deficit)) {
        best = u;
        best_dist = dist;
        best_deficit = deficit;
      }
    }
    return best;
  }

  const Instance* inst_;
  HalfUtilityFn utility2_;
  std::vector<std::unique_ptr<Engine>> engines_;  // index = mask
  std::vector<Coalition> by_size_;  // nonempty coalitions, increasing size
};

TEST(Ref, GrandScheduleFeasibleAndGreedy) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 4, 2000, MachineSplit::kZipf, 1.0, 31);
  RefScheduler ref(inst);
  ref.run(2000);
  EXPECT_EQ(ref.schedule().validate(inst, 2000), std::nullopt);
}

TEST(Ref, AllSubcoalitionSchedulesFeasible) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 3, 800, MachineSplit::kUniform, 1.0, 33);
  RefScheduler ref(inst);
  ref.run(800);
  for (Coalition::Mask mask = 1; mask < (1u << inst.num_orgs()); ++mask) {
    const Engine& e = ref.engine(Coalition(mask));
    // A coalition's schedule must be a feasible greedy schedule of the
    // restricted instance (here we can reuse the full instance: the
    // validators only look at placements that exist, and greediness is
    // checked against the coalition's own machines via the engine's totals).
    EXPECT_EQ(e.schedule().check_machine_exclusive(inst), std::nullopt)
        << "mask=" << mask;
    EXPECT_EQ(e.schedule().check_fifo(inst), std::nullopt) << "mask=" << mask;
  }
}

TEST(Ref, UtilitiesMatchClosedFormOnSchedule) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 3, 1000, MachineSplit::kZipf, 1.0, 37);
  RefScheduler ref(inst);
  ref.run(1000);
  const auto psi2 = ref.utilities2();
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(psi2[u], sp_org_half_utility(inst, ref.schedule(), u, 1000));
  }
}

TEST(Ref, SymmetricOrganizationsGetNearEqualUtilities) {
  // Exact equality is unattainable in the discrete problem (the paper makes
  // this point below Definition 3.1: utilities can only be *close* to the
  // contributions); REF must keep symmetric organizations within a small
  // relative band, and their Shapley contributions must be exactly equal.
  const Instance inst = symmetric_instance(3, 8, 5);
  RefScheduler ref(inst);
  ref.run(200);
  const auto psi2 = ref.utilities2();
  const HalfUtil lo = std::min({psi2[0], psi2[1], psi2[2]});
  const HalfUtil hi = std::max({psi2[0], psi2[1], psi2[2]});
  EXPECT_LT(static_cast<double>(hi - lo), 0.05 * static_cast<double>(hi));
  const auto phi = ref.contributions();
  EXPECT_NEAR(phi[0], phi[1], 1e-9);
  EXPECT_NEAR(phi[1], phi[2], 1e-9);
}

TEST(Ref, ContributionsAreEfficient) {
  // Shapley efficiency: contributions sum to the grand coalition's value.
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 4, 1200, MachineSplit::kZipf, 1.0, 41);
  RefScheduler ref(inst);
  ref.run(1200);
  const auto phi = ref.contributions();
  double phi_sum = 0.0;
  for (double p : phi) phi_sum += p;
  const double v_grand =
      static_cast<double>(sp_half_value(inst, ref.schedule(), 1200)) / 2.0;
  EXPECT_NEAR(phi_sum, v_grand, 1e-6 * std::max(1.0, v_grand));
}

TEST(Ref, LenderOrganizationIsCompensated) {
  // Org 0 owns both machines but rarely submits; orgs 1..2 own nothing and
  // flood. When org 0's job finally arrives, REF must start it immediately:
  // its contribution greatly exceeds its utility.
  InstanceBuilder b;
  const OrgId lender = b.add_org("lender", 2);
  const OrgId f1 = b.add_org("flood1", 0);
  const OrgId f2 = b.add_org("flood2", 0);
  for (int i = 0; i < 40; ++i) {
    b.add_job(f1, 0, 4);
    b.add_job(f2, 0, 4);
  }
  b.add_job(lender, 10, 4);
  const Instance inst = std::move(b).build();
  RefScheduler ref(inst);
  ref.run(300);
  const auto start = ref.schedule().start_of(lender, 0);
  ASSERT_TRUE(start.has_value());
  // Machines free at multiples of 4; release is 10, so the first decision
  // point at/after 10 is 12.
  EXPECT_EQ(*start, 12);
}

TEST(Ref, SingleOrganizationDegeneratesToFifo) {
  InstanceBuilder b;
  const OrgId o = b.add_org("solo", 1);
  b.add_job(o, 0, 3);
  b.add_job(o, 1, 2);
  b.add_job(o, 2, 4);
  const Instance inst = std::move(b).build();
  RefScheduler ref(inst);
  ref.run(100);
  EXPECT_EQ(ref.schedule().start_of(o, 0), 0);
  EXPECT_EQ(ref.schedule().start_of(o, 1), 3);
  EXPECT_EQ(ref.schedule().start_of(o, 2), 5);
}

TEST(Ref, GenericDistanceRuleMatchesSpecializedForSpUtility) {
  // Fig. 1 (the eager per-moment Distance rule with psi_sp) and Fig. 3 (the
  // library's event-driven argmax of phi - psi) must produce the same
  // schedule in every coalition: on an archive-shaped window, and on
  // contended consortia where the choice of organization matters at most
  // decisions.
  std::vector<std::pair<Instance, Time>> cases;
  cases.emplace_back(make_synthetic_instance(preset_lpc_egee(), 3, 400,
                                             MachineSplit::kUniform, 1.0, 43),
                     400);
  cases.emplace_back(contended_instance(3, 25, 43), 200);
  cases.emplace_back(contended_instance(4, 20, 44), 200);
  for (const auto& [inst, horizon] : cases) {
    RefScheduler specialized(inst);
    specialized.run(horizon);
    EagerRef generic(inst, sp_utility2);
    generic.run(horizon);

    const Coalition grand = Coalition::grand(inst.num_orgs());
    EXPECT_EQ(specialized.utilities2(), generic.engine(grand).utilities2());
    for (Coalition::Mask mask = 1; mask <= grand.mask(); ++mask) {
      EXPECT_EQ(specialized.engine(Coalition(mask)).schedule().placements(),
                generic.engine(Coalition(mask)).schedule().placements())
          << "k=" << inst.num_orgs() << " mask=" << mask;
    }
  }
}

TEST(Ref, GenericRuleSupportsOtherUtilities) {
  // The generic Distance rule (Fig. 1) must run with a non-psi_sp utility
  // and still produce a feasible greedy schedule — the paper's claim that
  // the fair-scheduling construction works "for arbitrary utilities".
  const Instance inst = contended_instance(3, 25, 47);
  EagerRef ref(inst, completed_work_utility2);
  ref.run(200);
  EXPECT_EQ(ref.schedule().validate(inst, 200), std::nullopt);
  const Engine& grand = ref.engine(Coalition::grand(3));
  std::size_t started = 0;
  for (OrgId u = 0; u < 3; ++u) {
    started += grand.completed(u) + grand.running(u);
  }
  EXPECT_EQ(ref.schedule().size(), started);
  EXPECT_GT(started, 0u);
  for (Coalition::Mask mask = 1; mask < 8; ++mask) {
    const Schedule& schedule = ref.engine(Coalition(mask)).schedule();
    EXPECT_EQ(schedule.check_machine_exclusive(inst), std::nullopt)
        << "mask=" << mask;
    EXPECT_EQ(schedule.check_fifo(inst), std::nullopt) << "mask=" << mask;
  }
}

TEST(CoalitionBank, WakesInTimeThenSlotOrder) {
  // Every decide(slot, t) call comes in strictly increasing (t, slot)
  // order: at t = 0 all fifteen coalitions wake, mask 3 = {0, 1} before
  // mask 4 = {2} although it is the larger coalition.
  const Instance inst = symmetric_instance(4, 3, 2);
  CoalitionBank bank(inst);
  std::vector<std::pair<Time, std::uint32_t>> wakes;
  bank.run(20, [&](std::uint32_t slot, Time t) {
    wakes.emplace_back(t, slot);
    Engine& e = bank.engine(slot);
    for (OrgId u = 0; e.needs_decision(); ++u) {
      while (e.waiting(u) > 0 && e.needs_decision()) e.start_front(u);
    }
  });
  ASSERT_GE(wakes.size(), 15u);
  EXPECT_EQ(wakes[14], std::make_pair(Time{0}, std::uint32_t{15}));
  for (std::size_t i = 1; i < wakes.size(); ++i) {
    EXPECT_LT(wakes[i - 1], wakes[i])
        << "wake " << i << ": (" << wakes[i].first << ", " << wakes[i].second
        << ") after (" << wakes[i - 1].first << ", " << wakes[i - 1].second
        << ")";
  }
}

TEST(Ref, NearTieIsDecidedByFloatingPointRounding) {
  // start_by_deficit compares doubles. Eq. 1 sums factorial-weighted
  // doubles, so two deficits that are equal in exact arithmetic can come
  // out a few ulps apart, and then the rounding picks, not the lower id.
  // This pins today's pick on one such tie, so that a switch to exact
  // integer contributions shows here and is made on purpose. At t = 21 the
  // grand coalition of this instance has free machines and orgs 1 and 2
  // waiting, each with deficit phi2 - psi2 = 17/3 exactly; org 2 is
  // started first and takes the lowest free machine.
  const Instance inst = contended_instance(3, 15, 17);
  RefScheduler before(inst);
  before.run(21);  // the state at t = 21, before its decisions
  const Engine& grand = before.engine(Coalition::grand(3));
  EXPECT_EQ(grand.waiting(0), 0u);
  EXPECT_EQ(grand.waiting(1), 1u);
  EXPECT_EQ(grand.waiting(2), 1u);
  EXPECT_GE(grand.free_machines(), 2u);
  const std::vector<double> phi = before.contributions();
  const std::vector<HalfUtil> psi2 = before.utilities2();
  const double deficit1 = 2.0 * phi[1] - static_cast<double>(psi2[1]);
  const double deficit2 = 2.0 * phi[2] - static_cast<double>(psi2[2]);
  EXPECT_NEAR(deficit1, 17.0 / 3.0, 1e-12);
  EXPECT_NEAR(deficit2, 17.0 / 3.0, 1e-12);
  EXPECT_LT(deficit1, deficit2);

  RefScheduler after(inst);
  after.run(22);
  std::vector<Placement> at21;
  for (const Placement& p : after.schedule().placements()) {
    if (p.start == 21) at21.push_back(p);
  }
  EXPECT_EQ(at21, (std::vector<Placement>{{2, 2, 21, 0}, {1, 5, 21, 4}}));
}

TEST(Ref, RunTwiceThrows) {
  const Instance inst = symmetric_instance(2, 2, 1);
  RefScheduler ref(inst);
  ref.run(10);
  EXPECT_THROW(ref.run(10), std::logic_error);
}

TEST(Ref, RejectsTooManyOrgs) {
  InstanceBuilder b;
  for (int u = 0; u < 17; ++u) b.add_org("o", 1);
  const Instance inst = std::move(b).build();
  EXPECT_THROW(RefScheduler{inst}, std::invalid_argument);
}

TEST(Ref, ReferenceWorkCountsCompletedParts) {
  const Instance inst = symmetric_instance(2, 3, 4);
  RefScheduler ref(inst);
  ref.run(9);
  EXPECT_EQ(ref.reference_work(), completed_work(inst, ref.schedule(), 9));
}

TEST(Ref, RefScalingSmokeWorkIsPinned) {
  // The instance `ref-scaling --smoke` times (the orgs sweep's largest
  // point, instance 0). REF's engine work summed over all 2^k - 1
  // coalitions is deterministic, so any change to the event stream or the
  // decision sequence shows here; bench/baselines/ref-scaling.json records
  // the same totals for the CI perf gate.
  exp::ScenarioOptions options;
  options.smoke = true;
  const exp::SweepSpec spec = exp::make_ref_scaling_sweeps(options).front();
  exp::SweepWorkload workload = spec.workloads[0];
  workload.orgs = static_cast<std::uint32_t>(spec.axes[0].values.back());
  const Instance inst = exp::make_workload_instance(workload, spec.horizon,
                                                    mix_seed(spec.seed, 0));
  RefScheduler ref(inst);
  ref.run(spec.horizon);
  std::uint64_t events = 0;
  std::uint64_t decisions = 0;
  const Coalition grand = Coalition::grand(inst.num_orgs());
  for (Coalition::Mask mask = 1; mask <= grand.mask(); ++mask) {
    events += ref.engine(Coalition(mask)).events_processed();
    decisions += ref.engine(Coalition(mask)).decisions_made();
  }
  EXPECT_EQ(inst.num_orgs(), 4u);
  EXPECT_EQ(spec.horizon, 500);
  EXPECT_EQ(events, 392u);
  EXPECT_EQ(decisions, 248u);
}

}  // namespace
}  // namespace fairsched
