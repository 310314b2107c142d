// Tests for the REF exponential fair scheduler.

#include "sched/ref.h"

#include <gtest/gtest.h>

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
  // Fig. 1 (generic Distance with psi_sp) and Fig. 3 (specialized argmax of
  // phi - psi) must produce the same schedule.
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 3, 400, MachineSplit::kUniform, 1.0, 43);
  RefScheduler specialized(inst);
  specialized.run(400);

  SpUtilityFn sp;
  RefOptions options;
  options.generic_utility = &sp;
  RefScheduler generic(inst, options);
  generic.run(400);

  EXPECT_EQ(specialized.utilities2(), generic.utilities2());
  EXPECT_EQ(specialized.schedule().placements().size(),
            generic.schedule().placements().size());
  for (const Placement& p : specialized.schedule().placements()) {
    EXPECT_EQ(generic.schedule().start_of(p.org, p.index), p.start);
  }
}

TEST(Ref, GenericRuleSupportsOtherUtilities) {
  // The generic Distance rule (Fig. 1) must run with a non-psi_sp utility
  // and still produce a feasible greedy schedule — the paper's claim that
  // the fair-scheduling construction works "for arbitrary utilities".
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 3, 300, MachineSplit::kUniform, 1.0, 47);
  CompletedWorkUtilityFn throughput;
  RefOptions options;
  options.generic_utility = &throughput;
  RefScheduler ref(inst, options);
  ref.run(300);
  EXPECT_EQ(ref.schedule().validate(inst, 300), std::nullopt);
  EXPECT_EQ(ref.schedule().size(),
            static_cast<std::size_t>(ref.engine(Coalition::grand(3))
                                         .completed(0) +
                                     ref.engine(Coalition::grand(3))
                                         .completed(1) +
                                     ref.engine(Coalition::grand(3))
                                         .completed(2) +
                                     ref.engine(Coalition::grand(3))
                                         .running(0) +
                                     ref.engine(Coalition::grand(3))
                                         .running(1) +
                                     ref.engine(Coalition::grand(3))
                                         .running(2)));
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
