// Tests for the RAND randomized fair scheduler (Fig. 6).

#include "sched/rand_fair.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>

#include "metrics/fairness.h"
#include "metrics/utility.h"
#include "sched/fcfs.h"
#include "sched/ref.h"
#include "shapley/shapley.h"
#include "workload/synthetic.h"

namespace fairsched {
namespace {

// The RAND loop as it was before RAND moved onto the coalition bank, kept
// as the reference RandScheduler is checked against: the grand engine
// steps through its own decision times, and before each decision burst
// every sampled engine is advanced eagerly to that time by an FCFS policy
// attached for the catch-up.
class EagerRand {
 public:
  EagerRand(const Instance& inst, RandOptions options)
      : inst_(&inst), options_(options), grand_(inst) {
    const std::uint32_t k = inst.num_orgs();
    Rng rng(options.seed);
    prefix_masks_.resize(k);
    for (std::size_t i = 0; i < options.samples; ++i) {
      Coalition::Mask mask = 0;
      for (OrgId u : rng.permutation(k)) {
        prefix_masks_[u].push_back(mask);
        mask |= Coalition::Mask{1} << u;
        auto& slot = sampled_[mask];
        if (!slot) slot = std::make_unique<Engine>(inst, Coalition(mask));
      }
    }
  }

  void run(Time horizon) {
    for (;;) {
      const Time t = grand_.next_decision_time();
      if (t == kTimeInfinity || t >= horizon) break;
      grand_.advance_to(t);
      if (!grand_.needs_decision()) continue;
      for (auto& [mask, engine] : sampled_) advance_sampled(*engine, t);
      const std::vector<double> phi2 = contributions2();
      while (grand_.needs_decision()) {
        OrgId best = kNoOrg;
        double best_deficit = 0.0;
        for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
          if (grand_.waiting(u) == 0) continue;
          const double deficit = phi2[u] - static_cast<double>(grand_.psi2(u));
          if (best == kNoOrg || deficit > best_deficit) {
            best = u;
            best_deficit = deficit;
          }
        }
        grand_.start_front(best);
      }
    }
    grand_.advance_to(horizon);
    for (auto& [mask, engine] : sampled_) advance_sampled(*engine, horizon);
  }

  const Schedule& schedule() const { return grand_.schedule(); }
  std::vector<HalfUtil> utilities2() const {
    std::vector<HalfUtil> out(inst_->num_orgs(), 0);
    for (OrgId u = 0; u < inst_->num_orgs(); ++u) out[u] = grand_.psi2(u);
    return out;
  }
  std::vector<double> contributions() const {
    std::vector<double> phi2 = contributions2();
    for (double& p : phi2) p /= 2.0;
    return phi2;
  }
  std::size_t distinct_coalitions() const { return sampled_.size(); }

 private:
  static void advance_sampled(Engine& engine, Time t) {
    FcfsPolicy fcfs;
    PolicyView view(engine);
    engine.attach(&fcfs);
    fcfs.reset(view);
    for (;;) {
      const Time te = engine.next_decision_time();
      if (te == kTimeInfinity || te > t) break;
      engine.advance_to(te);
      while (engine.needs_decision()) {
        const OrgId u = fcfs.select(view);
        const std::uint32_t index = engine.running(u) + engine.completed(u);
        const MachineId m = engine.start_front(u);
        fcfs.on_start(view, u, index, m);
      }
    }
    engine.advance_to(t);
    engine.attach(nullptr);
  }

  std::vector<double> contributions2() const {
    std::vector<double> phi2(inst_->num_orgs(), 0.0);
    for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
      double total = 0.0;
      for (Coalition::Mask before : prefix_masks_[u]) {
        const Coalition::Mask with_u = before | (Coalition::Mask{1} << u);
        const double v_before =
            before == 0 ? 0.0
                        : static_cast<double>(sampled_.at(before)->value2());
        total += static_cast<double>(sampled_.at(with_u)->value2()) - v_before;
      }
      phi2[u] = total / static_cast<double>(options_.samples);
    }
    return phi2;
  }

  const Instance* inst_;
  RandOptions options_;
  Engine grand_;
  std::map<Coalition::Mask, std::unique_ptr<Engine>> sampled_;
  std::vector<std::vector<Coalition::Mask>> prefix_masks_;
};

Instance unit_instance(std::uint32_t k, std::uint32_t jobs_per_org,
                       std::uint64_t seed) {
  InstanceBuilder b;
  Rng rng(seed);
  for (std::uint32_t u = 0; u < k; ++u) {
    b.add_org(std::string("o").append(std::to_string(u)),
              1 + static_cast<std::uint32_t>(rng.uniform_u64(2)));
  }
  for (std::uint32_t u = 0; u < k; ++u) {
    for (std::uint32_t i = 0; i < jobs_per_org; ++i) {
      b.add_job(u, static_cast<Time>(rng.uniform_u64(30)), 1);
    }
  }
  return std::move(b).build();
}

TEST(Rand, ProducesFeasibleGreedySchedule) {
  const Instance inst = make_synthetic_instance(
      preset_lpc_egee(), 4, 1500, MachineSplit::kZipf, 1.0, 51);
  RandScheduler rand(inst, RandOptions{15, 7});
  rand.run(1500);
  EXPECT_EQ(rand.schedule().validate(inst, 1500), std::nullopt);
}

TEST(Rand, UtilitiesMatchClosedForm) {
  const Instance inst = unit_instance(4, 20, 3);
  RandScheduler rand(inst, RandOptions{15, 7});
  rand.run(60);
  const auto psi2 = rand.utilities2();
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(psi2[u], sp_org_half_utility(inst, rand.schedule(), u, 60));
  }
}

TEST(Rand, DeterministicPerSeed) {
  const Instance inst = unit_instance(4, 15, 5);
  RandScheduler a(inst, RandOptions{10, 42});
  RandScheduler b(inst, RandOptions{10, 42});
  a.run(50);
  b.run(50);
  EXPECT_EQ(a.utilities2(), b.utilities2());
}

TEST(Rand, CloseToRefOnUnitJobs) {
  // On unit-size jobs RAND is an FPRAS; with many samples the schedule's
  // utility vector must be close to REF's (relative Manhattan distance).
  const Instance inst = unit_instance(4, 40, 11);
  const Time horizon = 80;
  RefScheduler ref(inst);
  ref.run(horizon);
  RandScheduler rand(inst, RandOptions{200, 13});
  rand.run(horizon);
  const double rel = relative_distance(rand.utilities2(), ref.utilities2());
  EXPECT_LT(rel, 0.05) << "relative distance " << rel;
}

TEST(Rand, MoreSamplesImproveContributionEstimates) {
  // Compare RAND's phi estimates against exact Shapley of the same
  // characteristic function (values of FCFS-scheduled subcoalitions at the
  // horizon) on a unit-job instance.
  const Instance inst = unit_instance(4, 30, 17);
  const Time horizon = 100;

  RandScheduler coarse(inst, RandOptions{5, 23});
  RandScheduler fine(inst, RandOptions{400, 23});
  coarse.run(horizon);
  fine.run(horizon);

  RefScheduler ref(inst);
  ref.run(horizon);
  const auto ref_phi = ref.contributions();
  auto err = [&](const std::vector<double>& phi) {
    double total = 0.0;
    for (std::size_t u = 0; u < phi.size(); ++u) {
      total += std::abs(phi[u] - ref_phi[u]);
    }
    return total;
  };
  EXPECT_LE(err(fine.contributions()), err(coarse.contributions()) + 1e-9);
}

TEST(Rand, DistinctCoalitionsBounded) {
  const Instance inst = unit_instance(4, 5, 29);
  RandScheduler rand(inst, RandOptions{50, 31});
  // At most all 2^4 - 1 nonempty masks plus the empty prefix never gets an
  // engine.
  EXPECT_LE(rand.distinct_coalitions(), 15u);
  EXPECT_GE(rand.distinct_coalitions(), 4u);
}

TEST(Rand, TheoremSampleBoundFormula) {
  // N = ceil(k^2 / eps^2 * ln(k / (1 - lambda)))
  const std::size_t n = rand_sample_bound(5, 0.1, 0.95);
  EXPECT_EQ(n, static_cast<std::size_t>(
                   std::ceil(25.0 / 0.01 * std::log(5.0 / 0.05))));
}

TEST(Rand, MatchesTheEagerReferenceBitForBit) {
  // The bank port must reproduce the eager loop exactly: the grand
  // schedule, its utilities, the final contribution estimates and the
  // number of simulated coalitions, on unit jobs (Prop. 5.4's setting) and
  // on LPC-shaped mixed sizes (the Section 7 heuristic).
  for (const std::uint32_t k : {2u, 3u, 5u, 8u}) {
    for (const std::size_t n : {1u, 15u, 75u}) {
      for (const std::uint64_t seed : {3u, 8u, 21u}) {
        for (const bool unit : {true, false}) {
          SCOPED_TRACE(::testing::Message() << "k=" << k << " N=" << n
                                            << " seed=" << seed
                                            << (unit ? " unit" : " lpc"));
          const Time horizon = unit ? 80 : 1200;
          const Instance inst =
              unit ? unit_instance(k, 12, seed)
                   : make_synthetic_instance(preset_lpc_egee(), k, horizon,
                                             MachineSplit::kZipf, 1.0, seed);
          EagerRand reference(inst, RandOptions{n, seed + 100});
          RandScheduler rand(inst, RandOptions{n, seed + 100});
          reference.run(horizon);
          rand.run(horizon);
          EXPECT_EQ(rand.schedule().placements(),
                    reference.schedule().placements());
          EXPECT_EQ(rand.utilities2(), reference.utilities2());
          EXPECT_EQ(rand.distinct_coalitions(),
                    reference.distinct_coalitions());
          const std::vector<double> phi = rand.contributions();
          const std::vector<double> ref_phi = reference.contributions();
          ASSERT_EQ(phi.size(), ref_phi.size());
          for (std::size_t u = 0; u < phi.size(); ++u) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(phi[u]),
                      std::bit_cast<std::uint64_t>(ref_phi[u]))
                << "org " << u << ": " << phi[u] << " vs " << ref_phi[u];
          }
        }
      }
    }
  }
}

TEST(Rand, InvalidOptionsThrow) {
  const Instance inst = unit_instance(2, 2, 1);
  EXPECT_THROW(RandScheduler(inst, RandOptions{0, 1}), std::invalid_argument);
}

TEST(Rand, RunTwiceThrows) {
  const Instance inst = unit_instance(2, 2, 1);
  RandScheduler rand(inst, RandOptions{5, 1});
  rand.run(10);
  EXPECT_THROW(rand.run(10), std::logic_error);
}

}  // namespace
}  // namespace fairsched
