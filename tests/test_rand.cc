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

// An eager RAND loop over FCFS engines, the reference RandScheduler's list
// schedules are checked against: the grand engine steps through its own
// decision times, and before each decision burst every sampled coalition's
// engine is advanced eagerly to that time by an FCFS policy attached for
// the catch-up.
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

// Mixed sizes on one or two machines per organization: the queue is never
// empty for long, so FCFS order and queueing move the values.
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

// At every integer t in [0, horizon], the list-schedule trajectory of `c`
// must read the value an Engine driven by FcfsPolicy reaches at t.
void expect_trajectory_matches_fcfs_engine(const Instance& inst, Coalition c,
                                           Time horizon) {
  SCOPED_TRACE(::testing::Message() << "mask=" << c.mask());
  FcfsValueTrajectory trajectory(inst, c, horizon);
  for (Time t = 0; t <= horizon; ++t) {
    Engine engine(inst, c);
    FcfsPolicy fcfs;
    engine.run(fcfs, t);
    ASSERT_EQ(trajectory.value2_at(t), engine.value2()) << "t=" << t;
  }
}

TEST(FcfsValueTrajectory, ZeroMachinesStartNothing) {
  InstanceBuilder b;
  b.add_org("idle", 0);
  b.add_org("host", 2);
  for (Time r : {0, 0, 3, 7}) {
    b.add_job(0, r, 4);
    b.add_job(1, r, 2);
  }
  const Instance inst = std::move(b).build();
  expect_trajectory_matches_fcfs_engine(inst, Coalition(0b01), 20);
  expect_trajectory_matches_fcfs_engine(inst, Coalition(0b11), 20);
  FcfsValueTrajectory idle(inst, Coalition(0b01), 20);
  EXPECT_EQ(idle.value2_at(20), 0);
}

TEST(FcfsValueTrajectory, EqualReleasesAcrossOrgsGoToTheLowerOrg) {
  // Every org releases its jobs at the same two moments on too few
  // machines, so each tie on release is broken by the org id, and the
  // sizes differ, so the order decides when the machines drain.
  InstanceBuilder b;
  for (std::uint32_t u = 0; u < 3; ++u) {
    b.add_org(std::string("o").append(std::to_string(u)), u == 2 ? 0 : 1);
  }
  for (OrgId u = 0; u < 3; ++u) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      b.add_job(u, i < 2 ? 0 : 5, 1 + 3 * u + i);
    }
  }
  const Instance inst = std::move(b).build();
  for (Coalition::Mask mask = 1; mask < 8; ++mask) {
    expect_trajectory_matches_fcfs_engine(inst, Coalition(mask), 60);
  }
}

TEST(FcfsValueTrajectory, JobsAtOrAfterTheHorizonAreNotListed) {
  InstanceBuilder b;
  b.add_org("a", 1);
  b.add_org("b", 1);
  for (Time r : {0, 2, 9, 10, 10, 14}) {
    b.add_job(0, r, 3);
    b.add_job(1, r, 2);
  }
  const Instance inst = std::move(b).build();
  for (Coalition::Mask mask = 1; mask < 4; ++mask) {
    expect_trajectory_matches_fcfs_engine(inst, Coalition(mask), 10);
  }
}

TEST(FcfsValueTrajectory, SingleOrgIsItsFifoSchedule) {
  const Instance inst = contended_instance(1, 25, 5);
  expect_trajectory_matches_fcfs_engine(inst, Coalition(1), 120);
}

TEST(FcfsValueTrajectory, MatchesFcfsEnginesOnContendedWindows) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const Instance inst = contended_instance(4, 15, seed);
    for (Coalition::Mask mask = 1; mask < 16; ++mask) {
      expect_trajectory_matches_fcfs_engine(inst, Coalition(mask), 150);
    }
  }
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
  // The list-schedule trajectories must reproduce the eager loop over FCFS
  // engines exactly: the grand schedule, its utilities, the final
  // contribution estimates and the number of sampled coalitions. Windows:
  // unit jobs (Prop. 5.4's setting); LPC-shaped mixed sizes (the Section 7
  // heuristic); and two contended mixed-size shapes, one or two machines
  // per org and RICC at 1/64 scale, where FCFS order and queueing change
  // the sampled values.
  enum class Window { kUnit, kLpc, kContended, kRicc };
  for (const std::uint32_t k : {2u, 3u, 5u, 8u}) {
    for (const std::size_t n : {1u, 15u, 75u}) {
      for (const std::uint64_t seed : {3u, 8u, 21u}) {
        for (const Window window : {Window::kUnit, Window::kLpc,
                                    Window::kContended, Window::kRicc}) {
          SCOPED_TRACE(::testing::Message() << "k=" << k << " N=" << n
                                            << " seed=" << seed << " window="
                                            << static_cast<int>(window));
          Time horizon = 80;
          Instance inst;
          switch (window) {
            case Window::kUnit:
              inst = unit_instance(k, 12, seed);
              break;
            case Window::kLpc:
              horizon = 1200;
              inst = make_synthetic_instance(preset_lpc_egee(), k, horizon,
                                             MachineSplit::kZipf, 1.0, seed);
              break;
            case Window::kContended:
              horizon = 150;
              inst = contended_instance(k, 15, seed);
              break;
            case Window::kRicc:
              horizon = 5000;
              inst = make_synthetic_instance(preset_ricc(64.0), k, horizon,
                                             MachineSplit::kZipf, 1.0, seed);
              break;
          }
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
