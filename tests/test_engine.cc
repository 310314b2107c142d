// Tests for the discrete-event engine: event ordering, greedy/FIFO
// feasibility of produced schedules, and exactness of the closed-form
// utility accrual against the Eq. 3 closed form evaluated on the final
// schedule.

#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "metrics/utility.h"
#include "sched/fcfs.h"
#include "sched/round_robin.h"
#include "serve/live_instance.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fairsched {
namespace {

Instance small_instance() {
  InstanceBuilder b;
  const OrgId a = b.add_org("a", 1);
  const OrgId c = b.add_org("c", 2);
  b.add_job(a, 0, 4);
  b.add_job(a, 2, 3);
  b.add_job(a, 2, 5);
  b.add_job(c, 1, 2);
  b.add_job(c, 1, 6);
  b.add_job(c, 8, 1);
  return std::move(b).build();
}

TEST(Engine, ProducesFeasibleGreedySchedule) {
  const Instance inst = small_instance();
  Engine engine(inst);
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(engine.schedule().validate(inst, 100), std::nullopt);
  EXPECT_EQ(engine.schedule().size(), inst.num_jobs());
}

TEST(Engine, AccruedUtilitiesMatchClosedFormOnSchedule) {
  const Instance inst = small_instance();
  for (Time horizon : {3, 5, 8, 11, 14, 50}) {
    Engine engine(inst);
    FcfsPolicy policy;
    engine.run(policy, horizon);
    for (OrgId u = 0; u < inst.num_orgs(); ++u) {
      EXPECT_EQ(engine.psi2(u),
                sp_org_half_utility(inst, engine.schedule(), u, horizon))
          << "u=" << u << " horizon=" << horizon;
    }
  }
}

TEST(Engine, WorkDoneMatchesCompletedWork) {
  const Instance inst = small_instance();
  for (Time horizon : {4, 9, 40}) {
    Engine engine(inst);
    RoundRobinPolicy policy;
    engine.run(policy, horizon);
    EXPECT_EQ(engine.total_work_done(),
              completed_work(inst, engine.schedule(), horizon));
  }
}

TEST(Engine, ContributionAccountingConserved) {
  // Sum over orgs of contribution work == sum of utility work (every
  // executed unit belongs to exactly one job and one machine), and the same
  // for the psi2-valued aggregates.
  const Instance inst = small_instance();
  Engine engine(inst);
  FcfsPolicy policy;
  engine.run(policy, 25);
  std::int64_t work_u = 0, work_c = 0;
  HalfUtil psi_u = 0, psi_c = 0;
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    work_u += engine.work_done(u);
    work_c += engine.contrib_work(u);
    psi_u += engine.psi2(u);
    psi_c += engine.contrib_psi2(u);
  }
  EXPECT_EQ(work_u, work_c);
  EXPECT_EQ(psi_u, psi_c);
}

TEST(Engine, HorizonTruncatesAccounting) {
  const Instance inst = small_instance();
  Engine early(inst), late(inst);
  FcfsPolicy p1, p2;
  early.run(p1, 6);
  late.run(p2, 60);
  // At the early horizon strictly less work is accounted.
  EXPECT_LT(early.total_work_done(), late.total_work_done());
  EXPECT_EQ(late.total_work_done(), inst.total_work());
}

TEST(Engine, CoalitionRestrictionUsesOnlyMemberResources) {
  const Instance inst = small_instance();
  Engine engine(inst, Coalition::singleton(0));
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(engine.total_machines(), 1u);
  // Only org 0's jobs ran.
  EXPECT_EQ(engine.completed(0), 3u);
  EXPECT_EQ(engine.completed(1), 0u);
  EXPECT_EQ(engine.psi2(1), 0);
  // Org 0 alone on one machine: jobs back to back 0-4, 4-7, 7-12.
  EXPECT_EQ(engine.schedule().start_of(0, 0), 0);
  EXPECT_EQ(engine.schedule().start_of(0, 1), 4);
  EXPECT_EQ(engine.schedule().start_of(0, 2), 7);
}

TEST(Engine, PairCoalitionSharesMachines) {
  const Instance inst = small_instance();
  Engine engine(inst, Coalition::grand(2));
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(engine.total_machines(), 3u);
  EXPECT_EQ(engine.completed(0) + engine.completed(1), 6u);
}

TEST(Engine, ManualSteppingMatchesRun) {
  const Instance inst = small_instance();
  Engine manual(inst);
  FcfsPolicy policy;
  PolicyView view(manual);
  const Time horizon = 40;
  for (;;) {
    const Time t = manual.next_event();
    if (t == kTimeInfinity || t >= horizon) break;
    manual.advance_to(t);
    while (manual.needs_decision()) {
      manual.start_front(policy.select(view));
    }
  }
  manual.advance_to(horizon);

  Engine driven(inst);
  FcfsPolicy policy2;
  driven.run(policy2, horizon);
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(manual.psi2(u), driven.psi2(u));
  }
  EXPECT_EQ(manual.schedule().placements().size(),
            driven.schedule().placements().size());
}

TEST(Engine, StartFrontPreconditionsEnforced) {
  const Instance inst = small_instance();
  Engine engine(inst);
  // At time 0 nothing has been released for org 1 yet.
  engine.advance_to(0);
  EXPECT_THROW(engine.start_front(1), std::logic_error);
}

TEST(Engine, RandomMachinePickStillFeasible) {
  const Instance inst = small_instance();
  EngineOptions options;
  options.machine_pick = MachinePick::kRandomFree;
  options.seed = 7;
  Engine engine(inst, options);
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(engine.schedule().validate(inst, 100), std::nullopt);
}

TEST(Engine, RandomMachinePickDeterministicPerSeed) {
  const Instance inst = small_instance();
  auto run_once = [&](std::uint64_t seed) {
    EngineOptions options;
    options.machine_pick = MachinePick::kRandomFree;
    options.seed = seed;
    Engine engine(inst, options);
    FcfsPolicy policy;
    engine.run(policy, 100);
    std::vector<MachineId> machines;
    for (const Placement& p : engine.schedule().placements()) {
      machines.push_back(p.machine);
    }
    return machines;
  };
  EXPECT_EQ(run_once(3), run_once(3));
}

TEST(Engine, LargerSyntheticWorkloadStaysConsistent) {
  const SyntheticSpec spec = preset_lpc_egee();
  const Instance inst = make_synthetic_instance(spec, 4, 4000,
                                                MachineSplit::kZipf, 1.0, 99);
  const Time horizon = 4000;
  Engine engine(inst);
  FcfsPolicy policy;
  engine.run(policy, horizon);
  EXPECT_EQ(engine.schedule().validate(inst, horizon), std::nullopt);
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    EXPECT_EQ(engine.psi2(u),
              sp_org_half_utility(inst, engine.schedule(), u, horizon));
  }
  EXPECT_EQ(engine.total_work_done(),
            completed_work(inst, engine.schedule(), horizon));
}

TEST(Engine, NoJobsMeansNoEvents) {
  InstanceBuilder b;
  b.add_org("a", 3);
  const Instance inst = std::move(b).build();
  Engine engine(inst);
  EXPECT_EQ(engine.next_event(), kTimeInfinity);
  FcfsPolicy policy;
  engine.run(policy, 100);
  EXPECT_EQ(engine.total_work_done(), 0);
}

// --- Notification order -----------------------------------------------------
//
// The engine merges two event sources (the completion calendar and the
// per-organization release tree) into one stream. The attached listener
// sees that stream; these checks pin it to event_before on inputs built to
// collide: unit or short jobs, releases drawn from a narrow window shared by
// every organization, so completions land on release times and many
// releases share a timestamp.

struct TieJob {
  OrgId org;
  Time release;
  Time processing;
};

struct TieWorkload {
  std::vector<std::uint32_t> machines;
  std::vector<TieJob> arrivals;  // nondecreasing release; orgs shuffled
};

TieWorkload tie_workload(std::uint64_t seed) {
  Rng rng(seed);
  TieWorkload w;
  const auto orgs = static_cast<std::uint32_t>(rng.uniform_int(2, 6));
  const Time max_processing = rng.bernoulli(0.5) ? 1 : 3;
  const Time window = rng.uniform_int(3, 20);
  for (OrgId u = 0; u < orgs; ++u) {
    w.machines.push_back(static_cast<std::uint32_t>(rng.uniform_int(1, 3)));
    const std::int64_t jobs = rng.uniform_int(0, 25);
    for (std::int64_t j = 0; j < jobs; ++j) {
      w.arrivals.push_back(TieJob{u, rng.uniform_int(0, window),
                                  rng.uniform_int(1, max_processing)});
    }
  }
  rng.shuffle(w.arrivals);
  std::stable_sort(w.arrivals.begin(), w.arrivals.end(),
                   [](const TieJob& a, const TieJob& b) {
                     return a.release < b.release;
                   });
  return w;
}

Instance build_tie_instance(const TieWorkload& w) {
  InstanceBuilder b;
  for (OrgId u = 0; u < w.machines.size(); ++u) {
    b.add_org(std::string("o").append(std::to_string(u)), w.machines[u]);
  }
  for (const TieJob& j : w.arrivals) b.add_job(j.org, j.release, j.processing);
  return std::move(b).build();
}

// One notification as an event_before key, plus the clock the listener saw
// and the target of the advance_to call (wake-up) that delivered it.
struct Note {
  EngineEvent event;
  Time now;
  Time wake;
};

// Records every release and completion notification. The driver reports
// each start, so a completion is named by the job running on its machine.
class NoteRecorder : public Policy {
 public:
  struct Running {
    OrgId org;
    std::uint32_t index;
    Time end;
  };

  explicit NoteRecorder(const Instance& inst)
      : inst_(inst), releases_(inst.num_orgs(), 0) {}

  OrgId select(const PolicyView& /*view*/) override { return kNoOrg; }
  void on_release(const PolicyView& view, OrgId u) override {
    const std::uint32_t index = releases_[u]++;
    notes.push_back(Note{EngineEvent{inst_.job(u, index).release,
                                     EventKind::kRelease, u, index,
                                     kNoMachine},
                         view.now(), wake});
  }
  void on_complete(const PolicyView& view, OrgId u, MachineId m) override {
    const auto it = running.find(m);
    ASSERT_NE(it, running.end()) << "completion on idle machine " << m;
    EXPECT_EQ(it->second.org, u);
    notes.push_back(Note{EngineEvent{it->second.end, EventKind::kCompletion,
                                     u, it->second.index, m},
                         view.now(), wake});
    running.erase(it);
  }

  std::map<MachineId, Running> running;
  std::vector<Note> notes;
  Time wake = 0;

 private:
  const Instance& inst_;
  std::vector<std::uint32_t> releases_;
};

// Drives `engine` to drain like Engine::run / ServeSession, starting a
// random waiting organization's front job at each decision. With `live`,
// the engine is in external-releases mode and `arrivals` are appended and
// injected the way ServeSession feeds a trace. At every wake the engine's
// next_completion() must equal the brute-force minimum over running jobs.
std::vector<Note> drive(Engine& engine, std::uint64_t pick_seed,
                        serve::LiveInstance* live = nullptr,
                        const std::vector<TieJob>& arrivals = {}) {
  const Instance& inst = engine.instance();
  NoteRecorder recorder(inst);
  engine.attach(&recorder);
  Rng pick(pick_seed);
  auto check_next_completion = [&] {
    Time brute = kTimeInfinity;
    for (const auto& [m, job] : recorder.running) {
      brute = std::min(brute, job.end);
    }
    EXPECT_EQ(engine.next_completion(), brute) << "at t=" << engine.now();
  };
  std::size_t next = 0;
  for (;;) {
    Time td = engine.next_decision_time();
    while (live != nullptr && next < arrivals.size() &&
           arrivals[next].release <= td) {
      const TieJob& j = arrivals[next++];
      live->append_job(j.org, j.release, j.processing);
      engine.inject_release(j.org);
      td = engine.next_decision_time();
    }
    if (td == kTimeInfinity) break;
    recorder.wake = td;
    engine.advance_to(td);
    check_next_completion();
    while (engine.needs_decision()) {
      std::vector<OrgId> candidates;
      for (OrgId u = 0; u < engine.num_orgs(); ++u) {
        if (engine.waiting(u) > 0) candidates.push_back(u);
      }
      const OrgId u = candidates[pick.uniform_u64(candidates.size())];
      const std::uint32_t index = engine.schedule().num_started(u);
      const MachineId m = engine.start_front(u);
      recorder.running[m] = NoteRecorder::Running{
          u, index, engine.now() + inst.job(u, index).processing};
      check_next_completion();
    }
  }
  engine.attach(nullptr);
  EXPECT_TRUE(recorder.running.empty());
  return recorder.notes;
}

// Every job's release and completion is notified exactly once.
void expect_each_event_once(const Instance& inst,
                            const std::vector<Note>& notes) {
  std::map<std::tuple<EventKind, OrgId, std::uint32_t>, int> seen;
  for (const Note& n : notes) {
    ++seen[{n.event.kind, n.event.org, n.event.index}];
  }
  EXPECT_EQ(seen.size(), 2 * inst.num_jobs());
  for (const auto& [key, count] : seen) {
    const auto& [kind, org, index] = key;
    EXPECT_EQ(count, 1) << "org " << org << " job " << index;
    EXPECT_LT(index, inst.jobs_of(org).size());
  }
}

void expect_event_before_order(const std::vector<Note>& notes) {
  for (std::size_t i = 0; i < notes.size(); ++i) {
    EXPECT_EQ(notes[i].now, notes[i].event.time) << "note " << i;
    EXPECT_LE(notes[i].event.time, notes[i].wake) << "note " << i;
    if (i > 0) {
      EXPECT_TRUE(event_before(notes[i - 1].event, notes[i].event))
          << "note " << i << ": t=" << notes[i].event.time << " kind="
          << static_cast<int>(notes[i].event.kind)
          << " org=" << notes[i].event.org
          << " after t=" << notes[i - 1].event.time << " kind="
          << static_cast<int>(notes[i - 1].event.kind)
          << " org=" << notes[i - 1].event.org;
    }
  }
}

TEST(Engine, NotificationOrderIsEventBefore) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const TieWorkload w = tie_workload(seed);
    const Instance inst = build_tie_instance(w);

    // Batch kFirstFree: the merged stream is strictly event_before-ordered.
    Engine batch(inst);
    const std::vector<Note> batch_notes = drive(batch, seed);
    expect_event_before_order(batch_notes);
    expect_each_event_once(inst, batch_notes);

    // External releases, fed like ServeSession: the same stream, note for
    // note, whatever order same-time arrivals of different orgs come in.
    serve::LiveInstance live(w.machines);
    EngineOptions external;
    external.external_releases = true;
    Engine fed(live.instance(), external);
    const std::vector<Note> fed_notes = drive(fed, seed, &live, w.arrivals);
    expect_event_before_order(fed_notes);
    expect_each_event_once(inst, fed_notes);
    ASSERT_EQ(fed_notes.size(), batch_notes.size());
    for (std::size_t i = 0; i < fed_notes.size(); ++i) {
      EXPECT_EQ(fed_notes[i].event, batch_notes[i].event) << "note " << i;
    }

    // kRandomFree keeps the legacy order: per wake-up, the due completions
    // in nondecreasing time, then the due releases (notified at the wake
    // time) in event_before order; releases are globally ordered too.
    EngineOptions random_pick;
    random_pick.machine_pick = MachinePick::kRandomFree;
    random_pick.seed = seed;
    Engine legacy(inst, random_pick);
    const std::vector<Note> legacy_notes = drive(legacy, seed);
    expect_each_event_once(inst, legacy_notes);
    const Note* last_release = nullptr;
    for (std::size_t i = 0; i < legacy_notes.size(); ++i) {
      const Note& n = legacy_notes[i];
      const Note* prev = i > 0 ? &legacy_notes[i - 1] : nullptr;
      const bool same_wake = prev != nullptr && prev->wake == n.wake;
      if (n.event.kind == EventKind::kCompletion) {
        EXPECT_EQ(n.now, n.event.time) << "note " << i;
        if (same_wake) {
          EXPECT_EQ(prev->event.kind, EventKind::kCompletion) << "note " << i;
          EXPECT_LE(prev->event.time, n.event.time) << "note " << i;
        }
      } else {
        EXPECT_LE(n.event.time, n.wake) << "note " << i;
        EXPECT_EQ(n.now, n.wake) << "note " << i;
        if (last_release != nullptr) {
          EXPECT_TRUE(event_before(last_release->event, n.event))
              << "note " << i;
        }
        last_release = &n;
      }
    }
  }
}

}  // namespace
}  // namespace fairsched
