#pragma once

// Event-driven simulator for multi-organizational greedy scheduling.
//
// The paper describes its algorithms as acting at every discrete time
// moment; since greedy algorithms only make decisions when a machine frees
// or a job arrives, the engine advances directly between such events and
// accrues the strategy-proof utility (and the machine-owner contribution
// used by DIRECTCONTR) in closed form over each event-free interval:
//
//   with C = units completed before t1 and w = jobs running throughout
//   [t1, t2):   2*psi(t2) = 2*psi(t1) + 2*C*(t2-t1) + w*(t2-t1)*(t2-t1+1)
//
// (each running job contributes one fresh unit per slot; a unit in slot i is
// worth t - i at time t). This reproduces Eq. 3 exactly — see
// tests/test_engine.cc which cross-checks against the closed form on the
// final schedule.
//
// The closed form is linear in (C, w), so it splits exactly across
// sub-intervals and sums exactly across organizations. The engine exploits
// both: per-organization accounts accrue *lazily* (each carries its own
// `accrued_at` timestamp and is folded forward only when read or when its
// running/busy count changes), and coalition-level aggregates (value2,
// total_work_done) are O(1) closed-form reads off three running sums —
// advancing the clock costs O(1), not O(num_orgs). Both shortcuts are
// bit-exact against the eager per-event loop they replaced.
//
// --- Event queue and tie-break ---------------------------------------------
//
// Events come from two sources, merged in the one tie-break order defined
// as `event_before` in sim/calendar_queue.h: (time, completions-before-
// releases, org, index).
//   * Completions: a calendar queue (sim/calendar_queue.h) of the running
//     jobs' completions, drained in event_before order; its top is
//     next_completion().
//   * Releases: per-organization job lists are release-sorted, so member
//     u's next release is job(u, released(u)), pending while released(u) is
//     below the releases the engine knows of (u's job list, or the
//     injections so far in external-releases mode). A KeyedArgmin tree
//     (sim/keyed_argmin.h) over org ids keyed by that release time, ties to
//     the lower id, yields the next release; admitting one re-keys one org.
// advance_to takes the earlier head, the completion on equal times, so
// machines freed at t serve jobs arriving at t. Deliberate exception: with
// MachinePick::kRandomFree the completions sit in a time-only binary heap
// instead. Its same-time pop order sets the order machines return to the
// free list, which the random machine draw indexes into — part of the
// published RNG stream of DIRECTCONTR runs. Such an engine applies all due
// completions in heap order, then all due releases from the same tree.
// kFirstFree engines (every other policy, REF, RAND) use the calendar,
// where same-time completion order is unobservable: machines re-enter an
// id-ordered free set and all accounting commutes within one timestamp.
//
// The engine is a manually steppable state machine (advance_to /
// start_front) so that the ensemble schedulers can interleave many engines
// on one timeline: REF runs one engine per subcoalition on the single
// wake-up loop of sched/coalition_bank.h, and RAND steps its grand engine
// itself. `run(policy, horizon)` is the convenience driver used by
// ordinary policies; it attaches the policy so the push notifications of
// the incremental Policy API (sim/policy.h) are delivered. Manual drivers
// may attach a listener themselves via attach().
//
// An engine can be restricted to a coalition: only member organizations'
// machines exist and only their jobs arrive. Organization ids keep their
// global numbering so ensemble drivers can aggregate without relabeling.
//
// Engines are single-threaded objects: the const accessors fold lazy
// accruals forward through mutable state, so concurrent reads of one
// engine are not safe (the sweep executors give every run its own engine).

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/coalition.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "core/types.h"
#include "sim/calendar_queue.h"
#include "sim/keyed_argmin.h"
#include "sim/policy.h"
#include "util/rng.h"

namespace fairsched {

// How the engine picks among free machines. Identical machines make the
// choice irrelevant for utilities, but the owner of the chosen machine
// receives the contribution credit, which DIRECTCONTR uses; the paper's
// Fig. 9 considers processors in a random order.
enum class MachinePick { kFirstFree, kRandomFree };

struct EngineOptions {
  MachinePick machine_pick = MachinePick::kFirstFree;
  std::uint64_t seed = 0;  // used only for kRandomFree
  // Serve-mode seam (src/serve): the workload is not known at
  // construction. The driver grows the instance's per-organization job
  // lists (serve::LiveInstance) and makes each release visible through
  // inject_release as it learns of it. Requires kFirstFree. Events injected
  // up to any time T and then drained produce the exact state and event
  // order a batch engine reaches at T — both sources drain in event_before
  // order whatever the injection order across organizations — which is what
  // makes serve-vs-batch replay byte-identical (tests/test_serve_replay.cc).
  bool external_releases = false;
};

class Engine {
 public:
  Engine(const Instance& inst, Coalition active, EngineOptions options = {});

  // Convenience: grand coalition.
  explicit Engine(const Instance& inst, EngineOptions options = {});

  const Instance& instance() const { return *inst_; }
  Coalition active() const { return active_; }
  Time now() const { return now_; }

  // Earliest pending event (release or completion) strictly after now(), or
  // kTimeInfinity when the engine is drained.
  Time next_event() const {
    const Time completion = next_completion();
    if (release_front_.argmin() == KeyedArgmin<Time>::kNone) return completion;
    return std::min(release_front_.min_key(), completion);
  }

  // Earliest pending completion, or kTimeInfinity if no job is running.
  Time next_completion() const {
    if (options_.machine_pick == MachinePick::kFirstFree) {
      return calendar_.empty() ? kTimeInfinity : calendar_.top().time;
    }
    return completions_.empty() ? kTimeInfinity : completions_.top().time;
  }

  // Earliest future time at which a scheduling decision could possibly be
  // required — the wake-up granularity event-loop drivers actually need.
  // While no machine is free, releases cannot enable a decision (they only
  // grow the waiting queue), so the next opportunity is the next
  // completion; otherwise any event can. Waking at these times only and
  // batch-processing the skipped events in the next advance_to yields the
  // exact same decision sequence as waking at every event: events are
  // applied in the same `event_before` order either way, releases carry no
  // accrual, and every state a driver observes at a decision point is
  // identical.
  Time next_decision_time() const {
    return free_machines_ > 0 ? next_event() : next_completion();
  }

  // Advances the clock to t (>= now()): accrues utilities, completes jobs
  // due at or before t, and admits releases at or before t. Does not start
  // any job. Events are processed in `event_before` order (kRandomFree: see
  // the header note); the attached listener, if any, is notified per event.
  void advance_to(Time t);

  // True when a scheduling decision is required (free machine + waiting job).
  bool needs_decision() const {
    return free_machines_ > 0 && waiting_total_ > 0;
  }

  // Starts organization u's front FIFO job at now(); returns the machine.
  // Precondition: waiting(u) > 0 and a machine is free.
  MachineId start_front(OrgId u);

  // Runs `policy` until `horizon`: processes events in order, invoking the
  // policy at each decision point, then advances to exactly `horizon`.
  // Attaches `policy` for the duration, so it receives the push
  // notifications (on_release / on_complete / on_advance) of sim/policy.h.
  void run(Policy& policy, Time horizon);

  // Attaches `listener` to receive push notifications from advance_to
  // (nullptr detaches). Manual drivers stepping the engine directly can use
  // this to keep an incremental policy's mirror current; note start_front
  // does NOT synthesize on_start — the driver that decides also notifies.
  void attach(Policy* listener) { listener_ = listener; }

  // External-releases mode only: makes organization u's next un-injected
  // job (FIFO index = number of injections so far) visible to the event
  // stream. The job must already exist in the instance, its release must
  // be >= now() and >= the release of u's previously injected job; drivers
  // feed arrivals in nondecreasing time order before advancing past them.
  // Throws std::logic_error otherwise. Returns the injected release time.
  Time inject_release(OrgId u);
  // Releases of u visible to the event stream: the injections so far in
  // external-releases mode, u's whole job list otherwise.
  std::uint32_t injected(OrgId u) const { return release_end_[u]; }

  // --- state inspection --------------------------------------------------
  std::uint32_t num_orgs() const { return inst_->num_orgs(); }
  bool is_active(OrgId u) const { return active_.contains(u); }
  std::uint32_t waiting(OrgId u) const {
    return released_[u] - started_[u];
  }
  // Release time of u's front waiting job. Precondition: waiting(u) > 0.
  Time front_release(OrgId u) const {
    return inst_->job(u, started_[u]).release;
  }
  std::uint32_t waiting_total() const { return waiting_total_; }
  std::uint32_t running(OrgId u) const { return accounts_[u].running_jobs; }
  std::uint32_t completed(OrgId u) const { return completed_[u]; }
  std::uint32_t free_machines() const { return free_machines_; }
  std::uint32_t total_machines() const { return total_machines_; }
  std::uint32_t machines_of(OrgId u) const {
    return active_.contains(u) ? inst_->machines_of(u) : 0;
  }
  std::uint32_t busy_machines(OrgId u) const {
    return accounts_[u].busy_machines;
  }
  double share(OrgId u) const;

  // --- accounting at now() ------------------------------------------------
  HalfUtil psi2(OrgId u) const {
    lazy_accrue(u);
    return accounts_[u].psi2;
  }
  HalfUtil contrib_psi2(OrgId u) const {
    lazy_accrue(u);
    return accounts_[u].contrib_psi2;
  }
  std::int64_t work_done(OrgId u) const {
    lazy_accrue(u);
    return accounts_[u].work_done;
  }
  std::int64_t contrib_work(OrgId u) const {
    lazy_accrue(u);
    return accounts_[u].contrib_work;
  }
  // psi2 of every organization (0 for non-members).
  std::vector<HalfUtil> utilities2() const {
    std::vector<HalfUtil> out(num_orgs(), 0);
    for (OrgId u = 0; u < num_orgs(); ++u) out[u] = psi2(u);
    return out;
  }
  // Coalition value 2*v = sum of member utilities. O(1): closed form over
  // the aggregate (total work, total psi2, running count) running sums.
  HalfUtil value2() const { return agg_.value2_at(now_); }
  // Total completed unit parts (the paper's p_tot for this schedule). O(1).
  std::int64_t total_work_done() const {
    const Time d = now_ - agg_.at;
    return agg_.work + static_cast<std::int64_t>(agg_.running) * d;
  }

  // The aggregate running sums behind value2(), exact at `at`.
  struct AggSnapshot {
    std::int64_t work = 0;
    HalfUtil psi2 = 0;
    std::uint32_t running = 0;
    Time at = 0;

    // 2*v at t >= at. Exact while no completion is due in (at, t]; pending
    // releases are harmless, since a waiting job accrues nothing.
    // Engine::value2() is this at now(); the coalition bank reads it at
    // later times off the mirror (see the invariant in
    // sched/coalition_bank.h), and RAND's FCFS value trajectories fold one
    // per start and completion (sched/rand_fair.h).
    HalfUtil value2_at(Time t) const {
      const Time d = t - at;
      return psi2 + 2 * work * d + static_cast<HalfUtil>(running) * d * (d + 1);
    }
    // Makes the sums exact at t, under the same condition; done before
    // every change of `running`.
    void fold_to(Time t) {
      psi2 = value2_at(t);
      work += static_cast<std::int64_t>(running) * (t - at);
      at = t;
    }
  };

  // Registers a write-through mirror of the aggregate sums (nullptr
  // detaches). The engine refreshes *slot whenever the aggregates change,
  // so the coalition bank can read all coalition values from one flat,
  // cache-friendly array instead of chasing a pointer per engine. The slot
  // must outlive the engine or be detached first.
  void mirror_aggregate(AggSnapshot* slot) {
    agg_mirror_ = slot;
    sync_mirror();
  }

  const Schedule& schedule() const { return schedule_; }

  // --- instrumentation ----------------------------------------------------
  // Events processed (releases admitted + completions applied) so far.
  std::uint64_t events_processed() const { return events_processed_; }
  // Scheduling decisions applied (start_front calls) so far.
  std::uint64_t decisions_made() const { return decisions_; }
  // Monotone version of the observable state: bumps on every event and
  // every start. Incremental policies use it to detect missed
  // notifications (PolicyView::state_version).
  std::uint64_t state_version() const { return events_processed_ + decisions_; }

 private:
  // The kRandomFree completion heap's order: time only (see the header
  // note on the tie-break exception).
  struct LaterTime {
    bool operator()(const EngineEvent& a, const EngineEvent& b) const {
      return a.time > b.time;
    }
  };

  struct OrgAccount {
    std::int64_t work_done = 0;      // completed unit parts of own jobs
    HalfUtil psi2 = 0;               // 2 * psi_sp of own jobs
    std::int64_t contrib_work = 0;   // unit parts run on own machines
    HalfUtil contrib_psi2 = 0;       // 2 * value of parts run on own machines
    std::uint32_t running_jobs = 0;  // own jobs currently running
    std::uint32_t busy_machines = 0; // own machines currently busy
    Time accrued_at = 0;             // the accounts above are exact at this time
  };

  // Folds organization u's account forward to now() (exact: the closed
  // form splits across sub-intervals). Called before any read and before
  // any running/busy count change.
  void lazy_accrue(OrgId u) const;
  // Folds the engine-level aggregate sums to now(); must be called before
  // the total running count changes.
  void fold_aggregate();
  // Refreshes the registered aggregate mirror, if any. Must run after every
  // change to agg_ (fold_aggregate, start_front, apply_completion).
  void sync_mirror() {
    if (agg_mirror_ != nullptr) *agg_mirror_ = agg_;
  }
  // Moves the clock (monotone) and notifies the listener.
  void advance_clock(Time t);
  void apply_completion(Time t, OrgId org, MachineId machine);
  void apply_release(OrgId u);
  MachineId pick_machine();

  const Instance* inst_;
  Coalition active_;
  EngineOptions options_;
  Rng rng_;

  // Pending completions, kFirstFree engines (see the header note).
  CalendarQueue calendar_;
  // Pending completions, kRandomFree engines: the time-only heap.
  std::priority_queue<EngineEvent, std::vector<EngineEvent>, LaterTime>
      completions_;
  // Member organizations with a pending release, keyed by the release time
  // of job(u, released_[u]); ties to the lower id (see the header note).
  KeyedArgmin<Time> release_front_;

  // Free machines, kFirstFree flavor: a bitmap over machine ids with a
  // first-possibly-set-word hint. pop_min() returns the lowest free id —
  // the same order the min-heap it replaced produced — in O(1) amortized
  // word scans instead of O(log m) heap percolation.
  class FreeMachineSet {
   public:
    void init(std::uint32_t num_machines) {
      words_.assign((num_machines + 63) / 64, 0);
      first_ = words_.size();
    }
    void insert(MachineId m) {
      const std::size_t w = m >> 6;
      words_[w] |= std::uint64_t{1} << (m & 63);
      if (w < first_) first_ = w;
    }
    // Removes and returns the lowest id. Precondition: not empty.
    MachineId pop_min() {
      while (words_[first_] == 0) ++first_;
      const int bit = __builtin_ctzll(words_[first_]);
      words_[first_] &= words_[first_] - 1;
      return static_cast<MachineId>((first_ << 6) | bit);
    }

   private:
    std::vector<std::uint64_t> words_;
    std::size_t first_ = 0;
  };
  FreeMachineSet free_set_;
  // kRandomFree flavor: flat vector with swap-pop (random draw indexes it).
  std::vector<MachineId> free_list_;

  std::vector<std::uint32_t> released_;
  std::vector<std::uint32_t> started_;
  std::vector<std::uint32_t> completed_;
  // Jobs released_[u] .. release_end_[u]-1 are pending; release_end_ is a
  // member's job count, or its injections so far in external mode.
  std::vector<std::uint32_t> release_end_;
  // External mode: each org's latest injected release (empty otherwise).
  std::vector<Time> last_injected_release_;
  // mutable: const accessors fold lazy accruals forward (single-threaded;
  // see the header note).
  mutable std::vector<OrgAccount> accounts_;
  std::uint32_t waiting_total_ = 0;
  std::uint32_t free_machines_ = 0;
  std::uint32_t total_machines_ = 0;

  // Aggregate running sums behind value2()/total_work_done().
  AggSnapshot agg_;
  AggSnapshot* agg_mirror_ = nullptr;

  std::uint64_t events_processed_ = 0;
  std::uint64_t decisions_ = 0;
  Policy* listener_ = nullptr;

  Time now_ = 0;
  Schedule schedule_;
};

}  // namespace fairsched
