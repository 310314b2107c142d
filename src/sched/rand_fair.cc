#include "sched/rand_fair.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <stdexcept>

#include "sched/coalition_bank.h"
#include "util/rng.h"

namespace fairsched {

FcfsValueTrajectory::FcfsValueTrajectory(const Instance& inst, Coalition c,
                                         Time horizon) {
  // FCFS takes the jobs in list order (release, org, index): a job waits
  // only while every machine is busy or a job before it in the list waits.
  // `unused` counts the machines that have run nothing; `busy` holds the
  // others' free times.
  std::vector<std::uint32_t> next(inst.num_orgs(), 0);
  std::uint32_t unused = 0;
  for (Coalition::Mask rest = c.mask(); rest != 0; rest &= rest - 1) {
    unused += inst.machines_of(static_cast<OrgId>(__builtin_ctz(rest)));
  }
  std::priority_queue<Time, std::vector<Time>, std::greater<>> busy;
  for (;;) {
    const Job* job = nullptr;  // the earliest front, ties to the lower org
    for (Coalition::Mask rest = c.mask(); rest != 0; rest &= rest - 1) {
      const OrgId u = static_cast<OrgId>(__builtin_ctz(rest));
      if (next[u] == inst.jobs_of(u).size()) continue;
      const Job& front = inst.job(u, next[u]);
      if (job == nullptr || front.release < job->release) job = &front;
    }
    if (job == nullptr || job->release >= horizon) break;
    ++next[job->org];
    Time start = job->release;
    if (unused > 0) {
      --unused;
    } else if (busy.empty()) {
      break;  // no machine at all
    } else {
      // The pops come out sorted: a start is at least the free time it
      // pops, and every later push is a start plus a positive size.
      start = std::max(start, busy.top());
      completions_.push_back(busy.top());
      busy.pop();
    }
    if (start >= horizon) break;  // starts are nondecreasing
    starts_.push_back(start);
    busy.push(start + job->processing);
  }
  for (; !busy.empty(); busy.pop()) completions_.push_back(busy.top());
  starts_.push_back(kTimeInfinity);
  completions_.push_back(kTimeInfinity);
}

HalfUtil FcfsValueTrajectory::value2_at(Time t) {
  for (;;) {
    const Time start = starts_[next_start_];
    const Time completion = completions_[next_completion_];
    const Time tau = std::min(start, completion);
    if (tau > t) break;
    agg_.fold_to(tau);
    if (start <= completion) {
      ++agg_.running;
      ++next_start_;
    } else {
      --agg_.running;
      ++next_completion_;
    }
  }
  return agg_.value2_at(t);
}

RandScheduler::RandScheduler(const Instance& inst, RandOptions options)
    : inst_(&inst), options_(options), grand_(inst) {
  const std::uint32_t k = inst.num_orgs();
  if (k == 0) throw std::invalid_argument("RandScheduler: empty instance");
  if (k > Coalition::kMaxOrgs) {
    throw std::invalid_argument("RandScheduler: too many organizations");
  }
  if (options.samples == 0) {
    throw std::invalid_argument("RandScheduler: need at least one sample");
  }
  // N random orderings; each prefix pair (C', C' | u) is recorded for u,
  // as masks until the distinct coalitions are numbered.
  Rng rng(options.seed);
  prefix_slots_.resize(k);
  std::map<Coalition::Mask, std::uint32_t> slot_of{{0, 0}};
  for (std::size_t i = 0; i < options.samples; ++i) {
    Coalition::Mask mask = 0;
    for (OrgId u : rng.permutation(k)) {
      const Coalition::Mask with = mask | Coalition::Mask{1} << u;
      prefix_slots_[u].push_back({mask, with});
      slot_of.emplace(with, 0);  // numbered below
      mask = with;
    }
  }
  for (auto& [mask, slot] : slot_of) {
    slot = static_cast<std::uint32_t>(masks_.size());
    masks_.push_back(mask);
  }
  for (auto& pairs : prefix_slots_) {
    for (PrefixPair& pair : pairs) {
      pair = {slot_of[pair.before], slot_of[pair.with]};
    }
  }
}

std::vector<double> RandScheduler::contributions2(Time t) const {
  // Each sampled value once per read; zero before run().
  std::vector<double> values(masks_.size(), 0.0);
  for (std::size_t slot = 0; slot < sampled_.size(); ++slot) {
    values[slot] = static_cast<double>(sampled_[slot].value2_at(t));
  }
  std::vector<double> phi2(prefix_slots_.size(), 0.0);
  for (OrgId u = 0; u < phi2.size(); ++u) {
    double total = 0.0;
    for (const PrefixPair& pair : prefix_slots_[u]) {
      total += values[pair.with] - values[pair.before];
    }
    phi2[u] = total / static_cast<double>(options_.samples);
  }
  return phi2;
}

void RandScheduler::run(Time horizon) {
  if (ran_) throw std::logic_error("RandScheduler::run called twice");
  ran_ = true;
  sampled_.reserve(masks_.size());
  for (const Coalition::Mask mask : masks_) {
    sampled_.emplace_back(*inst_, Coalition(mask), horizon);
  }
  for (;;) {
    const Time t = grand_.next_decision_time();
    if (t == kTimeInfinity || t >= horizon) break;
    grand_.advance_to(t);
    if (!grand_.needs_decision()) continue;
    start_by_deficit(grand_, [&](Coalition) { return contributions2(t); });
  }
  grand_.advance_to(horizon);
}

std::vector<double> RandScheduler::contributions() const {
  std::vector<double> phi2 = contributions2(grand_.now());
  for (double& p : phi2) p /= 2.0;
  return phi2;
}

}  // namespace fairsched
