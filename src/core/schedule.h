#pragma once

// Schedule: the set of (job, start time, machine) placements produced by a
// scheduling algorithm (the paper's sigma), plus validators for the three
// feasibility invariants the paper requires:
//   * machine exclusivity — a machine runs at most one job at a time,
//   * per-organization FIFO — an organization's jobs start in index order,
//   * greediness — no machine is left idle while a released, unstarted job
//     is waiting (Section 2, "greedy schedules").

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/types.h"

namespace fairsched {

struct Placement {
  OrgId org = kNoOrg;
  std::uint32_t index = 0;  // job index within the organization
  Time start = 0;
  MachineId machine = kNoMachine;

  friend bool operator==(const Placement&, const Placement&) = default;
  // "(org, index, start, machine)": what a failing test comparison prints.
  friend std::ostream& operator<<(std::ostream& os, const Placement& p) {
    return os << '(' << p.org << ", " << p.index << ", " << p.start << ", "
              << p.machine << ')';
  }
};

class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::uint32_t num_orgs) : starts_(num_orgs) {}

  void add(const Placement& p);

  // Pre-sizes the placement list (performance hint for engines that know
  // the job count up front).
  void reserve(std::size_t n) { placements_.reserve(n); }

  const std::vector<Placement>& placements() const { return placements_; }
  std::size_t size() const { return placements_.size(); }

  // Start time of job (org, index), if it was started.
  std::optional<Time> start_of(OrgId org, std::uint32_t index) const;

  // Completion time given the instance's processing times.
  std::optional<Time> completion_of(const Instance& inst, OrgId org,
                                    std::uint32_t index) const;

  std::uint32_t num_started(OrgId org) const {
    return org < starts_.size()
               ? static_cast<std::uint32_t>(starts_[org].size())
               : 0;
  }

  // --- Validators -------------------------------------------------------
  // Each returns std::nullopt when the invariant holds, otherwise a
  // human-readable description of the first violation found.

  // Machine exclusivity: placements on the same machine do not overlap in
  // [start, start + processing).
  std::optional<std::string> check_machine_exclusive(
      const Instance& inst) const;

  // FIFO: within each organization, start times are non-decreasing in job
  // index, every started job was released, and no job is started before a
  // lower-indexed one of the same organization remains unstarted forever
  // while this one runs (prefix property).
  std::optional<std::string> check_fifo(const Instance& inst) const;

  // Greediness up to `horizon`: at any moment some machine is idle only if
  // no released job is waiting. Checked by sweeping events.
  std::optional<std::string> check_greedy(const Instance& inst,
                                          Time horizon) const;

  // All three checks; nullopt if the schedule is a feasible greedy schedule.
  std::optional<std::string> validate(const Instance& inst,
                                      Time horizon) const;

 private:
  std::vector<Placement> placements_;
  // starts_[org][index] = start time (kNoTime when index gap, which FIFO
  // checking reports).
  std::vector<std::vector<Time>> starts_;
};

}  // namespace fairsched
