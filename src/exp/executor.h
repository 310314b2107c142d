#pragma once

// The execution layer of the sweep engine: everything below a SweepPlan.
//
// An Executor turns a plan (exp/sweep_plan.h) into a SweepResult. Two
// implementations:
//
//   * ThreadPoolExecutor — in-process: shards the plan's owned tasks over
//     the shared ThreadPool and folds records through a bounded reorder
//     window in the fixed deterministic order (axis point, workload,
//     instance, policy), so output is bit-identical whatever the thread
//     count. Policy-independent prefixes flow through the WorkloadCache,
//     including its optional disk tier (spec.cache_dir).
//
//   * MultiProcessExecutor — runs one shard per `fairsched_exp
//     shard-worker` session (dist/transport.h) through the distributed
//     dispatcher (dist/dispatcher.h), and folds the shard artifacts
//     (exp/sweep_artifact.h) in plan order. The merged result is
//     bit-identical to a whole single-process run: each per-cell
//     aggregate is computed entirely within one shard, in the same
//     relative fold order a whole run would use.
//
// SweepDriver (exp/sweep.h) is the convenience facade over
// build_sweep_plan + ThreadPoolExecutor for whole in-process runs.

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "exp/sweep_plan.h"

namespace fairsched::dist {
class Dispatcher;
class WorkerTransport;
}  // namespace fairsched::dist

namespace fairsched::exp {

class Executor {
 public:
  using Progress = std::function<void(const std::string& message)>;
  // Streaming per-run consumer, invoked in the deterministic fold order
  // restricted to the plan's shard. Records are not retained by the
  // executor; a sink that needs them later must copy.
  using RecordSink = std::function<void(const RunRecord&)>;

  virtual ~Executor() = default;

  // Executes the plan's owned tasks and returns the aggregate result
  // (cells the shard does not own stay empty). Throws on execution
  // failures; plans are validated at build time.
  virtual SweepResult execute(const SweepPlan& plan,
                              Progress progress = nullptr,
                              RecordSink sink = nullptr) = 0;
};

class WorkloadCache;

class ThreadPoolExecutor final : public Executor {
 public:
  ThreadPoolExecutor() = default;

  // Session mode (exp/dispatch_scenario.cc): `cache` is an externally
  // owned, process-lifetime WorkloadCache reused across execute() calls,
  // so a persistent shard-worker keeps prefixes warm between requests.
  // The cache should be retain-mode (planned use counts span one plan,
  // not a session) and must only be shared across plans with equal
  // fingerprints — in-memory keys are plan-positional. result.cache then
  // reports this call's *delta*, keeping artifacts comparable to a
  // per-run cache.
  explicit ThreadPoolExecutor(WorkloadCache* cache) : external_cache_(cache) {}

  SweepResult execute(const SweepPlan& plan, Progress progress = nullptr,
                      RecordSink sink = nullptr) override;

 private:
  WorkloadCache* external_cache_ = nullptr;
};

class MultiProcessExecutor final : public Executor {
 public:
  // `workers` are the shard workers, one shard each (--processes=N builds
  // `local*N` session transports with exp/scenarios.h build_transports);
  // `request` is the dispatch request every attempt shares
  // (build_dispatch_request). Sharding and the per-worker thread budget
  // travel in the request rather than as flags, so inherited FAIRSCHED_*
  // env vars can neither recurse nor skew the rebuilt plan (the worker
  // refuses on fingerprint mismatch). Artifacts land in a scratch
  // directory removed with the executor; sessions stay open across
  // execute() calls.
  MultiProcessExecutor(
      std::vector<std::unique_ptr<dist::WorkerTransport>> workers,
      dist::DispatchRequest request);
  ~MultiProcessExecutor() override;

  // Dispatches the shards, waits, merges their artifacts. The plan must
  // be the whole-run plan the request was built for (shard {0, 1});
  // per-run sinks are not supported across process boundaries
  // (--stream-records within a shard still is) and a non-null `sink` is
  // rejected. Throws std::runtime_error when a worker fails — one attempt
  // per shard: a local worker that dies signals a bug, not a flaky
  // network.
  SweepResult execute(const SweepPlan& plan, Progress progress = nullptr,
                      RecordSink sink = nullptr) override;

 private:
  dist::DispatchRequest request_;
  std::filesystem::path scratch_;
  std::unique_ptr<dist::Dispatcher> dispatcher_;
};

}  // namespace fairsched::exp
