#pragma once

// The worker-transport seam of the distributed dispatcher.
//
// A WorkerTransport runs one attempt of one shard somewhere — a session
// worker on this host, one on a remote host over ssh, or (in tests) an
// in-memory double that injects failures — and reports what happened as
// an Outcome instead of throwing: per-attempt failures are routine events
// the Dispatcher retries, not exceptions.
//
// PersistentTransport is the one process-backed transport. Every shard
// that runs outside the dispatcher's process runs over a protocol-v2
// session: one long-lived `shard-worker --session` child (possibly
// ssh-wrapped) serves every run_shard call over a single connection,
// keeping its in-memory WorkloadCache and parsed plan warm across shards.
// A timeout or protocol error tears the session down and the next
// run_shard respawns it. Each child runs in its own process group, so a
// kill reaches wrapper descendants (`sh -c`, ssh command scripts) too.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/dispatch_log.h"
#include "dist/protocol.h"

namespace fairsched::dist {

class WorkerTransport {
 public:
  struct Outcome {
    enum class Status {
      kArtifact,  // payload holds the (unvalidated) artifact JSON
      kFailed,    // the attempt failed; detail says how
      kTimeout,   // the deadline expired; the worker process was killed
    };
    Status status = Status::kFailed;
    std::string payload;
    std::string detail;  // diagnostic for the dispatch log
  };

  // Sentinel for thread_override(): keep the dispatcher's request value.
  static constexpr std::size_t kNoThreadOverride =
      static_cast<std::size_t>(-1);

  virtual ~WorkerTransport() = default;

  // Stable display name ("local#0", "ssh:hostb"), used in the dispatch
  // log and the dry-run assignment plan.
  virtual const std::string& name() const = 0;

  // Runs one attempt of request.shard, blocking until it completes, fails
  // or times out (timeout 0 = unbounded). Routine failures come back as
  // Outcomes; a thrown exception means the transport itself is broken and
  // retires this worker.
  virtual Outcome run_shard(const DispatchRequest& request,
                            std::chrono::milliseconds timeout) = 0;

  // Best-effort cancellation of a run_shard in flight on another thread —
  // the dispatcher cancels losing speculative duplicates so their workers
  // free up immediately. Default: no-op (the attempt runs to completion
  // and its outcome is ignored). Must be thread-safe.
  virtual void cancel_inflight() {}

  // One human summary line for the end-of-dispatch per-worker report
  // ("4 shard(s) over 1 session(s), cache 30 hit(s)..."); "" = nothing
  // to report.
  virtual std::string summary() const { return ""; }

  // Per-worker request.threads override applied to every attempt this
  // transport runs. 0 = the worker's own hardware concurrency (the remote
  // default — dist/protocol.h); kNoThreadOverride = keep the dispatcher's
  // value. Set for remote workers dispatched without --worker-threads,
  // whose budget must not be derived from the *local* host's cores.
  void set_thread_override(std::size_t threads) {
    thread_override_ = threads;
  }
  std::size_t thread_override() const { return thread_override_; }

 private:
  std::size_t thread_override_ = kNoThreadOverride;
};

// The argv that starts a session worker: `program shard-worker --session`,
// prefixed by `ssh_command host` for a remote worker (empty `host` = this
// host). ssh joins the remote tokens with spaces for the remote shell, so
// remote program paths must not contain shell metacharacters.
std::vector<std::string> session_worker_argv(
    const std::string& program, const std::vector<std::string>& ssh_command,
    const std::string& host);

// One long-lived session worker (protocol v2). `session_argv` spawns the
// resident peer (`program shard-worker --session`, possibly ssh-wrapped —
// see session_worker_argv). Lifecycle:
//
//   * the session is opened lazily by the first run_shard and reused by
//     every later one; each request is written to the live child and one
//     hello/artifact stream is read back incrementally;
//   * timeout, EOF, or a protocol error tears the session down (SIGKILL
//     to the child's process group) and the attempt reports
//     kTimeout/kFailed — the dispatcher requeues the shard, and the next
//     run_shard (any shard) respawns a fresh session. Remaining shards are
//     never lost with the session. A session that ends before its
//     artifact is reaped first, so the failure names the child's exit
//     code or signal;
//   * an artifact frame with no session hello before it is a one-shot
//     protocol-v1 peer (binary skew): the attempt fails with a message
//     naming both protocol versions;
//   * cancel_inflight kills the live child's process group, so a losing
//     speculative duplicate frees its worker immediately (cost: the next
//     shard on this worker starts a cold session);
//   * the destructor sends a goodbye frame and closes the child's stdin,
//     escalating to SIGKILL when the child does not exit promptly.
//
// run_shard must stay single-callered (the dispatcher's one worker thread
// per transport); cancel_inflight is the only concurrent entry point.
class PersistentTransport final : public WorkerTransport {
 public:
  struct SessionStats {
    std::size_t opens = 0;     // sessions spawned, respawns included
    std::size_t served = 0;    // artifacts received over sessions
    std::size_t hello_threads = 0;  // worker-reported hardware concurrency
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t replayed = 0;
  };

  // `log` is optional (session-open/close events) and must outlive the
  // transport when given.
  PersistentTransport(std::string name, std::vector<std::string> session_argv,
                      DispatchLog* log = nullptr);
  ~PersistentTransport() override;

  const std::string& name() const override { return name_; }
  Outcome run_shard(const DispatchRequest& request,
                    std::chrono::milliseconds timeout) override;
  void cancel_inflight() override;
  std::string summary() const override;

  SessionStats session_stats() const;
  // 0 until the first session hello arrives.
  std::size_t hello_threads() const;

 private:
  // All require mu_ held. teardown_locked returns the child's wait
  // status: with `kill_child` the whole process group is killed at once,
  // otherwise the child gets a short grace period to exit on its own.
  bool open_session_locked(std::string* error);
  int teardown_locked(const char* reason, bool kill_child);

  std::string name_;
  std::vector<std::string> session_argv_;
  DispatchLog* log_;

  mutable std::mutex mu_;  // guards everything below (vs cancel_inflight)
  pid_t pid_ = -1;
  int in_fd_ = -1;   // dispatcher -> worker stdin
  int out_fd_ = -1;  // worker stdout -> dispatcher
  std::string buffer_;      // unconsumed session bytes
  bool hello_seen_ = false;  // this session produced its hello frame
  bool inflight_ = false;
  bool cancel_requested_ = false;
  SessionStats stats_;
};

}  // namespace fairsched::dist
