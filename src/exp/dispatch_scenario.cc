// `fairsched_exp dispatch` and `fairsched_exp shard-worker` — the CLI
// shell over the distributed dispatcher (src/dist, docs/DISTRIBUTED.md).
//
// dispatch builds the sweep exactly like the single-host subcommand
// would, then hands the whole-run plan to dist::Dispatcher with one
// session transport per --workers/--hosts entry. The request each worker
// receives carries the original argv (minus orchestration/reporting/
// dispatch flags) so the worker rebuilds the identical spec; a --config
// file's bytes ride along in the request, so remote hosts need no shared
// filesystem. shard-worker is the other end of that protocol. The same
// transport and request builders serve --processes=N (exp/scenarios.h).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "dist/dispatcher.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "exp/executor.h"
#include "exp/reporter.h"
#include "exp/scenarios.h"
#include "exp/sweep_artifact.h"
#include "exp/sweep_plan.h"
#include "exp/workload_cache.h"
#include "strategy/game.h"
#include "util/cli.h"

namespace fairsched::exp {

namespace {

// Drops `--name=value`, `--name value` and bare `--name` occurrences of
// the given flags from a raw argv tail.
std::vector<std::string> drop_flag_tokens(
    const std::vector<std::string>& args,
    const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& token = args[i];
    bool dropped = false;
    for (const std::string& name : names) {
      const std::string bare = "--" + name;
      if (token == bare) {
        // `--name value` consumes the value token too (mirrors Flags).
        if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) ++i;
        dropped = true;
        break;
      }
      if (token.rfind(bare + "=", 0) == 0) {
        dropped = true;
        break;
      }
    }
    if (!dropped) out.push_back(token);
  }
  return out;
}

void append_worker_entry(const std::string& entry, const std::string& where,
                         std::vector<WorkerSpec>& specs) {
  std::string base = entry;
  std::size_t count = 1;
  const std::size_t star = entry.rfind('*');
  if (star != std::string::npos) {
    base = trim_whitespace(entry.substr(0, star));
    const std::string multiplier = trim_whitespace(entry.substr(star + 1));
    try {
      std::size_t consumed = 0;
      count = std::stoul(multiplier, &consumed);
      if (consumed != multiplier.size() || count == 0) {
        throw std::invalid_argument(multiplier);
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("worker entry '" + entry + "' (" + where +
                                  "): the *N multiplier must be a positive "
                                  "integer");
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    WorkerSpec spec;
    if (base == "local") {
      spec.local = true;
    } else if (base.rfind("ssh:", 0) == 0 && base.size() > 4) {
      spec.local = false;
      spec.host = base.substr(4);
    } else {
      throw std::invalid_argument(
          "worker entry '" + entry + "' (" + where +
          ") must be `local` or `ssh:HOST`, optionally with a *N "
          "multiplier");
    }
    specs.push_back(std::move(spec));
  }
}

}  // namespace

std::vector<WorkerSpec> parse_worker_specs(const std::string& workers,
                                           const std::string& hosts_path) {
  std::vector<WorkerSpec> specs;
  for (const std::string& entry : split_and_trim(workers, ',')) {
    append_worker_entry(entry, "--workers", specs);
  }
  if (!hosts_path.empty()) {
    std::ifstream hosts(hosts_path);
    if (!hosts) {
      throw std::invalid_argument("cannot open --hosts file: " + hosts_path);
    }
    std::string line;
    while (std::getline(hosts, line)) {
      const std::size_t comment = line.find('#');
      if (comment != std::string::npos) line = line.substr(0, comment);
      line = trim_whitespace(line);
      if (line.empty()) continue;
      append_worker_entry(line, hosts_path, specs);
    }
  }
  if (specs.empty()) {
    append_worker_entry("local", "default", specs);
    append_worker_entry("local", "default", specs);
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = (specs[i].local ? "local" : "ssh:" + specs[i].host) +
                    "#" + std::to_string(i);
  }
  return specs;
}

std::vector<std::unique_ptr<dist::WorkerTransport>> build_transports(
    const std::vector<WorkerSpec>& specs, const ScenarioOptions& options,
    dist::DispatchLog* log) {
  if (options.program.empty()) {
    throw std::invalid_argument(
        "out-of-process workers need the harness's own binary path; run "
        "through fairsched_exp");
  }
  const std::vector<std::string> ssh_command =
      split_and_trim(options.ssh_command, ' ');
  const std::string remote_program = options.remote_program.empty()
                                         ? options.program
                                         : options.remote_program;
  std::vector<std::unique_ptr<dist::WorkerTransport>> transports;
  transports.reserve(specs.size());
  for (const WorkerSpec& spec : specs) {
    auto transport = std::make_unique<dist::PersistentTransport>(
        spec.name,
        dist::session_worker_argv(spec.local ? options.program
                                             : remote_program,
                                  ssh_command, spec.local ? "" : spec.host),
        log);
    if (!spec.local && !options.worker_threads_explicit) {
      // Remote thread-budget fix: without --worker-threads the request
      // would carry a share of the *local* host's budget; send 0 instead,
      // which the worker resolves to its own hardware concurrency
      // (dist/protocol.h).
      transport->set_thread_override(0);
    }
    transports.push_back(std::move(transport));
  }
  return transports;
}

dist::DispatchRequest build_dispatch_request(const ScenarioOptions& options,
                                             const std::string& scenario,
                                             const SweepPlan& plan,
                                             std::size_t worker_count) {
  dist::DispatchRequest request;
  request.fingerprint = plan.fingerprint;
  if (options.worker_threads) {
    request.threads = options.worker_threads;
  } else {
    // Local-first default: split this host's thread budget (the spec's
    // threads, or the hardware concurrency they default to) across the
    // workers — N workers each running a full-size pool would
    // oversubscribe it N-fold and run *slower* than one process.
    // Genuinely remote fleets should set --worker-threads.
    const std::size_t budget =
        plan.spec.threads ? plan.spec.threads
                          : std::max<std::size_t>(
                                1, std::thread::hardware_concurrency());
    request.threads = std::max<std::size_t>(1, budget / worker_count);
  }
  request.args.push_back(scenario);
  std::vector<std::string> tail;
  if (!options.raw_args.empty()) {
    tail.assign(options.raw_args.begin() + 1, options.raw_args.end());
  }
  tail = drop_flag_tokens(
      tail, {"processes", "shard", "partial-out", "csv", "json",
             "stream-records", "threads", "config", "workers", "hosts",
             "ssh-cmd", "remote-program", "sweep", "shards",
             "worker-threads", "timeout-ms", "retries", "backoff-ms",
             "backoff-cap-ms", "artifact-dir", "dispatch-log", "resume",
             "dry-run", "speculate", "speculate-factor", "dispatch-bench",
             "bench-repeats"});
  request.args.insert(request.args.end(), tail.begin(), tail.end());
  if (!options.config_path.empty()) {
    std::ifstream config(options.config_path, std::ios::binary);
    if (!config) {
      throw std::invalid_argument("cannot read --config file to embed: " +
                                  options.config_path);
    }
    std::ostringstream content;
    content << config.rdbuf();
    request.config_content = content.str();
    request.config_name =
        std::filesystem::path(options.config_path).filename().string();
  }
  return request;
}

namespace {

void print_worker_summaries(const dist::Dispatcher& dispatcher,
                            std::FILE* human) {
  for (const auto& worker : dispatcher.workers()) {
    const std::string line = worker->summary();
    if (!line.empty()) {
      std::fprintf(human, "  worker %s: %s\n", worker->name().c_str(),
                   line.c_str());
    }
  }
}

// --dispatch-bench: run the identical dispatch --bench-repeats times over
// one set of sessions (the Dispatcher is reused, so sessions — and their
// caches — stay warm across repeats), assert every repeat's CSV equals
// the in-process whole run's, and write the BENCH_dispatch.json record CI
// gates against bench/baselines/dispatch.json. Repeat 1 is the cold
// session (spawn + first plan parse + cold cache); the warm wall is the
// median of repeats 2+, so cold over warm is what a session amortizes.
// Work stealing may move a shard to a session that has not cached its
// prefixes yet; each session misses a prefix at most once, and the median
// keeps those re-warming repeats out of the warm wall when enough repeats
// run.
int run_dispatch_bench(const ScenarioOptions& options, const SweepPlan& plan,
                       const std::vector<WorkerSpec>& specs,
                       const dist::DispatchOptions& dispatch_options,
                       const dist::DispatchRequest& request,
                       dist::DispatchLog* log, std::FILE* human) {
  const std::size_t repeats = std::max<std::size_t>(2, options.bench_repeats);
  auto csv_of = [](const SweepSpec& spec, const SweepResult& result) {
    std::ostringstream out;
    CsvReporter csv(out);
    csv.report(spec, result);
    return out.str();
  };
  auto elapsed_ms = [](std::chrono::steady_clock::time_point since) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
  };
  dist::Dispatcher dispatcher(build_transports(specs, options, log),
                              dispatch_options, log);
  auto session_totals = [&dispatcher] {
    dist::PersistentTransport::SessionStats totals;
    for (const auto& worker : dispatcher.workers()) {
      // build_transports builds only session transports.
      const dist::PersistentTransport::SessionStats stats =
          static_cast<const dist::PersistentTransport&>(*worker)
              .session_stats();
      totals.opens += stats.opens;
      totals.served += stats.served;
      totals.cache_hits += stats.cache_hits;
      totals.cache_misses += stats.cache_misses;
      totals.disk_hits += stats.disk_hits;
      totals.replayed += stats.replayed;
    }
    return totals;
  };
  std::vector<std::string> csvs;
  std::vector<double> session_ms;
  std::uint64_t cold_cache_misses = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto started = std::chrono::steady_clock::now();
    const MergedSweep merged = dispatcher.run(plan, request);
    session_ms.push_back(elapsed_ms(started));
    csvs.push_back(csv_of(merged.spec, merged.result));
    if (r == 0) cold_cache_misses = session_totals().cache_misses;
    std::fprintf(human, "  session repeat %zu/%zu: %.1f ms\n", r + 1,
                 repeats, session_ms.back());
    std::fflush(human);
  }
  const dist::PersistentTransport::SessionStats totals = session_totals();
  print_worker_summaries(dispatcher, human);
  // The whole run goes last, so a --cache-dir it fills cannot warm the
  // cold repeat.
  ThreadPoolExecutor in_process;
  const std::string whole_csv = csv_of(plan.spec, in_process.execute(plan));
  for (const std::string& csv : csvs) {
    if (csv != whole_csv) {
      throw std::runtime_error(
          "--dispatch-bench: the dispatched CSV differs from the in-process "
          "whole run's — the dispatch-determinism contract is broken");
    }
  }

  std::vector<double> warm(session_ms.begin() + 1, session_ms.end());
  std::sort(warm.begin(), warm.end());
  const std::size_t mid = warm.size() / 2;
  const double session_cold = session_ms.front();
  const double session_warm =
      warm.size() % 2 ? warm[mid] : (warm[mid - 1] + warm[mid]) / 2.0;
  const double cold_warm_ratio =
      session_warm > 0.0 ? session_cold / session_warm : 0.0;
  std::fprintf(human,
               "dispatch bench: session cold %.1f ms, warm %.1f ms, "
               "cold/warm %.2fx, %zu session(s) served %zu shard(s)\n",
               session_cold, session_warm, cold_warm_ratio, totals.opens,
               totals.served);

  std::ostringstream json;
  json << "{\n";
  json << "  \"benchmark\": \"dispatch\",\n";
  json << "  \"sweep\": \"" << options.sweep << "\",\n";
  json << "  \"workers\": " << specs.size() << ",\n";
  json << "  \"shards\": " << dispatch_options.shard_count << ",\n";
  json << "  \"repeats\": " << repeats << ",\n";
  json << "  \"session_ms\": [";
  for (std::size_t i = 0; i < session_ms.size(); ++i) {
    if (i) json << ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", session_ms[i]);
    json << buf;
  }
  json << "],\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", session_cold);
  json << "  \"session_cold_ms\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.3f", session_warm);
  json << "  \"session_warm_ms\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.3f", cold_warm_ratio);
  json << "  \"cold_warm_ratio\": " << buf << ",\n";
  json << "  \"session_opens\": " << totals.opens << ",\n";
  json << "  \"session_served\": " << totals.served << ",\n";
  json << "  \"cache_hits\": " << totals.cache_hits << ",\n";
  json << "  \"cache_misses\": " << totals.cache_misses << ",\n";
  json << "  \"cold_cache_misses\": " << cold_cache_misses << ",\n";
  json << "  \"disk_hits\": " << totals.disk_hits << ",\n";
  json << "  \"replayed\": " << totals.replayed << ",\n";
  json << "  \"csv_matches_whole_run\": true\n";
  json << "}\n";

  const std::string json_path =
      options.json_path.empty() ? "BENCH_dispatch.json" : options.json_path;
  if (json_path == "-") {
    std::fputs(json.str().c_str(), stdout);
  } else {
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open bench output: %s\n",
                   json_path.c_str());
      return 2;
    }
    out << json.str();
    std::fprintf(human, "wrote dispatch bench record: %s\n",
                 json_path.c_str());
  }
  return 0;
}

}  // namespace

int run_dispatch_scenario(const ScenarioOptions& options) {
  if (!options.shard.empty() || !options.partial_out.empty() ||
      options.processes > 1) {
    throw std::invalid_argument(
        "dispatch does its own sharding; --shard/--partial-out/--processes "
        "belong to single-host execution");
  }
  if (!options.stream_records_path.empty()) {
    throw std::invalid_argument(
        "--stream-records does not cross host boundaries; run shards "
        "explicitly (--shard=i/N) to keep per-shard streams");
  }

  const SweepSpec spec = make_scenario_sweep(options.sweep, options);
  const SweepPlan plan = build_sweep_plan(spec, PolicyRegistry::global());
  const std::vector<WorkerSpec> specs =
      parse_worker_specs(options.workers_spec, options.hosts_path);
  const std::size_t shard_count =
      options.dispatch_shards ? options.dispatch_shards : specs.size();

  if (options.dry_run) {
    std::vector<std::string> names;
    names.reserve(specs.size());
    for (const WorkerSpec& spec_entry : specs) {
      names.push_back(spec_entry.name);
    }
    dist::write_dispatch_plan_json(std::cout, plan, shard_count, names);
    return 0;
  }

  const bool machine_stdout = options.csv_path == "-" ||
                              options.json_path == "-";
  std::FILE* human = machine_stdout ? stderr : stdout;
  if (!spec.title.empty()) std::fprintf(human, "%s\n", spec.title.c_str());
  std::fprintf(human, "dispatching %zu shard(s) over %zu worker(s)%s\n",
               shard_count, specs.size(),
               options.speculate ? " [speculative re-execution]" : "");

  bool any_remote = false;
  for (const WorkerSpec& spec_entry : specs) {
    if (!spec_entry.local) any_remote = true;
  }
  if (any_remote && !options.worker_threads_explicit) {
    // The remote thread-budget footgun: without --worker-threads the
    // request's thread count is the *local* budget divided by the worker
    // count, which is meaningless on another host. build_transports
    // already overrides remote requests to threads=0 (worker hardware
    // concurrency); say so loudly.
    std::fprintf(stderr,
                 "warning: remote workers without --worker-threads — each "
                 "remote worker will use its own hardware concurrency "
                 "instead of a share of this host's budget; pass "
                 "--worker-threads=N to pin remote parallelism\n");
  }

  dist::DispatchOptions dispatch_options;
  dispatch_options.shard_count = shard_count;
  dispatch_options.shard_timeout =
      std::chrono::milliseconds(options.timeout_ms);
  dispatch_options.max_attempts = options.retries + 1;
  dispatch_options.backoff = std::chrono::milliseconds(options.backoff_ms);
  dispatch_options.backoff_cap =
      std::chrono::milliseconds(options.backoff_cap_ms);
  dispatch_options.artifact_dir = options.artifact_dir;
  dispatch_options.resume = options.resume_dispatch;
  dispatch_options.speculate = options.speculate;
  dispatch_options.speculate_factor = options.speculate_factor;
  if (options.dispatch_bench && options.resume_dispatch) {
    throw std::invalid_argument(
        "--dispatch-bench re-runs the same dispatch repeatedly; --resume "
        "would reuse the first repeat's artifacts and time nothing");
  }

  std::filesystem::create_directories(options.artifact_dir);
  const std::string log_path =
      options.dispatch_log_path.empty()
          ? options.artifact_dir + "/dispatch.log.jsonl"
          : options.dispatch_log_path;
  // Append: a --resume invocation extends the first run's log, so the
  // whole history of a recovered dispatch reads as one file.
  std::ofstream log_file(log_path, std::ios::app);
  if (!log_file) {
    std::fprintf(stderr, "cannot open dispatch log: %s\n", log_path.c_str());
    return 2;
  }
  dist::DispatchLog log(log_file);

  const dist::DispatchRequest request =
      build_dispatch_request(options, options.sweep, plan, specs.size());
  if (options.dispatch_bench) {
    return run_dispatch_bench(options, plan, specs, dispatch_options,
                              request, &log, human);
  }
  dist::Dispatcher dispatcher(build_transports(specs, options, &log),
                              dispatch_options, &log);
  const MergedSweep merged = dispatcher.run(
      plan, request, [human](const std::string& message) {
        std::fprintf(human, "  finished %s\n", message.c_str());
        std::fflush(human);
      });
  const dist::DispatchStats& stats = dispatcher.stats();
  std::fprintf(human,
               "dispatch done: %zu shard(s), %zu attempt(s), %zu "
               "failure(s), %zu resumed, %zu quarantined; log: %s\n",
               stats.shard_count, stats.attempts, stats.failed_attempts,
               stats.resumed, stats.quarantined, log_path.c_str());
  if (options.speculate) {
    std::fprintf(human,
                 "  speculation: %zu duplicate attempt(s), %zu finished "
                 "second (digest-identical), %zu canceled\n",
                 stats.speculative, stats.duplicate_losses,
                 stats.duplicate_canceled);
  }
  print_worker_summaries(dispatcher, human);

  const SweepResult& result = merged.result;
  TableReporter table(machine_stdout ? std::cerr : std::cout);
  table.report(merged.spec, result);
  // Strategy sweeps report manipulation gain over the merged cells —
  // byte-identical to the single-host run's report, since both derive
  // from (spec, cell aggregates) alone.
  int thm41_rc = 0;
  if (merged.spec.is_strategy()) {
    strategy::print_strategy_report(merged.spec, result,
                                    machine_stdout ? std::cerr : std::cout);
    if (options.check_thm41) {
      thm41_rc = strategy::check_theorem41(
                     merged.spec, result, options.thm41_tolerance,
                     machine_stdout ? std::cerr : std::cout)
                     ? 1
                     : 0;
    }
  }
  if (!spec.note.empty()) std::fprintf(human, "\n%s\n", spec.note.c_str());

  if (!options.csv_path.empty()) {
    if (options.csv_path == "-") {
      CsvReporter csv(std::cout);
      csv.report(merged.spec, result);
    } else {
      std::ofstream out(options.csv_path);
      if (!out) {
        std::fprintf(stderr, "cannot open CSV output: %s\n",
                     options.csv_path.c_str());
        return 2;
      }
      CsvReporter csv(out);
      csv.report(merged.spec, result);
      std::fprintf(human, "wrote CSV: %s\n", options.csv_path.c_str());
    }
  }
  if (!options.json_path.empty()) {
    if (options.json_path == "-") {
      JsonReporter json(std::cout);
      json.report(merged.spec, result);
    } else {
      std::ofstream out(options.json_path);
      if (!out) {
        std::fprintf(stderr, "cannot open JSON output: %s\n",
                     options.json_path.c_str());
        return 2;
      }
      JsonReporter json(out);
      json.report(merged.spec, result);
      std::fprintf(human, "wrote perf baseline: %s\n",
                   options.json_path.c_str());
    }
  }
  return thm41_rc;
}

namespace {

// Scratch directory for a worker's embedded config, removed on exit.
struct WorkerScratch {
  std::filesystem::path dir;
  ~WorkerScratch() {
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

std::string sanitize_filename(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    out += ok ? c : '_';
  }
  return out.empty() ? "sweep.config" : out;
}

// The session worker's process-lifetime cache and the identity it was
// built for. In-memory cache keys are plan-positional ("p|g|w|i"), so the
// cache is only reusable across requests whose plans fingerprint equal;
// any identity change rebuilds it from scratch.
struct SessionCache {
  std::unique_ptr<WorkloadCache> cache;
  std::uint64_t fingerprint = 0;
  std::size_t bytes = 0;
  std::string dir;
};

// One dispatch request of a session: rebuild the spec from the request
// args, refuse on fingerprint mismatch, execute the shard, frame the
// artifact to stdout. Returns false when stdout failed (the session must
// end — the dispatcher's framing is broken).
bool serve_dispatch_request(const dist::DispatchRequest& request_in,
                            SessionCache* session, std::size_t sequence) {
  dist::DispatchRequest request = request_in;
  WorkerScratch scratch;
  if (!request.config_content.empty() || !request.config_name.empty()) {
    scratch.dir = std::filesystem::temp_directory_path() /
                  ("fairsched-worker-" + std::to_string(::getpid()) + "-" +
                   std::to_string(sequence));
    std::filesystem::create_directories(scratch.dir);
    const std::filesystem::path config_path =
        scratch.dir / sanitize_filename(request.config_name);
    std::ofstream out(config_path, std::ios::binary);
    out.write(request.config_content.data(),
              static_cast<std::streamsize>(request.config_content.size()));
    out.flush();
    if (!out.good()) {
      throw std::runtime_error("shard-worker: cannot write embedded config "
                               "to " +
                               config_path.string());
    }
    request.args.push_back("--config=" + config_path.string());
  }

  const std::string command = request.args.front();
  // Flags skips argv[0] (the program slot); the subcommand fills it.
  std::vector<const char*> argv;
  argv.reserve(request.args.size());
  for (const std::string& arg : request.args) argv.push_back(arg.c_str());
  const Flags flags(static_cast<int>(argv.size()), argv.data());
  ScenarioOptions options = scenario_options_from_flags(flags);

  SweepSpec spec = make_scenario_sweep(command, options);
  // The dispatcher owns the thread budget; the request's value beats both
  // the spec default and any FAIRSCHED_THREADS in this host's
  // environment. 0 = this worker's own hardware concurrency
  // (dist/protocol.h) — the remote-fleet default.
  spec.threads = request.threads;

  const SweepPlan plan =
      build_sweep_plan(spec, PolicyRegistry::global(),
                       SweepShard{request.shard, request.shard_count});
  if (plan.fingerprint != request.fingerprint) {
    // The dispatch-determinism contract's front door: a worker whose
    // rebuilt plan differs (version skew, stray FAIRSCHED_* env var,
    // different registry) must refuse before spending any compute —
    // its artifact could never merge anyway.
    throw std::runtime_error(
        "shard-worker: rebuilt plan fingerprint does not match the "
        "request; this worker would compute a different sweep (check for "
        "binary version skew or FAIRSCHED_* environment overrides)");
  }

  if (!session->cache || session->fingerprint != plan.fingerprint ||
      session->bytes != spec.cache_bytes || session->dir != spec.cache_dir) {
    session->cache = std::make_unique<WorkloadCache>(
        spec.cache_bytes, spec.cache_dir, /*retain=*/true);
    session->fingerprint = plan.fingerprint;
    session->bytes = spec.cache_bytes;
    session->dir = spec.cache_dir;
  }
  ThreadPoolExecutor executor(session->cache.get());
  const SweepResult result = executor.execute(plan);

  std::ostringstream artifact;
  write_shard_artifact(artifact, plan, result);
  // The stat footer feeds the dispatcher's per-worker session summary.
  // Counters are this call's delta (exp/executor.h), so the artifact
  // stays comparable to a per-run-cache worker's.
  const std::vector<std::pair<std::string, std::uint64_t>> stats = {
      {"cache_hits", result.cache.hits},
      {"cache_misses", result.cache.misses},
      {"disk_hits", result.cache.disk_hits},
      {"replayed", result.replayed_runs},
  };
  dist::write_session_artifact_frame(std::cout, request.shard,
                                     request.shard_count, artifact.str(),
                                     stats);
  std::cout.flush();
  if (!std::cout.good()) {
    std::fprintf(stderr, "shard-worker: failed writing artifact frame\n");
    return false;
  }
  std::fprintf(stderr, "shard-worker: shard %zu/%zu done (%zu of %zu "
                       "tasks)\n",
               request.shard, request.shard_count, plan.shard_tasks.size(),
               plan.num_tasks);
  return true;
}

}  // namespace

int run_shard_worker_scenario() {
  // Protocol v2: announce the session (the hello doubles as the version
  // handshake and carries this host's hardware concurrency for the
  // dispatcher's remote thread-budget default), then serve request after
  // request over the same connection. The workload cache outlives
  // requests, so later shards of the same plan re-serve each other's
  // prefixes instead of recomputing them.
  dist::SessionHello hello;
  hello.threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  dist::write_session_hello(std::cout, hello);
  std::cout.flush();
  if (!std::cout.good()) {
    std::fprintf(stderr, "shard-worker: failed writing session hello\n");
    return 2;
  }

  SessionCache cache;
  std::size_t served = 0;
  while (true) {
    dist::DispatchRequest request;
    switch (dist::read_session_command(std::cin, &request)) {
      case dist::SessionCommand::kGoodbye:
        std::fprintf(stderr,
                     "shard-worker: session goodbye after %zu shard(s)\n",
                     served);
        return 0;
      case dist::SessionCommand::kEof:
        // The dispatcher hung up (done, or tearing this session down).
        std::fprintf(stderr,
                     "shard-worker: session eof after %zu shard(s)\n",
                     served);
        return 0;
      case dist::SessionCommand::kRequest:
        break;
    }
    if (!serve_dispatch_request(request, &cache, served)) return 2;
    ++served;
  }
}

}  // namespace fairsched::exp
