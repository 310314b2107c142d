// perfbench_harness: the C++ half of the fairsched benchmark (perfbench/run.py
// is the other half). It links the fairsched library, drives the
// fairsched_exp binary for the dispatched workload, and prints one JSON
// object per invocation on stdout.
//
//   perfbench_harness gen       --workload W --seed S --size full|tiny --dir D
//   perfbench_harness run       ... --threads N   one timed iteration
//   perfbench_harness reference ... --threads N   the independent output
//   perfbench_harness trace     ... --threads N --seconds T
//
// Workloads:
//   table1-full     `fairsched_exp table1` at paper size, in-process.
//   serve-100k      one ServeSession (fairshare) over a generated trace
//                   read through TraceEventSource.
//   sweep-dispatch  `fairsched_exp dispatch --persistent-workers` over a
//                   custom sweep, as a child process.
//
// `run` is one timed iteration: set-up, the measured work, and the digest
// of the program's output (sweep CSV, or serve decision stream).
// `reference` computes the same digest by an independent path: a
// layer-by-layer recomputation of the sweep (table1-full), replay_batch on
// the materialized trace (serve-100k), or the in-process sharded custom run
// (sweep-dispatch). `trace` runs the program path and the independent path
// in one process, untraced and then traced, and reports per-layer metrics.

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/instance.h"
#include "exp/executor.h"
#include "exp/policy_registry.h"
#include "exp/reporter.h"
#include "exp/scenarios.h"
#include "exp/sweep.h"
#include "exp/sweep_artifact.h"
#include "exp/sweep_plan.h"
#include "metrics/fairness.h"
#include "metrics/utility.h"
#include "sched/rand_fair.h"
#include "sched/ref.h"
#include "serve/event_source.h"
#include "serve/session.h"
#include "sim/engine.h"
#include "trace.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/latency_histogram.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace fairsched;
using namespace fairsched::exp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string command;
  std::string workload;
  std::string size = "full";
  std::string dir;
  std::uint64_t seed = 2013;
  std::size_t threads = 1;
  double seconds = 0.0;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench_harness CMD ...");
  Args args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--size") {
      args.size = value;
    } else if (key == "--dir") {
      args.dir = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--threads") {
      args.threads = std::stoul(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.workload != "table1-full" && args.workload != "serve-100k" &&
      args.workload != "sweep-dispatch") {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  if (args.size != "full" && args.size != "tiny") {
    throw std::invalid_argument("--size must be full or tiny");
  }
  if (args.dir.empty()) throw std::invalid_argument("--dir is required");
  if (args.threads == 0) args.threads = 1;
  return args;
}

// --- Output digests ----------------------------------------------------------

// FNV-1a 64 over every byte written: the digest of a CSV document or a
// decision stream, computed without holding it in memory.
class DigestBuf final : public std::streambuf {
 public:
  std::uint64_t digest() const { return hash_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) feed(static_cast<char>(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) feed(s[i]);
    return n;
  }

 private:
  void feed(char c) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
  std::uint64_t hash_ = 14695981039346656037ull;
};

class DigestStream final : public std::ostream {
 public:
  DigestStream() : std::ostream(&buf_) {}
  std::uint64_t digest() const { return buf_.digest(); }

 private:
  DigestBuf buf_;
};

std::string hex(std::uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

std::string csv_digest(const SweepSpec& spec, const SweepResult& result) {
  DigestStream out;
  CsvReporter(out).report(spec, result);
  return hex(out.digest());
}

// --- JSON output -------------------------------------------------------------

// One flat JSON object, keys in insertion order.
class JsonOut {
 public:
  void num(const std::string& key, double value) {
    add(key, json_exact_double(value));
  }
  void count(const std::string& key, std::uint64_t value) {
    add(key, std::to_string(value));
  }
  void str(const std::string& key, const std::string& value) {
    add(key, "\"" + json_escape(value) + "\"");
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + json_escape(key) + "\":" + value;
  }
  std::string body_;
};

// Non-empty buckets of a latency histogram as [[bucket, count], ...] plus
// the observed max, so run.py can pool iterations exactly.
std::string histogram_json(const LatencyHistogram& h) {
  std::string out = "{\"max\":" + std::to_string(h.max()) + ",\"buckets\":[";
  bool first = true;
  for (std::uint32_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    if (h.bucket_count(b) == 0) continue;
    out += (first ? "[" : ",[") + std::to_string(b) + "," +
           std::to_string(h.bucket_count(b)) + "]";
    first = false;
  }
  return out + "]}";
}

// Exact work counters. Every one must repeat exactly at a fixed seed.
using Counters = std::map<std::string, std::uint64_t>;

std::string counters_json(const Counters& counters) {
  JsonOut out;
  for (const auto& [name, value] : counters) out.count(name, value);
  return out.text();
}

// --- Workload shapes ---------------------------------------------------------

constexpr const char* kSweepPolicies = "decayfairshare,fairshare,roundrobin";

// The fairsched_exp argument tokens (subcommand first) of a sweep
// workload. The same tokens build the in-process spec and, for
// sweep-dispatch, the child's command line, so both see one sweep.
std::vector<std::string> sweep_tokens(const Args& args) {
  const bool tiny = args.size == "tiny";
  const std::string seed = "--seed=" + std::to_string(args.seed);
  if (args.workload == "table1-full") {
    std::vector<std::string> tokens{"table1", seed};
    if (tiny) tokens.push_back("--smoke");
    return tokens;
  }
  std::vector<std::string> tokens{
      "custom", std::string("--policies=") + kSweepPolicies, "--workload=all",
      seed};
  if (tiny) {
    tokens.insert(tokens.end(), {"--smoke", "--instances=1",
                                 "--axes=orgs=3:4;half-life=500,5000",
                                 "--duration=2000"});
  } else {
    tokens.insert(tokens.end(),
                  {"--axes=orgs=3:6;half-life=500,2500,10000,50000",
                   "--duration=10000"});
  }
  return tokens;
}

std::size_t dispatch_shards(const Args& args) {
  return args.size == "tiny" ? 4 : 16;
}

SweepSpec make_spec(const Args& args, std::size_t threads) {
  const std::vector<std::string> tokens = sweep_tokens(args);
  std::vector<const char*> argv;
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  const Flags flags(static_cast<int>(argv.size()), argv.data());
  ScenarioOptions options = scenario_options_from_flags(flags);
  options.threads = threads;
  return make_scenario_sweep(tokens[0], options);
}

serve::SyntheticServeSpec serve_spec(const Args& args) {
  // The `serve --smoke` shape (10^5 orgs, one machine each, 5000 arrivals
  // per time unit) with 5x the arrivals; tiny keeps the load ratio.
  serve::SyntheticServeSpec spec;
  const bool tiny = args.size == "tiny";
  spec.orgs = tiny ? 1000 : 100000;
  spec.machines_per_org = 1;
  spec.events = tiny ? 10000 : 1000000;
  spec.arrival_rate = tiny ? 50.0 : 5000.0;
  spec.seed = args.seed;
  return spec;
}

std::string trace_path(const Args& args) {
  return args.dir + "/serve-trace.txt";
}

// --- gen ---------------------------------------------------------------------

int cmd_gen(const Args& args) {
  std::filesystem::create_directories(args.dir);
  JsonOut out;
  if (args.workload == "serve-100k") {
    serve::SyntheticEventSource source(serve_spec(args));
    std::ofstream file(trace_path(args));
    serve::write_trace_header(file, source.machines());
    std::uint64_t jobs = 0;
    while (const auto event = source.next()) {
      serve::write_job_line(file, *event);
      ++jobs;
    }
    file.flush();
    if (!file) throw std::runtime_error("cannot write " + trace_path(args));
    out.count("arrivals", jobs);
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// --- Layer-by-layer sweep recomputation --------------------------------------

// The records of one task (axis point, workload, instance), recomputed by
// calling each module directly: workload generation, the REF baseline,
// every policy (engine policies, RAND, REF), and grading from the
// schedule through the metrics module.
struct TaskReplay {
  std::vector<RunRecord> records;
  Counters counters;
};

TaskReplay replay_task(const SweepPlan& plan, std::size_t task,
                       Tracer& tracer) {
  const SweepSpec& spec = plan.spec;
  const PolicyRegistry& registry = *plan.registry;
  const std::size_t a = plan.task_point(task);
  const std::size_t w = plan.task_workload(task);
  const std::size_t i = plan.task_instance(task);
  const Time horizon = plan.horizons[a];
  const std::uint64_t seed = mix_seed(spec.seed, w * spec.instances + i);
  TaskReplay out;
  Counters& c = out.counters;

  Instance inst;
  {
    Tracer::Scope span(tracer, "workload");
    inst = make_workload_instance(
        plan.bound_workloads[a * plan.num_workloads + w], horizon, seed);
  }
  c["workload.jobs"] += inst.num_jobs();

  auto run_ref = [&](std::vector<HalfUtil>& u2, std::int64_t& work) {
    std::unique_ptr<RefScheduler> ref;
    {
      Tracer::Scope span(tracer, "sched.ref");
      ref = std::make_unique<RefScheduler>(inst);
      ref->run(horizon);
      const Coalition::Mask masks =
          (Coalition::Mask{1} << inst.num_orgs()) - 1;
      for (Coalition::Mask m = 1; m <= masks; ++m) {
        const Engine& engine = ref->engine(Coalition(m));
        c["sched.ref.engine_events"] += engine.events_processed();
        c["sched.ref.decisions"] += engine.decisions_made();
      }
      c["sched.ref.coalitions"] += masks;
      c["sched.ref.runs"] += 1;
    }
    Tracer::Scope grade(tracer, "metrics");
    u2 = sp_half_utilities(inst, ref->schedule(), horizon);
    work = completed_work(inst, ref->schedule(), horizon);
  };

  std::vector<HalfUtil> base_u2;
  std::int64_t base_work = 0;
  if (plan.has_baseline) {
    if (plan.baseline.base != "ref") {
      throw std::invalid_argument("replay supports only a ref baseline");
    }
    run_ref(base_u2, base_work);
  }

  for (std::size_t p = 0; p < plan.num_policies; ++p) {
    const PolicySpec& policy = plan.bound_algorithms[a * plan.num_policies + p];
    RunRecord record;
    record.axis_point = a;
    record.workload = w;
    record.policy = p;
    record.instance = i;
    record.seed = seed;
    std::vector<HalfUtil> u2;
    auto grade = [&](const Schedule& schedule) {
      Tracer::Scope span(tracer, "metrics");
      u2 = sp_half_utilities(inst, schedule, horizon);
      record.work_done = completed_work(inst, schedule, horizon);
      record.utilization = resource_utilization(inst, schedule, horizon);
    };
    if (registry.policy_shaped(policy.base)) {
      // PolicyAlgorithm's path: the entry's engine options with the run
      // seed, and the policy the registry builds for this seed.
      Tracer::Scope span(tracer, "sched.policy." + policy.base);
      EngineOptions options = registry.find(policy.base)->engine_options;
      options.seed = seed;
      Engine engine(inst, options);
      const std::unique_ptr<Policy> instance =
          registry.make_policy(policy, seed);
      engine.run(*instance, horizon);
      c["sim.events"] += engine.events_processed();
      c["sim.decisions"] += engine.decisions_made();
      c["sched.policy.decisions"] += engine.decisions_made();
      grade(engine.schedule());
    } else if (policy.base == "rand") {
      Tracer::Scope span(tracer, "sched.rand");
      RandScheduler rand(
          inst, RandOptions{static_cast<std::size_t>(
                                policy.params.at("samples").int_value),
                            seed});
      rand.run(horizon);
      c["sched.rand.coalitions"] += rand.distinct_coalitions();
      c["sched.rand.runs"] += 1;
      c["sched.rand.coalitions_max"] +=
          (Coalition::Mask{1} << inst.num_orgs()) - 1;
      grade(rand.schedule());
    } else if (policy.base == "ref") {
      run_ref(u2, record.work_done);
    } else {
      throw std::invalid_argument("replay cannot run policy " + policy.base);
    }
    if (plan.has_baseline) {
      Tracer::Scope span(tracer, "metrics");
      record.unfairness = unfairness_ratio(u2, base_u2, base_work);
      record.rel_distance = relative_distance(u2, base_u2);
    }
    out.records.push_back(record);
  }
  return out;
}

// Recomputes the whole sweep layer by layer and returns its CSV digest.
// Traced: one thread, in fold order, with spans. Untraced: tasks spread
// over `threads`, folded afterwards in the same order.
std::string replay_sweep(const SweepPlan& plan, std::size_t threads,
                         Tracer& tracer, Counters& counters) {
  if (plan.spec.is_strategy()) {
    throw std::invalid_argument("replay does not cover strategy sweeps");
  }
  std::vector<TaskReplay> tasks(plan.num_tasks);
  if (tracer.enabled() || threads <= 1) {
    for (std::size_t t = 0; t < plan.num_tasks; ++t) {
      tasks[t] = replay_task(plan, t, tracer);
    }
  } else {
    ThreadPool pool(threads);
    pool.parallel_for(plan.num_tasks, [&](std::size_t t) {
      Tracer untraced(false);
      tasks[t] = replay_task(plan, t, untraced);
    });
  }
  Tracer::Scope span(tracer, "exp.fold");
  SweepResult result;
  result.axis_points = plan.num_points;
  result.cells.assign(plan.num_cells(), SweepCell{});
  for (const TaskReplay& task : tasks) {
    for (const RunRecord& r : task.records) {
      SweepCell& cell = result.cells[plan.cell_index(r.axis_point, r.workload,
                                                     r.policy)];
      cell.unfairness.add(r.unfairness);
      cell.rel_distance.add(r.rel_distance);
      cell.utilization.add(r.utilization);
      cell.work_done += r.work_done;
    }
    for (const auto& [name, value] : task.counters) counters[name] += value;
  }
  return csv_digest(plan.spec, result);
}

// --- In-process sharded custom run (sweep-dispatch's reference) --------------

struct ShardedRun {
  std::string digest;
  CacheStats cache;
  std::uint64_t replayed_runs = 0;
  std::uint64_t empty_shards = 0;
  std::uint64_t artifact_bytes = 0;
  double run_wall_ms = 0.0;  // summed per-run walls
  double elapsed_ms = 0.0;   // summed executor elapsed
};

ShardedRun run_sharded(const SweepSpec& spec, std::size_t shards,
                       Tracer& tracer) {
  ShardedRun out;
  std::vector<ShardArtifact> artifacts;
  for (std::size_t s = 0; s < shards; ++s) {
    SweepPlan plan;
    {
      Tracer::Scope span(tracer, "exp.plan");
      plan = build_sweep_plan(spec, PolicyRegistry::global(),
                              SweepShard{s, shards});
    }
    if (plan.shard_tasks.empty()) ++out.empty_shards;
    SweepResult result;
    {
      Tracer::Scope span(tracer, "exp.sweep");
      result = ThreadPoolExecutor().execute(plan);
    }
    out.cache.accumulate(result.cache);
    out.replayed_runs += result.replayed_runs;
    out.run_wall_ms += result.total_wall_ms;
    out.elapsed_ms += result.elapsed_ms;
    std::string text;
    {
      Tracer::Scope span(tracer, "exp.artifact.encode");
      std::ostringstream artifact;
      write_shard_artifact(artifact, plan, result);
      text = artifact.str();
    }
    out.artifact_bytes += text.size();
    Tracer::Scope span(tracer, "exp.artifact.decode");
    artifacts.push_back(
        parse_shard_artifact(text, "shard " + std::to_string(s)));
  }
  Tracer::Scope span(tracer, "exp.merge");
  const MergedSweep merged = merge_shard_artifacts(std::move(artifacts));
  out.digest = csv_digest(merged.spec, merged.result);
  return out;
}

// --- The dispatched child ----------------------------------------------------

// One dispatch log line and the moment this process read it. Lines arrive
// over a FIFO as the dispatcher flushes them, so arrival times resolve
// what the log's own millisecond t_ms field cannot (worker spawn to hello
// is a few milliseconds).
struct LogLine {
  double at_ms = 0.0;  // since the child was spawned
  JsonValue json;
};

struct DispatchRun {
  std::string digest;
  double wall_s = 0.0;  // spawn to exit
  std::vector<LogLine> log;
  std::string output;  // the child's stdout + stderr
};

std::vector<std::string> dispatch_argv(const Args& args,
                                       const std::string& csv,
                                       const std::string& artifacts,
                                       const std::string& log) {
  const std::vector<std::string> sweep = sweep_tokens(args);
  std::vector<std::string> argv{FAIRSCHED_EXP_BINARY,
                                "dispatch",
                                "--persistent-workers",
                                "--workers=local*2",
                                "--worker-threads=1",
                                "--shards=" +
                                    std::to_string(dispatch_shards(args)),
                                "--sweep=" + sweep[0]};
  argv.insert(argv.end(), sweep.begin() + 1, sweep.end());
  argv.insert(argv.end(), {"--csv=" + csv, "--artifact-dir=" + artifacts,
                           "--dispatch-log=" + log});
  return argv;
}

// Owns a file descriptor and closes it on destruction.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
};

DispatchRun run_dispatch(const Args& args) {
  const std::string work = args.dir + "/dispatch";
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work + "/tmp");
  const std::string csv = work + "/out.csv";
  const std::string fifo = work + "/log.fifo";
  if (::mkfifo(fifo.c_str(), 0600) != 0) {
    throw std::runtime_error("mkfifo " + fifo + ": " + std::strerror(errno));
  }
  // Hold a writer end ourselves, so reads never see end-of-file while the
  // dispatcher has yet to open the log (or after it closes it).
  const Fd log_fd(::open(fifo.c_str(), O_RDONLY | O_NONBLOCK));
  const Fd hold_fd(::open(fifo.c_str(), O_WRONLY | O_NONBLOCK));
  int pipe_fds[2] = {-1, -1};
  const bool piped = ::pipe(pipe_fds) == 0;
  Fd out_read(pipe_fds[0]);
  Fd out_write(pipe_fds[1]);
  if (log_fd.get() < 0 || hold_fd.get() < 0 || !piped) {
    throw std::runtime_error("cannot set up the dispatch log FIFO");
  }
  const std::vector<std::string> argv_text =
      dispatch_argv(args, csv, work + "/artifacts", fifo);
  std::vector<char*> argv;
  for (const std::string& a : argv_text) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const std::string tmpdir = work + "/tmp";

  const auto spawned = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(out_write.get(), STDOUT_FILENO);
    ::dup2(out_write.get(), STDERR_FILENO);
    for (int fd : {out_read.get(), out_write.get(), log_fd.get(),
                   hold_fd.get()}) {
      ::close(fd);
    }
    ::setenv("TMPDIR", tmpdir.c_str(), 1);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "exec %s failed: %s\n", argv[0], std::strerror(errno));
    ::_exit(127);
  }
  out_write.reset();

  // The child's output pipe closes when it (and every worker sharing its
  // stderr) exits; until then, stamp each log line as it arrives. Nothing
  // here throws, so the child is always waited for.
  DispatchRun run;
  std::vector<std::pair<double, std::string>> lines;
  std::string pending;
  char buffer[65536];
  auto take_lines = [&](double at_ms) {
    for (std::size_t nl; (nl = pending.find('\n')) != std::string::npos;) {
      lines.emplace_back(at_ms, pending.substr(0, nl));
      pending.erase(0, nl + 1);
    }
  };
  for (bool out_open = true; out_open;) {
    pollfd fds[2] = {{log_fd.get(), POLLIN, 0}, {out_read.get(), POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) continue;  // EINTR
    if (fds[0].revents & POLLIN) {
      const ssize_t n = ::read(log_fd.get(), buffer, sizeof(buffer));
      if (n > 0) pending.append(buffer, static_cast<std::size_t>(n));
      take_lines(seconds_since(spawned) * 1e3);
    }
    if (fds[1].revents & (POLLIN | POLLHUP)) {
      const ssize_t n = ::read(out_read.get(), buffer, sizeof(buffer));
      if (n > 0) {
        run.output.append(buffer, static_cast<std::size_t>(n));
      } else {
        out_open = false;
      }
    }
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  run.wall_s = seconds_since(spawned);
  // Lines flushed just before exit.
  for (ssize_t n; (n = ::read(log_fd.get(), buffer, sizeof(buffer))) > 0;) {
    pending.append(buffer, static_cast<std::size_t>(n));
  }
  take_lines(run.wall_s * 1e3);

  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("fairsched_exp dispatch failed:\n" + run.output);
  }
  for (const auto& [at_ms, text] : lines) {
    run.log.push_back(LogLine{at_ms, parse_json(text)});
  }
  std::ifstream in(csv, std::ios::binary);
  DigestStream digest;
  digest << in.rdbuf();
  run.digest = hex(digest.digest());
  return run;
}

// What the dispatch log says about one run.
struct DispatchLogStats {
  Counters counters;            // dist.attempts, failed, opens, fallbacks
  double hello_ms = 0.0;        // first session-open to last session-hello
  LatencyHistogram attempt_ns;  // assign to complete, per shard attempt
  double shard_ms_p50 = 0.0;
  double shard_ms_max = 0.0;
};

DispatchLogStats read_dispatch_log(const std::vector<LogLine>& log) {
  DispatchLogStats stats;
  Counters& c = stats.counters;
  for (const char* name : {"dist.attempts", "dist.failed_attempts",
                           "dist.session_opens", "dist.v1_fallbacks"}) {
    c[name] = 0;
  }
  double first_open = -1.0, last_hello = 0.0;
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> assigned;
  std::vector<double> shard_ms;
  for (const LogLine& line : log) {
    const std::string& event = line.json.at("event").as_string();
    if (event == "assign" || event == "speculate") {
      ++c["dist.attempts"];
      assigned[{line.json.at("shard").as_uint(),
                line.json.at("attempt").as_uint()}] = line.at_ms;
    } else if (event == "complete") {
      const auto it = assigned.find({line.json.at("shard").as_uint(),
                                     line.json.at("attempt").as_uint()});
      if (it != assigned.end()) shard_ms.push_back(line.at_ms - it->second);
    } else if (event == "fail") {
      ++c["dist.failed_attempts"];
    } else if (event == "session-open") {
      ++c["dist.session_opens"];
      if (first_open < 0) first_open = line.at_ms;
    } else if (event == "session-hello") {
      last_hello = std::max(last_hello, line.at_ms);
    } else if (event == "session-v1-fallback") {
      ++c["dist.v1_fallbacks"];
    }
  }
  if (first_open < 0) throw std::runtime_error("dispatch log has no session");
  stats.hello_ms = last_hello - first_open;
  std::sort(shard_ms.begin(), shard_ms.end());
  for (double ms : shard_ms) {
    stats.attempt_ns.record(static_cast<std::uint64_t>(ms * 1e6));
  }
  if (!shard_ms.empty()) {
    stats.shard_ms_p50 = shard_ms[(shard_ms.size() - 1) / 2];
    stats.shard_ms_max = shard_ms.back();
  }
  return stats;
}

// --- run: one timed iteration ------------------------------------------------

int cmd_run(const Args& args) {
  JsonOut out;
  Counters counters;
  if (args.workload == "table1-full") {
    // Set-up: the policy registry and the sweep plan.
    const auto t0 = Clock::now();
    PolicyRegistry::global();
    const SweepPlan plan = build_sweep_plan(make_spec(args, args.threads));
    out.num("setup_s", seconds_since(t0));
    const auto t1 = Clock::now();
    LatencyHistogram run_ns;
    const SweepResult result = ThreadPoolExecutor().execute(
        plan, nullptr, [&run_ns](const RunRecord& r) {
          run_ns.record(static_cast<std::uint64_t>(r.wall_ms * 1e6));
        });
    out.str("digest", csv_digest(plan.spec, result));
    out.num("work_s", seconds_since(t1));
    out.count("ops", run_ns.total_count());
    out.raw("op_ns", histogram_json(run_ns));
    counters["exp.cache.hits"] = result.cache.hits;
    counters["exp.runs"] = run_ns.total_count();
  } else if (args.workload == "serve-100k") {
    // Set-up: opening the trace (its org header), the policy, the session.
    const auto t0 = Clock::now();
    std::ifstream in(trace_path(args));
    serve::TraceEventSource source(in, trace_path(args));
    DigestStream decisions;
    serve::ServeOptions options;
    options.decisions = &decisions;
    serve::ServeSession session(
        source.machines(), PolicyRegistry::global().make_policy("fairshare"),
        options);
    out.num("setup_s", seconds_since(t0));
    session.run(source);
    const serve::ServeReport& report = session.report();
    out.str("digest", hex(decisions.digest()));
    out.num("work_s", static_cast<double>(report.elapsed_ns) / 1e9);
    out.count("ops", report.decisions);
    out.raw("op_ns", histogram_json(report.decision_latency));
    counters["serve.decisions"] = report.decisions;
    counters["serve.engine_events"] = report.engine_events;
  } else {
    // Set-up: worker spawn to the last session hello.
    const DispatchRun run = run_dispatch(args);
    const DispatchLogStats stats = read_dispatch_log(run.log);
    out.num("setup_s", stats.hello_ms / 1e3);
    out.str("digest", run.digest);
    out.num("work_s", run.wall_s);
    out.count("ops", stats.counters.at("dist.attempts"));
    out.raw("op_ns", histogram_json(stats.attempt_ns));
    counters = stats.counters;
  }
  out.raw("counters", counters_json(counters));
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// --- reference: the independent output digest --------------------------------

std::string serve_replay_digest(const Args& args, Tracer& tracer) {
  Tracer::Scope span(tracer, "serve.replay");
  std::ifstream in(trace_path(args));
  serve::TraceEventSource source(in, trace_path(args));
  const Instance inst = serve::materialize_trace(source);
  const std::unique_ptr<Policy> policy =
      PolicyRegistry::global().make_policy("fairshare");
  DigestStream decisions;
  serve::replay_batch(inst, *policy, 0, &decisions);
  return hex(decisions.digest());
}

int cmd_reference(const Args& args) {
  Tracer untraced(false);
  Counters counters;
  std::string digest;
  if (args.workload == "table1-full") {
    digest = replay_sweep(build_sweep_plan(make_spec(args, args.threads)),
                          args.threads, untraced, counters);
  } else if (args.workload == "serve-100k") {
    digest = serve_replay_digest(args, untraced);
  } else {
    digest = run_sharded(make_spec(args, args.threads), dispatch_shards(args),
                         untraced)
                 .digest;
  }
  JsonOut out;
  out.str("digest", digest);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// --- trace: per-layer metrics ------------------------------------------------

// One pass of a workload's layer sequence. The program's output digest and
// the independent digest are both produced, so every pass checks itself.
struct Pass {
  double wall_ms = 0.0;
  std::string program_digest;
  std::string independent_digest;
  std::uint64_t ops = 0;
  Counters counters;
  std::map<std::string, double> metrics;
  std::map<std::string, double> self_ms;  // by layer
};

Pass trace_pass(const Args& args, bool traced, Tracer& tracer) {
  Pass pass;
  Counters& c = pass.counters;
  std::map<std::string, double>& m = pass.metrics;
  const auto t0 = Clock::now();
  if (args.workload == "table1-full") {
    SweepPlan plan;
    {
      Tracer::Scope span(tracer, "exp.plan");
      plan = build_sweep_plan(make_spec(args, args.threads));
    }
    SweepResult result;
    {
      Tracer::Scope span(tracer, "exp.sweep");
      result = ThreadPoolExecutor().execute(plan);
      pass.program_digest = csv_digest(plan.spec, result);
    }
    m["exp.parallel_eff"] =
        result.total_wall_ms /
        (result.elapsed_ms * static_cast<double>(args.threads));
    c["exp.cache.hits"] = result.cache.hits;
    c["exp.cache.misses"] = result.cache.misses;
    c["exp.cache.replayed_runs"] = result.replayed_runs;
    c["exp.cache.peak_bytes"] = result.cache.peak_bytes;
    pass.independent_digest = replay_sweep(plan, 1, tracer, c);
    pass.ops = plan.num_tasks * plan.num_policies;
  } else if (args.workload == "serve-100k") {
    {
      Tracer::Scope span(tracer, "serve.parse");
      std::ifstream in(trace_path(args));
      serve::TraceEventSource source(in, trace_path(args));
      std::uint64_t arrivals = 0;
      while (source.next()) ++arrivals;
      c["serve.arrivals"] = arrivals;
    }
    std::ifstream in(trace_path(args));
    std::unique_ptr<serve::TraceEventSource> source;
    std::unique_ptr<serve::ServeSession> session;
    DigestStream decisions;
    {
      Tracer::Scope span(tracer, "serve.setup");
      source = std::make_unique<serve::TraceEventSource>(in, trace_path(args));
      serve::ServeOptions options;
      options.decisions = &decisions;
      session = std::make_unique<serve::ServeSession>(
          source->machines(),
          PolicyRegistry::global().make_policy("fairshare"), options);
    }
    {
      Tracer::Scope span(tracer, "serve.run");
      session->run(*source);
    }
    const serve::ServeReport& report = session->report();
    pass.program_digest = hex(decisions.digest());
    c["serve.decisions"] = report.decisions;
    c["serve.engine_events"] = report.engine_events;
    c["serve.peak_resident_jobs"] = report.peak_resident_jobs;
    c["serve.peak_resident_orgs"] = report.peak_resident_orgs;
    c["sim.events"] = session->engine().events_processed();
    c["sim.decisions"] = session->engine().decisions_made();
    pass.ops = report.decisions;
    session.reset();
    pass.independent_digest = serve_replay_digest(args, tracer);
  } else {
    SweepSpec spec;
    {
      Tracer::Scope span(tracer, "exp.plan");
      spec = make_spec(args, 1);
    }
    const ShardedRun sharded = run_sharded(spec, dispatch_shards(args), tracer);
    pass.independent_digest = sharded.digest;
    c["exp.cache.hits"] = sharded.cache.hits;
    c["exp.cache.misses"] = sharded.cache.misses;
    c["exp.cache.replayed_runs"] = sharded.replayed_runs;
    c["exp.cache.peak_bytes"] = sharded.cache.peak_bytes;
    // Artifacts embed wall times, so their size is a measurement, not an
    // exact counter.
    m["exp.artifact.bytes"] = static_cast<double>(sharded.artifact_bytes);
    c["dist.empty_shards"] = sharded.empty_shards;
    m["exp.parallel_eff"] = sharded.run_wall_ms / sharded.elapsed_ms;
    DispatchRun run;
    {
      Tracer::Scope span(tracer, "dist");
      run = run_dispatch(args);
    }
    pass.program_digest = run.digest;
    const DispatchLogStats stats = read_dispatch_log(run.log);
    for (const auto& [name, value] : stats.counters) c[name] = value;
    m["dist.hello_ms"] = stats.hello_ms;
    m["dist.shard_ms_p50"] = stats.shard_ms_p50;
    m["dist.shard_ms_max"] = stats.shard_ms_max;
    pass.ops = stats.counters.at("dist.attempts");
  }
  pass.wall_ms = seconds_since(t0) * 1e3;
  if (c["exp.cache.hits"] + c["exp.cache.misses"] > 0) {
    m["exp.cache.hit_rate"] =
        static_cast<double>(c["exp.cache.hits"]) /
        static_cast<double>(c["exp.cache.hits"] + c["exp.cache.misses"]);
  }
  if (c["sched.rand.coalitions_max"] > 0) {
    m["sched.rand.coalition_share"] =
        static_cast<double>(c["sched.rand.coalitions"]) /
        static_cast<double>(c["sched.rand.coalitions_max"]);
  }
  if (!traced) return pass;

  // Per-layer times from the spans.
  const std::map<std::string, double> self = tracer.self_ms_by_name();
  for (const std::string& layer : layer_names()) pass.self_ms[layer] = 0.0;
  for (const auto& [name, ms] : self) pass.self_ms[layer_of(name)] += ms;
  auto self_of = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double policy_ms = 0.0;
  for (const auto& [name, ms] : self) {
    if (name.rfind("sched.policy.", 0) == 0) {
      m[name + ".ms"] = ms;
      policy_ms += ms;
    }
  }
  m["sched.policy.ms"] = policy_ms;
  m["workload.instance_ms"] = self_of("workload");
  m["sched.ref.ms"] = self_of("sched.ref");
  m["sched.rand.ms"] = self_of("sched.rand");
  m["metrics.grade_ms"] = self_of("metrics");
  m["exp.plan_ms"] = self_of("exp.plan");
  m["exp.sweep_ms"] = self_of("exp.sweep");
  m["exp.artifact.encode_ms"] = self_of("exp.artifact.encode");
  m["exp.artifact.decode_ms"] = self_of("exp.artifact.decode");
  m["exp.merge_ms"] = self_of("exp.merge");
  m["serve.parse_ms"] = self_of("serve.parse");
  m["serve.run_ms"] = self_of("serve.run");
  // Engine throughput of the spans that drive sim engines with a policy.
  const double sim_ms = policy_ms + m["serve.run_ms"];
  if (sim_ms > 0.0) {
    m["sim.events_per_s"] =
        static_cast<double>(c["sim.events"]) / (sim_ms / 1e3);
  }
  return pass;
}

int cmd_trace(const Args& args) {
  // Pairs of (untraced, traced) passes until the time is up; metrics are
  // the median over traced passes, counters must match across all passes.
  std::vector<Pass> untraced_passes, traced_passes;
  std::unique_ptr<Tracer> last_tracer;
  // Another pair starts only if it should end within --seconds.
  const auto started = Clock::now();
  double pair_s = 0.0;
  do {
    const auto pair_started = Clock::now();
    Tracer off(false);
    untraced_passes.push_back(trace_pass(args, false, off));
    last_tracer = std::make_unique<Tracer>(true);
    traced_passes.push_back(trace_pass(args, true, *last_tracer));
    pair_s = seconds_since(pair_started);
  } while (seconds_since(started) + pair_s <= args.seconds);

  std::vector<std::string> problems;
  const Pass& first = traced_passes.front();
  for (const std::vector<Pass>* passes : {&untraced_passes, &traced_passes}) {
    for (const Pass& pass : *passes) {
      if (pass.program_digest != pass.independent_digest) {
        problems.push_back("program output " + pass.program_digest +
                           " != independent recomputation " +
                           pass.independent_digest);
      }
      if (pass.independent_digest != first.independent_digest) {
        problems.push_back("output digest drifted between passes");
      }
      for (const auto& [name, value] : pass.counters) {
        const auto it = first.counters.find(name);
        if (it == first.counters.end() || it->second != value) {
          problems.push_back("counter " + name + " drifted: " +
                             std::to_string(value) + " vs " +
                             (it == first.counters.end()
                                  ? std::string("absent")
                                  : std::to_string(it->second)));
        }
      }
    }
  }

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  JsonOut metrics;
  std::map<std::string, std::vector<double>> series;
  for (std::size_t k = 0; k < traced_passes.size(); ++k) {
    const Pass& t = traced_passes[k];
    for (const auto& [name, value] : t.metrics) series[name].push_back(value);
    double covered = 0.0;
    for (const auto& [layer, ms] : t.self_ms) {
      series[layer + ".self_ms"].push_back(ms);
      covered += ms;
    }
    series["trace.coverage"].push_back(covered / t.wall_ms);
    series["trace.wall_ms"].push_back(t.wall_ms);
    series["trace.untraced_ms"].push_back(untraced_passes[k].wall_ms);
    series["trace.overhead_ms"].push_back(t.wall_ms -
                                          untraced_passes[k].wall_ms);
  }
  for (const auto& [name, values] : series) metrics.num(name, median(values));

  JsonOut out;
  out.str("digest", first.independent_digest);
  out.count("passes", traced_passes.size() + untraced_passes.size());
  out.count("ops", first.ops * (traced_passes.size() + untraced_passes.size()));
  out.raw("metrics", metrics.text());
  out.raw("counters", counters_json(first.counters));
  std::string problem_list = "[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    problem_list += (i ? ",\"" : "\"") + json_escape(problems[i]) + "\"";
  }
  out.raw("problems", problem_list + "]");

  std::ofstream spans(args.dir + "/spans.json");
  last_tracer->write_json(spans);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.command == "gen") return perfbench::cmd_gen(args);
    if (args.command == "run") return perfbench::cmd_run(args);
    if (args.command == "reference") return perfbench::cmd_reference(args);
    if (args.command == "trace") return perfbench::cmd_trace(args);
    std::fprintf(stderr, "unknown command %s\n", args.command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
