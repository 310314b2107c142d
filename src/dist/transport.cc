#include "dist/transport.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace fairsched::dist {

namespace {

// A worker dying mid-request must surface as a write error on its stdin
// pipe, not kill the dispatcher with SIGPIPE.
void ignore_sigpipe_once() {
  static const int ignored = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return 0;
  }();
  (void)ignored;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string exit_description(int status) {
  if (status < 0) return "exit status unavailable";
  if (WIFEXITED(status)) {
    return "exit code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "signal " + std::to_string(WTERMSIG(status));
  }
  return "unknown wait status " + std::to_string(status);
}

std::string argv_description(const std::vector<std::string>& argv) {
  std::string out;
  for (const std::string& arg : argv) {
    if (!out.empty()) out += ' ';
    out += arg;
  }
  return out;
}

// The single fork/exec site: stdin/stdout pipes, stderr inherited, and a
// process group of its own so every kill reaches wrapper descendants
// (`sh -c`, ssh command scripts) too. Returns the pid (also the group id)
// and the dispatcher-side fds (both nonblocking), or -1 on fork failure.
pid_t spawn_worker(const std::vector<std::string>& argv, int* in_fd,
                   int* out_fd) {
  int in_pipe[2];   // dispatcher -> worker stdin
  int out_pipe[2];  // worker stdout -> dispatcher
  // Close-on-exec: a worker spawned concurrently by another dispatcher
  // thread must not inherit this worker's pipe ends, or their EOFs would
  // wait for that unrelated worker to exit. dup2 clears the flag on the
  // child's own stdin/stdout.
  if (::pipe2(in_pipe, O_CLOEXEC) < 0) {
    throw std::runtime_error("spawn_worker: pipe() failed");
  }
  if (::pipe2(out_pipe, O_CLOEXEC) < 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    throw std::runtime_error("spawn_worker: pipe() failed");
  }
  std::vector<std::string> args = argv;
  std::vector<char*> exec_argv;
  exec_argv.reserve(args.size() + 1);
  for (std::string& arg : args) exec_argv.push_back(arg.data());
  exec_argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return -1;
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::execvp(exec_argv[0], exec_argv.data());
    std::perror("execvp");
    ::_exit(127);
  }
  // Both sides set the group, so a kill(-pid) right after fork cannot
  // race the child's own setpgid.
  ::setpgid(pid, pid);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  *in_fd = in_pipe[1];
  *out_fd = out_pipe[0];
  set_nonblocking(*in_fd);
  set_nonblocking(*out_fd);
  return pid;
}

// Reaps `pid`, the leader of its own process group (spawn_worker): waits
// up to `grace` for it to exit on its own, then SIGKILLs the whole group.
// The group is killed even when the leader exited cleanly, so no wrapper
// descendant outlives its worker. Returns the leader's wait status, or -1
// when it could not be collected.
int reap_worker_group(pid_t pid, std::chrono::milliseconds grace) {
  const auto deadline = std::chrono::steady_clock::now() + grace;
  int status = 0;
  pid_t reaped = ::waitpid(pid, &status, WNOHANG);
  while (reaped == 0 && std::chrono::steady_clock::now() < deadline) {
    ::usleep(1000);
    reaped = ::waitpid(pid, &status, WNOHANG);
  }
  ::kill(-pid, SIGKILL);
  if (reaped == 0) {
    while ((reaped = ::waitpid(pid, &status, 0)) < 0 && errno == EINTR) {
    }
  }
  return reaped == pid ? status : -1;
}

// Offset of the first session frame in `buffer`: the earliest position
// (start of buffer or of a line) where a known frame magic begins. npos
// when none is visible yet — ssh banner noise may still be streaming in.
std::size_t first_frame_offset(const std::string& buffer) {
  static const char* kMagics[] = {"fairsched-session-hello ",
                                  "fairsched-shard-artifact "};
  std::size_t best = std::string::npos;
  for (const char* magic : kMagics) {
    if (buffer.rfind(magic, 0) == 0) return 0;
    const std::size_t found = buffer.find(std::string("\n") + magic);
    if (found != std::string::npos) best = std::min(best, found + 1);
  }
  return best;
}

}  // namespace

std::vector<std::string> session_worker_argv(
    const std::string& program, const std::vector<std::string>& ssh_command,
    const std::string& host) {
  std::vector<std::string> argv;
  if (!host.empty()) {
    argv = ssh_command;
    argv.push_back(host);
  }
  argv.insert(argv.end(), {program, "shard-worker", "--session"});
  return argv;
}

PersistentTransport::PersistentTransport(std::string name,
                                         std::vector<std::string> session_argv,
                                         DispatchLog* log)
    : name_(std::move(name)),
      session_argv_(std::move(session_argv)),
      log_(log) {
  if (session_argv_.empty() || session_argv_.front().empty()) {
    throw std::invalid_argument("PersistentTransport: empty argv");
  }
}

PersistentTransport::~PersistentTransport() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pid_ < 0) return;
  if (in_fd_ >= 0) {
    // Polite shutdown: ask the worker to exit on its own before reaping.
    std::ostringstream bye;
    write_session_goodbye(bye);
    const std::string bytes = bye.str();
    const ssize_t ignored = ::write(in_fd_, bytes.data(), bytes.size());
    (void)ignored;
    ::close(in_fd_);
    in_fd_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  reap_worker_group(pid_, std::chrono::seconds(2));
  pid_ = -1;
}

bool PersistentTransport::open_session_locked(std::string* error) {
  int in_fd = -1;
  int out_fd = -1;
  const pid_t pid = spawn_worker(session_argv_, &in_fd, &out_fd);
  if (pid < 0) {
    *error = "fork() failed spawning session worker `" +
             argv_description(session_argv_) + "`";
    return false;
  }
  pid_ = pid;
  in_fd_ = in_fd;
  out_fd_ = out_fd;
  buffer_.clear();
  hello_seen_ = false;
  ++stats_.opens;
  if (log_) {
    log_->event("session-open",
                {DispatchLog::str("worker", name_),
                 DispatchLog::num("pid", static_cast<std::uint64_t>(pid)),
                 DispatchLog::num("opens", stats_.opens)});
  }
  return true;
}

int PersistentTransport::teardown_locked(const char* reason, bool kill_child) {
  if (pid_ < 0) return 0;
  if (in_fd_ >= 0) ::close(in_fd_);
  if (out_fd_ >= 0) ::close(out_fd_);
  in_fd_ = -1;
  out_fd_ = -1;
  // A session that hung up on its own is reaped before the group kill, so
  // the failure can name its exit code; one that closed its stdout but
  // lingers is killed after a short grace.
  const int status =
      reap_worker_group(pid_, kill_child ? std::chrono::milliseconds(0)
                                         : std::chrono::seconds(1));
  if (log_) {
    log_->event("session-close", {DispatchLog::str("worker", name_),
                                  DispatchLog::str("reason", reason)});
  }
  pid_ = -1;
  buffer_.clear();
  hello_seen_ = false;
  return status;
}

WorkerTransport::Outcome PersistentTransport::run_shard(
    const DispatchRequest& request, std::chrono::milliseconds timeout) {
  using Outcome = WorkerTransport::Outcome;
  ignore_sigpipe_once();

  const auto started = std::chrono::steady_clock::now();
  const bool bounded = timeout.count() > 0;
  const auto deadline = started + timeout;
  const std::string source = "session worker `" +
                             argv_description(session_argv_) + "` (" +
                             name_ + ")";

  int in_fd = -1;
  int out_fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancel_requested_ = false;
    if (pid_ < 0) {
      std::string error;
      if (!open_session_locked(&error)) {
        return Outcome{Outcome::Status::kFailed, "", error};
      }
    } else if (log_) {
      log_->event("session-reuse",
                  {DispatchLog::str("worker", name_),
                   DispatchLog::num("served", stats_.served)});
    }
    inflight_ = true;
    in_fd = in_fd_;
    out_fd = out_fd_;
  }
  // Ends the attempt without an artifact: tears the session down (the
  // child's process group is killed) and clears inflight_, so
  // cancel_inflight never kills an idle session.
  auto abort_attempt = [this](const char* reason, Outcome::Status status,
                              std::string detail) {
    std::lock_guard<std::mutex> lock(mu_);
    teardown_locked(reason, true);
    inflight_ = false;
    return Outcome{status, "", std::move(detail)};
  };

  std::ostringstream request_stream;
  write_dispatch_request(request_stream, request);
  const std::string request_bytes = request_stream.str();
  std::size_t written = 0;
  bool write_failed = false;
  bool eof = false;
  char chunk[65536];

  while (true) {
    // Consume every complete frame already buffered before blocking again.
    for (;;) {
      bool hello_pending;
      {
        std::lock_guard<std::mutex> lock(mu_);
        hello_pending = !hello_seen_;
      }
      if (hello_pending) {
        // Tolerate ssh banner noise before the first frame of a session:
        // drop bytes up to the first recognizable frame magic.
        const std::size_t start = first_frame_offset(buffer_);
        if (start == std::string::npos) break;
        if (start > 0) buffer_.erase(0, start);
      }
      std::size_t extent = 0;
      bool complete = false;
      try {
        complete = scan_session_frame(buffer_, 0, &extent);
      } catch (const std::exception& e) {
        return abort_attempt("malformed frame", Outcome::Status::kFailed,
                             source + ": " + e.what());
      }
      if (!complete) break;
      const std::string frame_text = buffer_.substr(0, extent);
      buffer_.erase(0, extent);

      if (frame_text.rfind("fairsched-session-hello ", 0) == 0) {
        try {
          std::istringstream frame_in(frame_text);
          const SessionHello hello = read_session_hello(frame_in);
          std::size_t opens = 0;
          {
            std::lock_guard<std::mutex> lock(mu_);
            hello_seen_ = true;
            stats_.hello_threads = hello.threads;
            opens = stats_.opens;
          }
          if (log_) {
            log_->event("session-hello",
                        {DispatchLog::str("worker", name_),
                         DispatchLog::num("threads", hello.threads),
                         DispatchLog::num("opens", opens)});
          }
        } catch (const std::exception& e) {
          return abort_attempt("bad hello", Outcome::Status::kFailed,
                               source + ": " + e.what());
        }
        continue;
      }

      if (hello_pending) {
        // Binary skew: a one-shot v1 worker parses the request, answers
        // with an artifact frame and exits, never opening a session.
        return abort_attempt(
            "no session hello", Outcome::Status::kFailed,
            source +
                ": the peer answered with an artifact frame and no session "
                "hello — it speaks one-shot protocol v" +
                std::to_string(kDispatchProtocolVersion) +
                ", this binary speaks only v" +
                std::to_string(kSessionProtocolVersion) +
                " sessions — deploy matching fairsched_exp builds on every "
                "host");
      }
      ArtifactFrame frame;
      try {
        frame = parse_artifact_frame(frame_text, source);
      } catch (const std::exception& e) {
        return abort_attempt("bad artifact frame", Outcome::Status::kFailed,
                             source + ": " + e.what());
      }
      if (frame.shard != request.shard ||
          frame.shard_count != request.shard_count) {
        return abort_attempt(
            "shard echo mismatch", Outcome::Status::kFailed,
            source + " returned shard " + std::to_string(frame.shard) + "/" +
                std::to_string(frame.shard_count) + " but was asked for " +
                std::to_string(request.shard) + "/" +
                std::to_string(request.shard_count));
      }
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.served;
      for (const auto& [stat_name, value] : frame.stats) {
        if (stat_name == "cache_hits") stats_.cache_hits += value;
        if (stat_name == "cache_misses") stats_.cache_misses += value;
        if (stat_name == "disk_hits") stats_.disk_hits += value;
        if (stat_name == "replayed") stats_.replayed += value;
      }
      inflight_ = false;
      return Outcome{Outcome::Status::kArtifact, std::move(frame.payload), ""};
    }

    if (eof) {
      std::lock_guard<std::mutex> lock(mu_);
      const bool canceled = cancel_requested_;
      const int status = teardown_locked(canceled ? "canceled" : "eof",
                                         canceled);
      inflight_ = false;
      if (canceled) {
        return Outcome{Outcome::Status::kFailed, "",
                       source + " canceled (losing speculative duplicate)"};
      }
      return Outcome{Outcome::Status::kFailed, "",
                     source + " session ended before an artifact frame (" +
                         exit_description(status) + ")"};
    }

    struct pollfd fds[2];
    nfds_t nfds = 0;
    fds[nfds].fd = out_fd;
    fds[nfds].events = POLLIN;
    ++nfds;
    const bool want_write = !write_failed && written < request_bytes.size();
    if (want_write) {
      fds[nfds].fd = in_fd;
      fds[nfds].events = POLLOUT;
      ++nfds;
    }
    int wait_ms = -1;
    if (bounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      wait_ms =
          static_cast<int>(std::max<std::int64_t>(0, remaining.count()));
    }
    const int ready = ::poll(fds, nfds, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return abort_attempt("poll failed", Outcome::Status::kFailed,
                           source + ": poll failed (" +
                               std::string(std::strerror(errno)) + ")");
    }
    if (ready == 0) {  // deadline expired
      return abort_attempt(
          "shard timeout", Outcome::Status::kTimeout,
          source + " exceeded the " + std::to_string(timeout.count()) +
              "ms shard timeout; session killed (respawns on the next "
              "attempt)");
    }
    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      const ssize_t n = ::read(out_fd, chunk, sizeof(chunk));
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        // The frame-extraction pass at the top of the loop still gets one
        // look at whatever is buffered before the eof branch fires.
        eof = true;
      }
    }
    if (want_write && nfds > 1 &&
        (fds[1].revents & (POLLOUT | POLLHUP | POLLERR))) {
      const ssize_t n = ::write(in_fd, request_bytes.data() + written,
                                request_bytes.size() - written);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        // Worker closed its stdin (dying); the read side reports the
        // failure.
        write_failed = true;
      }
    }
  }
}

void PersistentTransport::cancel_inflight() {
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_ && pid_ > 0) {
    cancel_requested_ = true;
    ::kill(-pid_, SIGKILL);
  }
}

std::string PersistentTransport::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << stats_.served << " shard(s) over " << stats_.opens
      << " session(s), cache " << stats_.cache_hits << " hit(s) / "
      << stats_.cache_misses << " miss(es)";
  if (stats_.disk_hits > 0) {
    out << " (" << stats_.disk_hits << " from disk)";
  }
  if (stats_.replayed > 0) {
    out << ", " << stats_.replayed << " replayed run(s)";
  }
  if (stats_.hello_threads > 0) {
    out << ", hw threads " << stats_.hello_threads;
  }
  return out.str();
}

PersistentTransport::SessionStats PersistentTransport::session_stats()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PersistentTransport::hello_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.hello_threads;
}

}  // namespace fairsched::dist
