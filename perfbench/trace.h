#pragma once

// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent). Spans are recorded around the
// benchmark's own calls into each fairsched module — the program itself
// carries no spans — and kept in memory until the run writes them out
// once at the end. A layer is the span name up to its first recognised
// layer prefix (see layer_of); a layer's self time is the time its spans
// cover minus the time their child spans cover.
//
// A disabled Tracer records nothing and reads no clock, so the untraced
// pass of the same code measures the tracing overhead by difference.

#include <chrono>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

// The module layers the benchmark attributes time to, most specific
// first so "sched.policy.fairshare" resolves to "sched.policy".
inline const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "workload", "sched.ref", "sched.rand", "sched.policy", "metrics",
      "exp",      "dist",      "serve"};
  return names;
}

// The layer a span name belongs to, or "" for non-layer spans (the root).
inline std::string layer_of(const std::string& span) {
  for (const std::string& layer : layer_names()) {
    if (span == layer || span.rfind(layer + ".", 0) == 0) return layer;
  }
  return "";
}

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      if (tracer_.enabled_) index_ = tracer_.open(std::move(name));
    }
    ~Scope() {
      if (index_ >= 0) tracer_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  bool enabled() const { return enabled_; }

  // Self time per span name (duration minus direct children's durations).
  std::map<std::string, double> self_ms_by_name() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ms[s.parent] += s.end_ms - s.start_ms;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] +=
          spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
    }
    return self;
  }

  // Chrome trace-event JSON ("X" complete events; args.parent links the
  // causing span by index).
  void write_json(std::ostream& out) const {
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_ms * 1e3
          << ",\"dur\":" << (s.end_ms - s.start_ms) * 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }
  int open(std::string name) {
    spans_.push_back(Span{std::move(name), current_, now_ms(), 0.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int index) {
    spans_[index].end_ms = now_ms();
    current_ = spans_[index].parent;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench
