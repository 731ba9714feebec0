// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around the calls it
// makes into each ACIC layer (core, exec, io, ml, service) and around
// each rung of the load generator.  Each span has a name, a start, an end and the id of the span
// that caused it.  Nothing is written until the run ends; then
// `write_chrome_trace` dumps every span as Chrome trace-event JSON for
// offline viewing (chrome://tracing, Perfetto).
//
// A disabled tracer records nothing, but `Span` still measures its own
// duration, so the untraced and traced runs share one timing path and
// their difference is the recording cost alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t thread = 0;  ///< small per-thread index
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Reserve a span id (0 when disabled).
  std::uint64_t next_id();
  void record(std::string_view name, std::uint64_t id, std::uint64_t parent,
              Clock::time_point start, Clock::time_point end);

  std::size_t size() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds since
  /// the tracer was created; the parent id travels in args).
  void write_chrome_trace(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span: starts on construction, records on destruction (or at an
/// explicit `end()`).  `end()` returns the duration whether or not the
/// tracer is enabled.  `name` must outlive the span (a literal).
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, std::uint64_t parent = 0)
      : tracer_(tracer),
        name_(name),
        id_(tracer.next_id()),
        parent_(parent),
        start_(Clock::now()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  std::uint64_t id() const { return id_; }
  /// Close the span now; returns its duration in seconds.  Idempotent.
  double end();

 private:
  Tracer& tracer_;
  std::string_view name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  Clock::time_point start_;
  Clock::time_point end_{};
  bool ended_ = false;
};

}  // namespace e2e
