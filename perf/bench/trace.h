// Spans recorded by the benchmark around its calls into each layer's public
// API. A span has a layer and a name, start and end times, the span that
// caused it (which may live on another thread) and the request it served.
// Spans stay in memory and are written out when the run ends, as a Chrome
// trace-event file (chrome://tracing and Perfetto load it).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0; // 0 = root
  std::uint64_t rid = 0;    // request id; 0 = none
  const char* layer = "";   // static strings only
  const char* name = "";
  std::int64_t start_ns = 0; // relative to the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;     // small per-thread number

  double seconds() const { return double(end_ns - start_ns) * 1e-9; }
};

/// Self time of each span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children on any
/// thread, clipped to the parent). Returned in seconds, index-aligned with
/// `spans`.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Collects spans from any thread. A disabled tracer records nothing and
/// hands out span id 0, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Open a span (id and start stamped now); id 0 when disabled.
  Span begin(const char* layer, const char* name, std::uint64_t parent = 0,
             std::uint64_t rid = 0);
  /// Stamp the end of a span from begin() and keep it.
  void end(Span& span);

  /// Nanoseconds since this tracer was created.
  std::int64_t now_ns() const;

  std::vector<Span> spans() const;

  /// Durations (seconds) of every span with this layer and name.
  std::vector<double> durations(const std::string& layer,
                                const std::string& name) const;

  /// Chrome trace-event JSON of every span, with each span's self time in
  /// its args. Throws when the file cannot be written.
  void write_chrome_json(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Records one span from construction to destruction (or end()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* layer, const char* name,
             std::uint64_t parent = 0, std::uint64_t rid = 0)
      : tracer_(tracer), span_(tracer.begin(layer, name, parent, rid)) {}
  ~ScopedSpan() { tracer_.end(span_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id, to pass as a child's parent (0 when tracing is off).
  std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

} // namespace perf
