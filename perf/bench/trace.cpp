#include "bench/trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "bench/json.h"

namespace perf {

namespace {

/// A small number naming the calling thread in spans.
std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

} // namespace

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  std::vector<double> out(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const std::size_t c : it->second) {
        const std::int64_t lo = std::max(s.start_ns, spans[c].start_ns);
        const std::int64_t hi = std::min(s.end_ns, spans[c].end_ns);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out[i] = double(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

Span Tracer::begin(const char* layer, const char* name, std::uint64_t parent,
                   std::uint64_t rid) {
  Span s;
  if (!enabled_) return s;
  {
    std::lock_guard lock(mu_);
    s.id = next_id_++;
  }
  s.parent = parent;
  s.rid = rid;
  s.layer = layer;
  s.name = name;
  s.tid = thread_number();
  s.start_ns = now_ns();
  return s;
}

void Tracer::end(Span& span) {
  if (span.id == 0) return;
  span.end_ns = now_ns();
  std::lock_guard lock(mu_);
  spans_.push_back(span);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations(const std::string& layer,
                                      const std::string& name) const {
  std::vector<double> out;
  std::lock_guard lock(mu_);
  for (const Span& s : spans_)
    if (layer == s.layer && name == s.name) out.push_back(s.seconds());
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times(all);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "") << "{\"name\":" << json_string(s.name)
        << ",\"cat\":" << json_string(s.layer) << ",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << s.tid
        << ",\"ts\":" << json_number(double(s.start_ns) * 1e-3)
        << ",\"dur\":" << json_number(double(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"rid\":" << s.rid
        << ",\"self_us\":" << json_number(self[i] * 1e6) << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

} // namespace perf
