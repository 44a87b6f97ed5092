#include "bench/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <stdexcept>

namespace perf {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  // Round away float noise before the ceiling, so p = 99 at n = 1000 lands
  // on rank 990 exactly, not on 991.
  const double exact = p * static_cast<double>(n) / 100.0;
  const double rounded = std::round(exact * 1e9) / 1e9;
  return std::max<std::size_t>(1, std::size_t(std::ceil(rounded)));
}

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0 && p <= 100))
    throw std::invalid_argument("percentile outside (0, 100]");
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

} // namespace

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, p);
}

double highest_supported_percentile(std::size_t n) {
  for (const double p : {99.0, 90.0, 50.0})
    if (n > 0 && n - std::min(n, nearest_rank(n, p)) >= 10) return p;
  return 0;
}

Tail tail(std::vector<double> samples) {
  Tail t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.pct = highest_supported_percentile(t.n);
  t.value = t.pct > 0 ? percentile_sorted(samples, t.pct) : samples.back();
  return t;
}

std::string percentile_label(double p) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%g", p);
  return buf;
}

} // namespace perf
