// Exact sample statistics for the benchmark: nearest-rank percentiles over
// raw samples (never histogram buckets) and the rule that decides which tail
// percentile a sample count supports.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perf {

/// Nearest-rank percentile: the sample at 1-based rank ceil(p/100 * n) of
/// the sorted samples, for 0 < p <= 100. Throws on an empty sample or p
/// outside (0, 100].
double percentile(std::vector<double> samples, double p);

/// The highest of p99, p90 and p50 that leaves at least ten samples above
/// its nearest rank (n - ceil(p/100 * n) >= 10); 0 when n < 20 supports
/// none of them. p99 therefore needs n >= 1000 and p90 n >= 100.
double highest_supported_percentile(std::size_t n);

/// The tail of one timing: its sample count, the supported percentile and
/// the value there.
struct Tail {
  std::size_t n = 0;
  double pct = 0;   // highest_supported_percentile(n); 0 = none
  double value = 0; // at pct (the maximum when pct == 0)
};

Tail tail(std::vector<double> samples);

/// "99", "90", "50" — the percentile as written in metric notes.
std::string percentile_label(double p);

} // namespace perf
