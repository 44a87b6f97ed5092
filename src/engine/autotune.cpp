#include "engine/autotune.h"

#include <algorithm>

#include "util/rng.h"

namespace bro::engine {

TuneResult autotune(const sparse::Csr& csr, const sim::DeviceSpec& dev) {
  const double max_ell_expand = core::MatrixOptions{}.max_ell_expand;
  // A deterministic probe vector; the access pattern, not the values,
  // drives the simulated performance.
  Rng rng(2013);
  std::vector<value_t> x(static_cast<std::size_t>(csr.cols));
  for (auto& v : x) v = rng.uniform() * 2 - 1;

  TuneResult result;
  for (const auto& t : format_registry()) {
    if (!t.tunable) continue;
    if (!t.applicable(csr, max_ell_expand)) {
      result.ranking.push_back({t.format, 0, 0, false});
      continue;
    }
    const TuneOutcome out = t.tune(dev, csr, x);
    result.ranking.push_back({t.format, out.gflops, out.eta, true});
  }

  std::stable_sort(result.ranking.begin(), result.ranking.end(),
                   [](const TuneEntry& a, const TuneEntry& b) {
                     if (a.applicable != b.applicable) return a.applicable;
                     return a.gflops > b.gflops;
                   });
  return result;
}

} // namespace bro::engine
