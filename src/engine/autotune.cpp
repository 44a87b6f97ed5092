#include "engine/autotune.h"

#include <algorithm>

#include "engine/simulate.h"
#include "sparse/convert.h"
#include "util/error.h"
#include "util/rng.h"

namespace bro::engine {

namespace {

core::MatrixOptions device_options(core::Format format,
                                   const sparse::Csr& csr,
                                   const sim::DeviceSpec& dev) {
  core::MatrixOptions opts;
  if (format == core::Format::kBroCoo) {
    opts.coo = kernels::bro_coo_options_for(csr.nnz(), dev);
  } else if (format == core::Format::kBroHyb) {
    // The overflow part holds what lies beyond HYB's split width (paper
    // §4.2.3), the width BroHyb::compress picks too.
    const auto lens = sparse::row_lengths(csr);
    const index_t k = sparse::hyb_split_width(lens);
    std::size_t overflow_nnz = 0;
    for (const index_t l : lens)
      overflow_nnz += static_cast<std::size_t>(std::max<index_t>(l - k, 0));
    opts.coo = kernels::bro_coo_options_for(overflow_nnz, dev);
  }
  return opts;
}

} // namespace

const TuneEntry& TuneResult::entry(core::Format f) const {
  for (const auto& e : ranking)
    if (e.format == f) return e;
  BRO_CHECK_MSG(false, core::format_name(f) << " is not in the cocktail");
}

TuneResult autotune(const sparse::Csr& csr, const sim::DeviceSpec& dev) {
  const double max_ell_expand = core::MatrixOptions{}.max_ell_expand;
  // A deterministic probe vector; the access pattern, not the values,
  // drives the simulated performance.
  Rng rng(2013);
  std::vector<value_t> x(static_cast<std::size_t>(csr.cols));
  for (auto& v : x) v = rng.uniform() * 2 - 1;

  TuneResult result;
  for (const core::Format f : kCocktail) {
    const FormatTraits& t = traits(f);
    if (!t.applicable(csr, max_ell_expand)) {
      result.ranking.push_back({f, 0, 0, false});
      continue;
    }
    const Representation rep =
        t.make(borrow_csr(csr), device_options(f, csr, dev));
    const double gflops = simulate(dev, f, rep.get(), x).time.gflops;
    const double eta = t.rep_savings ? t.rep_savings(rep.get()).eta() : 0;
    result.ranking.push_back({f, gflops, eta, true});
  }

  std::stable_sort(result.ranking.begin(), result.ranking.end(),
                   [](const TuneEntry& a, const TuneEntry& b) {
                     if (a.applicable != b.applicable) return a.applicable;
                     return a.gflops > b.gflops;
                   });
  return result;
}

} // namespace bro::engine
