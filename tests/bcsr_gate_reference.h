// The BRO-BCSR gate's test oracle, shared by test_bro_bcsr and
// test_parallel: the gate's rule decided by the full cover analysis alone,
// and the matrices its fill prefilter is checked against.
#pragma once

#include <vector>

#include "core/bro_bcsr.h"
#include "sparse/matgen/adversarial.h"
#include "sparse/matgen/suite.h"

namespace bro::oracle {

/// The gate without the fill prefilter: the full cover analysis decides
/// alone. Same rule, margin included, as bro_bcsr_applicable.
inline bool reference_applicable(const sparse::Csr& csr, double max_ell_expand,
                                 const core::BroBcsrOptions& opts = {}) {
  if (csr.rows == 0 || csr.cols == 0 || csr.nnz() == 0) return false;
  const core::BcsrAnalysis a = core::analyze_bro_bcsr(csr, opts);
  if (a.best < 0) return false;
  const core::BcsrShapeStats& s = a.shapes[static_cast<std::size_t>(a.best)];
  if (s.fill < opts.min_fill) return false;
  if (static_cast<double>(s.value_slots) >
      max_ell_expand * static_cast<double>(csr.nnz()))
    return false;
  const std::size_t ell_excess =
      a.ell_value_slots > csr.nnz() ? a.ell_value_slots - csr.nnz() : 0;
  const std::size_t baseline =
      (a.ell_index_bits + 7) / 8 + sizeof(value_t) * ell_excess;
  return static_cast<double>(s.cost_bytes) < 0.7 * static_cast<double>(baseline);
}

/// The adversarial battery plus every Test Set 1-3 stand-in at small scale.
inline std::vector<sparse::AdversarialCase> gate_cases() {
  std::vector<sparse::AdversarialCase> cases = sparse::adversarial_suite();
  for (const int set : {1, 2, 3})
    for (const auto& e : sparse::suite_test_set(set))
      cases.push_back(
          {e.name, sparse::generate_suite_matrix(e, set == 3 ? 0.0625 : 0.02)});
  return cases;
}

} // namespace bro::oracle
