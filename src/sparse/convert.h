// Conversions between sparse formats. CSR is the hub: COO <-> CSR,
// CSR -> ELL / ELL-R / HYB and the inverses used by tests.
#pragma once

#include "sparse/coo.h"
#include "sparse/csr.h"
#include "sparse/ell.h"
#include "sparse/hyb.h"

namespace bro::sparse {

/// COO (any order, duplicates summed) -> CSR. Copies the entries at most
/// once; a canonical COO given up with std::move is not copied at all.
Csr coo_to_csr(const Coo& coo);
Csr coo_to_csr(Coo&& coo);

/// CSR -> canonical COO.
Coo csr_to_coo(const Csr& csr);

/// CSR -> ELLPACK. Throws if the padded size would exceed `max_expand`
/// times nnz (guards against pathological rows; HYB handles those).
Ell csr_to_ell(const Csr& csr, double max_expand = 1e30);

/// CSR -> ELLPACK-R.
EllR csr_to_ellr(const Csr& csr);

/// ELLPACK -> CSR (drops padding).
Csr ell_to_csr(const Ell& ell);

/// CSR -> HYB using hyb_split_width(); `width_override` >= 0 forces the
/// ELLPACK width (used to keep HYB and BRO-HYB splits identical, as the
/// paper does for fair comparison).
Hyb csr_to_hyb(const Csr& csr, index_t width_override = -1);

/// HYB -> CSR (merges both parts).
Csr hyb_to_csr(const Hyb& hyb);

/// Row-length array of a CSR matrix.
util::UninitVector<index_t> row_lengths(const Csr& csr);

} // namespace bro::sparse
