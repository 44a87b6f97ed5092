// ELLPACK-ITPACK and ELLPACK-R storage (paper §2.1.2 / §2.1.4).
//
// Both store an m-by-k dense pair of arrays (col_idx, vals) in column-major
// order so that GPU thread r reading entry (r, j) is coalesced with its warp
// mates. Padding slots hold col = kPad and val = 0. ELLPACK-R adds the
// row_length array so kernels can stop early instead of testing a sentinel.
#pragma once

#include "util/types.h"
#include "util/uninit.h"

namespace bro::sparse {

/// Sentinel column index marking an ELLPACK padding slot.
inline constexpr index_t kPad = -1;

struct Ell {
  index_t rows = 0;
  index_t cols = 0;
  index_t width = 0; // k: the maximum row length

  // Column-major m*k arrays: entry (r, j) lives at [j * rows + r].
  util::UninitVector<index_t> col_idx;
  util::UninitVector<value_t> vals;

  std::size_t entries() const { return col_idx.size(); }

  index_t col_at(index_t r, index_t j) const {
    return col_idx[static_cast<std::size_t>(j) * rows + r];
  }
  value_t val_at(index_t r, index_t j) const {
    return vals[static_cast<std::size_t>(j) * rows + r];
  }

  /// Stored bytes of the index array (what BRO-ELL compresses away).
  std::size_t index_bytes() const { return entries() * sizeof(index_t); }

  bool is_valid() const;
};

struct EllR {
  Ell ell;
  util::UninitVector<index_t> row_length; // length rows

  bool is_valid() const;
};

} // namespace bro::sparse
