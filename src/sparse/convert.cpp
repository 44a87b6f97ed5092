#include "sparse/convert.h"

#include <algorithm>

#include "util/error.h"
#include "util/parallel.h"

namespace bro::sparse {

namespace {

/// Size `ell`'s column-major arrays for csr.rows x ell.width and fill them
/// in parallel 256-row tiles, each tile's task writing (and so first
/// touching) its own slots: a row's first min(length, width) entries, then
/// kPad and +0.0.
void fill_ell(const Csr& csr, Ell& ell) {
  constexpr index_t kTileRows = 256;
  const auto m = static_cast<std::size_t>(csr.rows);
  ell.col_idx.resize(m * static_cast<std::size_t>(ell.width));
  ell.vals.resize(ell.col_idx.size());
  util::parallel_for_slices(
      csr.rows / kTileRows + (csr.rows % kTileRows != 0), [&](index_t t) {
        const index_t first = t * kTileRows;
        const index_t last = std::min(csr.rows, first + kTileRows);
        for (index_t j = 0; j < ell.width; ++j) {
          index_t* cols = ell.col_idx.data() + static_cast<std::size_t>(j) * m;
          value_t* vals = ell.vals.data() + static_cast<std::size_t>(j) * m;
          for (index_t r = first; r < last; ++r) {
            const bool real = j < csr.row_length(r);
            cols[r] = real ? csr.col_idx[csr.row_ptr[r] + j] : kPad;
            vals[r] = real ? csr.vals[csr.row_ptr[r] + j] : value_t{0};
          }
        }
      });
}

/// Canonicalize every row of `a` in place (canonicalize_row) and close the
/// gaps merged duplicates leave behind.
void canonicalize_rows(Csr& a) {
  std::size_t begin = 0, w = 0;
  for (index_t r = 0; r < a.rows; ++r) {
    const auto end = static_cast<std::size_t>(a.row_ptr[r + 1]);
    const std::size_t n = canonicalize_row(a.col_idx.data() + begin,
                                           a.vals.data() + begin, end - begin);
    if (w != begin) {
      std::copy_n(a.col_idx.begin() + begin, n, a.col_idx.begin() + w);
      std::copy_n(a.vals.begin() + begin, n, a.vals.begin() + w);
    }
    w += n;
    begin = end;
    a.row_ptr[r + 1] = static_cast<index_t>(w);
  }
  a.col_idx.resize(w);
  a.vals.resize(w);
}

/// COO -> CSR with at most one copy of the entries: canonical input keeps
/// its column/value arrays as they are (moved out of `movable` when the
/// caller gave the COO up); any other order is bucketed by row, stably,
/// and each row canonicalized in place.
Csr to_csr(const Coo& coo, Coo* movable) {
  BRO_CHECK_MSG(coo.is_valid(), "COO matrix is structurally invalid");
  Csr out;
  out.rows = coo.rows;
  out.cols = coo.cols;
  out.row_ptr.assign(static_cast<std::size_t>(coo.rows) + 1, 0);
  for (const index_t r : coo.row_idx) ++out.row_ptr[r + 1];
  for (index_t r = 0; r < coo.rows; ++r) out.row_ptr[r + 1] += out.row_ptr[r];

  if (coo.is_canonical()) {
    if (movable != nullptr) {
      out.col_idx = std::move(movable->col_idx);
      out.vals = std::move(movable->vals);
    } else {
      out.col_idx = coo.col_idx;
      out.vals = coo.vals;
    }
    return out;
  }
  std::vector<index_t> next(out.row_ptr.begin(), out.row_ptr.end() - 1);
  out.col_idx.resize(coo.nnz());
  out.vals.resize(coo.nnz());
  for (std::size_t i = 0; i < coo.nnz(); ++i) {
    const auto p = static_cast<std::size_t>(next[coo.row_idx[i]]++);
    out.col_idx[p] = coo.col_idx[i];
    out.vals[p] = coo.vals[i];
  }
  canonicalize_rows(out);
  return out;
}

} // namespace

Csr coo_to_csr(const Coo& coo) { return to_csr(coo, nullptr); }

Csr coo_to_csr(Coo&& coo) { return to_csr(coo, &coo); }

Coo csr_to_coo(const Csr& csr) {
  Coo out;
  out.rows = csr.rows;
  out.cols = csr.cols;
  out.reserve(csr.nnz());
  for (index_t r = 0; r < csr.rows; ++r)
    for (index_t p = csr.row_ptr[r]; p < csr.row_ptr[r + 1]; ++p)
      out.push(r, csr.col_idx[p], csr.vals[p]);
  return out;
}

Ell csr_to_ell(const Csr& csr, double max_expand) {
  const index_t k = csr.max_row_length();
  const double padded =
      static_cast<double>(csr.rows) * static_cast<double>(k);
  BRO_CHECK_MSG(csr.nnz() == 0 ||
                    padded <= max_expand * static_cast<double>(csr.nnz()),
                "ELLPACK expansion " << padded / std::max<double>(1.0, double(csr.nnz()))
                                     << "x exceeds limit; use HYB");

  Ell out;
  out.rows = csr.rows;
  out.cols = csr.cols;
  out.width = k;
  fill_ell(csr, out);
  return out;
}

EllR csr_to_ellr(const Csr& csr) {
  EllR out;
  out.ell = csr_to_ell(csr);
  out.row_length = row_lengths(csr);
  return out;
}

Csr ell_to_csr(const Ell& ell) {
  const auto nnz = static_cast<std::size_t>(
      std::count_if(ell.col_idx.begin(), ell.col_idx.end(),
                    [](index_t c) { return c != kPad; }));
  CsrBuilder out(ell.rows, ell.cols, nnz);
  for (index_t r = 0; r < ell.rows; ++r) {
    for (index_t j = 0; j < ell.width; ++j) {
      const index_t c = ell.col_at(r, j);
      if (c == kPad) break;
      BRO_CHECK_MSG(c >= 0 && c < ell.cols,
                    "ELL column " << c << " outside [0, " << ell.cols << ')');
      out.push(c, ell.val_at(r, j));
    }
    out.end_row();
  }
  return out.finish();
}

Hyb csr_to_hyb(const Csr& csr, index_t width_override) {
  const util::UninitVector<index_t> lens = row_lengths(csr);
  const index_t k =
      width_override >= 0 ? width_override : hyb_split_width(lens);

  Hyb out;
  out.ell.rows = csr.rows;
  out.ell.cols = csr.cols;
  out.ell.width = k;
  fill_ell(csr, out.ell);
  out.coo.rows = csr.rows;
  out.coo.cols = csr.cols;
  for (index_t r = 0; r < csr.rows; ++r)
    for (index_t p = csr.row_ptr[r] + std::min(k, csr.row_length(r));
         p < csr.row_ptr[r + 1]; ++p)
      out.coo.push(r, csr.col_idx[p], csr.vals[p]);
  return out;
}

Csr hyb_to_csr(const Hyb& hyb) {
  Coo coo = csr_to_coo(ell_to_csr(hyb.ell));
  coo.rows = hyb.rows();
  coo.cols = hyb.cols();
  for (std::size_t i = 0; i < hyb.coo.nnz(); ++i)
    coo.push(hyb.coo.row_idx[i], hyb.coo.col_idx[i], hyb.coo.vals[i]);
  return coo_to_csr(std::move(coo));
}

util::UninitVector<index_t> row_lengths(const Csr& csr) {
  util::UninitVector<index_t> lens(static_cast<std::size_t>(csr.rows));
  for (index_t r = 0; r < csr.rows; ++r) lens[r] = csr.row_length(r);
  return lens;
}

} // namespace bro::sparse
