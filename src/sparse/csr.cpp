#include "sparse/csr.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "util/error.h"

namespace bro::sparse {

std::size_t canonicalize_row(index_t* cols, value_t* vals, std::size_t n) {
  if (std::adjacent_find(cols, cols + n, std::greater_equal<index_t>{}) ==
      cols + n)
    return n; // already strictly increasing
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cols[a] < cols[b];
                   });
  std::vector<index_t> c2;
  std::vector<value_t> v2;
  c2.reserve(n);
  v2.reserve(n);
  for (const std::size_t i : order) {
    if (!c2.empty() && c2.back() == cols[i]) {
      v2.back() += vals[i]; // merge duplicate coordinate
    } else {
      c2.push_back(cols[i]);
      v2.push_back(vals[i]);
    }
  }
  std::copy(c2.begin(), c2.end(), cols);
  std::copy(v2.begin(), v2.end(), vals);
  return c2.size();
}

CsrBuilder::CsrBuilder(index_t rows, index_t cols, std::size_t nnz_hint) {
  BRO_CHECK_MSG(rows >= 0 && cols >= 0,
                "negative dimensions " << rows << 'x' << cols);
  out_.rows = rows;
  out_.cols = cols;
  out_.row_ptr.reserve(static_cast<std::size_t>(rows) + 1);
  out_.row_ptr.push_back(0);
  out_.col_idx.reserve(nnz_hint);
  out_.vals.reserve(nnz_hint);
}

void CsrBuilder::end_row() {
  BRO_CHECK_MSG(out_.row_ptr.size() <= static_cast<std::size_t>(out_.rows),
                "more rows ended than the matrix has");
  const auto start = static_cast<std::size_t>(out_.row_ptr.back());
  const std::size_t n =
      start + canonicalize_row(out_.col_idx.data() + start,
                               out_.vals.data() + start,
                               out_.col_idx.size() - start);
  out_.col_idx.resize(n);
  out_.vals.resize(n);
  BRO_CHECK_MSG(n <= static_cast<std::size_t>(
                         std::numeric_limits<index_t>::max()),
                "matrix exceeds the index range");
  out_.row_ptr.push_back(static_cast<index_t>(n));
}

Csr CsrBuilder::finish() {
  BRO_CHECK_MSG(out_.row_ptr.size() == static_cast<std::size_t>(out_.rows) + 1,
                "CSR builder finished after " << out_.row_ptr.size() - 1
                                              << " of " << out_.rows
                                              << " rows");
  return std::move(out_);
}

namespace {

/// Rows [first, last) of `a`: monotone row pointers inside [0, nnz], then
/// in-range, strictly increasing columns. The bounds are checked before any
/// column is read, so a tile never reads past col_idx.
bool rows_valid(const Csr& a, index_t first, index_t last) {
  const auto nnz = static_cast<std::int64_t>(a.nnz());
  if (a.row_ptr[first] < 0 || a.row_ptr[last] > nnz) return false;
  for (index_t r = first; r < last; ++r)
    if (a.row_ptr[r + 1] < a.row_ptr[r]) return false;
  for (index_t r = first; r < last; ++r)
    for (index_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      if (a.col_idx[p] < 0 || a.col_idx[p] >= a.cols) return false;
      if (p > a.row_ptr[r] && a.col_idx[p] <= a.col_idx[p - 1]) return false;
    }
  return true;
}

} // namespace

bool Csr::is_valid() const {
  if (row_ptr.size() != static_cast<std::size_t>(rows) + 1) return false;
  if (row_ptr.front() != 0) return false;
  if (static_cast<std::size_t>(row_ptr.back()) != nnz()) return false;
  if (col_idx.size() != vals.size()) return false;
  // Each tile checks its own rows; the matrix is valid when every tile is.
  constexpr index_t kTileRows = 4096;
  const index_t tiles = rows / kTileRows + (rows % kTileRows != 0);
  bool ok = true;
#pragma omp parallel for schedule(dynamic) reduction(&& : ok) if (tiles > 1)
  for (index_t t = 0; t < tiles; ++t) {
    const index_t first = t * kTileRows;
    ok = ok && rows_valid(*this, first, std::min(rows, first + kTileRows));
  }
  return ok;
}

index_t Csr::max_row_length() const {
  index_t k = 0;
  for (index_t r = 0; r < rows; ++r) k = std::max(k, row_length(r));
  return k;
}

void spmv_csr_reference(const Csr& a, std::span<const value_t> x,
                        std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows));
  for (index_t r = 0; r < a.rows; ++r) {
    value_t sum = 0;
    for (index_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p)
      sum += a.vals[p] * x[a.col_idx[p]];
    y[r] = sum;
  }
}

} // namespace bro::sparse
