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

bool Csr::is_valid() const {
  if (row_ptr.size() != static_cast<std::size_t>(rows) + 1) return false;
  if (row_ptr.front() != 0) return false;
  if (static_cast<std::size_t>(row_ptr.back()) != nnz()) return false;
  if (col_idx.size() != vals.size()) return false;
  for (index_t r = 0; r < rows; ++r) {
    if (row_ptr[r + 1] < row_ptr[r]) return false;
    for (index_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      if (col_idx[p] < 0 || col_idx[p] >= cols) return false;
      if (p > row_ptr[r] && col_idx[p] <= col_idx[p - 1]) return false;
    }
  }
  return true;
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
