#include "check/validate.h"

#include <algorithm>
#include <sstream>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "sparse/convert.h"

namespace bro::check {

namespace {

/// Issue accumulator with a cap so a corrupt large matrix reports the first
/// violations instead of one message per entry.
class Acc {
 public:
  explicit Acc(Issues& out) : out_(out) {}

  bool full() const { return count_ >= kCap; }

  template <typename F>
  void check(bool ok, F&& describe) {
    if (ok) return;
    if (count_ < kCap) {
      std::ostringstream os;
      describe(os);
      out_.push_back(os.str());
    } else if (count_ == kCap) {
      out_.push_back("... further violations truncated");
    }
    ++count_;
  }

 private:
  static constexpr std::size_t kCap = 16;
  Issues& out_;
  std::size_t count_ = 0;
};

/// Exact structural + numerical equality of two CSR matrices (the "lossless"
/// cross-check every compressed format must pass against its source).
void compare_csr(Acc& acc, const char* what, const sparse::Csr& got,
                 const sparse::Csr& ref) {
  acc.check(got.rows == ref.rows && got.cols == ref.cols, [&](auto& os) {
    os << what << ": dimensions " << got.rows << " x " << got.cols
       << " != reference " << ref.rows << " x " << ref.cols;
  });
  acc.check(got.row_ptr == ref.row_ptr, [&](auto& os) {
    os << what << ": row pointer array differs from reference";
  });
  if (got.col_idx != ref.col_idx) {
    std::size_t i = 0;
    const std::size_t n = std::min(got.col_idx.size(), ref.col_idx.size());
    while (i < n && got.col_idx[i] == ref.col_idx[i]) ++i;
    acc.check(false, [&](auto& os) {
      os << what << ": column indices differ from reference (first at entry "
         << i << ")";
    });
  }
  acc.check(got.vals == ref.vals, [&](auto& os) {
    os << what << ": values differ from reference";
  });
}

void structural_csr(Acc& acc, const sparse::Csr& a) {
  acc.check(a.rows >= 0 && a.cols >= 0, [&](auto& os) {
    os << "negative dimensions " << a.rows << " x " << a.cols;
  });
  acc.check(a.row_ptr.size() == static_cast<std::size_t>(a.rows) + 1,
            [&](auto& os) {
              os << "row_ptr has " << a.row_ptr.size() << " entries, expected "
                 << a.rows + 1;
            });
  acc.check(a.col_idx.size() == a.vals.size(), [&](auto& os) {
    os << "col_idx/vals length mismatch: " << a.col_idx.size() << " vs "
       << a.vals.size();
  });
  if (a.row_ptr.size() != static_cast<std::size_t>(a.rows) + 1) return;
  acc.check(a.row_ptr.front() == 0,
            [&](auto& os) { os << "row_ptr[0] = " << a.row_ptr.front(); });
  acc.check(static_cast<std::size_t>(a.row_ptr.back()) == a.nnz(),
            [&](auto& os) {
              os << "row_ptr back " << a.row_ptr.back() << " != nnz "
                 << a.nnz();
            });
  for (index_t r = 0; r < a.rows && !acc.full(); ++r) {
    acc.check(a.row_ptr[r + 1] >= a.row_ptr[r], [&](auto& os) {
      os << "row_ptr not monotone at row " << r << ": " << a.row_ptr[r]
         << " -> " << a.row_ptr[r + 1];
    });
    if (a.row_ptr[r + 1] < a.row_ptr[r]) continue;
    for (index_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      acc.check(a.col_idx[p] >= 0 && a.col_idx[p] < a.cols, [&](auto& os) {
        os << "row " << r << ": column " << a.col_idx[p] << " out of [0, "
           << a.cols << ")";
      });
      acc.check(p == a.row_ptr[r] || a.col_idx[p] > a.col_idx[p - 1],
                [&](auto& os) {
                  os << "row " << r << ": columns not strictly increasing ("
                     << a.col_idx[p - 1] << " then " << a.col_idx[p] << ")";
                });
    }
  }
}

void structural_ell(Acc& acc, const sparse::Ell& a) {
  const std::size_t expect =
      static_cast<std::size_t>(a.rows) * static_cast<std::size_t>(a.width);
  acc.check(a.col_idx.size() == expect && a.vals.size() == expect,
            [&](auto& os) {
              os << "ELL arrays hold " << a.col_idx.size() << "/"
                 << a.vals.size() << " entries, expected rows*width = "
                 << expect;
            });
  if (a.col_idx.size() != expect || a.vals.size() != expect) return;
  for (index_t r = 0; r < a.rows && !acc.full(); ++r) {
    index_t prev = -1;
    bool in_pad = false;
    for (index_t j = 0; j < a.width; ++j) {
      const index_t c = a.col_at(r, j);
      if (c == sparse::kPad) {
        in_pad = true;
        continue;
      }
      acc.check(!in_pad, [&](auto& os) {
        os << "row " << r << ": data at column slot " << j
           << " after padding started (rows must be left-packed)";
      });
      acc.check(c >= 0 && c < a.cols, [&](auto& os) {
        os << "row " << r << ": column " << c << " out of [0, " << a.cols
           << ")";
      });
      acc.check(c > prev, [&](auto& os) {
        os << "row " << r << ": columns not strictly increasing (" << prev
           << " then " << c << ")";
      });
      prev = c;
    }
  }
}

void structural_coo(Acc& acc, const sparse::Coo& a) {
  acc.check(a.row_idx.size() == a.vals.size() &&
                a.col_idx.size() == a.vals.size(),
            [&](auto& os) {
              os << "COO array length mismatch: " << a.row_idx.size() << "/"
                 << a.col_idx.size() << "/" << a.vals.size();
            });
  if (a.row_idx.size() != a.vals.size() || a.col_idx.size() != a.vals.size())
    return;
  for (std::size_t i = 0; i < a.nnz() && !acc.full(); ++i) {
    acc.check(a.row_idx[i] >= 0 && a.row_idx[i] < a.rows, [&](auto& os) {
      os << "entry " << i << ": row " << a.row_idx[i] << " out of [0, "
         << a.rows << ")";
    });
    acc.check(a.col_idx[i] >= 0 && a.col_idx[i] < a.cols, [&](auto& os) {
      os << "entry " << i << ": column " << a.col_idx[i] << " out of [0, "
         << a.cols << ")";
    });
    acc.check(i == 0 || a.row_idx[i] > a.row_idx[i - 1] ||
                  (a.row_idx[i] == a.row_idx[i - 1] &&
                   a.col_idx[i] > a.col_idx[i - 1]),
              [&](auto& os) {
                os << "entry " << i << ": not in canonical (row, col) order";
              });
  }
}

} // namespace

Issues validate_csr(const sparse::Csr& a) {
  Issues issues;
  Acc acc(issues);
  structural_csr(acc, a);
  return issues;
}

Issues validate_coo(const sparse::Coo& a, const sparse::Csr* ref) {
  Issues issues;
  Acc acc(issues);
  structural_coo(acc, a);
  if (ref && issues.empty())
    compare_csr(acc, "COO round-trip", sparse::coo_to_csr(a), *ref);
  return issues;
}

Issues validate_ell(const sparse::Ell& a, const sparse::Csr* ref) {
  Issues issues;
  Acc acc(issues);
  structural_ell(acc, a);
  if (ref && issues.empty())
    compare_csr(acc, "ELL round-trip", sparse::ell_to_csr(a), *ref);
  return issues;
}

Issues validate_ellr(const sparse::EllR& a, const sparse::Csr* ref) {
  Issues issues;
  Acc acc(issues);
  structural_ell(acc, a.ell);
  acc.check(a.row_length.size() == static_cast<std::size_t>(a.ell.rows),
            [&](auto& os) {
              os << "row_length has " << a.row_length.size()
                 << " entries, expected " << a.ell.rows;
            });
  if (!issues.empty()) return issues;
  for (index_t r = 0; r < a.ell.rows && !acc.full(); ++r) {
    index_t len = 0;
    while (len < a.ell.width && a.ell.col_at(r, len) != sparse::kPad) ++len;
    acc.check(a.row_length[r] == len, [&](auto& os) {
      os << "row " << r << ": row_length " << a.row_length[r]
         << " != stored length " << len;
    });
  }
  if (ref && issues.empty())
    compare_csr(acc, "ELL-R round-trip", sparse::ell_to_csr(a.ell), *ref);
  return issues;
}

Issues validate_hyb(const sparse::Hyb& a, const sparse::Csr* ref) {
  Issues issues;
  Acc acc(issues);
  structural_ell(acc, a.ell);
  structural_coo(acc, a.coo);
  acc.check(a.coo.rows == a.ell.rows && a.coo.cols == a.ell.cols,
            [&](auto& os) {
              os << "ELL part is " << a.ell.rows << " x " << a.ell.cols
                 << " but COO part is " << a.coo.rows << " x " << a.coo.cols;
            });
  // Overflow entries must come after the row's ELL entries: every COO entry
  // in row r requires the row's ELL slots to be fully occupied.
  for (std::size_t i = 0; i < a.coo.nnz() && !acc.full(); ++i) {
    const index_t r = a.coo.row_idx[i];
    if (r < 0 || r >= a.ell.rows) continue; // already reported above
    const bool full_row =
        a.ell.width == 0 || a.ell.col_at(r, a.ell.width - 1) != sparse::kPad;
    acc.check(full_row, [&](auto& os) {
      os << "COO overflow entry in row " << r
         << " but the row's ELL slots are not full";
    });
  }
  if (ref && issues.empty())
    compare_csr(acc, "HYB round-trip", sparse::hyb_to_csr(a), *ref);
  return issues;
}

Issues validate_bro_ell(const core::BroEll& a, const sparse::Csr* ref) {
  Issues issues;
  Acc acc(issues);
  // The values are the source CSR's, read in place.
  acc.check(a.csr().rows == a.rows() && a.csr().cols == a.cols(),
            [&](auto& os) {
              os << "source CSR is " << a.csr().rows << " x " << a.csr().cols
                 << ", matrix is " << a.rows() << " x " << a.cols();
            });

  // The slices must tile [0, rows) contiguously.
  index_t next_row = 0;
  for (std::size_t s = 0; s < a.slices().size(); ++s) {
    const auto& sl = a.slices()[s];
    acc.check(sl.first_row == next_row, [&](auto& os) {
      os << "slice " << s << " starts at row " << sl.first_row << ", expected "
         << next_row;
    });
    acc.check(sl.height > 0 && sl.height <= a.options().slice_height,
              [&](auto& os) {
                os << "slice " << s << " height " << sl.height
                   << " out of (0, " << a.options().slice_height << "]";
              });
    acc.check(sl.num_col >= 0 && sl.num_col <= a.width(), [&](auto& os) {
      os << "slice " << s << " num_col " << sl.num_col << " exceeds width "
         << a.width();
    });
    acc.check(sl.bit_alloc.size() == static_cast<std::size_t>(sl.num_col),
              [&](auto& os) {
                os << "slice " << s << " bit_alloc has " << sl.bit_alloc.size()
                   << " widths for " << sl.num_col << " columns";
              });
    for (const auto b : sl.bit_alloc)
      acc.check(b >= 1 && b <= 32, [&](auto& os) {
        os << "slice " << s << " bit width " << int(b) << " out of [1, 32]";
      });
    next_row = sl.first_row + sl.height;
  }
  acc.check(next_row == a.rows(), [&](auto& os) {
    os << "slices cover rows [0, " << next_row << "), matrix has " << a.rows();
  });
  if (!issues.empty()) return issues;

  // Decode every row: columns must be strictly increasing and in range, and
  // exactly the source CSR row's first min(length, width) columns, since
  // the kernels read a valid slot's value at the CSR entry of that rank.
  // With a reference, identical to the reference row — the only way to
  // catch a bit allocation too narrow for the slice's deltas (a truncated
  // delta still decodes to some in-range column).
  for (const auto& sl : a.slices()) {
    for (index_t i = 0; i < sl.height && !acc.full(); ++i) {
      const index_t r = sl.first_row + i;
      const std::vector<index_t> cols = a.decode_row(r);
      index_t prev = -1;
      for (const index_t c : cols) {
        acc.check(c > prev && c >= 0 && c < a.cols(), [&](auto& os) {
          os << "row " << r << ": decoded column " << c
             << " not strictly increasing in [0, " << a.cols() << ")";
        });
        prev = c;
      }
      const auto source = core::ell_row(a.csr(), r, a.width());
      const bool decodes_source = std::ranges::equal(cols, source);
      acc.check(decodes_source, [&](auto& os) {
        os << "row " << r << ": decoded " << cols.size()
           << " columns that are not the source row's first "
           << source.size();
      });
      if (!ref) continue;
      const auto want = ref->row_cols(r);
      const bool match = cols.size() == want.size() &&
                         std::equal(cols.begin(), cols.end(), want.begin());
      acc.check(match, [&](auto& os) {
        os << "row " << r << ": decoded " << cols.size()
           << " columns that differ from the source row (" << want.size()
           << " entries) — bit allocation insufficient or stream corrupt";
      });
      // The slice's advertised per-column widths must cover the row's
      // actual deltas.
      const auto deltas = bits::delta_encode_row(want);
      for (std::size_t j = 0; j < deltas.size() && j < sl.bit_alloc.size();
           ++j)
        acc.check(bits::bit_width_of(deltas[j]) <= sl.bit_alloc[j],
                  [&](auto& os) {
                    os << "row " << r << " column slot " << j << ": delta "
                       << deltas[j] << " needs "
                       << bits::bit_width_of(deltas[j])
                       << " bits but the slice allocates "
                       << int(sl.bit_alloc[j]);
                  });
      if (match && decodes_source) {
        const auto want_vals = ref->row_vals(r);
        for (std::size_t j = 0; j < want_vals.size(); ++j)
          acc.check(a.val_at(r, static_cast<index_t>(j)) == want_vals[j],
                    [&](auto& os) {
                      os << "row " << r << " entry " << j
                         << ": value differs from source";
                    });
      }
    }
  }
  return issues;
}

Issues validate_bro_coo(const core::BroCoo& a, const sparse::Csr* ref) {
  Issues issues;
  Acc acc(issues);
  const std::size_t interval_size =
      static_cast<std::size_t>(a.options().warp_size) *
      static_cast<std::size_t>(a.options().interval_cols);
  acc.check(a.padded_nnz() >= a.nnz(), [&](auto& os) {
    os << "padded_nnz " << a.padded_nnz() << " < nnz " << a.nnz();
  });
  acc.check(a.col_idx().size() == a.padded_nnz() &&
                a.vals().size() == a.padded_nnz(),
            [&](auto& os) {
              os << "col_idx/vals sizes " << a.col_idx().size() << "/"
                 << a.vals().size() << " != padded_nnz " << a.padded_nnz();
            });
  acc.check(a.padded_nnz() == a.intervals().size() * interval_size,
            [&](auto& os) {
              os << a.intervals().size() << " intervals of " << interval_size
                 << " entries cannot hold padded_nnz " << a.padded_nnz();
            });
  for (std::size_t i = 0; i < a.intervals().size(); ++i) {
    const auto& iv = a.intervals()[i];
    acc.check(iv.bits >= 1 && iv.bits <= 32, [&](auto& os) {
      os << "interval " << i << " bit width " << iv.bits << " out of [1, 32]";
    });
    acc.check(iv.start_row >= 0 && (a.rows() == 0 || iv.start_row < a.rows()),
              [&](auto& os) {
                os << "interval " << i << " start_row " << iv.start_row
                   << " out of [0, " << a.rows() << ")";
              });
    acc.check(i == 0 || iv.start_row >= a.intervals()[i - 1].start_row,
              [&](auto& os) {
                os << "interval " << i << " start_row " << iv.start_row
                   << " decreases";
              });
  }
  if (!issues.empty()) return issues;

  // Decoded row indices must be row-sorted along the entry stream (the
  // canonical order the segmented reduction requires) and in range.
  const auto rows = a.decode_rows();
  for (std::size_t i = 0; i < rows.size() && !acc.full(); ++i) {
    acc.check(rows[i] >= 0 && rows[i] < a.rows(), [&](auto& os) {
      os << "entry " << i << ": decoded row " << rows[i] << " out of [0, "
         << a.rows() << ")";
    });
    acc.check(i == 0 || rows[i] >= rows[i - 1], [&](auto& os) {
      os << "entry " << i << ": decoded rows not sorted (" << rows[i - 1]
         << " then " << rows[i] << ")";
    });
  }
  for (std::size_t i = 0; i < a.padded_nnz() && !acc.full(); ++i) {
    acc.check(a.col_idx()[i] >= 0 && a.col_idx()[i] < a.cols(),
              [&](auto& os) {
                os << "entry " << i << ": column " << a.col_idx()[i]
                   << " out of [0, " << a.cols() << ")";
              });
  }
  // Padding entries must not change the product.
  for (std::size_t i = a.nnz(); i < a.padded_nnz() && !acc.full(); ++i)
    acc.check(a.vals()[i] == value_t{0}, [&](auto& os) {
      os << "padding entry " << i << " carries non-zero value "
         << a.vals()[i];
    });

  if (ref && issues.empty()) {
    const sparse::Coo want = sparse::csr_to_coo(*ref);
    acc.check(a.nnz() == want.nnz(), [&](auto& os) {
      os << "holds " << a.nnz() << " entries, source has " << want.nnz();
    });
    if (a.nnz() == want.nnz()) {
      for (std::size_t i = 0; i < want.nnz() && !acc.full(); ++i) {
        acc.check(rows[i] == want.row_idx[i] &&
                      a.col_idx()[i] == want.col_idx[i] &&
                      a.vals()[i] == want.vals[i],
                  [&](auto& os) {
                    os << "entry " << i << ": (" << rows[i] << ", "
                       << a.col_idx()[i]
                       << ") differs from source — row-index compression is "
                          "not lossless";
                  });
      }
    }
  }
  return issues;
}

Issues validate_bro_hyb(const core::BroHyb& a, const sparse::Csr* ref) {
  Issues issues;
  Acc acc(issues);
  acc.check(a.ell_part().rows() == a.rows() &&
                a.ell_part().cols() == a.cols(),
            [&](auto& os) {
              os << "ELL part is " << a.ell_part().rows() << " x "
                 << a.ell_part().cols() << ", matrix is " << a.rows() << " x "
                 << a.cols();
            });
  acc.check(a.coo_part().rows() == a.rows() &&
                a.coo_part().cols() == a.cols(),
            [&](auto& os) {
              os << "COO part is " << a.coo_part().rows() << " x "
                 << a.coo_part().cols() << ", matrix is " << a.rows() << " x "
                 << a.cols();
            });
  acc.check(a.split_width() == a.ell_part().width(), [&](auto& os) {
    os << "split width " << a.split_width() << " != ELL part width "
       << a.ell_part().width();
  });
  for (auto& issue : validate_bro_ell(a.ell_part()))
    issues.push_back("ELL part: " + issue);
  for (auto& issue : validate_bro_coo(a.coo_part()))
    issues.push_back("COO part: " + issue);
  if (!issues.empty() || !ref) return issues;

  // Lossless recomposition: ELL-part rows merged with the COO overflow must
  // reproduce the source exactly.
  sparse::Coo merged = sparse::csr_to_coo(
      sparse::ell_to_csr(a.ell_part().decompress()));
  merged.rows = a.rows();
  merged.cols = a.cols();
  const auto coo_rows = a.coo_part().decode_rows();
  for (std::size_t i = 0; i < a.coo_part().nnz(); ++i)
    merged.push(coo_rows[i], a.coo_part().col_idx()[i],
                a.coo_part().vals()[i]);
  compare_csr(acc, "BRO-HYB recomposition", sparse::coo_to_csr(merged), *ref);
  return issues;
}

Issues validate_bro_csr(const core::BroCsr& a, const sparse::Csr* ref) {
  Issues issues;
  Acc acc(issues);
  acc.check(a.row_ptr().size() == static_cast<std::size_t>(a.rows()) + 1,
            [&](auto& os) {
              os << "row_ptr has " << a.row_ptr().size()
                 << " entries, expected " << a.rows() + 1;
            });
  acc.check(a.bits_per_row().size() == static_cast<std::size_t>(a.rows()),
            [&](auto& os) {
              os << "bits_per_row has " << a.bits_per_row().size()
                 << " entries, expected " << a.rows();
            });
  acc.check(a.row_sym_ptr().size() == static_cast<std::size_t>(a.rows()) + 1,
            [&](auto& os) {
              os << "row_sym_ptr has " << a.row_sym_ptr().size()
                 << " entries, expected " << a.rows() + 1;
            });
  if (!issues.empty()) return issues;
  acc.check(a.row_ptr().front() == 0 &&
                static_cast<std::size_t>(a.row_ptr().back()) == a.nnz(),
            [&](auto& os) {
              os << "row_ptr spans [" << a.row_ptr().front() << ", "
                 << a.row_ptr().back() << "], expected [0, " << a.nnz() << "]";
            });
  acc.check(a.row_sym_ptr().front() == 0 &&
                a.row_sym_ptr().back() == a.total_symbols(),
            [&](auto& os) {
              os << "row_sym_ptr spans [" << a.row_sym_ptr().front() << ", "
                 << a.row_sym_ptr().back() << "], stream has "
                 << a.total_symbols() << " symbols";
            });
  for (index_t r = 0; r < a.rows() && !acc.full(); ++r) {
    acc.check(a.row_ptr()[r + 1] >= a.row_ptr()[r], [&](auto& os) {
      os << "row_ptr not monotone at row " << r;
    });
    acc.check(a.row_sym_ptr()[r + 1] >= a.row_sym_ptr()[r], [&](auto& os) {
      os << "row_sym_ptr not monotone at row " << r;
    });
    const int b = a.bits_per_row()[static_cast<std::size_t>(r)];
    acc.check(b >= 1 && b <= 32, [&](auto& os) {
      os << "row " << r << " bit width " << b << " out of [1, 32]";
    });
  }
  if (!issues.empty()) return issues;

  for (index_t r = 0; r < a.rows() && !acc.full(); ++r) {
    const std::vector<index_t> cols = a.decode_row(r);
    index_t prev = -1;
    for (const index_t c : cols) {
      acc.check(c > prev && c >= 0 && c < a.cols(), [&](auto& os) {
        os << "row " << r << ": decoded column " << c
           << " not strictly increasing in [0, " << a.cols() << ")";
      });
      prev = c;
    }
    if (ref) {
      const auto want = ref->row_cols(r);
      acc.check(cols.size() == want.size() &&
                    std::equal(cols.begin(), cols.end(), want.begin()),
                [&](auto& os) {
                  os << "row " << r
                     << ": decoded columns differ from the source — per-row "
                        "bit width insufficient or stream corrupt";
                });
    }
  }
  if (ref) {
    acc.check(a.vals() == ref->vals,
              [&](auto& os) { os << "values differ from source"; });
    acc.check(a.row_ptr() == ref->row_ptr,
              [&](auto& os) { os << "row_ptr differs from source"; });
  }
  return issues;
}

Issues validate_bro_ans(const core::BroAns& a, const sparse::Csr* ref) {
  Issues issues;
  Acc acc(issues);
  const std::size_t expect = static_cast<std::size_t>(a.rows()) *
                             static_cast<std::size_t>(a.width());
  acc.check(a.vals().size() == expect, [&](auto& os) {
    os << "vals holds " << a.vals().size() << " entries, expected rows*width "
       << expect;
  });
  const auto& tbl = a.table();
  acc.check(tbl.table_log() >= bits::AnsTable::kMinTableLog &&
                tbl.table_log() <= bits::AnsTable::kMaxTableLog,
            [&](auto& os) {
              os << "table_log " << tbl.table_log() << " out of ["
                 << bits::AnsTable::kMinTableLog << ", "
                 << bits::AnsTable::kMaxTableLog << "]";
            });
  std::uint64_t fsum = 0;
  for (const auto f : tbl.freqs()) fsum += f;
  acc.check(fsum == tbl.size(), [&](auto& os) {
    os << "frequency table sums to " << fsum << ", expected table size "
       << tbl.size();
  });

  // The slices must tile [0, rows) contiguously.
  index_t next_row = 0;
  for (std::size_t s = 0; s < a.slices().size(); ++s) {
    const auto& sl = a.slices()[s];
    acc.check(sl.first_row == next_row, [&](auto& os) {
      os << "slice " << s << " starts at row " << sl.first_row << ", expected "
         << next_row;
    });
    acc.check(sl.height > 0 && sl.height <= a.options().slice_height,
              [&](auto& os) {
                os << "slice " << s << " height " << sl.height
                   << " out of (0, " << a.options().slice_height << "]";
              });
    acc.check(sl.num_col >= 0 && sl.num_col <= a.width(), [&](auto& os) {
      os << "slice " << s << " num_col " << sl.num_col << " exceeds width "
         << a.width();
    });
    // v2 interleaved layout: one initial state per row (below table size)
    // and one lane-group stream per kAnsLaneGroup rows, each stream as
    // tall as its group.
    acc.check(sl.init_states.size() == static_cast<std::size_t>(sl.height),
              [&](auto& os) {
                os << "slice " << s << " carries " << sl.init_states.size()
                   << " initial states for " << sl.height << " rows";
              });
    for (const auto st : sl.init_states) {
      if (st >= tbl.size()) {
        acc.check(false, [&](auto& os) {
          os << "slice " << s << " initial state " << st
             << " outside table size " << tbl.size();
        });
        break;
      }
    }
    const index_t ng = core::ans_num_groups(sl.height);
    acc.check(sl.groups.size() == static_cast<std::size_t>(ng),
              [&](auto& os) {
                os << "slice " << s << " has " << sl.groups.size()
                   << " lane groups, expected " << ng;
              });
    if (sl.groups.size() == static_cast<std::size_t>(ng)) {
      for (index_t g = 0; g < ng; ++g) {
        const auto& mux = sl.groups[static_cast<std::size_t>(g)];
        acc.check(mux.height() == static_cast<std::size_t>(
                                      core::ans_group_width(sl.height, g)),
                  [&](auto& os) {
                    os << "slice " << s << " group " << g << " holds "
                       << mux.height() << " lanes, expected "
                       << core::ans_group_width(sl.height, g);
                  });
      }
    }
    next_row = sl.first_row + sl.height;
  }
  acc.check(next_row == a.rows(), [&](auto& os) {
    os << "slices cover rows [0, " << next_row << "), matrix has " << a.rows();
  });
  if (!issues.empty()) return issues;

  // Decode every row: columns must be strictly increasing and in range, and
  // with a reference, identical to the source row — entropy decode has no
  // per-slot width to cross-check, so lossless round-trip is the whole
  // correctness story.
  for (const auto& sl : a.slices()) {
    for (index_t i = 0; i < sl.height && !acc.full(); ++i) {
      const index_t r = sl.first_row + i;
      const std::vector<index_t> cols = a.decode_row(r);
      index_t prev = -1;
      for (const index_t c : cols) {
        acc.check(c > prev && c >= 0 && c < a.cols(), [&](auto& os) {
          os << "row " << r << ": decoded column " << c
             << " not strictly increasing in [0, " << a.cols() << ")";
        });
        prev = c;
      }
      if (!ref) continue;
      const auto want = ref->row_cols(r);
      const bool match = cols.size() == want.size() &&
                         std::equal(cols.begin(), cols.end(), want.begin());
      acc.check(match, [&](auto& os) {
        os << "row " << r << ": decoded " << cols.size()
           << " columns that differ from the source row (" << want.size()
           << " entries) — entropy stream corrupt or not lossless";
      });
      if (match) {
        const auto want_vals = ref->row_vals(r);
        for (std::size_t j = 0; j < want_vals.size(); ++j)
          acc.check(a.val_at(r, static_cast<index_t>(j)) == want_vals[j],
                    [&](auto& os) {
                      os << "row " << r << " entry " << j
                         << ": value differs from source";
                    });
      }
    }
  }
  return issues;
}

Issues validate_bro_bcsr(const core::BroBcsr& a, const sparse::Csr* ref) {
  Issues issues;
  Acc acc(issues);
  const int br = a.block_r();
  const int bc = a.block_c();
  acc.check(br >= 1 && br <= 8 &&
                (bc == 1 || bc == 2 || bc == 4 || bc == 8),
            [&](auto& os) {
              os << "block shape " << br << "x" << bc
                 << " outside the candidate space (r in [1,8], c in "
                    "{1,2,4,8})";
            });
  if (!issues.empty()) return issues;

  // The slices must tile [0, block_rows) contiguously, with sane widths and
  // a value array holding exactly one tile per (block row, column slot).
  const index_t block_rows = (a.rows() + br - 1) / br;
  acc.check(a.block_rows() == block_rows, [&](auto& os) {
    os << "block_rows " << a.block_rows() << " != ceil(rows/br) "
       << block_rows;
  });
  const auto tile = static_cast<std::size_t>(br) * static_cast<std::size_t>(bc);
  std::size_t want_slots = 0;
  index_t next = 0;
  for (std::size_t s = 0; s < a.slices().size(); ++s) {
    const auto& sl = a.slices()[s];
    acc.check(sl.first_row == next, [&](auto& os) {
      os << "slice " << s << " starts at block row " << sl.first_row
         << ", expected " << next;
    });
    acc.check(sl.height > 0 && sl.height <= a.options().slice_height,
              [&](auto& os) {
                os << "slice " << s << " height " << sl.height
                   << " out of (0, " << a.options().slice_height << "]";
              });
    acc.check(sl.bit_alloc.size() == static_cast<std::size_t>(sl.num_col),
              [&](auto& os) {
                os << "slice " << s << " bit_alloc has " << sl.bit_alloc.size()
                   << " widths for " << sl.num_col << " columns";
              });
    for (const auto b : sl.bit_alloc)
      acc.check(b >= 1 && b <= 32, [&](auto& os) {
        os << "slice " << s << " bit width " << int(b) << " out of [1, 32]";
      });
    want_slots += static_cast<std::size_t>(sl.height) *
                  static_cast<std::size_t>(sl.num_col) * tile;
    next = sl.first_row + sl.height;
  }
  acc.check(next == block_rows, [&](auto& os) {
    os << "slices cover block rows [0, " << next << "), matrix has "
       << block_rows;
  });
  acc.check(a.value_slots() == want_slots, [&](auto& os) {
    os << "vals holds " << a.value_slots() << " entries, expected "
       << want_slots;
  });
  if (!issues.empty()) return issues;

  // Decoded block columns must be strictly increasing and in range.
  const index_t bcols = (a.cols() + bc - 1) / bc;
  for (index_t b = 0; b < block_rows && !acc.full(); ++b) {
    index_t prev = -1;
    for (const index_t c : a.decode_block_row(b)) {
      acc.check(c > prev && c >= 0 && c < bcols, [&](auto& os) {
        os << "block row " << b << ": decoded block column " << c
           << " not strictly increasing in [0, " << bcols << ")";
      });
      prev = c;
    }
  }
  if (!issues.empty() || !ref) return issues;

  // Block-cover-exactness: the cover's CSR must contain every reference
  // entry with its exact value, and nothing else but explicit fill zeros.
  const sparse::Csr cover = a.to_csr();
  structural_csr(acc, cover);
  acc.check(cover.rows == ref->rows && cover.cols == ref->cols,
            [&](auto& os) {
              os << "cover dimensions " << cover.rows << " x " << cover.cols
                 << " != reference " << ref->rows << " x " << ref->cols;
            });
  if (!issues.empty()) return issues;
  for (index_t r = 0; r < ref->rows && !acc.full(); ++r) {
    std::size_t g = static_cast<std::size_t>(cover.row_ptr[r]);
    const std::size_t gend = static_cast<std::size_t>(cover.row_ptr[r + 1]);
    for (std::size_t e = static_cast<std::size_t>(ref->row_ptr[r]);
         e < static_cast<std::size_t>(ref->row_ptr[r + 1]); ++e) {
      while (g < gend && cover.col_idx[g] < ref->col_idx[e]) {
        acc.check(cover.vals[g] == value_t{0}, [&](auto& os) {
          os << "row " << r << " column " << cover.col_idx[g]
             << ": cover adds a non-zero value absent from the source";
        });
        ++g;
      }
      const bool found = g < gend && cover.col_idx[g] == ref->col_idx[e];
      acc.check(found, [&](auto& os) {
        os << "row " << r << " column " << ref->col_idx[e]
           << ": source entry missing from the block cover";
      });
      if (!found) continue;
      acc.check(cover.vals[g] == ref->vals[e], [&](auto& os) {
        os << "row " << r << " column " << ref->col_idx[e]
           << ": cover value differs from the source";
      });
      ++g;
    }
    for (; g < gend; ++g)
      acc.check(cover.vals[g] == value_t{0}, [&](auto& os) {
        os << "row " << r << " column " << cover.col_idx[g]
           << ": cover adds a non-zero value absent from the source";
      });
  }
  return issues;
}

} // namespace bro::check
