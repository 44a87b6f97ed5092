#include "core/bro_ans.h"

#include <algorithm>

#include "bits/delta.h"
#include "sparse/convert.h"
#include "util/error.h"

namespace bro::core {

AnsRowDecoder::AnsRowDecoder(const bits::AnsTable& table,
                             const BroAnsSlice& slice, index_t row_in_slice,
                             int sym_len)
    : table_(&table),
      fields_(slice.groups[static_cast<std::size_t>(row_in_slice /
                                                    kAnsLaneGroup)],
              row_in_slice % kAnsLaneGroup, sym_len),
      state_(table.size() +
             slice.init_states[static_cast<std::size_t>(row_in_slice)]) {
  BRO_CHECK_MSG(state_ < 2 * table.size(),
                "BRO-ANS initial state outside the table");
}

BroAns BroAns::compress(const sparse::Csr& csr, index_t width,
                        BroAnsOptions opts) {
  BRO_CHECK_MSG(opts.slice_height > 0, "slice height must be positive");
  BRO_CHECK_MSG(opts.sym_len == 32 || opts.sym_len == 64,
                "sym_len must be 32 or 64");

  BroAns out;
  out.rows_ = csr.rows;
  out.cols_ = csr.cols;
  out.width_ = width;
  out.opts_ = opts;
  out.vals_ = ell_values(csr, width);

  const index_t h = opts.slice_height;
  const index_t num_slices = csr.rows == 0 ? 0 : (csr.rows + h - 1) / h;
  out.slices_.resize(static_cast<std::size_t>(num_slices));

  // Row t of a slice as num_col deltas (0 = padding), from its CSR row.
  const auto row_deltas = [&](const BroAnsSlice& slice, index_t t) {
    auto deltas =
        bits::delta_encode_row(ell_row(csr, slice.first_row + t, width));
    deltas.resize(static_cast<std::size_t>(slice.num_col), bits::kInvalidDelta);
    return deltas;
  };

  // Pass 1: fix each slice's column count and histogram the delta
  // bit-width classes (padding slots count as class 0 — they are coded
  // too, exactly like BRO-ELL's sentinel deltas).
  std::vector<std::uint64_t> histogram(bits::AnsTable::kNumClasses, 0);
  for (index_t s = 0; s < num_slices; ++s) {
    BroAnsSlice& slice = out.slices_[static_cast<std::size_t>(s)];
    slice.first_row = s * h;
    slice.height = std::min<index_t>(h, csr.rows - slice.first_row);
    for (index_t t = 0; t < slice.height; ++t)
      slice.num_col = std::max(
          slice.num_col,
          static_cast<index_t>(ell_row(csr, slice.first_row + t, width).size()));
    for (index_t t = 0; t < slice.height; ++t)
      for (const std::uint32_t d : row_deltas(slice, t))
        ++histogram[static_cast<std::size_t>(bits::ans_class_of(d))];
  }
  out.table_ = bits::AnsTable::from_histogram(histogram, opts.table_log);

  // Pass 2: entropy-code each row against the shared table into a
  // fields-only stream (the initial state goes to init_states) and
  // multiplex lane group by lane group. Entropy-coded rows differ in
  // length, so each is zero-padded to its group's longest row: the pad
  // bound is the max over 8 rows, not over the whole slice, which is what
  // keeps the interleaved layout competitive.
  const auto sym = static_cast<std::size_t>(opts.sym_len);
  util::parallel_for_slices(num_slices, [&](index_t s) {
    BroAnsSlice& slice = out.slices_[static_cast<std::size_t>(s)];
    slice.init_states.assign(static_cast<std::size_t>(slice.height), 0);
    slice.groups.resize(static_cast<std::size_t>(ans_num_groups(slice.height)));
    std::vector<bits::AnsEncSym> scratch;
    for (std::size_t g = 0; g < slice.groups.size(); ++g) {
      const auto gw = static_cast<std::size_t>(
          ans_group_width(slice.height, static_cast<index_t>(g)));
      std::vector<bits::BitString> rows(gw);
      std::size_t max_bits = 0;
      for (std::size_t j = 0; j < gw && slice.num_col > 0; ++j) {
        const std::size_t t = g * kAnsLaneGroup + j;
        slice.init_states[t] = static_cast<std::uint16_t>(
            bits::ans_encode_row_split(out.table_,
                                       row_deltas(slice, static_cast<index_t>(t)),
                                       scratch, rows[j]));
        max_bits = std::max(max_bits, rows[j].size_bits());
      }
      bits::MuxedStream& group = slice.groups[g];
      group = bits::MuxedStream(opts.sym_len, gw, (max_bits + sym - 1) / sym);
      for (std::size_t j = 0; j < gw; ++j)
        for (std::size_t c = 0; c < rows[j].symbol_count(opts.sym_len); ++c)
          group.set_slot(c * gw + j, rows[j].symbol(c, opts.sym_len));
    }
  });
  return out;
}

BroAns BroAns::compress(const sparse::Ell& ell, BroAnsOptions opts) {
  return compress(sparse::ell_to_csr(ell), ell.width, opts);
}

std::vector<index_t> BroAns::decode_row(index_t row) const {
  BRO_CHECK(row >= 0 && row < rows_);
  const auto& slice =
      slices_[static_cast<std::size_t>(row / opts_.slice_height)];
  std::vector<index_t> cols;
  if (slice.num_col == 0) return cols;
  AnsRowDecoder dec(table_, slice, row - slice.first_row, opts_.sym_len);
  index_t acc = -1;
  for (index_t c = 0; c < slice.num_col; ++c) {
    const std::uint32_t d = dec.next();
    if (d == bits::kInvalidDelta) continue;
    acc += static_cast<index_t>(d);
    cols.push_back(acc);
  }
  return cols;
}

void BroAns::spmv(std::span<const value_t> x, std::span<value_t> y) const {
  BRO_CHECK(x.size() == static_cast<std::size_t>(cols_));
  BRO_CHECK(y.size() == static_cast<std::size_t>(rows_));
  for (const BroAnsSlice& slice : slices_) {
    for (index_t t = 0; t < slice.height; ++t) {
      const index_t r = slice.first_row + t;
      value_t sum = 0;
      if (slice.num_col > 0) {
        AnsRowDecoder dec(table_, slice, t, opts_.sym_len);
        index_t col = -1;
        for (index_t c = 0; c < slice.num_col; ++c) {
          const std::uint32_t d = dec.next();
          if (d == bits::kInvalidDelta) continue;
          col += static_cast<index_t>(d);
          sum += val_at(r, c) * x[static_cast<std::size_t>(col)];
        }
      }
      y[static_cast<std::size_t>(r)] = sum;
    }
  }
}

std::size_t BroAns::compressed_index_bytes() const {
  std::size_t total = table_.serialized_bytes();
  for (const auto& s : slices_) {
    for (const auto& g : s.groups) total += g.byte_size();
    total += s.init_states.size() * sizeof(std::uint16_t);
    total += sizeof(index_t); // num_col entry
  }
  return total;
}

std::size_t BroAns::resident_index_bytes() const {
  std::size_t total = table_.resident_bytes();
  for (const auto& s : slices_) {
    for (const auto& g : s.groups) total += g.resident_bytes();
    total += s.init_states.size() * sizeof(std::uint16_t);
    total += sizeof(index_t);
  }
  return total;
}

std::size_t BroAns::original_index_bytes() const {
  return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(width_) *
         sizeof(index_t);
}

} // namespace bro::core
