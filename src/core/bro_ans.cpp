#include "core/bro_ans.h"

#include <algorithm>

#include "bits/bitwidth.h"
#include "bits/delta.h"
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

std::uint32_t AnsRowDecoder::next() {
  const std::uint32_t e = table_->entry(state_);
  const int cls = bits::AnsTable::entry_class(e);
  const int nb = bits::AnsTable::entry_bits(e);
  const std::uint32_t mantissa = cls > 0 ? fields_.next(cls - 1) : 0;
  state_ = bits::AnsTable::entry_base(e) + fields_.next(nb);
  return cls == 0 ? 0 : (1u << (cls - 1)) | mantissa;
}

BroAns BroAns::compress(const sparse::Ell& ell, BroAnsOptions opts) {
  BRO_CHECK_MSG(opts.slice_height > 0, "slice height must be positive");
  BRO_CHECK_MSG(opts.sym_len == 32 || opts.sym_len == 64,
                "sym_len must be 32 or 64");

  BroAns out;
  out.rows_ = ell.rows;
  out.cols_ = ell.cols;
  out.width_ = ell.width;
  out.opts_ = opts;
  out.vals_ = ell.vals;

  const index_t h = opts.slice_height;
  const index_t num_slices = ell.rows == 0 ? 0 : (ell.rows + h - 1) / h;
  out.slices_.resize(static_cast<std::size_t>(num_slices));

  // Pass 1: delta-encode every row, fix each slice's column count, and
  // histogram the delta bit-width classes (padding slots count as class 0 —
  // they are coded too, exactly like BRO-ELL's sentinel deltas).
  std::vector<std::vector<std::vector<std::uint32_t>>> deltas(
      static_cast<std::size_t>(num_slices));
  std::vector<std::uint64_t> histogram(bits::AnsTable::kNumClasses, 0);
  for (index_t s = 0; s < num_slices; ++s) {
    BroAnsSlice& slice = out.slices_[static_cast<std::size_t>(s)];
    slice.first_row = s * h;
    slice.height = std::min<index_t>(h, ell.rows - slice.first_row);
    auto& slice_deltas = deltas[static_cast<std::size_t>(s)];
    slice_deltas.assign(static_cast<std::size_t>(slice.height), {});
    slice.num_col = 0;
    for (index_t t = 0; t < slice.height; ++t) {
      const index_t r = slice.first_row + t;
      index_t len = 0;
      while (len < ell.width && ell.col_at(r, len) != sparse::kPad) ++len;
      std::vector<index_t> row_cols(static_cast<std::size_t>(len));
      for (index_t j = 0; j < len; ++j) row_cols[j] = ell.col_at(r, j);
      slice_deltas[static_cast<std::size_t>(t)] =
          bits::delta_encode_row(row_cols);
      slice.num_col = std::max(slice.num_col, len);
    }
    for (index_t t = 0; t < slice.height; ++t) {
      const auto& d = slice_deltas[static_cast<std::size_t>(t)];
      for (index_t c = 0; c < slice.num_col; ++c) {
        const std::uint32_t v = static_cast<std::size_t>(c) < d.size()
                                    ? d[static_cast<std::size_t>(c)]
                                    : bits::kInvalidDelta;
        ++histogram[static_cast<std::size_t>(bits::ans_class_of(v))];
      }
    }
  }
  out.table_ = bits::AnsTable::from_histogram(histogram, opts.table_log);

  // Pass 2: entropy-code each row against the shared table into a
  // fields-only stream (the initial state goes to init_states), then pad
  // every row of a lane group to the group's longest stream (entropy-coded
  // rows differ in length; the mux requires equal symbol counts) and
  // multiplex group by group. Group-local padding is what keeps the
  // interleaved layout competitive: the pad bound is the max over 8 rows,
  // not over the whole slice.
  std::vector<bits::AnsEncSym> scratch;
  std::vector<std::uint32_t> padded;
  for (index_t s = 0; s < num_slices; ++s) {
    BroAnsSlice& slice = out.slices_[static_cast<std::size_t>(s)];
    const auto& slice_deltas = deltas[static_cast<std::size_t>(s)];
    const index_t num_groups = ans_num_groups(slice.height);
    slice.init_states.assign(static_cast<std::size_t>(slice.height), 0);
    slice.groups.resize(static_cast<std::size_t>(num_groups));
    for (index_t g = 0; g < num_groups; ++g) {
      const index_t gw = ans_group_width(slice.height, g);
      if (slice.num_col == 0) {
        slice.groups[static_cast<std::size_t>(g)] =
            bits::MuxedStream(opts.sym_len, static_cast<std::size_t>(gw), 0);
        continue;
      }
      std::vector<bits::BitString> row_streams(static_cast<std::size_t>(gw));
      std::size_t max_bits = 0;
      for (index_t j = 0; j < gw; ++j) {
        const index_t t = g * kAnsLaneGroup + j;
        const auto& d = slice_deltas[static_cast<std::size_t>(t)];
        padded.assign(static_cast<std::size_t>(slice.num_col),
                      bits::kInvalidDelta);
        std::copy(d.begin(), d.end(), padded.begin());
        auto& bs = row_streams[static_cast<std::size_t>(j)];
        slice.init_states[static_cast<std::size_t>(t)] =
            static_cast<std::uint16_t>(
                bits::ans_encode_row_split(out.table_, padded, scratch, bs));
        max_bits = std::max(max_bits, bs.size_bits());
      }
      const std::size_t sym_len = static_cast<std::size_t>(opts.sym_len);
      const std::size_t target_bits =
          (max_bits + sym_len - 1) / sym_len * sym_len;
      for (auto& bs : row_streams) {
        while (bs.size_bits() < target_bits) {
          const std::size_t gap = target_bits - bs.size_bits();
          bs.append(0, static_cast<int>(std::min<std::size_t>(64, gap)));
        }
      }
      slice.groups[static_cast<std::size_t>(g)] =
          bits::MuxedStream::interleave(row_streams, opts.sym_len);
    }
  }
  return out;
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

sparse::Ell BroAns::decompress() const {
  sparse::Ell out;
  out.rows = rows_;
  out.cols = cols_;
  out.width = width_;
  out.col_idx.assign(static_cast<std::size_t>(rows_) * width_, sparse::kPad);
  out.vals = vals_;
  for (index_t r = 0; r < rows_; ++r) {
    const std::vector<index_t> cols = decode_row(r);
    for (std::size_t j = 0; j < cols.size(); ++j)
      out.col_idx[j * static_cast<std::size_t>(rows_) + r] = cols[j];
  }
  return out;
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
