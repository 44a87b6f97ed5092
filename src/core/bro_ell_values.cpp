#include "core/bro_ell_values.h"

#include <algorithm>
#include <map>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "util/error.h"

namespace bro::core {

BroEllValues BroEllValues::compress(const sparse::Ell& ell,
                                    BroEllValuesOptions opts) {
  BroEllValues out;
  out.index_ = BroEll::compress(ell, opts.ell);

  out.values_.reserve(out.index_.slices().size());
  for (const BroEllSlice& slice : out.index_.slices()) {
    ValueSlice vs;
    if (slice.num_col == 0) {
      out.values_.push_back(std::move(vs));
      continue;
    }

    // Collect the slice's values (including padding zeros — they decode to
    // inert FMA operands exactly as in plain BRO-ELL).
    std::map<value_t, std::uint32_t> dict_map;
    bool fits = true;
    for (index_t t = 0; t < slice.height && fits; ++t)
      for (index_t c = 0; c < slice.num_col; ++c) {
        const value_t v = out.index_.val_at(slice.first_row + t, c);
        if (dict_map.emplace(v, 0).second && dict_map.size() > opts.max_dict) {
          fits = false;
          break;
        }
      }

    if (fits && !dict_map.empty()) {
      vs.dict.reserve(dict_map.size());
      std::uint32_t next = 0;
      for (auto& [v, code] : dict_map) {
        code = next++;
        vs.dict.push_back(v);
      }
      vs.code_bits = std::max(
          1, bits::bit_width_of(static_cast<std::uint64_t>(vs.dict.size() - 1)));

      const auto sym = static_cast<std::size_t>(opts.ell.sym_len);
      vs.codes = bits::MuxedStream(
          opts.ell.sym_len, static_cast<std::size_t>(slice.height),
          (static_cast<std::size_t>(slice.num_col * vs.code_bits) + sym - 1) /
              sym);
      for (index_t t = 0; t < slice.height; ++t) {
        bits::MuxRowWriter row(vs.codes, static_cast<std::size_t>(t));
        for (index_t c = 0; c < slice.num_col; ++c)
          row.append(dict_map.at(out.index_.val_at(slice.first_row + t, c)),
                     vs.code_bits);
        row.finish();
      }
    }
    out.values_.push_back(std::move(vs));
  }
  return out;
}

void BroEllValues::spmv(std::span<const value_t> x,
                        std::span<value_t> y) const {
  BRO_CHECK(x.size() == static_cast<std::size_t>(cols()));
  BRO_CHECK(y.size() == static_cast<std::size_t>(rows()));
  const int sym_len = index_.options().sym_len;

  for (std::size_t si = 0; si < index_.slices().size(); ++si) {
    const BroEllSlice& slice = index_.slices()[si];
    const ValueSlice& vs = values_[si];
    const bool coded = !vs.dict.empty();

    for (index_t t = 0; t < slice.height; ++t) {
      const index_t r = slice.first_row + t;
      RowStreamDecoder dec(slice, t, sym_len);

      RowStreamDecoder codes(vs.codes, t, sym_len); // read only if coded
      index_t col = -1;
      value_t sum = 0;
      for (index_t c = 0; c < slice.num_col; ++c) {
        const std::uint32_t d =
            dec.next(slice.bit_alloc[static_cast<std::size_t>(c)]);
        const value_t v = coded ? vs.dict[codes.next(vs.code_bits)]
                                : index_.val_at(r, c);
        if (d != bits::kInvalidDelta) {
          col += static_cast<index_t>(d);
          sum += v * x[static_cast<std::size_t>(col)];
        }
      }
      y[static_cast<std::size_t>(r)] = sum;
    }
  }
}

std::size_t BroEllValues::compressed_value_bytes() const {
  std::size_t total = 0;
  for (std::size_t si = 0; si < values_.size(); ++si) {
    const ValueSlice& vs = values_[si];
    if (vs.dict.empty()) {
      // Raw: the slice reads the ELLPACK values for its num_col columns.
      const BroEllSlice& slice = index_.slices()[si];
      total += static_cast<std::size_t>(slice.height) *
               static_cast<std::size_t>(slice.num_col) * sizeof(value_t);
    } else {
      total += vs.dict.size() * sizeof(value_t) + vs.codes.byte_size() + 2;
    }
  }
  return total;
}

std::size_t BroEllValues::original_value_bytes() const {
  return static_cast<std::size_t>(index_.rows()) *
         static_cast<std::size_t>(index_.width()) * sizeof(value_t);
}

double BroEllValues::dict_slice_fraction() const {
  if (values_.empty()) return 0;
  std::size_t coded = 0;
  for (const auto& vs : values_)
    if (!vs.dict.empty()) ++coded;
  return static_cast<double>(coded) / static_cast<double>(values_.size());
}

} // namespace bro::core
