#include "bits/mux.h"

#include <cstring>

#include "util/error.h"

namespace bro::bits {

MuxedStream::MuxedStream(int sym_len, std::size_t height,
                         std::size_t symbols_per_row)
    : sym_len_(sym_len), height_(height), symbols_per_row_(symbols_per_row) {
  BRO_CHECK_MSG(sym_len == 32 || sym_len == 64,
                "sym_len must be 32 or 64, got " << sym_len);
  const std::size_t n = height * symbols_per_row;
  if (sym_len == 32)
    slots32_.assign(n, 0);
  else
    slots64_.assign(n, 0);
}

void MuxedStream::set_slot(std::size_t i, std::uint64_t v) {
  if (sym_len_ == 32) {
    BRO_CHECK_MSG(v <= 0xffffffffull,
                  "symbol value does not fit a 32-bit slot");
    slots32_[i] = static_cast<std::uint32_t>(v);
  } else {
    slots64_[i] = v;
  }
}

MuxedStream MuxedStream::from_u64_slots(int sym_len, std::size_t height,
                                        std::size_t symbols_per_row,
                                        std::span<const std::uint8_t> bytes) {
  MuxedStream out(sym_len, height, symbols_per_row);
  const std::size_t n = out.total_symbols();
  BRO_CHECK_MSG(bytes.size() == n * sizeof(std::uint64_t),
                "slot bytes do not match the stream dimensions");
  if (sym_len == 64) {
    if (n > 0) std::memcpy(out.slots64_.data(), bytes.data(), bytes.size());
    return out;
  }
  std::uint64_t wide = 0; // OR of every slot: one range check at the end
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + i * sizeof(v), sizeof(v));
    wide |= v;
    out.slots32_[i] = static_cast<std::uint32_t>(v);
  }
  BRO_CHECK_MSG(wide <= 0xffffffffull,
                "symbol value does not fit a 32-bit slot");
  return out;
}

MuxedStream MuxedStream::interleave(std::span<const BitString> rows,
                                    int sym_len) {
  BRO_CHECK(!rows.empty());
  const std::size_t h = rows.size();
  std::size_t symbols = rows[0].symbol_count(sym_len);
  for (const auto& r : rows) {
    BRO_CHECK_MSG(r.symbol_count(sym_len) == symbols,
                  "all row streams must have equal symbol counts (pad first)");
  }
  MuxedStream out(sym_len, h, symbols);
  for (std::size_t c = 0; c < symbols; ++c)
    for (std::size_t t = 0; t < h; ++t)
      out.set_slot(c * h + t, rows[t].symbol(c, sym_len));
  return out;
}

} // namespace bro::bits
