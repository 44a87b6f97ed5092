// Symbol-stream multiplexing (the final stage of Fig. 1/2).
//
// Given h per-row bit strings that have been padded to the same number S of
// sym_len-bit symbols, the symbols are interleaved so that stream[c*h + t]
// holds symbol c of row t. During decompression, thread t of a slice loads
// consecutive groups of h symbols together with its warp-mates — a coalesced
// access pattern on the GPU.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "bits/bit_string.h"

namespace bro::bits {

/// A multiplexed stream of fixed-width symbols, stored at its true width:
/// sym_len=32 streams keep one uint32 per symbol, sym_len=64 streams one
/// uint64. The paper's entire premise is that SpMV is bandwidth-bound, so
/// the host-side decode path must not re-inflate each 32-bit symbol into a
/// 64-bit slot (2x the traffic the compression just saved). byte_size()
/// reports the packed size (sym_len bits per symbol), which now coincides
/// with the resident storage; the width-specialized kernels read the raw
/// slot array through data<SymT>().
class MuxedStream {
 public:
  MuxedStream() = default;
  MuxedStream(int sym_len, std::size_t height, std::size_t symbols_per_row);

  /// Build by interleaving `rows` (each padded to the same symbol count).
  static MuxedStream interleave(std::span<const BitString> rows, int sym_len);

  /// Load flat slots first, first + 1, ... from their serialized form, one
  /// little-endian u64 per slot (bytes.size() / 8 of them, unaligned).
  /// Throws if a 32-bit stream's slot does not fit 32 bits.
  void load_u64_slots(std::size_t first, std::span<const std::uint8_t> bytes);

  int sym_len() const { return sym_len_; }
  std::size_t height() const { return height_; }
  std::size_t symbols_per_row() const { return symbols_per_row_; }
  std::size_t total_symbols() const {
    return sym_len_ == 32 ? slots32_.size() : slots64_.size();
  }

  /// Symbol c of row t (the GPU access comp_str[c*h + t]).
  std::uint64_t at(std::size_t c, std::size_t t) const {
    const std::size_t i = c * height_ + t;
    return sym_len_ == 32 ? slots32_[i] : slots64_[i];
  }

  /// Linear access by flat symbol index.
  std::uint64_t operator[](std::size_t i) const {
    return sym_len_ == 32 ? slots32_[i] : slots64_[i];
  }

  /// Store flat symbol i. The value must fit in sym_len bits.
  void set_slot(std::size_t i, std::uint64_t v);

  /// Raw slot array for the width-specialized decode kernels. SymT must
  /// match the stream's symbol width (uint32_t for sym_len=32, uint64_t for
  /// sym_len=64).
  template <typename SymT>
  const SymT* data() const {
    static_assert(std::is_same_v<SymT, std::uint32_t> ||
                  std::is_same_v<SymT, std::uint64_t>);
    if constexpr (std::is_same_v<SymT, std::uint32_t>)
      return slots32_.data();
    else
      return slots64_.data();
  }

  /// True packed size in bytes (sym_len bits per symbol, byte-rounded
  /// per stream as a whole).
  std::size_t byte_size() const {
    return (total_symbols() * static_cast<std::size_t>(sym_len_) + 7) / 8;
  }

  /// Actual heap bytes of the slot storage. Equal to byte_size() now that
  /// symbols are stored at their true width — half the former one-uint64-
  /// per-symbol footprint for sym_len=32 streams. Feeds the plan's
  /// representation-byte accounting.
  std::size_t resident_bytes() const {
    return slots32_.size() * sizeof(std::uint32_t) +
           slots64_.size() * sizeof(std::uint64_t);
  }

  /// Simulated device address of flat symbol i relative to the stream base.
  std::size_t symbol_offset_bytes(std::size_t i) const {
    return i * static_cast<std::size_t>(sym_len_ / 8);
  }

 private:
  int sym_len_ = 32;
  std::size_t height_ = 0;
  std::size_t symbols_per_row_ = 0;
  std::vector<std::uint32_t> slots32_; // used when sym_len == 32
  std::vector<std::uint64_t> slots64_; // used when sym_len == 64
};

/// Writes one row of a MuxedStream: fields appended MSB-first, in exactly
/// BitString::append's bit order, land straight in the row's slots (symbol
/// c of row t at c*h + t) with no per-row BitString and no interleave.
/// The stream starts zeroed, so trailing zero fields need not be written.
class MuxRowWriter {
 public:
  MuxRowWriter(MuxedStream& stream, std::size_t row)
      : stream_(&stream), slot_(row) {}

  /// Append the low `nbits` bits of `value` (nbits in [0, 32]; value must
  /// fit in them).
  void append(std::uint32_t value, int nbits) {
    const int room = stream_->sym_len() - n_;
    if (nbits < room) {
      acc_ = (acc_ << nbits) | value;
      n_ += nbits;
      return;
    }
    const int rest = nbits - room; // bits that spill into the next symbol
    put((acc_ << room) | (std::uint64_t{value} >> rest));
    acc_ = value & ((std::uint64_t{1} << rest) - 1);
    n_ = rest;
  }

  /// Store the partial last symbol, zero-padded. Call once, at the end.
  void finish() {
    if (n_ > 0) put(acc_ << (stream_->sym_len() - n_));
  }

 private:
  void put(std::uint64_t symbol) {
    stream_->set_slot(slot_, symbol);
    slot_ += stream_->height();
  }

  MuxedStream* stream_;
  std::size_t slot_;      // flat slot of the row's next symbol
  std::uint64_t acc_ = 0; // the current symbol's first n_ bits
  int n_ = 0;
};

} // namespace bro::bits
