// BitString: an append-only big-endian bit string plus a matching reader.
//
// The BRO formats treat each matrix row's compressed indices as one long bit
// string: values are appended MSB-first, then the string is chopped into
// sym_len-bit symbols (Algorithm 1 consumes bits from the top of the symbol
// buffer via `decoded = sym[0:b]; sym <<= b`). BitString implements exactly
// that bit order so the packer and the GPU-style decoder agree.
#pragma once

#include <cstdint>
#include <vector>

#include "bits/bitwidth.h"
#include "util/error.h"

namespace bro::bits {

/// Read `nbits` bits starting at `bit_pos` (MSB-first order) from a word
/// sequence with size() and operator[]: a BitString's own words, or a
/// serialized stream's words read where they lie (core/serialize.cpp).
/// Bits beyond the last word read as zero.
template <typename Words>
std::uint64_t peek_bits(const Words& words, std::size_t bit_pos, int nbits) {
  BRO_CHECK_MSG(nbits >= 0 && nbits <= 64, "nbits=" << nbits);
  std::uint64_t out = 0;
  int remaining = nbits;
  while (remaining > 0) {
    const std::size_t word = bit_pos / 64;
    const int offset = static_cast<int>(bit_pos % 64);
    const int room = 64 - offset;
    const int take = remaining < room ? remaining : room;
    const std::uint64_t w = word < words.size() ? words[word] : 0;
    // Bits [offset, offset+take) of w, counting from the MSB side.
    const std::uint64_t chunk = (w >> (room - take)) & max_value_for_bits(take);
    out = (take == 64) ? chunk : ((out << take) | chunk);
    bit_pos += static_cast<std::size_t>(take);
    remaining -= take;
  }
  return out;
}

class BitString {
 public:
  BitString() = default;

  /// Append the low `nbits` bits of `value`, most significant bit first.
  /// nbits must be in [0, 64] and value must fit in nbits bits.
  void append(std::uint64_t value, int nbits);

  /// Append every bit of `other`, preserving order.
  void append(const BitString& other);

  /// Total number of bits appended so far.
  std::size_t size_bits() const { return size_bits_; }

  /// Pad with zero bits so that `multiple` divides size_bits().
  /// Returns the number of padding bits added.
  int pad_to_multiple(int multiple);

  /// Extract the symbol of width `sym_len` starting at bit `sym_len * index`.
  /// The symbol is returned right-aligned (low sym_len bits). Bits beyond
  /// size_bits() read as zero.
  std::uint64_t symbol(std::size_t index, int sym_len) const;

  /// Number of sym_len-wide symbols needed to hold the string.
  std::size_t symbol_count(int sym_len) const {
    return (size_bits_ + static_cast<std::size_t>(sym_len) - 1) /
           static_cast<std::size_t>(sym_len);
  }

  /// Read back `nbits` bits starting at `bit_pos` (MSB-first order).
  std::uint64_t peek(std::size_t bit_pos, int nbits) const {
    return peek_bits(words_, bit_pos, nbits);
  }

  /// Release the capacity that appends left beyond the stored words (for a
  /// finished, read-only stream).
  void shrink_to_fit() { words_.shrink_to_fit(); }

  // Serialization access: the raw word storage (big-endian bit order within
  // each word) and reconstruction from it.
  const std::vector<std::uint64_t>& words() const { return words_; }
  static BitString from_words(std::vector<std::uint64_t> words,
                              std::size_t size_bits);

 private:
  std::vector<std::uint64_t> words_; // big-endian bit order within each word
  std::size_t size_bits_ = 0;
};

/// Sequential reader over a BitString (host-side verification path).
class BitStringReader {
 public:
  explicit BitStringReader(const BitString& s) : s_(&s) {}

  std::uint64_t read(int nbits) {
    const std::uint64_t v = s_->peek(pos_, nbits);
    pos_ += static_cast<std::size_t>(nbits);
    return v;
  }

  std::size_t position() const { return pos_; }
  bool exhausted() const { return pos_ >= s_->size_bits(); }

 private:
  const BitString* s_;
  std::size_t pos_ = 0;
};

} // namespace bro::bits
