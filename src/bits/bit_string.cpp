#include "bits/bit_string.h"

#include "bits/bitwidth.h"

namespace bro::bits {

void BitString::append(std::uint64_t value, int nbits) {
  BRO_CHECK_MSG(nbits >= 0 && nbits <= 64, "nbits=" << nbits);
  if (nbits == 0) return;
  BRO_CHECK_MSG(nbits == 64 || value <= max_value_for_bits(nbits),
                "value " << value << " does not fit in " << nbits << " bits");

  std::size_t bit_pos = size_bits_;
  size_bits_ += static_cast<std::size_t>(nbits);
  words_.resize((size_bits_ + 63) / 64, 0);

  // Write MSB-first: the first appended bit lands at the highest free bit of
  // the current word.
  int remaining = nbits;
  while (remaining > 0) {
    const std::size_t word = bit_pos / 64;
    const int offset = static_cast<int>(bit_pos % 64); // bits already used
    const int room = 64 - offset;
    const int take = remaining < room ? remaining : room;
    // The `take` most significant of the remaining bits of `value`.
    const std::uint64_t chunk =
        (remaining == 64 && take == 64)
            ? value
            : (value >> (remaining - take)) & max_value_for_bits(take);
    words_[word] |= chunk << (room - take);
    bit_pos += static_cast<std::size_t>(take);
    remaining -= take;
  }
}

void BitString::append(const BitString& other) {
  std::size_t pos = 0;
  std::size_t left = other.size_bits_;
  while (left > 0) {
    const int take = left < 64 ? static_cast<int>(left) : 64;
    append(other.peek(pos, take), take);
    pos += static_cast<std::size_t>(take);
    left -= static_cast<std::size_t>(take);
  }
}

int BitString::pad_to_multiple(int multiple) {
  BRO_CHECK(multiple > 0);
  const int rem = static_cast<int>(size_bits_ % static_cast<std::size_t>(multiple));
  if (rem == 0) return 0;
  const int pad = multiple - rem;
  // Zero padding may exceed 64 bits in principle; append in chunks.
  int left = pad;
  while (left > 0) {
    const int take = left < 64 ? left : 64;
    append(0, take);
    left -= take;
  }
  return pad;
}

BitString BitString::from_words(std::vector<std::uint64_t> words,
                                std::size_t size_bits) {
  BRO_CHECK_MSG(words.size() == (size_bits + 63) / 64,
                "word count inconsistent with bit size");
  BitString out;
  out.words_ = std::move(words);
  out.size_bits_ = size_bits;
  return out;
}

std::uint64_t BitString::symbol(std::size_t index, int sym_len) const {
  BRO_CHECK_MSG(sym_len > 0 && sym_len <= 64, "sym_len=" << sym_len);
  return peek(index * static_cast<std::size_t>(sym_len), sym_len);
}

} // namespace bro::bits
