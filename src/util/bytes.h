// Little-endian byte-buffer encode/decode, the substrate of the network
// wire protocol (net/protocol.h). ByteWriter appends fixed-width scalars,
// length-prefixed strings and arrays to a growable byte vector; ByteReader
// is a bounds-checked cursor over a received buffer that throws
// std::runtime_error on underrun, so truncated payloads surface as typed
// decode failures instead of reads past the frame. It is the one binary
// reader of the codebase: wire frames and .bro streams (core/serialize.h)
// both parse through it.
//
// Scalars are encoded as their in-memory little-endian representation
// (the only byte order this codebase targets); strings and arrays carry a
// leading element count (u32 for strings, u64 for arrays).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace bro {

class ByteWriter {
 public:
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = buf_.size();
    buf_.resize(n + sizeof(T));
    std::memcpy(buf_.data() + n, &v, sizeof(T));
  }

  /// Overwrite a scalar already written at byte offset `off` (patching a
  /// length field once the bytes it counts are in place).
  template <typename T>
  void put_at(std::size_t off, T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    BRO_CHECK(off <= buf_.size() && sizeof(T) <= buf_.size() - off);
    std::memcpy(buf_.data() + off, &v, sizeof(T));
  }

  void put_bytes(const void* data, std::size_t n) {
    const auto off = buf_.size();
    buf_.resize(off + n);
    if (n > 0) std::memcpy(buf_.data() + off, data, n);
  }

  /// u32 length + raw bytes.
  void put_string(const std::string& s) {
    put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    put_bytes(s.data(), s.size());
  }

  /// u64 element count + packed elements.
  template <typename T>
  void put_array(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    put_bytes(v.data(), v.size() * sizeof(T));
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  /// Corrupted-length backstop on top of the bytes-left bound: no sane
  /// payload field holds a billion elements.
  static constexpr std::size_t kSaneCount = std::size_t{1} << 30;

  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(std::span<const std::uint8_t> buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == size_; }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    std::memcpy(&v, need(sizeof(T)), sizeof(T));
    return v;
  }

  std::string get_string(std::size_t max_len = kSaneCount) {
    const auto n = get<std::uint32_t>();
    BRO_CHECK_MSG(n <= max_len, "implausible string length " << n);
    const auto* p = need(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }

  /// A u64 element count whose elements occupy at least `min_bytes` each
  /// on the wire, checked against the bytes left *before* anything is
  /// sized by it: a stomped count fails here instead of asking for
  /// gigabytes.
  std::size_t get_count(std::size_t min_bytes,
                        std::size_t max_elems = kSaneCount) {
    const auto n = get<std::uint64_t>();
    BRO_CHECK_MSG(n <= max_elems && n <= remaining() / min_bytes,
                  "implausible element count " << n << " with "
                                               << remaining()
                                               << " bytes left");
    return static_cast<std::size_t>(n);
  }

  /// A counted array copied out, each element written once: the storage
  /// is reserved (not value-initialized) after get_count's bound, then
  /// filled from the wire bytes, which need not be aligned for T.
  template <typename T>
  std::vector<T> get_array(std::size_t max_elems = kSaneCount) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = get_count(sizeof(T), max_elems);
    const std::uint8_t* p = need(n * sizeof(T));
    std::vector<T> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i, p += sizeof(T)) {
      T e;
      std::memcpy(&e, p, sizeof(T));
      v.push_back(e);
    }
    return v;
  }

  /// A counted array borrowed in place: the element count, then a view of
  /// its bytes (valid while the underlying buffer lives).
  template <typename T>
  std::span<const std::uint8_t> get_array_bytes(
      std::size_t max_elems = kSaneCount) {
    static_assert(std::is_trivially_copyable_v<T>);
    return get_span(get_count(sizeof(T), max_elems) * sizeof(T));
  }

  /// Borrow `n` raw bytes (valid while the underlying buffer lives).
  std::span<const std::uint8_t> get_span(std::size_t n) {
    return {need(n), n};
  }

 private:
  const std::uint8_t* need(std::size_t n) {
    BRO_CHECK_MSG(n <= size_ - pos_, "payload underrun: need "
                                         << n << " bytes, have "
                                         << (size_ - pos_));
    const auto* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

} // namespace bro
