// The core's one array type. Every large array of the library (CSR, COO
// and ELLPACK arrays, the BRO formats' value and column arrays, received
// payloads) is a UninitVector, for two reasons:
//
// - Its elements start uninitialized. std::vector's value-initialization
//   would zero (and so first-touch) every page on the allocating thread
//   before a parallel fill runs; here each page is first touched by the
//   thread that fills it. Only trivially default-constructible element
//   types may use it, and every element must be written before it is read.
// - An allocation of at least kHugePageBytes is advised onto transparent
//   huge pages, so filling it takes one fault per 2 MiB instead of one per
//   4 KiB.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace bro::util {

/// Allocations of at least this many bytes are advised onto huge pages.
/// It is glibc's 64-bit ceiling on the mmap threshold, so such a block is
/// always a mapping of its own: freeing it unmaps it, and no huge-page
/// advice is left behind on heap memory that smaller blocks reuse.
inline constexpr std::size_t kHugePageBytes = std::size_t{32} << 20;

/// madvise(MADV_HUGEPAGE) on the 2 MiB-aligned interior of [p, p + bytes)
/// when bytes >= kHugePageBytes; otherwise, or where the kernel has no
/// transparent huge pages, nothing. Never fails.
void advise_huge_pages(void* p, std::size_t bytes) noexcept;

/// std::allocator whose argument-less construct() default-initializes, so
/// resize(n) and vector(n) leave trivial elements unwritten, and whose
/// large allocations are advised onto huge pages (advise_huge_pages).
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  static_assert(std::is_trivially_default_constructible_v<T>);
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    T* p = std::allocator<T>::allocate(n);
    advise_huge_pages(p, n * sizeof(T));
    return p;
  }

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

} // namespace bro::util
