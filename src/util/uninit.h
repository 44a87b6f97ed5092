// Vectors whose elements start uninitialized. For large arrays that a
// parallel pass then overwrites in full: std::vector's value-initialization
// would zero (and so first-touch) every page on the allocating thread
// before the parallel fill runs. With UninitVector each page is first
// touched by the thread that fills it. Only trivially default-constructible
// element types may use it, and every element must be written before it is
// read.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace bro::util {

/// std::allocator whose argument-less construct() default-initializes, so
/// resize(n) and vector(n) leave trivial elements unwritten.
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
