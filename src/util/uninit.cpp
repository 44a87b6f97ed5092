#include "util/uninit.h"

#include <cstdint>

#include <sys/mman.h>

namespace bro::util {

void advise_huge_pages(void* p, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
  constexpr std::uintptr_t kHuge = std::uintptr_t{2} << 20;
  if (p == nullptr || bytes < kHugePageBytes) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = (begin + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t last = (begin + bytes) & ~(kHuge - 1);
  // The advice is a hint: a kernel without transparent huge pages rejects
  // it, and the memory stays on small pages.
  if (first < last)
    (void)::madvise(reinterpret_cast<void*>(first), last - first,
                    MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

} // namespace bro::util
