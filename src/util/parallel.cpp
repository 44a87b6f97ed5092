#include "util/parallel.h"

#include <exception>

namespace bro::util {

void parallel_for_slices(index_t n, const std::function<void(index_t)>& fn) {
  std::exception_ptr error;
#pragma omp parallel for schedule(dynamic, 1) if (n > 1)
  for (index_t s = 0; s < n; ++s) {
    try {
      fn(s);
    } catch (...) {
#pragma omp critical(bro_slice_error)
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

} // namespace bro::util
