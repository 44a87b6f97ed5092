// The library's one parallel loop over independent tasks (slices of rows,
// tiles, intervals).
#pragma once

#include <functional>

#include "util/types.h"

namespace bro::util {

/// Run fn(s) for every slice s in [0, n) as an OpenMP parallel for over
/// the current thread count; fn must write only slice s's output. The
/// first exception a slice throws is rethrown after the loop.
void parallel_for_slices(index_t n, const std::function<void(index_t)>& fn);

} // namespace bro::util
