// Minimal JSON text helpers for the benchmark's outputs.
#pragma once

#include <string>
#include <string_view>

namespace perf {

/// A JSON string literal, quotes included.
std::string json_string(std::string_view s);

/// A JSON number with every significant digit (%.17g); null when the value
/// is not finite, which JSON cannot express.
std::string json_number(double v);

} // namespace perf
