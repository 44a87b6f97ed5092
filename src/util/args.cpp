#include "util/args.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "util/error.h"

namespace bro {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  BRO_CHECK_MSG(!it->second.empty(), "--" << key << " expects a number");
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  // The whole token must parse: "12abc" is an error, not 12.
  BRO_CHECK_MSG(end != it->second.c_str() && *end == '\0',
                "--" << key << " expects a number, got '" << it->second
                     << '\'');
  return v;
}

long Args::get_long(const std::string& key, long fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  BRO_CHECK_MSG(!it->second.empty(), "--" << key << " expects an integer");
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  BRO_CHECK_MSG(end != it->second.c_str() && *end == '\0',
                "--" << key << " expects an integer, got '" << it->second
                     << '\'');
  return v;
}

void Args::allow_only(const std::vector<std::string>& keys) const {
  for (const auto& [k, v] : options_)
    if (std::find(keys.begin(), keys.end(), k) == keys.end())
      throw std::runtime_error("unknown option --" + k);
}

} // namespace bro
