// Registry-backed definitions of the core::Matrix facade's format-generic
// surface. These live in the engine library (not core) so that the format
// registry is the only dispatch site in the codebase: core declares the
// interface, the registry supplies the behaviour.
#include "core/matrix.h"
#include "engine/format_registry.h"

namespace bro::core {

const char* format_name(Format f) { return engine::traits(f).name; }

Format Matrix::auto_format() const {
  return engine::auto_select(csr_, opts_.max_ell_expand);
}

Savings Matrix::savings() const {
  const auto& t = engine::traits(auto_format());
  return t.savings ? t.savings(*this) : Savings{};
}

} // namespace bro::core
