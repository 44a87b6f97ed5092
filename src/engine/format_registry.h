// bro::engine format registry — the single dispatch site for host
// execution.
//
// Every storage format the library knows (the paper's formats, their
// baselines and the extensions) registers one FormatTraits entry: its name,
// applicability predicate (the ELL-viability rule), a make hook that builds
// the representation from the CSR, and the host hooks that run on that
// representation (workspace build, reference apply, native kernels,
// validation, serialization, byte accounting). Ownership has one rule: a
// plan owns what it runs. The make hook's result lives in the
// engine::SpmvPlan that asked for it and dies with it. format_name, name
// parsing, auto-selection, the CLI's --format handling and the bench
// harness iterate this table. Adding a format takes one entry here and one
// case in the GPU simulator's own switch (engine/simulate.h).
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/matrix.h"
#include "core/savings.h"
#include "util/types.h"

namespace bro::engine {

class Workspace; // plan.h

/// A format's built representation: one heap object of the type its
/// registry entry's make hook chose, owned by the plan that runs it. Its
/// address is stable for the plan's lifetime, moves included.
using Representation = std::shared_ptr<const void>;

/// The CSR a representation is built from. BRO-ELL and BRO-HYB read their
/// values from it in place, so their representations keep it alive; a plan
/// passes an aliasing pointer into its core::Matrix.
using SharedCsr = std::shared_ptr<const sparse::Csr>;

/// A non-owning SharedCsr, for a caller that keeps `csr` alive for as long
/// as the representation built from it (a one-shot build-measure-drop).
SharedCsr borrow_csr(const sparse::Csr& csr);

/// One registry entry. Null hooks are left out of the designated
/// initializers; each hook's comment says what null means. `rep` is the
/// plan's representation: the make hook's object, or the matrix's CSR when
/// make is null.
struct FormatTraits {
  core::Format format;
  const char* name;       // the canonical display/CLI name ("BRO-ELL", ...)
  int auto_priority = -1; // auto_format(): lowest applicable wins; <0 = never

  /// Can this format hold the matrix without pathological expansion?
  /// (ELLPACK family: rows * max_row_length <= max_ell_expand * nnz.)
  bool (*applicable)(const sparse::Csr& csr, double max_ell_expand);

  /// The .bro stream stores every row padded to the longest row's length
  /// (BRO-ELL, BRO-ANS), so its size has no bound but ell_padding_fits.
  bool pads_rows = false;

  /// Builds the representation from the CSR and the matrix's options;
  /// intermediates are dropped before it returns. The representation may
  /// share ownership of `csr`. Null: the plan runs on the matrix's CSR
  /// itself.
  Representation (*make)(const SharedCsr& csr,
                         const core::MatrixOptions& opts) = nullptr;

  /// One-time plan step: pre-size the workspace so execute() never
  /// allocates. Null: nothing to pre-size.
  void (*build)(const void* rep, Workspace& ws) = nullptr;

  /// Sequential reference kernel.
  void (*apply)(const void* rep, std::span<const value_t> x,
                std::span<value_t> y) = nullptr;

  /// OpenMP host kernel fed from the plan workspace (null: falls back to
  /// apply — e.g. the sequential BRO-CSR extension).
  void (*native)(const void* rep, Workspace& ws, std::span<const value_t> x,
                 std::span<value_t> y) = nullptr;

  /// Multi-vector (SpMM) OpenMP host kernel over k interleaved right-hand
  /// sides (see kernels/native_spmm.h for the layout and the bitwise
  /// contract). Null: SpmvPlan::execute_multi falls back to k single-vector
  /// executes through gather/scatter scratch.
  void (*native_multi)(const void* rep, Workspace& ws,
                       std::span<const value_t> x, std::span<value_t> y,
                       int k) = nullptr;

  /// The same SpMV driver run with the generic_bro_*_kernel() choice
  /// instead of the plan's selection (null for formats without bit-level
  /// decode). Decodes bit-for-bit identically, so
  /// the differential fuzz driver compares it against native() *bitwise* —
  /// the parity oracle for the specialized kernels.
  void (*native_generic)(const void* rep, std::span<const value_t> x,
                         std::span<value_t> y) = nullptr;

  /// Structural + lossless-against-`source` invariant check of the
  /// representation (bro::check validators): one message per violation,
  /// empty = valid.
  std::vector<std::string> (*validate)(const void* rep,
                                       const sparse::Csr& source) = nullptr;

  /// Write the representation as a tagged .bro stream (null when the
  /// format has no on-disk form).
  void (*serialize)(std::ostream& out, const void* rep) = nullptr;

  /// Heap bytes the representation owns (null: the representation is the
  /// matrix's CSR). The CSR a representation shares is not counted: the
  /// plan charges it once. Feeds SpmvPlan::representation_bytes() and
  /// through it the serve layer's plan byte budget.
  std::size_t (*rep_bytes)(const void* rep) = nullptr;

  /// Index space savings of the representation (null for uncompressed
  /// formats: the BRO family is exactly the formats that set it).
  core::Savings (*rep_savings)(const void* rep) = nullptr;

  /// One-shot queries on a matrix: build the representation, measure it
  /// with rep_bytes / rep_savings, drop it. Null exactly where those are.
  std::size_t (*resident_bytes)(const core::Matrix& m) = nullptr;
  core::Savings (*savings)(const core::Matrix& m) = nullptr;
};

/// The ELL-viability rule: padding every row to the longest row's length
/// expands the non-zero count by at most max_ell_expand (an empty matrix
/// pads nothing).
bool ell_padding_fits(const sparse::Csr& csr, double max_ell_expand);

/// A format refused a matrix it cannot hold within its bound.
class NotApplicableError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The representation `t` writes as a .bro stream for `csr`, the one
/// build behind every writer of .bro bytes. Throws std::runtime_error when
/// the format has no serialized form, and NotApplicableError, naming the
/// format and `opts.max_ell_expand`, when the format pads its rows and
/// ell_padding_fits refuses the matrix: that stream would grow without a
/// bound. Every other matrix is written, whatever the format's gate for
/// auto-selection says of it.
Representation make_serializable(const FormatTraits& t, const SharedCsr& csr,
                                 const core::MatrixOptions& opts);

/// The registered formats, in core::Format enumeration order.
const std::vector<FormatTraits>& format_registry();

/// Traits lookup by enum value.
const FormatTraits& traits(core::Format f);

/// Name -> traits lookup (exact match on the canonical name); null when the
/// name is not registered.
const FormatTraits* find_format(std::string_view name);

/// All registered canonical names, in registry order.
std::vector<std::string> format_names();

/// Matrix::auto_format's heuristic over the registry: the applicable
/// format with the lowest non-negative auto_priority.
core::Format auto_select(const sparse::Csr& csr, double max_ell_expand);

} // namespace bro::engine
