#include "engine/format_registry.h"

#include <algorithm>
#include <ostream>

#include "check/validate.h"
#include "core/serialize.h"
#include "engine/plan.h"
#include "kernels/native_spmm.h"
#include "kernels/native_spmv.h"
#include "sparse/spmv.h"
#include "util/error.h"

namespace bro::engine {

namespace {

using core::Format;
using core::Matrix;
using X = std::span<const value_t>;
using Y = std::span<value_t>;

bool always_applicable(const sparse::Csr&, double) { return true; }

bool nonzero_applicable(const sparse::Csr& csr, double) {
  return csr.nnz() > 0;
}

// The ELL-viability rule: padding to the longest row must not expand the
// non-zero count by more than max_ell_expand.
bool ell_applicable(const sparse::Csr& csr, double max_ell_expand) {
  return csr.nnz() > 0 &&
         static_cast<double>(csr.rows) *
                 static_cast<double>(csr.max_row_length()) <=
             max_ell_expand * static_cast<double>(csr.nnz());
}

/// The plan's representation as the type the entry's make hook built.
template <typename T>
const T& as(const void* rep) {
  return *static_cast<const T*>(rep);
}

template <typename T>
Representation own(T rep) {
  return std::make_shared<const T>(std::move(rep));
}

/// Index savings of the formats that report them over all index data.
template <typename T>
core::Savings index_savings(const void* rep) {
  const auto& bro = as<T>(rep);
  return core::make_savings(bro.original_index_bytes(),
                            bro.compressed_index_bytes());
}

// The one-shot queries: build F's representation of m, measure it through
// the plan path's hook, drop it.
template <Format F>
std::size_t resident_bytes_once(const Matrix& m) {
  const FormatTraits& t = traits(F);
  return t.rep_bytes(t.make(borrow_csr(m.csr()), m.options()).get());
}

template <Format F>
core::Savings savings_once(const Matrix& m) {
  const FormatTraits& t = traits(F);
  return t.rep_savings(t.make(borrow_csr(m.csr()), m.options()).get());
}

// The parity oracle's kernel choices: the generic decoder for every slice /
// interval, run through the same drivers as the plan's choices.
std::vector<kernels::BroEllKernel> generic_kernels(const core::BroEll& a) {
  return std::vector<kernels::BroEllKernel>(a.slices().size(),
                                            kernels::generic_bro_ell_kernel());
}

std::vector<kernels::BroCooKernel> generic_kernels(const core::BroCoo& a) {
  return std::vector<kernels::BroCooKernel>(a.intervals().size(),
                                            kernels::generic_bro_coo_kernel());
}

constexpr std::size_t kCooEntryBytes = 2 * sizeof(index_t) + sizeof(value_t);
constexpr std::size_t kEllEntryBytes = sizeof(index_t) + sizeof(value_t);

const std::vector<FormatTraits>& build_registry() {
  using sparse::Coo, sparse::Csr, sparse::Ell, sparse::EllR, sparse::Hyb;
  using core::BroAns, core::BroBcsr, core::BroCoo, core::BroCsr,
      core::BroEll, core::BroHyb;
  using Opts = core::MatrixOptions;
  static const std::vector<FormatTraits> registry = {
      // The host CSR reference is the correctness baseline. No make hook:
      // the plan runs on the matrix's own CSR.
      {.format = Format::kCsr, .name = "CSR", .auto_priority = 3,
       .applicable = always_applicable,
       .apply = [](const void* r, X x, Y y) {
         sparse::spmv_csr_reference(as<Csr>(r), x, y);
       },
       .native = [](const void* r, Workspace&, X x, Y y) {
         kernels::native_spmv_csr(as<Csr>(r), x, y);
       },
       .native_multi = [](const void* r, Workspace&, X x, Y y, int k) {
         kernels::native_spmm_csr(as<Csr>(r), x, y, k);
       },
       .validate = [](const void* r, const Csr&) {
         return check::validate_csr(as<Csr>(r));
       }},

      {.format = Format::kCoo, .name = "COO",
       .applicable = always_applicable,
       .make = [](const SharedCsr& csr, const Opts&) {
         return own(sparse::csr_to_coo(*csr));
       },
       .build = [](const void* r, Workspace& ws) { ws.coo_ranges(as<Coo>(r)); },
       .apply = [](const void* r, X x, Y y) {
         std::fill(y.begin(), y.end(), value_t{0});
         sparse::spmv_coo_accumulate(as<Coo>(r), x, y);
       },
       .native = [](const void* r, Workspace& ws, X x, Y y) {
         const auto& a = as<Coo>(r);
         kernels::native_spmv_coo(a, ws.coo_ranges(a), x, y);
       },
       .validate = [](const void* r, const Csr& src) {
         return check::validate_coo(as<Coo>(r), &src);
       },
       .rep_bytes = [](const void* r) {
         return as<Coo>(r).nnz() * kCooEntryBytes;
       },
       .resident_bytes = resident_bytes_once<Format::kCoo>},

      {.format = Format::kEll, .name = "ELLPACK",
       .applicable = ell_applicable,
       .make = [](const SharedCsr& csr, const Opts&) {
         return own(sparse::csr_to_ell(*csr));
       },
       .apply = [](const void* r, X x, Y y) {
         sparse::spmv_ell(as<Ell>(r), x, y);
       },
       .native = [](const void* r, Workspace&, X x, Y y) {
         kernels::native_spmv_ell(as<Ell>(r), x, y);
       },
       .native_multi = [](const void* r, Workspace&, X x, Y y, int k) {
         kernels::native_spmm_ell(as<Ell>(r), x, y, k);
       },
       .validate = [](const void* r, const Csr& src) {
         return check::validate_ell(as<Ell>(r), &src);
       },
       .rep_bytes = [](const void* r) {
         return as<Ell>(r).entries() * kEllEntryBytes;
       },
       .resident_bytes = resident_bytes_once<Format::kEll>},

      {.format = Format::kEllR, .name = "ELLPACK-R",
       .applicable = ell_applicable,
       .make = [](const SharedCsr& csr, const Opts&) {
         return own(sparse::csr_to_ellr(*csr));
       },
       .apply = [](const void* r, X x, Y y) {
         sparse::spmv_ellr(as<EllR>(r), x, y);
       },
       .native = [](const void* r, Workspace&, X x, Y y) {
         kernels::native_spmv_ellr(as<EllR>(r), x, y);
       },
       .validate = [](const void* r, const Csr& src) {
         return check::validate_ellr(as<EllR>(r), &src);
       },
       .rep_bytes = [](const void* r) {
         const auto& e = as<EllR>(r);
         return e.ell.entries() * kEllEntryBytes +
                e.row_length.size() * sizeof(index_t);
       },
       .resident_bytes = resident_bytes_once<Format::kEllR>},

      {.format = Format::kHyb, .name = "HYB",
       .applicable = always_applicable,
       .make = [](const SharedCsr& csr, const Opts&) {
         return own(sparse::csr_to_hyb(*csr));
       },
       .build = [](const void* r, Workspace& ws) {
         ws.coo_ranges(as<Hyb>(r).coo);
       },
       .apply = [](const void* r, X x, Y y) {
         sparse::spmv_hyb(as<Hyb>(r), x, y);
       },
       .native = [](const void* r, Workspace& ws, X x, Y y) {
         const auto& h = as<Hyb>(r);
         kernels::native_spmv_hyb(h, ws.coo_ranges(h.coo), x, y);
       },
       .validate = [](const void* r, const Csr& src) {
         return check::validate_hyb(as<Hyb>(r), &src);
       },
       .rep_bytes = [](const void* r) {
         const auto& h = as<Hyb>(r);
         return h.ell.entries() * kEllEntryBytes +
                h.coo.nnz() * kCooEntryBytes;
       },
       .resident_bytes = resident_bytes_once<Format::kHyb>},

      {.format = Format::kBroEll, .name = "BRO-ELL",
       .auto_priority = 1, .applicable = ell_applicable,
       .make = [](const SharedCsr& csr, const Opts& o) {
         return own(BroEll::compress(csr, csr->max_row_length(), o.ell));
       },
       .build = [](const void* r, Workspace& ws) {
         ws.bro_ell_kernels(as<BroEll>(r));
       },
       .apply = [](const void* r, X x, Y y) { as<BroEll>(r).spmv(x, y); },
       .native = [](const void* r, Workspace& ws, X x, Y y) {
         const auto& bro = as<BroEll>(r);
         kernels::native_spmv_bro_ell(bro, ws.bro_ell_kernels(bro), x, y);
       },
       .native_multi = [](const void* r, Workspace& ws, X x, Y y, int k) {
         const auto& bro = as<BroEll>(r);
         kernels::native_spmm_bro_ell(bro, ws.bro_ell_kernels(bro), x, y, k);
       },
       .native_generic = [](const void* r, X x, Y y) {
         const auto& bro = as<BroEll>(r);
         kernels::native_spmv_bro_ell(bro, generic_kernels(bro), x, y);
       },
       .validate = [](const void* r, const Csr& src) {
         return check::validate_bro_ell(as<BroEll>(r), &src);
       },
       .serialize = [](std::ostream& out, const void* r) {
         core::write_bro_ell(out, as<BroEll>(r));
       },
       .rep_bytes = [](const void* r) {
         return as<BroEll>(r).resident_index_bytes();
       },
       .rep_savings = index_savings<BroEll>,
       .resident_bytes = resident_bytes_once<Format::kBroEll>,
       .savings = savings_once<Format::kBroEll>},

      {.format = Format::kBroCoo, .name = "BRO-COO",
       .applicable = always_applicable,
       .make = [](const SharedCsr& csr, const Opts& o) {
         return own(BroCoo::compress(sparse::csr_to_coo(*csr), o.coo));
       },
       .build = [](const void* r, Workspace& ws) {
         const auto& bro = as<BroCoo>(r);
         ws.carries(bro.intervals().size());
         ws.bro_coo_kernels(bro);
       },
       .apply = [](const void* r, X x, Y y) {
         std::fill(y.begin(), y.end(), value_t{0});
         as<BroCoo>(r).spmv_accumulate(x, y);
       },
       .native = [](const void* r, Workspace& ws, X x, Y y) {
         const auto& bro = as<BroCoo>(r);
         kernels::native_spmv_bro_coo(bro, ws.bro_coo_kernels(bro), x, y,
                                      ws.carries(bro.intervals().size()));
       },
       .native_multi = [](const void* r, Workspace& ws, X x, Y y, int k) {
         const auto& bro = as<BroCoo>(r);
         const std::size_t n = bro.intervals().size();
         kernels::native_spmm_bro_coo(
             bro, ws.bro_coo_kernels(bro), x, y, k, ws.carries(n),
             ws.carry_sums(n * 2 * static_cast<std::size_t>(k)));
       },
       .native_generic = [](const void* r, X x, Y y) {
         const auto& bro = as<BroCoo>(r);
         std::vector<kernels::BroCooCarry> carries(bro.intervals().size());
         kernels::native_spmv_bro_coo(bro, generic_kernels(bro), x, y,
                                      carries);
       },
       .validate = [](const void* r, const Csr& src) {
         return check::validate_bro_coo(as<BroCoo>(r), &src);
       },
       .serialize = [](std::ostream& out, const void* r) {
         core::write_bro_coo(out, as<BroCoo>(r));
       },
       .rep_bytes = [](const void* r) {
         const auto& bro = as<BroCoo>(r);
         return bro.resident_row_bytes() +
                bro.padded_nnz() * (sizeof(index_t) + sizeof(value_t));
       },
       .rep_savings = [](const void* r) {
         const auto& bro = as<BroCoo>(r);
         return core::make_savings(bro.original_row_bytes(),
                                   bro.compressed_row_bytes());
       },
       .resident_bytes = resident_bytes_once<Format::kBroCoo>,
       .savings = savings_once<Format::kBroCoo>},

      {.format = Format::kBroHyb, .name = "BRO-HYB",
       .auto_priority = 2, .applicable = nonzero_applicable,
       .make = [](const SharedCsr& csr, const Opts& o) {
         core::BroHybOptions ho;
         ho.ell = o.ell;
         ho.coo = o.coo;
         return own(BroHyb::compress(csr, ho));
       },
       .build = [](const void* r, Workspace& ws) {
         const auto& bro = as<BroHyb>(r);
         ws.bro_ell_kernels(bro.ell_part());
         if (bro.coo_part().nnz() > 0) {
           ws.values(static_cast<std::size_t>(bro.rows()));
           ws.carries(bro.coo_part().intervals().size());
           ws.bro_coo_kernels(bro.coo_part());
         }
       },
       .apply = [](const void* r, X x, Y y) { as<BroHyb>(r).spmv(x, y); },
       .native = [](const void* r, Workspace& ws, X x, Y y) {
         const auto& bro = as<BroHyb>(r);
         const auto ell = ws.bro_ell_kernels(bro.ell_part());
         // Without an overflow part the driver reads no COO scratch, and
         // the build hook sized none: request none, so execute() stays
         // allocation-free.
         if (bro.coo_part().nnz() == 0) {
           kernels::native_spmv_bro_hyb(bro, ell, {}, x, y, {}, {});
           return;
         }
         kernels::native_spmv_bro_hyb(
             bro, ell, ws.bro_coo_kernels(bro.coo_part()), x, y,
             ws.values(y.size()),
             ws.carries(bro.coo_part().intervals().size()));
       },
       .native_generic = [](const void* r, X x, Y y) {
         const auto& bro = as<BroHyb>(r);
         std::vector<value_t> y_coo(y.size());
         std::vector<kernels::BroCooCarry> carries(
             bro.coo_part().intervals().size());
         kernels::native_spmv_bro_hyb(bro, generic_kernels(bro.ell_part()),
                                      generic_kernels(bro.coo_part()), x, y,
                                      y_coo, carries);
       },
       .validate = [](const void* r, const Csr& src) {
         return check::validate_bro_hyb(as<BroHyb>(r), &src);
       },
       .serialize = [](std::ostream& out, const void* r) {
         core::write_bro_hyb(out, as<BroHyb>(r));
       },
       .rep_bytes = [](const void* r) {
         const auto& bro = as<BroHyb>(r);
         return bro.resident_index_bytes() +
                bro.coo_part().padded_nnz() * sizeof(value_t);
       },
       .rep_savings = index_savings<BroHyb>,
       .resident_bytes = resident_bytes_once<Format::kBroHyb>,
       .savings = savings_once<Format::kBroHyb>},

      // No OpenMP host kernel yet: the plan falls back to the sequential
      // warp-scan decode.
      {.format = Format::kBroCsr, .name = "BRO-CSR",
       .applicable = always_applicable,
       .make = [](const SharedCsr& csr, const Opts&) {
         return own(BroCsr::compress(*csr));
       },
       .apply = [](const void* r, X x, Y y) { as<BroCsr>(r).spmv(x, y); },
       .validate = [](const void* r, const Csr& src) {
         return check::validate_bro_csr(as<BroCsr>(r), &src);
       },
       .serialize = [](std::ostream& out, const void* r) {
         core::write_bro_csr(out, as<BroCsr>(r));
       },
       .rep_bytes = [](const void* r) {
         const auto& bro = as<BroCsr>(r);
         return bro.compressed_index_bytes() +
                bro.row_ptr().size() * sizeof(index_t) +
                bro.vals().size() * sizeof(value_t);
       },
       .rep_savings = index_savings<BroCsr>,
       .resident_bytes = resident_bytes_once<Format::kBroCsr>,
       .savings = savings_once<Format::kBroCsr>},

      {.format = Format::kBroAns, .name = "BRO-ANS",
       .applicable = ell_applicable,
       .make = [](const SharedCsr& csr, const Opts& o) {
         return own(BroAns::compress(*csr, csr->max_row_length(), o.ans));
       },
       .build = [](const void* r, Workspace& ws) {
         ws.bro_ans_kernel(as<BroAns>(r));
       },
       .apply = [](const void* r, X x, Y y) { as<BroAns>(r).spmv(x, y); },
       .native = [](const void* r, Workspace& ws, X x, Y y) {
         const auto& bro = as<BroAns>(r);
         kernels::native_spmv_bro_ans(bro, ws.bro_ans_kernel(bro), x, y);
       },
       .native_generic = [](const void* r, X x, Y y) {
         kernels::native_spmv_bro_ans(as<BroAns>(r),
                                      kernels::generic_bro_ans_kernel(), x, y);
       },
       .validate = [](const void* r, const Csr& src) {
         return check::validate_bro_ans(as<BroAns>(r), &src);
       },
       .serialize = [](std::ostream& out, const void* r) {
         core::write_bro_ans(out, as<BroAns>(r));
       },
       .rep_bytes = [](const void* r) {
         const auto& bro = as<BroAns>(r);
         return bro.resident_index_bytes() +
                bro.vals().size() * sizeof(value_t);
       },
       .rep_savings = index_savings<BroAns>,
       .resident_bytes = resident_bytes_once<Format::kBroAns>,
       .savings = savings_once<Format::kBroAns>},

      // First pick when its strict applicability gate (block cover with
      // enough fill AND a real byte win over the unblocked streams —
      // core/bro_bcsr.cpp) passes: on matrices that block well it beats
      // BRO-ELL on both eta and decode rate, and the gate keeps it off
      // everything else (notably all of Test Set 1).
      {.format = Format::kBroBcsr, .name = "BRO-BCSR",
       .auto_priority = 0,
       .applicable = [](const Csr& csr, double max_ell_expand) {
         return core::bro_bcsr_applicable(csr, max_ell_expand);
       },
       .make = [](const SharedCsr& csr, const Opts& o) {
         return own(BroBcsr::compress(*csr, o.bcsr));
       },
       .build = [](const void* r, Workspace& ws) {
         ws.bro_bcsr_kernel(as<BroBcsr>(r));
       },
       .apply = [](const void* r, X x, Y y) { as<BroBcsr>(r).spmv(x, y); },
       .native = [](const void* r, Workspace& ws, X x, Y y) {
         const auto& bro = as<BroBcsr>(r);
         kernels::native_spmv_bro_bcsr(bro, ws.bro_bcsr_kernel(bro), x, y);
       },
       .native_multi = [](const void* r, Workspace& ws, X x, Y y, int k) {
         const auto& bro = as<BroBcsr>(r);
         kernels::native_spmm_bro_bcsr(bro, ws.bro_bcsr_kernel(bro), x, y, k);
       },
       .native_generic = [](const void* r, X x, Y y) {
         kernels::native_spmv_bro_bcsr(as<BroBcsr>(r),
                                       kernels::generic_bro_bcsr_kernel(), x,
                                       y);
       },
       .validate = [](const void* r, const Csr& src) {
         return check::validate_bro_bcsr(as<BroBcsr>(r), &src);
       },
       .serialize = [](std::ostream& out, const void* r) {
         core::write_bro_bcsr(out, as<BroBcsr>(r));
       },
       .rep_bytes = [](const void* r) {
         const auto& bro = as<BroBcsr>(r);
         return bro.resident_index_bytes() +
                bro.vals().size() * sizeof(value_t);
       },
       // eta is fill-adjusted: compressed_index_bytes charges the cover's
       // explicit-zero value slots against the index-bit savings.
       .rep_savings = index_savings<BroBcsr>,
       .resident_bytes = resident_bytes_once<Format::kBroBcsr>,
       .savings = savings_once<Format::kBroBcsr>},
  };
  return registry;
}

} // namespace

SharedCsr borrow_csr(const sparse::Csr& csr) {
  return SharedCsr(SharedCsr{}, &csr);
}

const std::vector<FormatTraits>& format_registry() { return build_registry(); }

const FormatTraits& traits(core::Format f) {
  const auto& registry = format_registry();
  const auto idx = static_cast<std::size_t>(f);
  BRO_CHECK_MSG(idx < registry.size() && registry[idx].format == f,
                "format not registered");
  return registry[idx];
}

const FormatTraits* find_format(std::string_view name) {
  for (const auto& t : format_registry())
    if (name == t.name) return &t;
  return nullptr;
}

std::vector<std::string> format_names() {
  std::vector<std::string> names;
  for (const auto& t : format_registry()) names.emplace_back(t.name);
  return names;
}

core::Format auto_select(const sparse::Csr& csr, double max_ell_expand) {
  const FormatTraits* best = nullptr;
  for (const auto& t : format_registry()) {
    if (t.auto_priority < 0 || !t.applicable(csr, max_ell_expand)) continue;
    if (!best || t.auto_priority < best->auto_priority) best = &t;
  }
  BRO_CHECK_MSG(best != nullptr, "no applicable format registered");
  return best->format;
}

} // namespace bro::engine
