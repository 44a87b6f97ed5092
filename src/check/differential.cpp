#include "check/differential.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/serialize.h"
#include "engine/plan.h"
#include "engine/simulate.h"
#include "gpusim/device.h"
#include "kernels/cpu_features.h"
#include "sparse/matgen/adversarial.h"
#include "sparse/matgen/generators.h"
#include "util/rng.h"

namespace bro::check {

namespace {

constexpr double kEps = 1e-10;
constexpr int kSpmmK = 3; // right-hand sides in the SpMM sweep
// Matrices with rows or cols beyond this run the validate hook only: an x
// vector of near-index_t-max size is not allocatable.
constexpr index_t kMaxSpmvDim = index_t{1} << 24;

/// Element-wise comparison against the reference with the mixed
/// absolute/relative tolerance |y - ref| <= kEps * (1 + |ref|).
bool matches_reference(std::span<const value_t> y,
                       std::span<const value_t> ref, std::string& message) {
  if (y.size() != ref.size()) {
    std::ostringstream os;
    os << "result has " << y.size() << " entries, reference has "
       << ref.size();
    message = os.str();
    return false;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double err = std::abs(y[i] - ref[i]);
    if (!(err <= kEps * (1.0 + std::abs(ref[i])))) {
      std::ostringstream os;
      os << "y[" << i << "] = " << y[i] << " vs reference " << ref[i]
         << " (|diff| = " << err << ", tol = "
         << kEps * (1.0 + std::abs(ref[i])) << ")";
      message = os.str();
      return false;
    }
  }
  return true;
}

/// One seeded random matrix per round: shape, row-length distribution and
/// column structure all drawn from the round's RNG so every corner of the
/// generator space eventually appears.
sparse::Csr random_matrix(Rng& rng, std::string& name) {
  sparse::GenSpec spec;
  spec.seed = rng.next();
  spec.rows = static_cast<index_t>(rng.range(1, 1500));
  spec.cols = static_cast<index_t>(rng.range(1, 3000));
  const int dist = static_cast<int>(rng.below(4));
  spec.len_dist = static_cast<sparse::LenDist>(dist);
  spec.mu = 1.0 + rng.uniform() * 24.0;
  spec.sigma = rng.uniform() * spec.mu;
  spec.min_len = rng.below(3) == 0 ? 0 : 1; // sometimes allow empty rows
  spec.len_corr = static_cast<index_t>(rng.below(64));
  spec.local_prob = rng.uniform();
  spec.band_frac = 0.005 + rng.uniform() * 0.2;
  spec.run = 1 + static_cast<int>(rng.below(4));
  spec.aligned_blocks = rng.below(4) == 0;
  spec.block_jitter = rng.uniform();
  if (rng.below(5) == 0) {
    spec.spike_rows = static_cast<index_t>(rng.below(4)) + 1;
    spec.spike_len =
        static_cast<index_t>(rng.below(static_cast<std::uint64_t>(
            std::max<index_t>(spec.cols / 2, 1)))) +
        1;
  }

  static const char* kDistNames[] = {"const", "normal", "lognormal",
                                     "pareto"};
  std::ostringstream os;
  os << spec.rows << "x" << spec.cols << "-" << kDistNames[dist] << "-mu"
     << static_cast<int>(spec.mu);
  name = os.str();
  return sparse::generate(spec);
}

class Driver {
 public:
  Driver(const FuzzOptions& opts, std::ostream* log)
      : opts_(opts), log_(log) {}

  FuzzReport run() {
    Rng rng(opts_.seed);

    for (auto& c : sparse::adversarial_suite(opts_.seed))
      sweep("adversarial:" + c.name, std::move(c.csr), rng.next());
    for (auto& c : sparse::adversarial_huge_cases(opts_.seed))
      sweep("adversarial:" + c.name, std::move(c.csr), rng.next());

    for (int round = 0; round < opts_.rounds; ++round) {
      std::string name;
      sparse::Csr csr = random_matrix(rng, name);
      std::ostringstream os;
      os << "round-" << round << ":" << name;
      sweep(os.str(), std::move(csr), rng.next());
    }
    return std::move(report_);
  }

 private:
  void fail(const std::string& matrix, const char* format, const char* path,
            std::string message) {
    if (log_)
      *log_ << "FAIL " << matrix << " [" << format << "/" << path << "] "
            << message << "\n";
    report_.failures.push_back({matrix, format, path, std::move(message)});
  }

  void sweep(const std::string& name, sparse::Csr csr,
             std::uint64_t x_seed) {
    ++report_.matrices;
    const bool spmv_safe = csr.rows <= kMaxSpmvDim && csr.cols <= kMaxSpmvDim;

    auto matrix = std::make_shared<core::Matrix>(
        core::Matrix::from_csr(std::move(csr)));
    const sparse::Csr& a = matrix->csr();

    // The ground truth: a seeded x and the sequential CSR reference.
    std::vector<value_t> x, ref;
    if (spmv_safe) {
      Rng xrng(x_seed);
      x.resize(static_cast<std::size_t>(a.cols));
      for (auto& v : x) v = xrng.uniform() * 2 - 1;
      ref.resize(static_cast<std::size_t>(a.rows));
      sparse::spmv_csr_reference(a, x, ref);
    }

    if (log_)
      *log_ << name << ": " << a.rows << " x " << a.cols << ", nnz "
            << a.nnz() << (spmv_safe ? "" : " (validate only)") << "\n";

    for (const auto& t : engine::format_registry()) {
      if (!t.applicable(a, core::MatrixOptions{}.max_ell_expand)) {
        ++report_.skipped;
        continue;
      }
      try {
        sweep_format(name, t, matrix, x, ref, spmv_safe);
      } catch (const std::exception& e) {
        fail(name, t.name, "build", e.what());
      }
    }
  }

  void sweep_format(const std::string& name, const engine::FormatTraits& t,
                    const std::shared_ptr<core::Matrix>& matrix,
                    std::span<const value_t> x, std::span<const value_t> ref,
                    bool spmv_safe) {
    // One plan, one representation: validate, apply, the native kernels,
    // the generic decoder and the simulator all run on the object this plan
    // built, so nothing is rebuilt per hook.
    engine::SpmvPlan plan(matrix, t.format);
    const void* rep = plan.representation();

    ++report_.validations;
    for (const auto& issue : t.validate(rep, matrix->csr()))
      fail(name, t.name, "validate", issue);

    if (t.serialize) {
      ++report_.comparisons;
      check_ingest(name, t, rep, matrix->csr());
    }

    if (!spmv_safe) return;
    std::string msg;
    std::vector<value_t> y(ref.size());

    t.apply(rep, x, y);
    ++report_.comparisons;
    if (!matches_reference(y, ref, msg))
      fail(name, t.name, "apply", msg);

    // The planned path: execute twice. Both results must match and the
    // second execute must not grow the workspace.
    plan.execute(x, y);
    ++report_.comparisons;
    if (!matches_reference(y, ref, msg))
      fail(name, t.name, "plan", msg);
    const std::size_t allocs = plan.workspace_allocations();
    plan.execute(x, y);
    ++report_.comparisons;
    if (!matches_reference(y, ref, msg))
      fail(name, t.name, "plan", "second execute diverged: " + msg);
    if (plan.workspace_allocations() != allocs) {
      std::ostringstream os;
      os << "second execute grew the workspace (" << allocs << " -> "
         << plan.workspace_allocations() << " allocations)";
      fail(name, t.name, "plan", os.str());
    }

    // Decode parity: the plan's execute just filled y through the
    // width-specialized dispatch table; the generic runtime-width decoder
    // must reproduce it bit for bit (same algorithm, same traversal, same
    // accumulation order — only the unpacking code differs).
    if (t.native_generic) {
      std::vector<value_t> y_generic(ref.size());
      t.native_generic(rep, x, y_generic);
      ++report_.comparisons;
      for (std::size_t r = 0; r < y_generic.size(); ++r) {
        if (y_generic[r] != y[r]) {
          std::ostringstream os;
          os << "y[" << r << "] = " << y[r]
             << " from the specialized dispatch but " << y_generic[r]
             << " from the generic decoder (must be bitwise-identical)";
          fail(name, t.name, "decode", os.str());
          break;
        }
      }
    }

    // SIMD parity: when dispatch is running vectorized kernels, execute the
    // same plan with the ISA forced to scalar (its workspace re-selects the
    // decode kernels) and compare against the SIMD execute bit for bit.
    // Identical decode output and identical FP accumulation order are the
    // SIMD backend's core contract — any divergence is a kernel bug, not
    // rounding. Gated on native_generic: only formats with a bit-level
    // decode path have SIMD kernels.
    const kernels::SimdIsa simd_isa = kernels::active_simd_isa();
    if (t.native_generic && simd_isa != kernels::SimdIsa::kScalar) {
      kernels::ScopedSimdIsa forced(kernels::SimdIsa::kScalar);
      std::vector<value_t> y_scalar(ref.size());
      plan.execute(x, y_scalar);
      ++report_.comparisons;
      for (std::size_t r = 0; r < y_scalar.size(); ++r) {
        if (y_scalar[r] != y[r]) {
          std::ostringstream os;
          os << "y[" << r << "] = " << y[r] << " from the "
             << kernels::simd_isa_name(simd_isa) << " kernels but "
             << y_scalar[r]
             << " from forced-scalar dispatch (must be bitwise-identical)";
          fail(name, t.name, "simd", os.str());
          break;
        }
      }
    }

    const std::vector<value_t> sim_y =
        engine::simulate(sim::tesla_k20(), t.format, rep, x).y;
    ++report_.comparisons;
    if (!matches_reference(sim_y, ref, msg)) fail(name, t.name, "sim", msg);

    sweep_spmm(name, t, plan, x);
  }

  /// The .bro round trip: the representation's serialized bytes must
  /// decode straight back to the source CSR *bitwise* through
  /// core::read_bro_to_csr, whose tiles run at the current thread count.
  void check_ingest(const std::string& name, const engine::FormatTraits& t,
                    const void* rep, const sparse::Csr& want) {
    std::ostringstream out(std::ios::binary);
    t.serialize(out, rep);
    const std::string s = out.str();
    const sparse::Csr got = core::read_bro_to_csr(std::span(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
    std::ostringstream os;
    if (got.rows != want.rows || got.cols != want.cols) {
      os << "decoded " << got.rows << " x " << got.cols << ", source "
         << want.rows << " x " << want.cols;
    } else if (got.row_ptr != want.row_ptr) {
      os << "row_ptr differs from the source";
    } else {
      for (std::size_t i = 0; i < want.nnz(); ++i) {
        if (got.col_idx[i] != want.col_idx[i] ||
            std::memcmp(&got.vals[i], &want.vals[i], sizeof(value_t)) != 0) {
          os << "entry " << i << " decoded as (" << got.col_idx[i] << ", "
             << got.vals[i] << "), source (" << want.col_idx[i] << ", "
             << want.vals[i] << ") (must be bitwise-identical)";
          break;
        }
      }
    }
    if (!os.str().empty()) fail(name, t.name, "ingest", os.str());
  }

  /// The multi-vector path: X's k columns are rotations of the fuzz x, and
  /// every column of execute_multi's Y must equal a single-vector execute
  /// on that column *bitwise* — the SpMM kernels (and the gather/scatter
  /// fallback) replicate the single-vector accumulation order exactly, so
  /// any tolerance would only hide bugs.
  void sweep_spmm(const std::string& name, const engine::FormatTraits& t,
                  engine::SpmvPlan& plan, std::span<const value_t> x) {
    const std::size_t k = kSpmmK;
    const std::size_t cols = static_cast<std::size_t>(plan.cols());
    const std::size_t rows = static_cast<std::size_t>(plan.rows());

    std::vector<value_t> x_batch(cols * k), y_batch(rows * k);
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t c = 0; c < cols; ++c)
        x_batch[c * k + j] = x[(c + j) % std::max<std::size_t>(cols, 1)];

    plan.execute_multi(x_batch, y_batch, kSpmmK);
    const std::size_t allocs = plan.workspace_allocations();

    std::vector<value_t> xj(cols), yj(rows);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < cols; ++c) xj[c] = x_batch[c * k + j];
      plan.execute(xj, yj);
      ++report_.comparisons;
      for (std::size_t r = 0; r < rows; ++r) {
        if (y_batch[r * k + j] != yj[r]) {
          std::ostringstream os;
          os << "column " << j << " y[" << r << "] = " << y_batch[r * k + j]
             << " but single-vector execute gives " << yj[r]
             << " (SpMM must be bitwise-identical)";
          fail(name, t.name, "spmm", os.str());
          break;
        }
      }
    }

    plan.execute_multi(x_batch, y_batch, kSpmmK);
    if (plan.workspace_allocations() != allocs) {
      std::ostringstream os;
      os << "second execute_multi grew the workspace (" << allocs << " -> "
         << plan.workspace_allocations() << " allocations)";
      fail(name, t.name, "spmm", os.str());
    }
  }

  FuzzOptions opts_;
  std::ostream* log_;
  FuzzReport report_;
};

} // namespace

FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream* log) {
  Driver driver(opts, log);
  FuzzReport report = driver.run();
  if (log) {
    *log << "fuzz: " << report.matrices << " matrices, "
         << report.comparisons << " comparisons, " << report.validations
         << " validations, " << report.skipped
         << " inapplicable pairs skipped, " << report.failures.size()
         << " failures\n";
  }
  return report;
}

} // namespace bro::check
