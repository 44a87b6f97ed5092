// Shared declarations of the benchmark program: the workload table, the run
// configuration, the metric report and the seeded inputs every workload is
// built from.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/trace.h"
#include "engine/plan.h"
#include "solver/operator.h"
#include "sparse/csr.h"
#include "util/types.h"

namespace perf {

using bro::index_t;
using bro::value_t;

/// A suite stand-in at a linear scale factor.
struct MatrixRef {
  std::string name;
  double scale = 1;
};

/// One traffic mix. Served workloads go through NetClient -> NetServer ->
/// SpmvServer over loopback TCP; the library workload calls the engine and
/// solver directly. Threads that run at once: `connections` client threads
/// (+1 writer when `churn` is set), the NetServer loop thread,
/// `server_threads` dispatch threads and `omp` - 1 extra OpenMP workers.
struct Workload {
  std::string name;
  std::vector<MatrixRef> hot;   // read by every request (or solved)
  std::vector<MatrixRef> churn; // cycled by the writer connection
  int connections = 1;
  int window = 1;          // requests in flight per connection
  int server_threads = 1;  // SpmvServer dispatch threads
  int omp = 1;             // OMP_NUM_THREADS for the whole process
  bool served = true;      // false: the library path (CG, no serve/net)
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

struct Config {
  Workload workload;
  std::uint64_t seed = 2013;
  double seconds = 10; // BENCHMARK.json run_seconds
  bool trace = false;
  bool quick = false; // smoke run: scales capped at 0.1, one set-up
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t n = 0;  // samples behind the value (1 for a single reading)
  std::string note;   // e.g. which percentile
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit, std::size_t n,
           std::string note = "");
  /// A correctness failure: the run is reported incorrect.
  void fail(const std::string& problem);
};

/// One matrix as a served client holds it: the .bro bytes it uploads and a
/// seeded pool of x vectors with their reference y, computed by
/// SpmvPlan::execute on the CSR decoded from those same bytes.
struct ServedMatrix {
  std::string id;
  index_t rows = 0;
  index_t cols = 0;
  std::size_t nnz = 0;
  std::vector<std::uint8_t> bro; // BRO-HYB stream (UPLOAD_MATRIX payload)
  std::vector<std::vector<value_t>> xs;
  std::vector<std::vector<value_t>> ys;
};

ServedMatrix prepare_served(const std::string& id, bro::sparse::Csr csr,
                            std::uint64_t seed);

/// The suite stand-in for `m` at the configured scale.
bro::sparse::Csr generate(const Config& cfg, const MatrixRef& m);

/// Symmetric, strictly diagonally dominant (hence SPD) matrix on the
/// symmetrised pattern of `a`: off-diagonal (i, j) = -(|a_ij| + |a_ji|) / 2,
/// diagonal = sum of the row's off-diagonal magnitudes + 1.
bro::sparse::Csr make_spd(const bro::sparse::Csr& a);

/// Nearest-rank median.
double median(std::vector<double> samples);

/// Report the median of `samples` (seconds) times `scale` as `name`; a
/// metric without samples makes the run incorrect.
void add_p50(Report& report, const std::string& name,
             std::vector<double> samples, double scale,
             const std::string& unit);

/// Whether to time another set-up: always a first one; in an untraced
/// full run at least five, and more while they have taken less than half
/// of --seconds.
bool another_setup(const Config& cfg, const std::vector<double>& setups);

/// rss_peak_mb: the highest of `peaks`, the VmHWM bytes of each set-up and
/// of the measurement (reset before each). `reset` says whether every
/// reset_peak_rss() worked.
void add_rss(Report& report, const std::vector<double>& peaks, bool reset);

/// workload.latency_tail_ms: the highest percentile the untraced sample of
/// operation times (seconds) supports, named in the note.
void add_tail(Report& report, std::vector<double> samples);

/// A seeded vector of n values uniform in [-1, 1).
std::vector<value_t> random_vector(std::size_t n, std::uint64_t seed);

/// Bitwise equality of two vectors.
bool same_bits(const std::vector<value_t>& a, const std::vector<value_t>& b);

/// Peak resident set (VmHWM) of this process in bytes.
std::size_t peak_rss_bytes();

/// Return freed heap memory to the OS and restart the VmHWM high-water mark
/// at the current resident set, so that peak_rss_bytes() covers only what
/// follows (input preparation and earlier set-ups excluded). Best effort:
/// false when the kernel refuses the reset.
bool reset_peak_rss();

/// Last-level cache size in bytes (sysfs, else sysconf), 0 when unknown.
std::size_t llc_bytes();

double seconds_since(Clock::time_point t);

/// Progress line: "stage <what>: <seconds since t> s, VmHWM <MB>".
void stage(const char* what, Clock::time_point t);

/// Input line: a matrix's shape, CSR bytes and (when served) .bro bytes.
void describe(const std::string& id, index_t rows, index_t cols,
              std::size_t nnz, std::size_t bro_bytes = 0);

// --- the two halves of the benchmark ----------------------------------------

/// A served workload (served.cpp).
void run_served(const Config& cfg, Tracer& tracer, Report& report);

/// The library workload (library.cpp).
void run_library(const Config& cfg, Tracer& tracer, Report& report);

/// Per-layer probes shared by every workload (library.cpp): STREAM triad,
/// the kernel sweep over every native format applicable to `csr` (the
/// workload's first stand-in as generated), and the core .bro read of the
/// uploaded streams.
double triad_gbs(const Config& cfg, Report& report);
void kernel_sweep(const Config& cfg, const bro::sparse::Csr& csr,
                  double triad, Tracer& tracer, Report& report);
void core_probe(const Config& cfg, const std::vector<ServedMatrix>& mats,
                Tracer& tracer, Report& report);

/// A plan of the auto-selected format over a copy of `csr`.
std::shared_ptr<bro::engine::SpmvPlan> plan_for(const bro::sparse::Csr& csr);

/// CG on A x = b through a plan operator, solved again and again from
/// x = 0. Every solve is checked: it converges, the first one's true
/// residual (CSR reference SpMV) is within the tolerance, and every later
/// one repeats its iteration count and solution bits.
class RepeatedSolve {
 public:
  /// `a` must outlive this object; `plan` is a plan of `a`.
  RepeatedSolve(const bro::sparse::Csr& a, std::vector<value_t> b,
                std::shared_ptr<bro::engine::SpmvPlan> plan);

  /// One solve; returns its wall time in seconds. With `tracer` enabled
  /// the solve and each of its SpMVs are spans.
  double solve(Tracer& tracer, Report& report);

  /// solver.iters, and solver.spmv_share and solver.blas1_ms_per_iter over
  /// the traced solves.
  void add_metrics(const Tracer& tracer, Report& report) const;

 private:
  const bro::sparse::Csr& a_;
  const std::vector<value_t> b_;
  const bro::solver::Operator apply_;
  std::vector<value_t> first_x_;
  int iterations_ = 0;
  std::size_t solves_ = 0;
  std::vector<std::uint64_t> traced_ids_; // span ids of the traced solves
};

/// The serve-layer probe the library workload adds in its traced run: its
/// SpMV stream (1 connection, window 1) sent through NetServer and
/// SpmvServer, so net and serve metrics exist for every workload.
void serve_probe(const Config& cfg, const ServedMatrix& m, Tracer& tracer,
                 Report& report);

} // namespace perf
