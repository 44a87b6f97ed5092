// Serving-layer benchmark (new subsystem; no paper table — the SC'13 paper
// measures one SpMV at a time, this measures the layer that amortizes its
// decode cost across requests).
//
// Part 1: kernel-level SpMM amortization. For each format with a native
// multi-vector kernel, rows/s for k = 8 independent execute() calls vs one
// execute_multi(X, Y, 8). The BRO formats gain the most: the bit-unpacking
// of each column index is paid once and feeds k FMAs instead of one.
//
// Part 2: server-level batching. The same request stream served with
// max_batch = 1 (coalescing off) vs max_batch = 8: requests/s plus the
// cache and batch metrics the serve layer exports.
#include <future>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "engine/plan.h"
#include "serve/server.h"
#include "util/timer.h"

namespace {

using namespace bro;

constexpr int kBatch = 8;

struct KernelResult {
  double single_rows_per_s = 0;
  double batched_rows_per_s = 0;
};

KernelResult bench_plan(const std::shared_ptr<const core::Matrix>& m,
                        core::Format f, int reps) {
  engine::SpmvPlan plan(m, f);
  const auto rows = static_cast<std::size_t>(m->rows());
  const auto cols = static_cast<std::size_t>(m->cols());

  const std::vector<value_t> x = bench::random_x(m->cols());
  std::vector<value_t> y(rows);
  std::vector<value_t> x_batch(cols * kBatch), y_batch(rows * kBatch);
  for (int j = 0; j < kBatch; ++j)
    for (std::size_t c = 0; c < cols; ++c)
      x_batch[c * kBatch + j] = x[(c + static_cast<std::size_t>(j)) % cols];

  plan.execute(x, y); // warm the workspace before timing
  plan.execute_multi(x_batch, y_batch, kBatch);

  KernelResult r;
  Timer single;
  for (int rep = 0; rep < reps; ++rep)
    for (int j = 0; j < kBatch; ++j) plan.execute(x, y);
  r.single_rows_per_s =
      double(rows) * kBatch * reps / single.seconds();
  Timer batched;
  for (int rep = 0; rep < reps; ++rep)
    plan.execute_multi(x_batch, y_batch, kBatch);
  r.batched_rows_per_s =
      double(rows) * kBatch * reps / batched.seconds();
  return r;
}

void bench_kernels() {
  bench::print_header("SpMM amortization: k = 8 batched vs 8 single SpMVs",
                      "serving-layer extension (no paper table)");

  const core::Format formats[] = {core::Format::kCsr, core::Format::kEll,
                                  core::Format::kBroEll,
                                  core::Format::kBroCoo};
  const char* names[] = {"cant", "consph", "qcd5_4", "shipsec1"};

  Table t({"Matrix", "Format", "single Mrows/s", "batched Mrows/s",
           "speedup"});
  std::vector<double> bro_ell_speedups;
  for (const char* name : names) {
    const auto entry = sparse::find_suite_entry(name);
    auto m = std::make_shared<core::Matrix>(core::Matrix::from_csr(
        sparse::generate_suite_matrix(*entry, bench_scale())));
    for (const core::Format f : formats) {
      const auto r = bench_plan(m, f, 5);
      const double speedup = r.batched_rows_per_s / r.single_rows_per_s;
      if (f == core::Format::kBroEll) bro_ell_speedups.push_back(speedup);
      t.add_row({name, core::format_name(f),
                 Table::fmt(r.single_rows_per_s / 1e6, 2),
                 Table::fmt(r.batched_rows_per_s / 1e6, 2),
                 Table::fmt(speedup, 2)});
    }
  }
  t.print(std::cout);
  std::cout << "BRO-ELL geomean batched speedup at k = " << kBatch << ": "
            << Table::fmt(bench::geomean(bro_ell_speedups), 2) << "x\n";
}

double run_server(int max_batch, std::uint64_t* batches_out,
                  double* mean_batch_out) {
  serve::ServerOptions opts;
  opts.threads = 0; // synchronous: measures batching, not scheduling noise
  opts.max_batch = max_batch;
  opts.max_queue = 1024;
  opts.format = core::Format::kBroEll;
  serve::SpmvServer server(opts);

  const auto entry = sparse::find_suite_entry("cant");
  auto m = std::make_shared<core::Matrix>(core::Matrix::from_csr(
      sparse::generate_suite_matrix(*entry, bench_scale())));
  const index_t cols = m->cols();
  server.add_matrix("cant", std::move(m));

  constexpr int kRequests = 256;
  const std::vector<value_t> x = bench::random_x(cols);
  std::vector<std::future<std::vector<value_t>>> pending;
  pending.reserve(kRequests);

  // Warm the plan cache so both runs measure serving, not compression
  // (threads == 0: drain() drives the batch on this thread).
  auto warm = server.submit("cant", x);
  server.drain();
  warm.get();

  Timer wall;
  for (int r = 0; r < kRequests; ++r) pending.push_back(server.submit("cant", x));
  server.drain();
  const double secs = wall.seconds();
  for (auto& f : pending) f.get();

  const auto metrics = server.metrics();
  *batches_out = metrics.batches - 1; // minus the warm-up batch
  *mean_batch_out = metrics.batch_sizes.mean();
  return double(kRequests) / secs;
}

void bench_server() {
  bench::print_header(
      "Server-level request coalescing: max_batch 1 vs 8 (BRO-ELL)",
      "serving-layer extension (no paper table)");

  Table t({"max_batch", "req/s", "batches", "mean batch"});
  for (const int b : {1, kBatch}) {
    std::uint64_t batches = 0;
    double mean_batch = 0;
    const double rps = run_server(b, &batches, &mean_batch);
    t.add_row({std::to_string(b), Table::fmt(rps, 1),
               std::to_string(batches), Table::fmt(mean_batch, 2)});
  }
  t.print(std::cout);
}

} // namespace

int main() {
  bench_kernels();
  bench_server();
  return 0;
}
