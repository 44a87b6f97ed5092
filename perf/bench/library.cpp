// The library workload (CG through a plan operator, no serve or net) and
// the per-layer probes every traced run shares: STREAM triad, the kernel
// sweep, the core .bro read and CG on an SPD matrix.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/serialize.h"
#include "bench/bench.h"
#include "bench/stats.h"
#include "engine/format_registry.h"
#include "engine/plan.h"
#include "solver/cg.h"

namespace perf {

namespace {

using bro::core::Matrix;
using bro::engine::SpmvPlan;

constexpr double kTolerance = 1e-8;

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double relative_residual(const bro::sparse::Csr& a,
                         const std::vector<value_t>& b,
                         const std::vector<value_t>& x) {
  std::vector<value_t> r(b.size());
  bro::sparse::spmv_csr_reference(a, x, r);
  double rr = 0, bb = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - r[i]) * (b[i] - r[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr) / std::sqrt(bb);
}

} // namespace

double triad_gbs(const Config& cfg, Report& report) {
  // STREAM triad a = b + s*c with each array at least 4x the last-level
  // cache, so the arrays stream from DRAM (16 MiB each in a smoke run).
  const std::size_t llc = llc_bytes();
  const std::size_t bytes =
      cfg.quick ? std::size_t{16} << 20
                : std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
  const std::size_t n = bytes / sizeof(double);
  std::vector<double> a(n), b(n), c(n);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 1.0;
    c[i] = 2.0;
  }
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    times.push_back(seconds_since(t0));
  }
  if (a[0] != 7.0 || a[n - 1] != 7.0) report.fail("triad result wrong");
  const double gbs = 3.0 * double(bytes) / median(times) / 1e9;
  report.add("host.triad_gbs", gbs, "GB/s", times.size(),
             "p50 of 5; 3 arrays of " + std::to_string(bytes >> 20) +
                 " MiB, LLC " + std::to_string(llc >> 20) + " MiB");
  return gbs;
}

void kernel_sweep(const Config& cfg, const bro::sparse::Csr& csr, double triad,
                  Tracer& tracer, Report& report) {
  const double budget = cfg.quick ? 0.02 : 0.25;
  const auto rows = std::size_t(csr.rows), cols = std::size_t(csr.cols);
  const std::vector<value_t> x = random_vector(cols, cfg.seed + 99);
  std::vector<value_t> ref(rows), y(rows);
  bro::sparse::spmv_csr_reference(csr, x, ref);
  double scale = 1;
  for (const double v : ref) scale = std::max(scale, std::abs(v));
  const std::size_t csr_bytes = csr.row_ptr.size() * sizeof(index_t) +
                                csr.nnz() * (sizeof(index_t) + sizeof(value_t));

  for (const auto& t : bro::engine::format_registry()) {
    if (!t.native ||
        !t.applicable(csr, bro::core::MatrixOptions{}.max_ell_expand))
      continue;
    // A fresh facade per format, so each representation is freed before
    // the next one is built.
    const auto m = std::make_shared<const Matrix>(Matrix::from_csr(csr));
    SpmvPlan plan(m, t.format);
    plan.execute(x, y);
    double err = 0;
    for (std::size_t i = 0; i < rows; ++i)
      err = std::max(err, std::abs(y[i] - ref[i]));
    ++report.attempted;
    if (err > 1e-9 * scale) {
      ++report.failed;
      report.fail(std::string(t.name) + " differs from the CSR reference");
    }
    std::vector<double> times;
    const auto deadline = after(budget);
    while (times.size() < 5 || Clock::now() < deadline) {
      const auto t0 = Clock::now();
      {
        ScopedSpan s(tracer, "kernels", t.name);
        plan.execute(x, y);
      }
      times.push_back(seconds_since(t0));
    }
    const double sec = median(times);
    const double moved =
        double((t.resident_bytes ? t.resident_bytes(*m) : csr_bytes) +
               (rows + cols) * sizeof(value_t));
    const std::string key = std::string("kernels.") + t.name;
    report.add(key + ".rows_per_s", double(rows) / sec, "rows/s",
               times.size(), "p50");
    report.add(key + ".gbs", moved / sec / 1e9, "GB/s", times.size(),
               "computed bytes / p50 time");
    report.add(key + ".triad_frac", moved / sec / 1e9 / triad, "ratio",
               times.size(), "gbs / host.triad_gbs");
  }
}

void core_probe(const Config& cfg, const std::vector<ServedMatrix>& mats,
                Tracer& tracer, Report& report) {
  // At least one read per stream, more while the budget lasts.
  const double budget = cfg.quick ? 0.02 : 0.5;
  std::vector<double> times;
  for (const auto& m : mats) {
    const std::string bytes(m.bro.begin(), m.bro.end());
    const auto deadline = after(budget);
    for (int rep = 0; rep == 0 || Clock::now() < deadline; ++rep) {
      std::istringstream in(bytes, std::ios::binary);
      const auto t0 = Clock::now();
      bro::sparse::Csr csr;
      {
        ScopedSpan s(tracer, "core", "read_bro");
        csr = bro::core::read_bro_to_csr(in);
      }
      times.push_back(seconds_since(t0));
      if (csr.nnz() != m.nnz) report.fail(m.id + ": .bro read lost entries");
    }
  }
  add_p50(report, "core.read_bro_ms_p50", std::move(times), 1e3, "ms");
}

std::shared_ptr<SpmvPlan> plan_for(const bro::sparse::Csr& csr) {
  return std::make_shared<SpmvPlan>(
      std::make_shared<const Matrix>(Matrix::from_csr(csr)));
}

RepeatedSolve::RepeatedSolve(const bro::sparse::Csr& a, std::vector<value_t> b,
                             std::shared_ptr<SpmvPlan> plan)
    : a_(a), b_(std::move(b)),
      apply_(bro::engine::plan_operator(std::move(plan))) {}

double RepeatedSolve::solve(Tracer& tracer, Report& report) {
  bro::solver::SolveOptions opts;
  opts.tolerance = kTolerance;
  opts.max_iterations = 100000;
  std::vector<value_t> x(b_.size(), 0);
  Span solve = tracer.begin("solver", "solve");
  const bro::solver::Operator traced = [&](std::span<const value_t> in,
                                           std::span<value_t> out) {
    ScopedSpan s(tracer, "solver", "spmv", solve.id);
    apply_(in, out);
  };
  const auto t0 = Clock::now();
  const auto res = bro::solver::cg(traced, b_, x, opts);
  const double seconds = seconds_since(t0);
  tracer.end(solve);
  if (solve.id != 0) traced_ids_.push_back(solve.id);
  ++solves_;

  ++report.attempted;
  bool ok = res.converged;
  if (!res.converged) report.fail("CG did not converge");
  if (first_x_.empty()) {
    iterations_ = res.iterations;
    first_x_ = x;
    const double r = relative_residual(a_, b_, x);
    if (!(r <= kTolerance)) {
      ok = false;
      report.fail("CG reference residual " + std::to_string(r) +
                  " above tolerance");
    }
  } else if (res.iterations != iterations_ || !same_bits(x, first_x_)) {
    ok = false;
    report.fail("CG solves differ in iterations or solution bits");
  }
  if (!ok) ++report.failed;
  return seconds;
}

void RepeatedSolve::add_metrics(const Tracer& tracer, Report& report) const {
  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = self_times(spans);
  const auto traced = [&](std::uint64_t id) {
    return std::find(traced_ids_.begin(), traced_ids_.end(), id) !=
           traced_ids_.end();
  };
  double spmv = 0, total = 0;
  std::vector<double> blas1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (std::string_view(s.layer) != "solver") continue;
    if (std::string_view(s.name) == "spmv" && traced(s.parent))
      spmv += s.seconds();
    if (std::string_view(s.name) == "solve" && traced(s.id)) {
      total += s.seconds();
      blas1.push_back(self[i]);
    }
  }
  const std::size_t n = traced_ids_.size();
  report.add("solver.iters", iterations_, "count", solves_,
             "identical across solves");
  report.add("solver.spmv_share", total > 0 ? spmv / total : 0, "ratio", n,
             "SpMV span time / solve time");
  if (blas1.empty()) {
    report.fail("solver.blas1_ms_per_iter: no traced solves");
    return;
  }
  report.add("solver.blas1_ms_per_iter",
             median(blas1) * 1e3 / std::max(iterations_, 1), "ms", n,
             "p50 solve self time / iterations");
}

void run_library(const Config& cfg, Tracer& tracer, Report& report) {
  const Workload& w = cfg.workload;
  const auto t0 = Clock::now();
  const double triad = cfg.trace ? triad_gbs(cfg, report) : 0;
  const bro::sparse::Csr spd = make_spd(generate(cfg, w.hot.front()));
  const std::vector<value_t> b =
      random_vector(std::size_t(spd.rows), cfg.seed);
  describe(w.hot.front().name + "-spd", spd.rows, spd.cols, spd.nnz());
  stage("inputs", t0);

  // Set-up: plan construction plus the first execute, on a fresh facade
  // each time (a facade caches its representations). The last plan serves
  // the solves.
  std::shared_ptr<SpmvPlan> plan;
  std::vector<double> setups, peaks;
  std::vector<value_t> first_y;
  bool rss_reset = true;
  while (another_setup(cfg, setups)) {
    plan.reset();
    rss_reset = reset_peak_rss() && rss_reset;
    auto m = std::make_shared<const Matrix>(Matrix::from_csr(spd));
    ScopedSpan span(tracer, "workload", "setup");
    const auto start = Clock::now();
    plan = std::make_shared<SpmvPlan>(std::move(m));
    std::vector<value_t> y(b.size());
    plan->execute(b, y);
    setups.push_back(seconds_since(start));
    peaks.push_back(double(peak_rss_bytes()));
    if (first_y.empty()) first_y = y;
    if (!same_bits(y, first_y))
      report.fail("set-up execute differs between plans");
  }
  stage("setup", t0);
  rss_reset = reset_peak_rss() && rss_reset;

  RepeatedSolve cg(spd, b, plan);
  plan.reset();
  Tracer off(false);
  if (!cfg.trace) {
    std::vector<double> solves;
    const auto deadline = after(cfg.seconds);
    while (solves.empty() || Clock::now() < deadline)
      solves.push_back(cg.solve(off, report));
    peaks.push_back(double(peak_rss_bytes()));
    report.add("setup_s", median(setups), "s", setups.size(), "p50");
    add_rss(report, peaks, rss_reset);
    double total = 0;
    for (const double s : solves) total += s;
    // Printed for the reader of the log; the bounded metrics are above.
    std::printf("  %zu solves, %.4g solves/s, p50 %.4g ms\n", solves.size(),
                double(solves.size()) / total, median(solves) * 1e3);
    return;
  }

  // Untraced and traced solves alternate, each side first in every other
  // pair, so host drift reaches both sides of trace.overhead alike.
  std::vector<double> plain, traced;
  const auto deadline = after(cfg.seconds / 2);
  while (plain.size() < 2 || Clock::now() < deadline) {
    if (plain.size() % 2 == 0) {
      plain.push_back(cg.solve(off, report));
      traced.push_back(cg.solve(tracer, report));
    } else {
      traced.push_back(cg.solve(tracer, report));
      plain.push_back(cg.solve(off, report));
    }
  }
  report.add("trace.overhead", median(traced) / median(plain) - 1, "ratio",
             traced.size(), "traced / untraced solve time p50 - 1, alternating");
  double total = 0;
  for (const double s : plain) total += s;
  report.add("workload.throughput_per_s", double(plain.size()) / total, "1/s",
             plain.size(), "CG solves / s of untraced solving");
  add_p50(report, "workload.latency_p50_ms", plain, 1e3, "ms");
  add_tail(report, plain);
  report.add("workload.writer_cycles_per_s", 0, "1/s", 0, "no writer");
  cg.add_metrics(tracer, report);
  {
    const ServedMatrix m =
        prepare_served(w.hot.front().name + "-spd", spd, cfg.seed);
    serve_probe(cfg, m, tracer, report);
    core_probe(cfg, {m}, tracer, report);
  }
  // The sweep runs on the stand-in as generated: no ELLPACK-family format
  // accepts the symmetrised pattern (a few columns become very long rows).
  kernel_sweep(cfg, generate(cfg, w.hot.front()), triad, tracer, report);
}

} // namespace perf
