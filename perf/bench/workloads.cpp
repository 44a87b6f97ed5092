// The workload table and the seeded inputs the workloads are built from.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "bench/bench.h"
#include "bench/stats.h"
#include "engine/plan.h"
#include "net/protocol.h"
#include "sparse/matgen/suite.h"
#include "util/rng.h"

namespace perf {

namespace bs = bro::sparse;

const std::vector<Workload>& workloads() {
  // Why these four: pingpong-small is per-message wire and serve cost with
  // cache-resident matrices; batch-large is SpMM coalescing and a
  // memory-bound kernel on a matrix larger than the L3; upload-churn puts
  // uploads, plan builds and PlanCache churn beside reads; cg-large is the
  // library path, where wire or serve changes must predict no change.
  static const std::vector<Workload> table = {
      {"pingpong-small",
       {{"cant", 0.05},
        {"consph", 0.05},
        {"pdb1HYS", 0.05},
        {"shipsec1", 0.05}},
       {}, /*connections=*/2, /*window=*/1, /*server_threads=*/1, /*omp=*/1,
       true},
      {"batch-large", {{"pwtk", 1.0}}, {}, 1, 8, 1, 2, true},
      {"upload-churn",
       {{"cant", 0.05}, {"consph", 0.05}},
       {{"e40r5000", 0.1},
        {"lhr71", 0.1},
        {"rim", 0.1},
        {"rma10", 0.1},
        {"venkat01", 0.1},
        {"xenon2", 0.1}},
       1, 1, 1, 1, true},
      {"cg-large", {{"shipsec1", 1.0}}, {}, 0, 1, 0, 4, false},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

void Report::add(std::string name, double value, std::string unit,
                 std::size_t n, std::string note) {
  metrics.push_back(
      {std::move(name), value, std::move(unit), n, std::move(note)});
}

void Report::fail(const std::string& problem) {
  correct = false;
  problems.push_back(problem);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

void add_p50(Report& report, const std::string& name,
             std::vector<double> samples, double scale,
             const std::string& unit) {
  if (samples.empty()) {
    report.fail(name + ": no samples");
    return;
  }
  const std::size_t n = samples.size();
  report.add(name, median(std::move(samples)) * scale, unit, n, "p50");
}

bool another_setup(const Config& cfg, const std::vector<double>& setups) {
  constexpr std::size_t kMinSetups = 5;
  if (setups.empty()) return true;
  if (cfg.trace || cfg.quick) return false;
  double total = 0;
  for (const double s : setups) total += s;
  return setups.size() < kMinSetups || total < cfg.seconds / 2;
}

void add_rss(Report& report, const std::vector<double>& peaks, bool reset) {
  // Whether a set-up's transient buffers overlap at its peak depends on
  // thread timing (served workloads: about 15 MB more in roughly 4 set-ups
  // of 10), so one set-up's peak is not repeatable; the highest of several
  // is.
  report.add("rss_peak_mb", *std::max_element(peaks.begin(), peaks.end()) / 1e6,
             "MB", peaks.size(),
             reset ? "highest VmHWM of the set-ups and the measurement"
                   : "VmHWM since start (reset refused)");
}

void add_tail(Report& report, std::vector<double> samples) {
  const Tail t = tail(std::move(samples));
  std::string note = t.pct > 0 ? "p" : "max (n < 20)";
  if (t.pct > 0) note += percentile_label(t.pct);
  note += ", untraced";
  report.add("workload.latency_tail_ms", t.value * 1e3, "ms", t.n, note);
}

bs::Csr generate(const Config& cfg, const MatrixRef& m) {
  const auto entry = bs::find_suite_entry(m.name);
  if (!entry) throw std::runtime_error("unknown suite matrix " + m.name);
  const double scale = cfg.quick ? std::min(m.scale, 0.1) : m.scale;
  return bs::generate_suite_matrix(*entry, scale);
}

std::vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  bro::Rng rng(seed);
  std::vector<value_t> v(n);
  for (auto& e : v) e = rng.uniform() * 2 - 1;
  return v;
}

bool same_bits(const std::vector<value_t>& a, const std::vector<value_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0;
}

ServedMatrix prepare_served(const std::string& id, bs::Csr csr,
                            std::uint64_t seed) {
  ServedMatrix m;
  m.id = id;
  m.rows = csr.rows;
  m.cols = csr.cols;
  m.nnz = csr.nnz();
  m.bro = bro::net::matrix_to_bro_bytes(
      bro::core::Matrix::from_csr(std::move(csr)), bro::core::Format::kBroHyb);

  // The reference decodes the uploaded bytes exactly as the server does and
  // plans the same auto-selected format, so every served y must match it
  // bit for bit. The pool holds ~32 MiB of x and y, 4 to 32 vectors.
  bro::engine::SpmvPlan ref(std::make_shared<const bro::core::Matrix>(
      bro::net::matrix_from_bro_bytes(m.bro)));
  const std::size_t pair_bytes =
      (std::size_t(m.rows) + std::size_t(m.cols)) * sizeof(value_t);
  const std::size_t pool =
      std::clamp<std::size_t>((std::size_t{32} << 20) / pair_bytes, 4, 32);
  std::uint64_t h = seed;
  for (const char c : id)
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull; // FNV-1a
  for (std::size_t p = 0; p < pool; ++p) {
    m.xs.push_back(random_vector(std::size_t(m.cols), h + p));
    m.ys.emplace_back(std::size_t(m.rows));
    ref.execute(m.xs.back(), m.ys.back());
  }
  return m;
}

namespace {

bs::Csr transpose(const bs::Csr& a) {
  bs::Csr t;
  t.rows = a.cols;
  t.cols = a.rows;
  t.row_ptr.assign(std::size_t(a.cols) + 1, 0);
  for (const index_t c : a.col_idx) ++t.row_ptr[std::size_t(c) + 1];
  for (std::size_t c = 0; c < std::size_t(a.cols); ++c)
    t.row_ptr[c + 1] += t.row_ptr[c];
  t.col_idx.resize(a.nnz());
  t.vals.resize(a.nnz());
  std::vector<index_t> next(t.row_ptr.begin(), t.row_ptr.end() - 1);
  for (index_t r = 0; r < a.rows; ++r) // rows ascending: columns stay sorted
    for (index_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      const index_t q = next[std::size_t(a.col_idx[p])]++;
      t.col_idx[std::size_t(q)] = r;
      t.vals[std::size_t(q)] = a.vals[p];
    }
  return t;
}

} // namespace

bs::Csr make_spd(const bs::Csr& a) {
  if (a.rows != a.cols)
    throw std::runtime_error("make_spd needs a square matrix");
  const bs::Csr t = transpose(a);
  bs::Csr s;
  s.rows = s.cols = a.rows;
  s.row_ptr.reserve(std::size_t(a.rows) + 1);
  s.row_ptr.push_back(0);
  s.col_idx.reserve(a.nnz() + t.nnz());
  s.vals.reserve(a.nnz() + t.nnz());
  for (index_t r = 0; r < a.rows; ++r) {
    // Merge row r of A and of A^T (both column-sorted), off-diagonal only.
    const std::size_t begin = s.col_idx.size();
    index_t p = a.row_ptr[r], q = t.row_ptr[r];
    const index_t pe = a.row_ptr[r + 1], qe = t.row_ptr[r + 1];
    while (p < pe || q < qe) {
      const index_t cp = p < pe ? a.col_idx[p] : a.cols;
      const index_t cq = q < qe ? t.col_idx[q] : a.cols;
      const index_t c = std::min(cp, cq);
      value_t mag = 0;
      if (cp == c) mag += std::abs(a.vals[p++]);
      if (cq == c) mag += std::abs(t.vals[q++]);
      if (c == r) continue;
      s.col_idx.push_back(c);
      s.vals.push_back(-mag / 2);
    }
    value_t diag = 1;
    for (std::size_t e = begin; e < s.vals.size(); ++e) diag -= s.vals[e];
    const auto at = std::lower_bound(s.col_idx.begin() + std::ptrdiff_t(begin),
                                     s.col_idx.end(), r) -
                    s.col_idx.begin();
    s.col_idx.insert(s.col_idx.begin() + at, r);
    s.vals.insert(s.vals.begin() + at, diag);
    s.row_ptr.push_back(static_cast<index_t>(s.col_idx.size()));
  }
  return s;
}

std::size_t peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stoull(line.substr(6)) * 1024; // reported in kB
  return 0;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5"; // 5 = reset the peak resident set size to the current one
  out.close();
  return bool(out);
}

std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int i = 0; i < 8; ++i) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(i) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    std::size_t v = std::stoull(s);
    if (s.back() == 'K') v <<= 10;
    if (s.back() == 'M') v <<= 20;
    best = std::max(best, v);
  }
  if (best == 0) {
    const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (v > 0) best = static_cast<std::size_t>(v);
  }
  return best;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

void describe(const std::string& id, index_t rows, index_t cols,
              std::size_t nnz, std::size_t bro_bytes) {
  const double csr_mb = double((std::size_t(rows) + 1) * sizeof(index_t) +
                               nnz * (sizeof(index_t) + sizeof(value_t))) / 1e6;
  std::printf("  matrix %-14s %8d x %-8d nnz %9zu  CSR %7.1f MB", id.c_str(),
              rows, cols, nnz, csr_mb);
  if (bro_bytes) std::printf("  .bro %7.1f MB", double(bro_bytes) / 1e6);
  std::printf("\n");
}

void stage(const char* what, Clock::time_point t) {
  std::printf("  stage %-22s %8.3f s  VmHWM %.0f MB\n", what, seconds_since(t),
              double(peak_rss_bytes()) / 1e6);
  std::fflush(stdout);
}

} // namespace perf
