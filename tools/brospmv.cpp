// brospmv — command-line front end to the library.
//
//   brospmv info <matrix>                     matrix statistics
//   brospmv formats                           list registered formats
//   brospmv compress <matrix> <out.bro>       offline compression (--format)
//   brospmv spmv <matrix|.bro> [--format F]   y = A*1, checksum + timing
//   brospmv tune <matrix> [--device D]        simulated format ranking
//   brospmv bench <matrix>                    per-format simulated GFlop/s
//   brospmv fuzz [--rounds N] [--seed S]      differential fuzz all formats
//   brospmv serve-bench [--clients N] ...     drive the serving layer
//
// <matrix> is a Matrix Market file, a named suite matrix (with optional
// --scale, default 0.125), or a .bro file where noted. --device is one of
// c2070 / gtx680 / k20 (default k20). --format takes any name printed by
// `brospmv formats`; unknown names are a hard error, and so is any flag the
// command does not read.
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/differential.h"
#include "core/bro_bcsr.h"
#include "core/bro_coo.h"
#include "core/bro_ell.h"
#include "core/matrix.h"
#include "core/serialize.h"
#include "engine/autotune.h"
#include "engine/format_registry.h"
#include "engine/plan.h"
#include "kernels/bro_bcsr_decode.h"
#include "kernels/cpu_features.h"
#include "kernels/decode_bench.h"
#include "kernels/native_spmv.h"
#include "sparse/convert.h"
#include "sparse/matgen/adversarial.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"
#include "sparse/mmio.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/server.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace bro;

int usage() {
  std::cerr
      << "usage: brospmv <command> [args]\n"
         "  info <matrix>                      matrix statistics\n"
         "  formats                            list registered formats\n"
         "  compress <matrix> <out.bro>        offline compression "
         "(--format F, default BRO-HYB)\n"
         "  spmv <matrix|.bro> [--format F]    run y = A*1 and report\n"
         "  tune <matrix> [--device D]         simulated format ranking\n"
         "  bench <matrix>                     per-format simulated GFlop/s\n"
         "  fuzz [--rounds N] [--seed S]       differential-test every format\n"
         "       [--quiet]\n"
         "  cpuinfo [--short]                  SIMD probe + dispatch report\n"
         "                                     (--short: active ISA only)\n"
         "  bench --decode [--min-time S]      host decode-throughput sweep\n"
         "                                     (specialized vs generic vs\n"
         "                                     SIMD ISAs)\n"
         "       [--suite [--scale S]]         add the BRO-ELL suite decode\n"
         "                                     A/B (scalar vs active SIMD)\n"
         "  entropy-bench [--scale S] [--min-time T]  BRO-ANS vs BRO-ELL\n"
         "       [--gate [--max-slowdown X]]  savings + decode A/B on Test\n"
         "                                    Set 1 (--gate: non-zero exit\n"
         "                                    unless ANS wins savings within\n"
         "                                    the slowdown budget)\n"
         "  block-bench [--scale S] [--min-time T]  BRO-BCSR vs BRO-ELL\n"
         "       [--json PATH]                savings + decode A/B on the\n"
         "       [--gate [--min-speedup X]]   truss-FEM suite (Test Set 3);\n"
         "                                    --json: machine-readable\n"
         "                                    archive; --gate: non-zero\n"
         "                                    exit unless BCSR wins eta and\n"
         "                                    the decode speedup floor,\n"
         "                                    parity holds on the\n"
         "                                    adversarial battery, and Test\n"
         "                                    Set 1 never auto-selects it\n"
         "  serve-bench [--threads N] [--clients C] [--requests R]\n"
         "       [--matrices M] [--max-batch K] [--max-queue Q]\n"
         "       [--cache-mb B] [--format F] [--scale S] [--seed S]\n"
         "       [--admit-rate R] [--admit-burst B] [--shed-depth D]\n"
         "       [--slo-p99-ms MS]             drive the serving layer and\n"
         "                                     report throughput + metrics\n"
         "                                     (--slo-p99-ms: non-zero exit\n"
         "                                     when queue-wait p99 + execute\n"
         "                                     p99 exceeds the budget)\n"
         "  serve [--listen A] [--port P] [--port-file F]\n"
         "       [+ the serve-bench server knobs]\n"
         "                                     TCP daemon: serve the bro::net\n"
         "                                     protocol until a DRAIN op\n"
         "  net-bench --port P [--host A] [--port-file F]\n"
         "       [--clients C] [--requests R] [--window W] [--matrices M]\n"
         "       [--format F] [--scale S] [--seed S] [--slo-p99-ms MS]\n"
         "       [--no-verify] [--drain]       loopback load generator:\n"
         "                                     upload, drive, reconcile\n"
         "                                     client-side rejection counts\n"
         "                                     against server STATS\n"
         "matrix: a .mtx path or a suite name (cant, pwtk, ...);\n"
         "options: --scale S (suite matrices, default 0.125),\n"
         "         --device c2070|gtx680|k20 (default k20),\n"
         "         --format <name from `brospmv formats`>\n";
  return 2;
}

std::string registered_names() {
  std::string out;
  for (const auto& n : engine::format_names()) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

/// Registry lookup for --format; unknown names are a hard error that lists
/// every registered name.
const engine::FormatTraits& parse_format(const std::string& name) {
  if (const auto* t = engine::find_format(name)) return *t;
  throw std::runtime_error("unknown --format '" + name +
                           "' (registered: " + registered_names() + ")");
}

sparse::Csr load_matrix(const std::string& name, const Args& args) {
  if (const auto entry = sparse::find_suite_entry(name))
    return sparse::generate_suite_matrix(*entry,
                                         args.get_double("scale", 0.125));
  return sparse::coo_to_csr(sparse::read_matrix_market_file(name));
}

sim::DeviceSpec device_from(const Args& args) {
  const std::string d = args.get("device", "k20");
  if (d == "c2070") return sim::tesla_c2070();
  if (d == "gtx680") return sim::gtx680();
  if (d == "k20") return sim::tesla_k20();
  throw std::runtime_error("unknown --device '" + d +
                           "' (use c2070, gtx680 or k20)");
}

int cmd_info(const Args& args) {
  args.allow_only({"scale"});
  const sparse::Csr m = load_matrix(args.positional().at(1), args);
  const auto s = sparse::compute_stats(m);
  std::cout << "dimensions     " << sparse::dims_string(s.rows, s.cols) << '\n'
            << "non-zeros      " << s.nnz << '\n'
            << "row length     mean " << s.mean_row_length << ", sigma "
            << s.stddev_row_length << ", min " << s.min_row_length << ", max "
            << s.max_row_length << '\n'
            << "density        " << s.density << '\n';
  const auto mat = core::Matrix::from_csr(m);
  std::cout << "recommended    " << core::format_name(mat.auto_format())
            << '\n'
            << "index savings  " << mat.space_savings() * 100 << "%\n";
  return 0;
}

int cmd_formats(const Args& args) {
  args.allow_only({});
  for (const auto& t : engine::format_registry()) std::cout << t.name << '\n';
  return 0;
}

int cmd_compress(const Args& args) {
  args.allow_only({"scale", "format"});
  const sparse::Csr m = load_matrix(args.positional().at(1), args);
  const std::string out_path = args.positional().at(2);
  const auto& t = parse_format(args.get("format", "BRO-HYB"));
  if (!t.serialize)
    throw std::runtime_error(std::string(t.name) +
                             " has no serialized form (use a BRO format)");
  Timer timer;
  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + out_path);
  const auto rep = t.make(engine::borrow_csr(m), core::MatrixOptions{});
  t.serialize(out, rep.get());
  const auto s = t.rep_savings(rep.get());
  std::cout << "compressed " << m.nnz() << " non-zeros to " << t.name
            << " in " << timer.seconds() << " s\nindex data "
            << s.original_bytes << " B -> " << s.compressed_bytes << " B ("
            << s.eta() * 100 << "% saved)\nwrote " << out_path << '\n';
  return 0;
}

int cmd_spmv(const Args& args) {
  args.allow_only({"scale", "format"});
  const std::string src = args.positional().at(1);
  std::vector<value_t> y;
  std::size_t nnz = 0;
  double secs = 0;
  std::string format;

  // Resolve the source to (CSR, format) without naming any format here: a
  // .bro file carries whichever registered format `compress --format`
  // wrote — the tag-dispatched reader handles them all — and the planner
  // below rebuilds that format from the registry entry. Adding a format to
  // the registry makes it runnable from file with no tool change.
  std::shared_ptr<core::Matrix> m;
  core::Format f;
  if (src.size() > 4 && src.substr(src.size() - 4) == ".bro") {
    std::ifstream in(src, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + src);
    m = std::make_shared<core::Matrix>(
        core::Matrix::from_csr(core::read_bro_to_csr(in, &f)));
    format = std::string(core::format_name(f)) + " (from file)";
  } else {
    m = std::make_shared<core::Matrix>(
        core::Matrix::from_csr(load_matrix(src, args)));
    f = args.has("format") ? parse_format(args.get("format", "")).format
                           : m->auto_format();
    format = core::format_name(f);
  }

  Timer build_timer;
  engine::SpmvPlan plan(m, f);
  const double build_secs = build_timer.seconds();
  std::vector<value_t> x(static_cast<std::size_t>(m->cols()), 1.0);
  y.resize(static_cast<std::size_t>(m->rows()));
  Timer t;
  plan.execute(x, y);
  secs = t.seconds();
  nnz = m->nnz();
  std::cout << "plan      built in " << build_secs << " s\n";

  double checksum = 0;
  for (const auto v : y) checksum += v;
  std::cout << "format    " << format << '\n'
            << "time      " << secs << " s (host, single SpMV)\n"
            << "rate      " << 2.0 * double(nnz) / secs / 1e9
            << " GFlop/s (host)\n"
            << "checksum  sum(A*1) = " << checksum << '\n';
  return 0;
}

int cmd_tune(const Args& args) {
  args.allow_only({"scale", "device"});
  const sparse::Csr m = load_matrix(args.positional().at(1), args);
  const auto dev = device_from(args);
  const auto res = engine::autotune(m, dev);
  std::cout << "Simulated ranking on " << dev.name << ":\n";
  Table t({"Format", "GFlop/s", "index savings", "applicable"});
  for (const auto& e : res.ranking)
    t.add_row({core::format_name(e.format),
               e.applicable ? Table::fmt(e.gflops, 2) : "-",
               e.applicable ? Table::pct(e.eta) : "-",
               e.applicable ? "yes" : "no"});
  t.print(std::cout);
  return 0;
}

/// `cpuinfo`: the SIMD dispatch report — what the hardware offers, what the
/// binary carries, what BRO_SIMD requests and what each BRO format's planned
/// kernel table actually resolved to. `--short` prints just the active ISA
/// name (the CI artifact-tagging hook).
int cmd_cpuinfo(const Args& args) {
  args.allow_only({"short"});
  namespace bk = kernels;
  const bk::SimdIsa active = bk::active_simd_isa();
  if (args.has("short")) {
    std::cout << bk::simd_isa_name(active) << '\n';
    return 0;
  }

  const auto yn = [](bool b) { return b ? "yes" : "no"; };
  const bk::CpuFeatures f = bk::cpu_features();
  std::cout << "hardware   sse4.2=" << yn(f.sse4) << " avx2=" << yn(f.avx2)
            << '\n'
            << "compiled   sse4=" << yn(bk::simd_isa_compiled(bk::SimdIsa::kSse4))
            << " avx2=" << yn(bk::simd_isa_compiled(bk::SimdIsa::kAvx2)) << '\n'
            << "runnable   sse4=" << yn(bk::simd_isa_runnable(bk::SimdIsa::kSse4))
            << " avx2=" << yn(bk::simd_isa_runnable(bk::SimdIsa::kAvx2)) << '\n';

  const char* raw = bk::simd_env_raw();
  std::cout << "BRO_SIMD   " << (raw ? raw : "(unset)");
  if (raw && !bk::parse_simd_isa(raw))
    std::cout << " (unparsable, treated as unset)";
  std::cout << '\n'
            << "best       " << bk::simd_isa_name(bk::best_simd_isa()) << '\n'
            << "active     " << bk::simd_isa_name(active) << '\n';

  // What plan-time selection resolves to right now, per BRO format: compress
  // a tiny fixed matrix and read the ISA tag off the planned kernel tables.
  sparse::GenSpec spec;
  spec.seed = 2013;
  spec.rows = 64;
  spec.cols = 64;
  spec.mu = 4.0;
  const sparse::Csr csr = sparse::generate(spec);
  const auto ell = core::BroEll::compress(sparse::csr_to_ell(csr));
  const auto ell_kernels = kernels::plan_bro_ell_kernels(ell, active);
  const auto coo = core::BroCoo::compress(sparse::csr_to_coo(csr));
  const auto coo_kernels = kernels::plan_bro_coo_kernels(coo, active);
  std::cout << "BRO-ELL    "
            << (ell_kernels.empty()
                    ? "(no slices)"
                    : bk::simd_isa_name(ell_kernels.front().isa))
            << '\n'
            << "BRO-COO    "
            << (coo_kernels.empty()
                    ? "(no intervals)"
                    : bk::simd_isa_name(coo_kernels.front().isa))
            << '\n';
  return 0;
}

/// `bench --decode --suite`: the scalar-vs-SIMD BRO-ELL suite decode A/B
/// (the EXPERIMENTS.md protocol) on the active ISA.
int cmd_bench_decode_suite(const Args& args, double min_time) {
  const kernels::SimdIsa isa = kernels::active_simd_isa();
  if (isa == kernels::SimdIsa::kScalar) {
    std::cout << "\nSuite decode A/B skipped: no SIMD ISA is active "
                 "(host support, compiled sets and BRO_SIMD all allow only "
                 "scalar).\n";
    return 0;
  }
  const double scale = args.get_double("scale", 0.125);
  std::cout << "\nBRO-ELL suite decode throughput (Gdeltas/s), scalar vs "
            << kernels::simd_isa_name(isa) << ", scale " << scale << ":\n";
  const auto rows = kernels::ell_suite_decode_sweep(isa, scale, min_time);
  Table t({"Matrix", "deltas", "scalar", kernels::simd_isa_name(isa),
           "speedup"});
  std::vector<double> speedups;
  for (const auto& r : rows) {
    const double speedup = r.simd_gdps / r.scalar_gdps;
    speedups.push_back(speedup);
    t.add_row({r.matrix, std::to_string(r.deltas),
               Table::fmt(r.scalar_gdps, 3), Table::fmt(r.simd_gdps, 3),
               Table::fmt(speedup, 2) + "x"});
  }
  t.print(std::cout);
  double log_sum = 0;
  for (const double s : speedups) log_sum += std::log(s);
  if (!speedups.empty())
    std::cout << "geomean speedup: "
              << Table::fmt(
                     std::exp(log_sum / static_cast<double>(speedups.size())),
                     2)
              << "x over " << speedups.size() << " matrices\n";
  return 0;
}

/// `bench --decode`: host decode throughput per bit width, in giga-deltas
/// per second, for the scalar decoder pair plus every SIMD ISA runnable on
/// this host (ISA columns the host lacks print n/a).
int cmd_bench_decode(const Args& args) {
  args.allow_only({"decode", "min-time", "suite", "scale"});
  const double min_time = args.get_double("min-time", 0.02);
  std::cout << "Decode throughput (Gdeltas/s), 64 lanes x 16384 deltas:\n";
  Table t({"Width", "specialized", "generic", "sse4", "avx2"});
  for (const auto& r : kernels::decode_throughput_sweep(64, 16384, min_time))
    t.add_row({std::to_string(r.width), Table::fmt(r.specialized_gdps, 3),
               Table::fmt(r.generic_gdps, 3), Table::fmt(r.sse4_gdps, 3),
               Table::fmt(r.avx2_gdps, 3)});
  t.print(std::cout);
  if (args.has("suite")) return cmd_bench_decode_suite(args, min_time);
  return 0;
}

/// `entropy-bench`: the BRO-ANS vs BRO-ELL A/B on Test Set 1 — per matrix,
/// index space savings of both formats and decode throughput of the paths
/// dispatch plans at the active ISA (BRO_SIMD honored). With --gate, exits
/// non-zero unless BRO-ANS wins mean savings and its decode throughput
/// stays within --max-slowdown of BRO-ELL's (geomean), the PR's acceptance
/// claim as a CI check.
int cmd_entropy_bench(const Args& args) {
  args.allow_only({"scale", "min-time", "gate", "max-slowdown"});
  const double scale = args.get_double("scale", 0.125);
  const double min_time = args.get_double("min-time", 0.02);
  const kernels::SimdIsa isa = kernels::active_simd_isa();
  // With the AVX2 interleaved-stream decoder the design target itself is
  // the budget: BRO-ANS must hold within 1.5x of BRO-ELL (EXPERIMENTS.md).
  // ISAs without a vector tANS kernel (scalar, SSE4) decode on the scalar
  // 4-chain path in the 2.5-3x band, so they keep the old
  // 4x headroom — the BRO_SIMD=scalar CI pass still gates that path.
  // Tighten with --max-slowdown when chasing decode regressions.
  const double default_budget =
      isa == kernels::SimdIsa::kAvx2 ? 1.5 : 4.0;
  const double max_slowdown = args.get_double("max-slowdown", default_budget);
  std::cout << "BRO-ANS vs BRO-ELL on Test Set 1 (scale " << scale << ", "
            << kernels::simd_isa_name(isa)
            << "): index savings eta and dispatched decode Gdeltas/s\n";
  const auto rows = kernels::entropy_suite_sweep(isa, scale, min_time);
  Table t({"Matrix", "deltas", "eta ELL", "eta ANS", "ELL Gd/s", "ANS Gd/s",
           "slowdown"});
  double ell_eta_sum = 0, ans_eta_sum = 0, log_slowdown_sum = 0;
  for (const auto& r : rows) {
    const double slowdown = r.ell_gdps / r.ans_gdps;
    ell_eta_sum += r.ell_eta;
    ans_eta_sum += r.ans_eta;
    log_slowdown_sum += std::log(slowdown);
    t.add_row({r.matrix, std::to_string(r.deltas), Table::fmt(r.ell_eta, 3),
               Table::fmt(r.ans_eta, 3), Table::fmt(r.ell_gdps, 3),
               Table::fmt(r.ans_gdps, 3), Table::fmt(slowdown, 2) + "x"});
  }
  t.print(std::cout);
  if (rows.empty()) {
    std::cerr << "entropy-bench: no matrices produced deltas\n";
    return 1;
  }
  const double n = static_cast<double>(rows.size());
  const double mean_ell = ell_eta_sum / n;
  const double mean_ans = ans_eta_sum / n;
  const double geo_slowdown = std::exp(log_slowdown_sum / n);
  std::cout << "mean eta: BRO-ELL " << Table::fmt(mean_ell, 4) << ", BRO-ANS "
            << Table::fmt(mean_ans, 4) << "; geomean decode slowdown "
            << Table::fmt(geo_slowdown, 2) << "x over " << rows.size()
            << " matrices\n";
  if (!args.has("gate")) return 0;
  bool ok = true;
  if (mean_ans <= mean_ell) {
    std::cerr << "entropy-bench GATE FAIL: BRO-ANS mean savings "
              << Table::fmt(mean_ans, 4) << " does not beat BRO-ELL "
              << Table::fmt(mean_ell, 4) << "\n";
    ok = false;
  }
  if (geo_slowdown > max_slowdown) {
    std::cerr << "entropy-bench GATE FAIL: decode slowdown "
              << Table::fmt(geo_slowdown, 2) << "x exceeds "
              << Table::fmt(max_slowdown, 2) << "x\n";
    ok = false;
  }
  if (ok) std::cout << "entropy-bench gate OK\n";
  return ok ? 0 : 1;
}

/// `block-bench`: the BRO-BCSR acceptance experiment. A/B table of
/// fill-adjusted savings and dispatched index decode throughput against
/// BRO-ELL on the truss-FEM workload (Test Set 3), with end-to-end SpMV
/// rows/s as informational columns and an optional machine-readable JSON
/// archive for CI. Under --gate the exit code enforces the PR's perf
/// claim: BRO-BCSR must win mean fill-adjusted eta AND hold the geomean
/// decode-throughput speedup floor, the scalar/SSE4/AVX2 kernels must
/// agree bitwise across the adversarial battery at every forced shape,
/// and no Test Set 1 matrix may auto-select the format.
int cmd_block_bench(const Args& args) {
  args.allow_only({"scale", "min-time", "gate", "min-speedup", "json"});
  const double scale = args.get_double("scale", 0.125);
  const double min_time = args.get_double("min-time", 0.02);
  const kernels::SimdIsa isa = kernels::active_simd_isa();
  // The 1.5x floor is the AVX2 claim from the acceptance criteria; the
  // one-index-per-block stream decodes ~block area fewer symbols per
  // matrix row, so scalar and SSE4 must clear the same floor.
  const double min_speedup = args.get_double("min-speedup", 1.5);

  std::cout << "BRO-BCSR vs BRO-ELL on the truss-FEM workload (scale "
            << scale << ", " << kernels::simd_isa_name(isa)
            << "): fill-adjusted eta, index decode rows/s, SpMV rows/s\n";
  const auto rows = kernels::block_suite_sweep(isa, scale, min_time);
  if (rows.empty()) {
    std::cerr << "block-bench: Test Set 3 produced no matrices\n";
    return 1;
  }
  Table t({"Matrix", "rows", "shape", "fill", "eta ELL", "eta BCSR",
           "dec ELL Mrow/s", "dec BCSR Mrow/s", "dec speedup",
           "spmv ELL Mrow/s", "spmv BCSR Mrow/s"});
  double ell_eta_sum = 0, bcsr_eta_sum = 0, log_speedup_sum = 0;
  for (const auto& r : rows) {
    const double speedup = r.bcsr_rps / r.ell_rps;
    ell_eta_sum += r.ell_eta;
    bcsr_eta_sum += r.bcsr_eta;
    log_speedup_sum += std::log(speedup);
    t.add_row({r.matrix, std::to_string(r.rows),
               std::to_string(r.shape_r) + "x" + std::to_string(r.shape_c),
               Table::fmt(r.fill, 3), Table::fmt(r.ell_eta, 3),
               Table::fmt(r.bcsr_eta, 3), Table::fmt(r.ell_rps / 1e6, 2),
               Table::fmt(r.bcsr_rps / 1e6, 2),
               Table::fmt(speedup, 2) + "x",
               Table::fmt(r.ell_spmv_rps / 1e6, 2),
               Table::fmt(r.bcsr_spmv_rps / 1e6, 2)});
  }
  t.print(std::cout);
  const double n = static_cast<double>(rows.size());
  const double mean_ell = ell_eta_sum / n;
  const double mean_bcsr = bcsr_eta_sum / n;
  const double geo_speedup = std::exp(log_speedup_sum / n);
  std::cout << "mean fill-adjusted eta: BRO-ELL " << Table::fmt(mean_ell, 4)
            << ", BRO-BCSR " << Table::fmt(mean_bcsr, 4)
            << "; geomean decode speedup " << Table::fmt(geo_speedup, 2)
            << "x over " << rows.size() << " matrices\n";

  if (args.has("json")) {
    const std::string path = args.get("json", "");
    std::ofstream js(path);
    if (!js) throw std::runtime_error("cannot open " + path);
    js << "{\n  \"isa\": \"" << kernels::simd_isa_name(isa)
       << "\",\n  \"scale\": " << scale << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      js << "    {\"matrix\": \"" << r.matrix << "\", \"rows\": " << r.rows
         << ", \"nnz\": " << r.nnz << ", \"shape\": \"" << r.shape_r << "x"
         << r.shape_c << "\", \"fill\": " << r.fill
         << ", \"eta_ell\": " << r.ell_eta
         << ", \"eta_bcsr\": " << r.bcsr_eta
         << ", \"ell_decode_rows_per_s\": " << r.ell_rps
         << ", \"bcsr_decode_rows_per_s\": " << r.bcsr_rps
         << ", \"ell_spmv_rows_per_s\": " << r.ell_spmv_rps
         << ", \"bcsr_spmv_rows_per_s\": " << r.bcsr_spmv_rps << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"mean_eta_ell\": " << mean_ell
       << ",\n  \"mean_eta_bcsr\": " << mean_bcsr
       << ",\n  \"geomean_decode_speedup\": " << geo_speedup << "\n}\n";
    std::cout << "wrote " << path << '\n';
  }

  if (!args.has("gate")) return 0;
  bool ok = true;
  if (mean_bcsr <= mean_ell) {
    std::cerr << "block-bench GATE FAIL: BRO-BCSR mean fill-adjusted eta "
              << Table::fmt(mean_bcsr, 4) << " does not beat BRO-ELL "
              << Table::fmt(mean_ell, 4) << "\n";
    ok = false;
  }
  if (geo_speedup < min_speedup) {
    std::cerr << "block-bench GATE FAIL: decode speedup "
              << Table::fmt(geo_speedup, 2) << "x below "
              << Table::fmt(min_speedup, 2) << "x\n";
    ok = false;
  }

  // Bitwise parity across the adversarial battery: every forced shape,
  // every kernel ISA this process can run, against the sequential 8-lane
  // reference.
  std::size_t parity_checks = 0, applicable_cases = 0;
  for (const auto& c : sparse::adversarial_suite()) {
    if (core::bro_bcsr_applicable(c.csr, 3.0)) ++applicable_cases;
    for (const auto& [br, bc] : core::kBcsrCandidateShapes) {
      core::BroBcsrOptions o;
      o.block_rows = br;
      o.block_cols = bc;
      const core::BroBcsr a = core::BroBcsr::compress(c.csr, o);
      std::vector<value_t> x(static_cast<std::size_t>(c.csr.cols));
      for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 1.0 + static_cast<value_t>(i % 16) * 0.0625;
      std::vector<value_t> ref(static_cast<std::size_t>(c.csr.rows));
      a.spmv(x, ref);
      for (const kernels::SimdIsa k : {kernels::SimdIsa::kScalar,
                                       kernels::SimdIsa::kSse4,
                                       kernels::SimdIsa::kAvx2}) {
        if (k != kernels::SimdIsa::kScalar && !kernels::simd_isa_runnable(k))
          continue;
        const kernels::BroBcsrKernel kn =
            kernels::select_bro_bcsr_kernel(a, k);
        std::vector<value_t> y(ref.size(), 0.0);
        for (std::size_t si = 0; si < a.slices().size(); ++si)
          kn.spmv(a, si, x, y);
        for (std::size_t i = 0; i < ref.size(); ++i)
          if (std::bit_cast<std::uint64_t>(y[i]) !=
              std::bit_cast<std::uint64_t>(ref[i])) {
            std::cerr << "block-bench GATE FAIL: " << c.name << " " << br
                      << "x" << bc << " " << kernels::simd_isa_name(k)
                      << " differs bitwise from the reference at row " << i
                      << "\n";
            ok = false;
            break;
          }
        ++parity_checks;
      }
    }
  }
  if (applicable_cases == 0) {
    std::cerr << "block-bench GATE FAIL: no adversarial case passes the "
                 "BRO-BCSR applicability test\n";
    ok = false;
  }
  std::cout << "adversarial parity: " << parity_checks
            << " decode sweeps bitwise-identical, " << applicable_cases
            << " case(s) BCSR-applicable\n";

  // Auto-selection hygiene: the paper suite (Test Set 1) must never pick
  // the blocked format.
  for (const auto& e : sparse::suite_test_set(1)) {
    const sparse::Csr m = sparse::generate_suite_matrix(e, scale);
    if (engine::auto_select(m, 3.0) == core::Format::kBroBcsr) {
      std::cerr << "block-bench GATE FAIL: Test Set 1 matrix " << e.name
                << " auto-selects BRO-BCSR\n";
      ok = false;
    }
  }

  if (ok) std::cout << "block-bench gate OK\n";
  return ok ? 0 : 1;
}

int cmd_bench(const Args& args) {
  args.allow_only({"scale"});
  // Equivalent to tune but over all three devices, one column each.
  const sparse::Csr m = load_matrix(args.positional().at(1), args);
  std::vector<engine::TuneResult> tuned;
  for (const auto& dev : sim::all_devices())
    tuned.push_back(engine::autotune(m, dev));
  // Rows in the first device's ranking order.
  Table t({"Format", "C2070", "GTX680", "K20"});
  for (const auto& first : tuned.front().ranking) {
    std::vector<std::string> row = {core::format_name(first.format)};
    for (const auto& res : tuned) {
      const auto& e = res.entry(first.format);
      row.push_back(e.applicable ? Table::fmt(e.gflops, 2) : "-");
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  return 0;
}

int cmd_fuzz(const Args& args) {
  args.allow_only({"rounds", "seed", "quiet"});
  check::FuzzOptions opts;
  opts.rounds = static_cast<int>(args.get_long("rounds", opts.rounds));
  if (opts.rounds < 0) throw std::runtime_error("--rounds must be >= 0");
  opts.seed = static_cast<std::uint64_t>(
      args.get_long("seed", static_cast<long>(opts.seed)));

  std::ostream* log = args.has("quiet") ? nullptr : &std::cout;
  const auto report = check::run_fuzz(opts, log);
  if (!report.ok()) {
    std::cerr << report.failures.size() << " differential failures:\n";
    for (const auto& f : report.failures)
      std::cerr << "  " << f.matrix << " [" << f.format << "/" << f.path
                << "] " << f.message << '\n';
    return 1;
  }
  std::cout << "fuzz OK: " << report.matrices << " matrices, "
            << report.comparisons << " comparisons against the CSR reference"
            << '\n';
  return 0;
}

/// The flags server_options_from reads, plus a command's own `extra` ones.
std::vector<std::string> with_server_flags(std::vector<std::string> extra) {
  extra.insert(extra.end(), {"threads", "max-queue", "max-batch", "cache-mb",
                             "format", "admit-rate", "admit-burst",
                             "shed-depth"});
  return extra;
}

/// The ServerOptions knobs shared by serve-bench and the serve daemon.
serve::ServerOptions server_options_from(const Args& args) {
  serve::ServerOptions opts;
  opts.threads = static_cast<int>(args.get_long("threads", opts.threads));
  if (opts.threads < 0) throw std::runtime_error("--threads must be >= 0");
  opts.max_queue = static_cast<std::size_t>(
      args.get_long("max-queue", static_cast<long>(opts.max_queue)));
  opts.max_batch = static_cast<int>(args.get_long("max-batch", opts.max_batch));
  opts.cache_bytes =
      static_cast<std::size_t>(args.get_long("cache-mb", 256)) << 20;
  if (args.has("format")) opts.format = parse_format(args.get("format", "")).format;
  opts.admission.rate = args.get_double("admit-rate", opts.admission.rate);
  opts.admission.burst = args.get_double("admit-burst", opts.admission.burst);
  opts.admission.shed_depth = static_cast<std::size_t>(
      args.get_long("shed-depth",
                    static_cast<long>(opts.admission.shed_depth)));
  return opts;
}

/// The --slo-p99-ms gate shared by serve-bench and net-bench: the service
/// budget is split queue-wait p99 + execute p99 (seconds in, ms budget).
int check_slo(const Args& args, double wait_p99_s, double exec_p99_s) {
  if (!args.has("slo-p99-ms")) return 0;
  const double budget_ms = args.get_double("slo-p99-ms", 0);
  const double actual_ms = (wait_p99_s + exec_p99_s) * 1e3;
  if (actual_ms <= budget_ms) {
    std::cout << "SLO OK: wait p99 + execute p99 = " << actual_ms
              << " ms <= " << budget_ms << " ms\n";
    return 0;
  }
  std::cerr << "SLO FAIL: wait p99 " << wait_p99_s * 1e3 << " ms + execute p99 "
            << exec_p99_s * 1e3 << " ms = " << actual_ms << " ms > "
            << budget_ms << " ms\n";
  return 1;
}

int cmd_serve_bench(const Args& args) {
  args.allow_only(with_server_flags(
      {"clients", "requests", "matrices", "scale", "seed", "slo-p99-ms"}));
  serve::ServerOptions opts = server_options_from(args);

  const int clients = static_cast<int>(args.get_long("clients", 4));
  const long requests = args.get_long("requests", 200); // per client
  const int n_matrices = static_cast<int>(args.get_long("matrices", 4));
  const double scale = args.get_double("scale", 0.05);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_long("seed", 2013));
  if (clients < 1 || requests < 1 || n_matrices < 1)
    throw std::runtime_error(
        "--clients, --requests and --matrices must be >= 1");

  serve::SpmvServer server(opts);

  // Working set: the first M suite matrices, scaled down so plan builds
  // dominate only the first touch of each (matrix, format) pair.
  const auto& suite = sparse::suite_entries();
  std::vector<std::string> ids;
  std::vector<index_t> cols;
  for (int i = 0; i < n_matrices; ++i) {
    const auto& entry = suite[static_cast<std::size_t>(i) % suite.size()];
    auto m = std::make_shared<core::Matrix>(core::Matrix::from_csr(
        sparse::generate_suite_matrix(entry, scale)));
    std::cout << "matrix " << entry.name << ": " << m->rows() << " x "
              << m->cols() << ", nnz " << m->nnz() << '\n';
    ids.push_back(entry.name);
    cols.push_back(m->cols());
    server.add_matrix(entry.name, std::move(m));
  }

  // Submit, retrying while the server pushes back: help drain the queue
  // (synchronous mode) or back off.
  auto submit = [&](std::size_t m, const std::vector<value_t>& x,
                    const std::string& client) {
    for (;;) {
      try {
        return server.submit(ids[m], x, client);
      } catch (const serve::RejectedError&) {
        if (opts.threads == 0)
          server.poll_once();
        else
          std::this_thread::yield();
      }
    }
  };

  // Untimed warm-up: one request per matrix builds its plan, and each
  // client draws its x for every matrix up front (one per matrix, reused
  // across its requests), so the timed run below measures serving alone.
  Timer warm;
  std::vector<std::vector<std::vector<value_t>>> xs(
      static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    Rng rng(seed + static_cast<std::uint64_t>(c) * 7919);
    for (const index_t n : cols) {
      auto& x = xs[static_cast<std::size_t>(c)].emplace_back(
          static_cast<std::size_t>(n));
      for (auto& v : x) v = rng.uniform() * 2 - 1;
    }
  }
  for (std::size_t m = 0; m < ids.size(); ++m) {
    auto f = submit(m, xs[0][m], "warm-up");
    if (opts.threads == 0)
      while (server.poll_once()) {}
    f.get();
  }
  const auto warm_served = server.metrics().served;
  std::cout << "warm-up   one request per matrix (" << warm_served
            << ") and every client's x in " << warm.seconds()
            << " s, untimed\n";

  std::atomic<std::size_t> served_rows{0};
  std::atomic<int> submitting{clients};
  auto client = [&](int c) {
    std::vector<std::future<std::vector<value_t>>> pending;
    const std::string name = "client-" + std::to_string(c);
    for (long r = 0; r < requests; ++r) {
      const std::size_t m = static_cast<std::size_t>(r) % ids.size();
      pending.push_back(submit(m, xs[static_cast<std::size_t>(c)][m], name));
      if (opts.threads == 0 && pending.size() % 16 == 0) server.poll_once();
    }
    submitting.fetch_sub(1);
    // Synchronous mode: serve whatever is still queued before waiting, or
    // f.get() below would block on a future nobody is going to fulfil.
    if (opts.threads == 0)
      while (server.poll_once()) {}
    for (auto& f : pending) served_rows += f.get().size();
  };

  Timer wall;
  if (opts.threads == 0 && clients == 1) {
    client(0); // fully deterministic single-threaded mode
    server.drain();
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
    if (opts.threads == 0) {
      // Clients only enqueue; serve here until every submit has landed and
      // the queue stays empty (once submitting hits 0 it can only shrink).
      while (submitting.load() > 0 || server.poll_once())
        if (!server.poll_once()) std::this_thread::yield();
      server.drain();
    }
    for (auto& t : threads) t.join();
    if (opts.threads > 0) server.drain();
  }
  const double secs = wall.seconds();

  const auto m = server.metrics();
  const long total = static_cast<long>(clients) * requests;
  const auto served = m.served - warm_served;
  std::cout << "\nserved    " << served << " / " << total << " requests in "
            << secs << " s (" << double(served) / secs << " req/s, "
            << double(served_rows.load()) / secs << " rows/s)\n"
            << "rejected  " << m.rejected << " submits bounced (retried): "
            << m.shed << " shed, " << m.throttled << " throttled\n"
            << "batches   " << m.batches << ", mean size "
            << m.batch_sizes.mean() << ", max "
            << m.batch_sizes.max() << '\n'
            << "cache     " << m.cache.hits << " hits, " << m.cache.misses
            << " misses, " << m.cache.evictions << " evictions, "
            << m.cache.resident_bytes << " B resident\n"
            << "wait      " << m.queue_wait.summary() << '\n'
            << "execute   " << m.execute.summary() << '\n';
  for (const auto& [name, h] : m.latency_by_format)
    std::cout << "latency   " << name << " batch " << h.summary() << '\n';
  if (m.failed) {
    std::cerr << m.failed << " requests failed\n";
    return 1;
  }
  return check_slo(args, m.queue_wait.percentile(99), m.execute.percentile(99));
}

/// `serve`: the TCP daemon — an SpmvServer behind a NetServer event loop.
/// Matrices arrive over the wire (UPLOAD_MATRIX); runs until a client
/// sends DRAIN. --port-file publishes the bound port (for --port 0).
int cmd_serve(const Args& args) {
  args.allow_only(with_server_flags({"listen", "port", "port-file"}));
  serve::SpmvServer server(server_options_from(args));

  net::NetServerOptions nopts;
  nopts.listen = args.get("listen", nopts.listen);
  nopts.port = static_cast<int>(args.get_long("port", 0));
  net::NetServer net_server(server, nopts);

  if (args.has("port-file")) {
    const std::string path = args.get("port-file", "");
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    out << net_server.port() << '\n';
  }
  std::cout << "listening on " << nopts.listen << ":" << net_server.port()
            << std::endl;

  net_server.run();

  const auto m = server.metrics();
  const auto ns = net_server.stats();
  std::cout << "drained: served " << m.served << ", rejected " << m.rejected
            << " (" << m.shed << " shed, " << m.throttled << " throttled), "
            << "failed " << m.failed << '\n'
            << "net: " << ns.accepted << " connections, " << ns.frames_in
            << " frames in, " << ns.frames_out << " out, "
            << ns.protocol_errors << " protocol errors\n"
            << "wait      " << m.queue_wait.summary() << '\n'
            << "execute   " << m.execute.summary() << '\n';
  return 0;
}

/// `net-bench`: the loopback load generator. Uploads a suite working set,
/// spot-checks wire answers bitwise against an in-process SpmvServer fed
/// the same .bro bytes, then drives C client threads with a W-deep
/// pipeline each, retrying rejections. Client-side rejection tallies must
/// reconcile exactly with the server's STATS counter deltas, and
/// round-trip p50/p99 is reported next to the server's queue-wait /
/// execute percentiles so latency can be attributed.
int cmd_net_bench(const Args& args) {
  args.allow_only({"host", "port", "port-file", "clients", "requests",
                   "window", "matrices", "scale", "seed", "format",
                   "no-verify", "drain", "slo-p99-ms"});
  const std::string host = args.get("host", "127.0.0.1");
  int port = static_cast<int>(args.get_long("port", 0));
  if (port == 0 && args.has("port-file")) {
    // The daemon publishes its bound port; poll briefly for startup.
    const std::string path = args.get("port-file", "");
    for (int i = 0; i < 100 && port == 0; ++i) {
      std::ifstream in(path);
      if (!(in >> port))
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (port == 0)
      throw std::runtime_error("no port in " + path + " after 10 s");
  }
  if (port <= 0) throw std::runtime_error("net-bench needs --port or --port-file");

  const int clients = static_cast<int>(args.get_long("clients", 4));
  const long requests = args.get_long("requests", 200); // per client
  const int window = static_cast<int>(args.get_long("window", 4));
  const int n_matrices = static_cast<int>(args.get_long("matrices", 2));
  const double scale = args.get_double("scale", 0.05);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_long("seed", 2013));
  const auto& fmt = parse_format(args.get("format", "BRO-HYB"));
  const bool verify = !args.has("no-verify");
  if (clients < 1 || requests < 1 || n_matrices < 1 || window < 1)
    throw std::runtime_error(
        "--clients, --requests, --matrices and --window must be >= 1");

  // Working set: suite matrices serialized to the wire format the daemon
  // will parse (exactly the bytes `compress` would write).
  struct Mat {
    std::string id;
    index_t cols = 0;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Mat> mats;
  const auto& suite = sparse::suite_entries();
  for (int i = 0; i < n_matrices; ++i) {
    const auto& entry = suite[static_cast<std::size_t>(i) % suite.size()];
    const auto m = core::Matrix::from_csr(
        sparse::generate_suite_matrix(entry, scale));
    Mat mat;
    mat.id = entry.name;
    mat.cols = m.cols();
    mat.bytes = net::matrix_to_bro_bytes(m, fmt.format);
    std::cout << "matrix " << entry.name << ": " << m.rows() << " x "
              << m.cols() << ", nnz " << m.nnz() << ", wire "
              << mat.bytes.size() << " B (" << fmt.name << ")\n";
    mats.push_back(std::move(mat));
  }

  net::NetClient admin(host, port);
  admin.ping();
  for (const auto& mat : mats) {
    const auto ack = admin.upload_matrix(mat.id, mat.bytes);
    if (ack.cols != static_cast<std::uint64_t>(mat.cols))
      throw std::runtime_error("upload ack dims mismatch for " + mat.id);
  }

  // Bitwise spot check: an in-process SpmvServer fed the same .bro bytes
  // must produce the same y as the wire round-trip, bit for bit. Assumes
  // the daemon runs default server options (pass --no-verify otherwise).
  if (verify) {
    serve::ServerOptions lopts;
    lopts.threads = 0;
    serve::SpmvServer local(lopts);
    Rng rng(seed ^ 0x5f5f5f5f);
    for (const auto& mat : mats) {
      local.add_matrix(mat.id, net::matrix_from_bro_bytes(mat.bytes));
      std::vector<value_t> x(static_cast<std::size_t>(mat.cols));
      for (auto& v : x) v = rng.uniform() * 2 - 1;
      auto fut = local.submit(mat.id, x);
      while (local.poll_once()) {}
      const std::vector<value_t> want = fut.get();
      const std::vector<value_t> got = admin.submit(mat.id, x);
      if (want != got)
        throw std::runtime_error("wire y differs from in-process y for " +
                                 mat.id + " (bitwise check)");
    }
    std::cout << "verify    wire == in-process (bitwise) on " << mats.size()
              << " matrices\n";
  }

  const net::StatsSnapshot before = admin.stats();

  struct Tally {
    std::uint64_t ok = 0, queue_full = 0, shed = 0, throttled = 0, other = 0;
    Histogram rtt = Histogram::exponential(1e-6, 10.0, 2.0); // seconds
  };
  std::vector<Tally> tallies(static_cast<std::size_t>(clients));
  std::atomic<bool> failed{false};

  auto client_fn = [&](int c) {
    using clock = std::chrono::steady_clock;
    Tally& tally = tallies[static_cast<std::size_t>(c)];
    try {
      net::NetClient cli(host, port);
      Rng rng(seed + static_cast<std::uint64_t>(c) * 7919);
      struct InFlight {
        std::uint64_t rid;
        clock::time_point start;
        std::size_t mat;
        std::vector<value_t> x; // kept for retry on rejection
      };
      std::deque<InFlight> inflight;

      const auto complete_front = [&] {
        InFlight f = std::move(inflight.front());
        inflight.pop_front();
        auto res = cli.wait_submit(f.rid);
        for (;;) {
          if (res.ok()) {
            tally.rtt.add(std::chrono::duration<double>(clock::now() - f.start)
                              .count());
            ++tally.ok;
            return;
          }
          switch (res.status) {
            case net::Status::kQueueFull: ++tally.queue_full; break;
            case net::Status::kShed: ++tally.shed; break;
            case net::Status::kThrottled: ++tally.throttled; break;
            default:
              ++tally.other;
              failed.store(true);
              return; // not a backpressure signal: do not retry
          }
          // Typed backpressure: back off and resubmit the same x.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          const std::uint64_t rid =
              cli.enqueue_submit(mats[f.mat].id, f.x,
                                 "client-" + std::to_string(c));
          cli.flush();
          res = cli.wait_submit(rid);
        }
      };

      for (long r = 0; r < requests; ++r) {
        while (inflight.size() >= static_cast<std::size_t>(window))
          complete_front();
        InFlight f;
        f.mat = static_cast<std::size_t>(r) % mats.size();
        f.x.resize(static_cast<std::size_t>(mats[f.mat].cols));
        for (auto& v : f.x) v = rng.uniform() * 2 - 1;
        f.rid = cli.enqueue_submit(mats[f.mat].id, f.x,
                                   "client-" + std::to_string(c));
        cli.flush();
        f.start = clock::now();
        inflight.push_back(std::move(f));
      }
      while (!inflight.empty()) complete_front();
    } catch (const std::exception& e) {
      std::cerr << "client " << c << ": " << e.what() << '\n';
      failed.store(true);
    }
  };

  Timer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client_fn, c);
  for (auto& t : threads) t.join();
  const double secs = wall.seconds();

  const net::StatsSnapshot after = admin.stats();
  if (args.has("drain")) admin.drain();

  Tally total;
  Histogram rtt = Histogram::exponential(1e-6, 10.0, 2.0);
  for (const auto& t : tallies) {
    total.ok += t.ok;
    total.queue_full += t.queue_full;
    total.shed += t.shed;
    total.throttled += t.throttled;
    total.other += t.other;
    rtt.merge(t.rtt);
  }

  std::cout << "\nserved    " << total.ok << " / "
            << static_cast<long>(clients) * requests << " requests in " << secs
            << " s (" << double(total.ok) / secs << " req/s, " << clients
            << " clients, window " << window << ")\n"
            << "rejected  " << total.queue_full << " queue-full, "
            << total.shed << " shed, " << total.throttled
            << " throttled (all retried), " << total.other << " other\n"
            << "rtt       p50 " << rtt.percentile(50) * 1e3 << " ms, p99 "
            << rtt.percentile(99) * 1e3 << " ms, mean " << rtt.mean() * 1e3
            << " ms (client round-trip)\n"
            << "server    wait p50 " << after.wait_p50 * 1e3 << " ms, p99 "
            << after.wait_p99 * 1e3 << " ms; execute p50 "
            << after.exec_p50 * 1e3 << " ms, p99 " << after.exec_p99 * 1e3
            << " ms\n";

  // Reconcile: every typed rejection the clients counted must appear in
  // the server's per-cause counters, and vice versa — the wire protocol
  // may not lose or misclassify a single refusal.
  bool ok = !failed.load();
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return a - b; };
  const struct {
    const char* name;
    std::uint64_t server, client;
  } checks[] = {
      {"queue-full", delta(after.queue_full, before.queue_full),
       total.queue_full},
      {"shed", delta(after.shed, before.shed), total.shed},
      {"throttled", delta(after.throttled, before.throttled), total.throttled},
      {"served", delta(after.served, before.served), total.ok},
  };
  for (const auto& c : checks) {
    if (c.server == c.client) continue;
    std::cerr << "RECONCILE FAIL: " << c.name << " server delta " << c.server
              << " != client count " << c.client << '\n';
    ok = false;
  }
  if (ok)
    std::cout << "reconcile OK: queue-full/shed/throttled/served counters "
                 "match the STATS deltas\n";
  if (total.other) {
    std::cerr << total.other << " requests failed with non-backpressure "
                               "statuses\n";
    ok = false;
  }
  if (!ok) return 1;
  return check_slo(args, after.wait_p99, after.exec_p99);
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    if (args.positional().empty()) return usage();
    const std::string cmd = args.positional().front();
    if (cmd == "info" && args.positional().size() == 2) return cmd_info(args);
    if (cmd == "formats" && args.positional().size() == 1)
      return cmd_formats(args);
    if (cmd == "compress" && args.positional().size() == 3)
      return cmd_compress(args);
    if (cmd == "spmv" && args.positional().size() == 2) return cmd_spmv(args);
    if (cmd == "tune" && args.positional().size() == 2) return cmd_tune(args);
    if (cmd == "bench" && args.positional().size() == 1 && args.has("decode"))
      return cmd_bench_decode(args);
    if (cmd == "bench" && args.positional().size() == 2) return cmd_bench(args);
    if (cmd == "fuzz" && args.positional().size() == 1) return cmd_fuzz(args);
    if (cmd == "cpuinfo" && args.positional().size() == 1)
      return cmd_cpuinfo(args);
    if (cmd == "entropy-bench" && args.positional().size() == 1)
      return cmd_entropy_bench(args);
    if (cmd == "block-bench" && args.positional().size() == 1)
      return cmd_block_bench(args);
    if (cmd == "serve-bench" && args.positional().size() == 1)
      return cmd_serve_bench(args);
    if (cmd == "serve" && args.positional().size() == 1)
      return cmd_serve(args);
    if (cmd == "net-bench" && args.positional().size() == 1)
      return cmd_net_bench(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "brospmv: " << e.what() << '\n';
    return 1;
  }
}
