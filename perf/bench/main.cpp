// bro_perf — one workload of the end-to-end + per-layer benchmark per
// process.
//
//   bro_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--quick] [--out FILE] [--out-dir DIR]
//   bro_perf --list
//
// Prints every metric by name with its unit and sample count, then, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics (end-to-end metrics untraced, per-layer
// metrics traced). Exits 1 when any output is incorrect, 2 on a usage or
// run error (no result line).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <thread>
#include <unistd.h>

#include "bench/bench.h"
#include "bench/json.h"
#include "kernels/cpu_features.h"
#include "util/args.h"

namespace {

using namespace perf;

std::string result_line(const Report& r) {
  std::string s = "{\"correct\":" + std::string(r.correct ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(r.attempted) +
                  ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) s += ',';
    s += json_string(m.name);
    s += ":{\"value\":";
    s += json_number(m.value);
    s += ",\"unit\":";
    s += json_string(m.unit);
    s += '}';
  }
  return s + "}}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

void write_record(const std::string& path, const Config& cfg, const Report& r) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"workload\":" << json_string(cfg.workload.name)
      << ",\"seed\":" << cfg.seed << ",\"seconds\":" << json_number(cfg.seconds)
      << ",\"trace\":" << (cfg.trace ? "true" : "false")
      << ",\"quick\":" << (cfg.quick ? "true" : "false")
      << ",\"host\":{\"cpu\":" << json_string(cpu_model()) << ",\"isa\":"
      << json_string(
             bro::kernels::simd_isa_name(bro::kernels::active_simd_isa()))
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"llc_bytes\":" << llc_bytes() << "}"
      << ",\"correct\":" << (r.correct ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    out << (i ? "," : "") << json_string(r.problems[i]);
  out << "],\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i ? "," : "") << json_string(m.name) << ":{\"value\":"
        << json_number(m.value) << ",\"unit\":" << json_string(m.unit)
        << ",\"n\":" << m.n << ",\"note\":" << json_string(m.note) << "}";
  }
  out << "}}\n";
  if (!out) throw std::runtime_error("short write to " + path);
}

int run(int argc, char** argv) {
  const bro::Args args(argc, argv);
  args.allow_only({"workload", "seed", "seconds", "trace", "quick", "out",
                   "out-dir", "list"});
  if (args.has("list")) {
    for (const auto& w : workloads()) std::cout << w.name << '\n';
    return 0;
  }
  const Workload* w = find_workload(args.get("workload", ""));
  if (!w) {
    std::cerr << "bro_perf: --workload must be one of:";
    for (const auto& k : workloads()) std::cerr << ' ' << k.name;
    std::cerr << '\n';
    return 2;
  }

  // OpenMP reads OMP_NUM_THREADS once at start-up and threads the server
  // creates never see omp_set_num_threads() from main, so the workload's
  // thread count is set in the environment and the process re-executed.
  const std::string omp = std::to_string(w->omp);
  const char* have = std::getenv("OMP_NUM_THREADS");
  if (have == nullptr || omp != have) {
    setenv("OMP_NUM_THREADS", omp.c_str(), 1);
    const std::string self = std::filesystem::read_symlink("/proc/self/exe");
    execv(self.c_str(), argv);
    std::perror("bro_perf: re-exec with OMP_NUM_THREADS");
    return 2;
  }

  Config cfg;
  cfg.workload = *w;
  cfg.seed = static_cast<std::uint64_t>(args.get_long("seed", 2013));
  cfg.seconds = args.get_double("seconds", cfg.seconds);
  const std::string trace = args.get("trace", "0");
  if (trace != "0" && trace != "1" && trace != "") {
    std::cerr << "bro_perf: --trace takes 0 or 1\n";
    return 2;
  }
  cfg.trace = trace != "0";
  cfg.quick = args.has("quick");
  if (cfg.quick) cfg.seconds = std::min(cfg.seconds, 1.0);
  if (!(cfg.seconds > 0)) {
    std::cerr << "bro_perf: --seconds must be positive\n";
    return 2;
  }

  Tracer tracer(cfg.trace);
  Report report;
  std::cout << "workload " << w->name << "  seed " << cfg.seed
            << "  seconds " << cfg.seconds << (cfg.trace ? "  traced" : "")
            << (cfg.quick ? "  quick" : "") << "  OMP_NUM_THREADS " << w->omp
            << std::endl;
  if (w->served)
    run_served(cfg, tracer, report);
  else
    run_library(cfg, tracer, report);

  for (const Metric& m : report.metrics)
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << ' '
              << std::left << std::setw(7) << m.unit << "n=" << m.n
              << (m.note.empty() ? "" : "  (" + m.note + ")") << '\n';
  const double failed_ratio =
      report.attempted ? double(report.failed) / double(report.attempted) : 0;
  std::cout << "  attempted " << report.attempted << ", failed "
            << report.failed << ", failed_ratio " << failed_ratio << '\n';
  for (const auto& p : report.problems) std::cerr << "INCORRECT: " << p << '\n';

  const std::string out_dir = args.get("out-dir", "perf/out");
  if (cfg.trace) {
    std::filesystem::create_directories(out_dir);
    const std::string path = out_dir + "/trace-" + w->name + ".json";
    tracer.write_chrome_json(path);
    std::cout << "  trace " << path << " (" << tracer.spans().size()
              << " spans)\n";
  }
  if (args.has("out")) write_record(args.get("out", ""), cfg, report);

  std::cout << result_line(report) << std::endl;
  return report.correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bro_perf: " << e.what() << '\n';
    return 2;
  }
}
