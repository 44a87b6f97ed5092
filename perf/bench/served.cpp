// The served workloads: closed-loop clients over loopback TCP against a
// NetServer + SpmvServer in the same process. The traced run alternates
// untraced and traced slices of that traffic, then pairs every wire request
// with an in-process submit of the same x to the same SpmvServer, so that
// wire and serve time split by subtraction on requests that saw the same
// server state, and finally runs the request mix straight through SpmvPlan.
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench/bench.h"
#include "bench/stats.h"
#include "engine/plan.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perf {

namespace {

namespace net = bro::net;
namespace serve = bro::serve;
using bro::core::Matrix;

constexpr std::size_t kMaxProblems = 5;

serve::ServerOptions server_options(const Workload& w) {
  serve::ServerOptions o;
  o.threads = w.server_threads;
  return o;
}

/// The request sequence of reader connection c: which matrix, which x.
std::uint64_t reader_seed(std::uint64_t seed, int c) {
  return seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(c) + 1;
}

void note(std::vector<std::string>& problems, const std::string& p) {
  if (problems.size() < kMaxProblems) problems.push_back(p);
}

bool backpressure(net::Status s) {
  return s == net::Status::kQueueFull || s == net::Status::kShed ||
         s == net::Status::kThrottled;
}

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// A seeded order over n items in shuffled rounds, each item once per
/// round: every run sends the same mix of matrices, and the seed decides
/// only the order.
class ShuffledRounds {
 public:
  ShuffledRounds(std::size_t n, bro::Rng& rng) : rng_(rng), order_(n) {}

  std::size_t next() {
    if (pos_ == order_.size()) {
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (std::size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[std::size_t(rng_.below(i))]);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  bro::Rng& rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = order_.size();
};

// --- transports: the same closed loop over the wire or in process --------

struct Reply {
  enum class Kind { kOk, kBackpressure, kFailed } kind = Kind::kFailed;
  std::vector<value_t> y;
  std::string message;
};

class Transport {
 public:
  virtual ~Transport() = default;
  virtual const char* layer() const = 0; // of the per-request span
  virtual std::uint64_t send(const ServedMatrix& m, std::size_t slot,
                             std::uint64_t parent) = 0;
  virtual Reply wait(std::uint64_t token) = 0;
};

class WireTransport final : public Transport {
 public:
  WireTransport(net::NetClient& client, Tracer& tracer, std::string client_id)
      : client_(client), tracer_(tracer), client_id_(std::move(client_id)) {}

  const char* layer() const override { return "net"; }

  std::uint64_t send(const ServedMatrix& m, std::size_t slot,
                     std::uint64_t parent) override {
    ScopedSpan span(tracer_, "net", "send", parent);
    const std::uint64_t rid =
        client_.enqueue_submit(m.id, m.xs[slot], client_id_);
    client_.flush();
    return rid;
  }

  Reply wait(std::uint64_t token) override {
    auto r = client_.wait_submit(token);
    Reply out;
    if (r.ok()) {
      out.kind = Reply::Kind::kOk;
      out.y = std::move(r.y);
    } else if (backpressure(r.status)) {
      out.kind = Reply::Kind::kBackpressure;
    } else {
      out.message = net::status_name(r.status);
      out.message += ": " + r.message;
    }
    return out;
  }

 private:
  net::NetClient& client_;
  Tracer& tracer_;
  std::string client_id_;
};

class InprocTransport final : public Transport {
 public:
  InprocTransport(serve::SpmvServer& server, Tracer& tracer,
                  std::string client_id)
      : server_(server), tracer_(tracer), client_id_(std::move(client_id)) {}

  const char* layer() const override { return "serve"; }

  std::uint64_t send(const ServedMatrix& m, std::size_t slot,
                     std::uint64_t parent) override {
    std::vector<value_t> x = m.xs[slot]; // submit takes ownership of x
    const std::uint64_t token = next_++;
    ScopedSpan span(tracer_, "serve", "submit", parent, token);
    try {
      pending_.emplace(token, server_.submit(m.id, std::move(x), client_id_));
    } catch (const serve::RejectedError&) {
      // No pending entry: wait() reports the refusal as backpressure.
    }
    return token;
  }

  Reply wait(std::uint64_t token) override {
    Reply out;
    const auto it = pending_.find(token);
    if (it == pending_.end()) {
      out.kind = Reply::Kind::kBackpressure;
      return out;
    }
    auto future = std::move(it->second);
    pending_.erase(it);
    try {
      out.y = future.get();
      out.kind = Reply::Kind::kOk;
    } catch (const std::exception& e) {
      out.message = e.what();
    }
    return out;
  }

 private:
  serve::SpmvServer& server_;
  Tracer& tracer_;
  std::string client_id_;
  std::unordered_map<std::uint64_t, std::future<std::vector<value_t>>>
      pending_;
  std::uint64_t next_ = 1;
};

struct LoopResult {
  std::vector<double> rtt;        // wire round trips (s), in send order
  std::vector<double> inproc_rtt; // in-process round trips, in send order
  std::uint64_t attempted = 0, ok = 0, failed = 0;
  std::vector<std::string> problems;
  double elapsed = 0;
};

/// One closed-loop client: keeps `window` requests in flight until the
/// deadline, completes them in send order, and checks every y bitwise
/// against the reference. Backpressure is retried after a short pause,
/// never failed; the server counts it (serve.reject_ratio).
///
/// With `inproc` set, requests go in pairs: the same matrix and x once over
/// the wire and once through `inproc` (a submit to the server behind the
/// wire), in alternating order so neither side always runs second. The
/// k-th wire and k-th in-process round trip are one pair.
LoopResult closed_loop(Transport& wire, Transport* inproc,
                       const std::vector<ServedMatrix>& mats,
                       std::uint64_t seed, int window,
                       Clock::time_point deadline, Tracer& tracer,
                       std::uint64_t parent) {
  struct InFlight {
    Transport* t = nullptr;
    std::uint64_t token = 0;
    std::size_t m = 0, slot = 0;
    Clock::time_point start;
    Span span;
  };
  LoopResult res;
  bro::Rng rng(seed);
  ShuffledRounds order(mats.size(), rng);
  std::deque<InFlight> q;
  std::size_t m = 0, slot = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t sent = 0;;) {
    const bool pair_open = inproc != nullptr && sent % 2 == 1;
    if (q.size() < static_cast<std::size_t>(window) &&
        (pair_open || Clock::now() < deadline)) {
      if (!pair_open) {
        m = order.next();
        slot = static_cast<std::size_t>(rng.below(mats[m].xs.size()));
      }
      InFlight f;
      f.t = inproc == nullptr || (sent / 2 + sent % 2) % 2 == 0 ? &wire
                                                                 : inproc;
      f.m = m;
      f.slot = slot;
      f.span = tracer.begin(f.t->layer(), "request", parent);
      f.start = Clock::now();
      f.token = f.t->send(mats[m], slot, f.span.id);
      f.span.rid = f.token;
      q.push_back(std::move(f));
      ++sent;
      continue;
    }
    if (q.empty()) break;
    InFlight f = std::move(q.front());
    q.pop_front();
    Reply r = f.t->wait(f.token);
    while (r.kind == Reply::Kind::kBackpressure) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      f.token = f.t->send(mats[f.m], f.slot, f.span.id);
      r = f.t->wait(f.token);
    }
    (f.t == &wire ? res.rtt : res.inproc_rtt).push_back(seconds_since(f.start));
    tracer.end(f.span);
    ++res.attempted;
    if (r.kind == Reply::Kind::kFailed) {
      ++res.failed;
      note(res.problems, mats[f.m].id + ": " + r.message);
    } else if (!same_bits(r.y, mats[f.m].ys[f.slot])) {
      ++res.failed;
      note(res.problems,
           mats[f.m].id + ": y differs bitwise from the reference");
    } else {
      ++res.ok;
    }
  }
  res.elapsed = seconds_since(t0);
  return res;
}

/// Synchronous submit that retries typed backpressure.
std::vector<value_t> submit_retrying(net::NetClient& c, const std::string& id,
                                     const std::vector<value_t>& x) {
  for (;;) {
    try {
      return c.submit(id, x);
    } catch (const net::RpcError& e) {
      if (!backpressure(e.status())) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

/// The writer of upload-churn, closed-loop like the readers: each cycle
/// uploads one churn matrix under a fresh id (numbered from `next_id`),
/// sends one cold submit (a plan build on the server) and removes the
/// matrix uploaded two cycles earlier. `ok` counts the cycles that
/// completed without a failure.
LoopResult churn_loop(net::NetClient& c, const std::vector<ServedMatrix>& churn,
                      std::uint64_t seed, std::uint64_t& next_id,
                      Clock::time_point deadline, Tracer& tracer,
                      std::uint64_t parent) {
  LoopResult res;
  bro::Rng rng(seed);
  ShuffledRounds order(churn.size(), rng);
  std::deque<std::string> live;
  const auto t0 = Clock::now();
  while (Clock::now() < deadline) {
    const ServedMatrix& m = churn[order.next()];
    const std::string id = "churn-" + std::to_string(next_id++) + "-" + m.id;
    const std::uint64_t failed_before = res.failed;
    ScopedSpan span(tracer, "churn", "cycle", parent);
    try {
      ++res.attempted;
      net::UploadAck ack;
      {
        ScopedSpan s(tracer, "net", "upload", span.id());
        ack = c.upload_matrix(id, m.bro);
      }
      if (ack.rows != std::uint64_t(m.rows) ||
          ack.cols != std::uint64_t(m.cols) || ack.nnz != m.nnz) {
        ++res.failed;
        note(res.problems, id + ": upload ack dimensions differ");
      }
      live.push_back(id);
      ++res.attempted;
      std::vector<value_t> y;
      {
        ScopedSpan s(tracer, "net", "cold_submit", span.id());
        y = submit_retrying(c, id, m.xs[0]);
      }
      if (!same_bits(y, m.ys[0])) {
        ++res.failed;
        note(res.problems, id + ": cold y differs bitwise from the reference");
      }
      if (live.size() > 2) {
        ++res.attempted;
        ScopedSpan s(tracer, "net", "remove", span.id());
        if (!c.remove_matrix(live.front())) {
          ++res.failed;
          note(res.problems, live.front() + ": remove found no registration");
        }
        live.pop_front();
      }
    } catch (const std::exception& e) {
      ++res.failed;
      note(res.problems, id + ": " + e.what());
    }
    if (res.failed == failed_before) ++res.ok;
  }
  for (const auto& id : live) c.remove_matrix(id);
  res.elapsed = seconds_since(t0);
  return res;
}

// --- the service and its clients ------------------------------------------

struct Service {
  explicit Service(const serve::ServerOptions& o) : server(o), net(server) {
    net.start();
  }
  ~Service() { net.stop(); }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  serve::SpmvServer server;
  net::NetServer net;
};

/// The service and the client connections of one set-up; close() drops the
/// clients before the server.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { close(); }

  void close() {
    writer.reset();
    readers.clear();
    service.reset();
  }

  std::unique_ptr<Service> service;
  std::vector<net::NetClient> readers;
  std::unique_ptr<net::NetClient> writer;
  std::uint64_t churn_ids = 0; // next id number the writer uploads under
};

/// Server start -> connections -> uploads -> first verified response per
/// matrix, on a closed stack. Returns its wall time in seconds.
double set_up(Stack& s, const Workload& w,
              const std::vector<ServedMatrix>& hot, bool with_writer,
              Tracer& tracer, Report& report) {
  ScopedSpan span(tracer, "workload", "setup");
  const auto t0 = Clock::now();
  s.service = std::make_unique<Service>(server_options(w));
  const int port = s.service->net.port();
  for (int c = 0; c < w.connections; ++c)
    s.readers.emplace_back("127.0.0.1", port);
  if (with_writer)
    s.writer = std::make_unique<net::NetClient>("127.0.0.1", port);
  net::NetClient& admin = s.readers.front();
  for (const auto& m : hot) {
    ScopedSpan u(tracer, "net", "upload", span.id());
    const auto ack = admin.upload_matrix(m.id, m.bro);
    if (ack.rows != std::uint64_t(m.rows) || ack.nnz != m.nnz)
      report.fail(m.id + ": upload ack dimensions differ");
  }
  for (const auto& m : hot) {
    ScopedSpan c(tracer, "net", "cold_submit", span.id());
    if (!same_bits(submit_retrying(admin, m.id, m.xs[0]), m.ys[0]))
      report.fail(m.id + ": first y differs bitwise from the reference");
  }
  return seconds_since(t0);
}

struct Phase {
  std::vector<LoopResult> readers;
  LoopResult writer;

  double elapsed() const {
    double e = 0;
    for (const auto& r : readers) e = std::max(e, r.elapsed);
    return e;
  }
  std::uint64_t ok() const {
    std::uint64_t n = 0;
    for (const auto& r : readers) n += r.ok;
    return n;
  }
  std::vector<double> rtts() const {
    std::vector<double> all;
    for (const auto& r : readers)
      all.insert(all.end(), r.rtt.begin(), r.rtt.end());
    return all;
  }
};

/// Every connection's closed loop (and the writer's, when the workload has
/// one) for `seconds`; with `inproc`, readers pair wire and in-process
/// requests (closed_loop).
Phase measure(Stack& s, const Workload& w,
              const std::vector<ServedMatrix>& hot,
              const std::vector<ServedMatrix>& churn, std::uint64_t seed,
              double seconds, Tracer& tracer, bool inproc) {
  Phase ph;
  ph.readers.resize(static_cast<std::size_t>(w.connections));
  ScopedSpan root(tracer, "workload", inproc ? "measure_paired" : "measure");
  const auto deadline = after(seconds);
  std::vector<std::jthread> threads;
  for (int c = 0; c < w.connections; ++c)
    threads.emplace_back([&, c] {
      LoopResult& out = ph.readers[static_cast<std::size_t>(c)];
      try {
        const std::string client = "reader-" + std::to_string(c);
        WireTransport wire(s.readers[static_cast<std::size_t>(c)], tracer,
                           client);
        InprocTransport local(s.service->server, tracer, client);
        out = closed_loop(wire, inproc ? &local : nullptr, hot,
                          reader_seed(seed, c), w.window, deadline, tracer,
                          root.id());
      } catch (const std::exception& e) {
        ++out.failed;
        note(out.problems, e.what());
      }
    });
  if (!churn.empty())
    threads.emplace_back([&] {
      try {
        ph.writer = churn_loop(*s.writer, churn, seed ^ 0xc4a2f0e1ull,
                               s.churn_ids, deadline, tracer, root.id());
      } catch (const std::exception& e) {
        ++ph.writer.failed;
        note(ph.writer.problems, e.what());
      }
    });
  for (auto& t : threads) t.join();
  return ph;
}

void tally(const LoopResult& r, Report& report) {
  report.attempted += r.attempted;
  report.failed += r.failed;
  for (const auto& p : r.problems) report.fail(p);
  if (r.failed && r.problems.empty()) report.fail("unreported failures");
}

void tally(const Phase& ph, Report& report) {
  for (const auto& r : ph.readers) tally(r, report);
  tally(ph.writer, report);
}

/// Completed reader requests, writer cycles, time and wire round trips
/// summed over several phases.
struct Totals {
  std::uint64_t ok = 0, cycles = 0;
  double elapsed = 0;
  std::vector<double> rtt;

  void add(const Phase& ph) {
    ok += ph.ok();
    cycles += ph.writer.ok;
    elapsed += ph.elapsed();
    const auto r = ph.rtts();
    rtt.insert(rtt.end(), r.begin(), r.end());
  }
  double throughput() const { return double(ok) / elapsed; }
};

/// Mean of the samples a server histogram gained between two snapshots:
/// exact, because a Histogram keeps the raw sum and count beside its
/// buckets.
double delta_mean(const bro::Histogram& before, const bro::Histogram& after) {
  const std::uint64_t n = after.count() - before.count();
  return n ? (after.sum() - before.sum()) / double(n) : 0;
}

/// serve.*: what the server saw between two metrics() snapshots. Returns
/// the mean batch size.
double serve_counters(const serve::ServerMetrics& m0,
                      const serve::ServerMetrics& m1, Report& report) {
  const double batches = double(m1.batches - m0.batches);
  const double batch_mean =
      batches > 0 ? (m1.batch_sizes.sum() - m0.batch_sizes.sum()) / batches : 0;
  report.add("serve.batch_mean", batch_mean, "count", std::size_t(batches));
  report.add("serve.queue_wait_mean_ms",
             delta_mean(m0.queue_wait, m1.queue_wait) * 1e3, "ms",
             m1.queue_wait.count() - m0.queue_wait.count(), "server mean");
  report.add("serve.execute_mean_ms", delta_mean(m0.execute, m1.execute) * 1e3,
             "ms", m1.execute.count() - m0.execute.count(),
             "server mean per batch");
  const double submitted = double(m1.submitted - m0.submitted);
  const double rejected = double(m1.rejected - m0.rejected);
  report.add("serve.reject_ratio",
             submitted + rejected > 0 ? rejected / (submitted + rejected) : 0,
             "ratio", std::size_t(submitted + rejected));
  const double hits = double(m1.cache.hits - m0.cache.hits);
  const double misses = double(m1.cache.misses - m0.cache.misses);
  report.add("serve.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
             std::size_t(hits + misses));
  report.add("serve.cache_misses", misses, "count", 1);
  report.add("serve.cache_evictions",
             double(m1.cache.evictions - m0.cache.evictions), "count", 1);
  report.add("serve.cache_resident_mb", double(m1.cache.resident_bytes) / 1e6,
             "MB", 1);
  return batch_mean;
}

/// engine.* and core.eta: plans built from freshly decoded matrices, then
/// the request mix through SpmvPlan::execute, and through execute_multi at
/// k = the observed batch size, each for `budget` seconds.
void engine_layers(const Config& cfg, const std::vector<ServedMatrix>& hot,
                   double batch_mean, double budget, Tracer& tracer,
                   Report& report) {
  std::vector<std::unique_ptr<bro::engine::SpmvPlan>> plans;
  double build_s = 0, resident = 0, eta = 0;
  for (const auto& m : hot) {
    auto decoded =
        std::make_shared<const Matrix>(net::matrix_from_bro_bytes(m.bro));
    const auto t0 = Clock::now();
    {
      ScopedSpan s(tracer, "engine", "plan_build");
      plans.push_back(
          std::make_unique<bro::engine::SpmvPlan>(std::move(decoded)));
    }
    build_s += seconds_since(t0);
    const auto& plan = *plans.back();
    resident += double(plan.resident_bytes());
    if (plan.format_traits().savings)
      eta += plan.format_traits().savings(plan.matrix()).eta();
  }
  report.add("engine.plan_build_ms", build_s * 1e3, "ms", hot.size(),
             "sum over the hot set");
  report.add("engine.resident_mb", resident / 1e6, "MB", hot.size(),
             "sum over the hot set");
  report.add("core.eta", eta / double(hot.size()), "ratio", hot.size(),
             "index savings of the planned format, mean over the hot set");

  const int k = std::max(1, static_cast<int>(std::lround(batch_mean)));
  bro::Rng rng(reader_seed(cfg.seed, 0));
  ShuffledRounds order(hot.size(), rng);
  std::vector<value_t> y, xk, yk;
  for (const bool multi : {false, true}) {
    const auto deadline = after(budget);
    std::vector<double> times;
    while (times.size() < 3 || Clock::now() < deadline) {
      const std::size_t mi = order.next();
      const ServedMatrix& m = hot[mi];
      auto& plan = *plans[mi];
      const std::size_t rows = std::size_t(m.rows), cols = std::size_t(m.cols);
      const int cols_k = multi ? k : 1;
      std::vector<std::size_t> slots(static_cast<std::size_t>(cols_k));
      for (auto& s : slots)
        s = static_cast<std::size_t>(rng.below(m.xs.size()));
      xk.assign(cols * slots.size(), 0);
      yk.assign(rows * slots.size(), 0);
      for (std::size_t j = 0; j < slots.size(); ++j)
        for (std::size_t i = 0; i < cols; ++i)
          xk[i * slots.size() + j] = m.xs[slots[j]][i];
      const auto t0 = Clock::now();
      {
        ScopedSpan s(tracer, "engine", multi ? "execute_multi" : "execute");
        if (multi)
          plan.execute_multi(xk, yk, cols_k);
        else
          plan.execute(xk, yk);
      }
      times.push_back(seconds_since(t0));
      ++report.attempted;
      bool ok = true;
      for (std::size_t j = 0; j < slots.size(); ++j) {
        y.resize(rows);
        for (std::size_t i = 0; i < rows; ++i) y[i] = yk[i * slots.size() + j];
        ok = ok && same_bits(y, m.ys[slots[j]]);
      }
      if (!ok) {
        ++report.failed;
        report.fail(m.id + ": plan y differs bitwise from the reference");
      }
    }
    add_p50(report,
            multi ? "engine.execute_multi_ms_p50" : "engine.execute_ms_p50",
            times, 1e3, "ms");
    if (multi) report.metrics.back().note = "p50 at k=" + std::to_string(k);
  }
}

/// The traced measurement of a set-up stack, `seconds` long, and the layer
/// metrics it yields (serve.*, net.*, engine.*, core.eta, trace.split_gap).
/// Three kinds of slice run in cycles of untraced, traced, paired, paired,
/// traced, untraced: the two wire-only kinds give trace.overhead, the
/// paired one (each wire request next to an in-process one) splits wire
/// from serve time. All three kinds are centred on the same instant of a
/// cycle, so a steady drift of the host reaches each alike.
/// Returns the untraced and traced slices' totals.
std::pair<Totals, Totals> traced_serving(const Config& cfg, const Workload& w,
                                         Stack& s,
                                         const std::vector<ServedMatrix>& hot,
                                         const std::vector<ServedMatrix>& churn,
                                         double seconds, Tracer& tracer,
                                         Report& report) {
  Tracer off(false);
  Totals plain, traced;
  std::vector<LoopResult> paired;
  std::uint64_t wire_ops = 0; // requests, uploads, cold submits and removes
  const serve::ServerMetrics m0 = s.service->server.metrics();
  const net::NetServerStats n0 = s.service->net.stats();
  std::uint64_t seed = cfg.seed;
  const auto slice = [&](Tracer& t, bool inproc, double share) {
    const Phase ph =
        measure(s, w, hot, churn, seed++, seconds * share, t, inproc);
    tally(ph, report);
    wire_ops += ph.writer.attempted + ph.rtts().size();
    if (inproc)
      paired.insert(paired.end(), ph.readers.begin(), ph.readers.end());
    else
      (&t == &off ? plain : traced).add(ph);
  };
  constexpr int kCycles = 2; // finer interleaving, against faster drift
  for (int c = 0; c < kCycles; ++c) {
    slice(off, false, 0.125 / kCycles);
    slice(tracer, false, 0.125 / kCycles);
    slice(tracer, true, 0.25 / kCycles);
    slice(tracer, true, 0.25 / kCycles);
    slice(tracer, false, 0.125 / kCycles);
    slice(off, false, 0.125 / kCycles);
  }
  const serve::ServerMetrics m1 = s.service->server.metrics();
  const net::NetServerStats n1 = s.service->net.stats();

  const double batch_mean = serve_counters(m0, m1, report);

  // net: spans of set-up, the traced slices and the paired phase.
  add_p50(report, "net.send_us_p50", tracer.durations("net", "send"), 1e6,
          "us");
  add_p50(report, "net.upload_ms_p50", tracer.durations("net", "upload"), 1e3,
          "ms");
  add_p50(report, "serve.cold_rtt_p50_ms",
          tracer.durations("net", "cold_submit"), 1e3, "ms");
  double bytes = 0;
  for (const auto& m : hot)
    bytes += double(
        net::make_submit_request(1, m.id, "reader-0", m.xs[0]).size() +
        net::make_vector_response(1, m.ys[0]).size());
  report.add("net.bytes_per_req", bytes / double(hot.size()), "B", hot.size(),
             "computed frame bytes, both ways");
  const double frames = double(n1.frames_in + n1.frames_out - n0.frames_in -
                               n0.frames_out);
  report.add("net.frames_per_req",
             wire_ops ? frames / double(wire_ops) : 0, "count", wire_ops,
             "frames in + out per wire operation");

  // The paired slices: wire minus in-process, pair by pair.
  std::vector<double> inproc_rtt, overhead;
  for (const auto& r : paired) {
    inproc_rtt.insert(inproc_rtt.end(), r.inproc_rtt.begin(),
                      r.inproc_rtt.end());
    for (std::size_t i = 0; i < std::min(r.rtt.size(), r.inproc_rtt.size());
         ++i)
      overhead.push_back(r.rtt[i] - r.inproc_rtt[i]);
  }
  add_p50(report, "net.overhead_p50_ms", overhead, 1e3, "ms");
  add_p50(report, "serve.inproc_rtt_p50_ms", inproc_rtt, 1e3, "ms");
  add_p50(report, "serve.submit_us_p50", tracer.durations("serve", "submit"),
          1e6, "us");
  if (!overhead.empty() && !inproc_rtt.empty() && !plain.rtt.empty())
    // The subtraction must add back up to the untraced round trip.
    report.add("trace.split_gap",
               (median(overhead) + median(inproc_rtt)) / median(plain.rtt) - 1,
               "ratio", overhead.size(),
               "(net.overhead_p50 + serve.inproc_rtt_p50) / untraced rtt "
               "p50 - 1");

  engine_layers(cfg, hot, batch_mean, std::max(0.25, seconds / 8), tracer,
                report);
  return {plain, traced};
}

} // namespace

void run_served(const Config& cfg, Tracer& tracer, Report& report) {
  const Workload& w = cfg.workload;
  const auto t0 = Clock::now();
  const double triad = cfg.trace ? triad_gbs(cfg, report) : 0;

  std::vector<ServedMatrix> hot, churn;
  for (const auto& m : w.hot)
    hot.push_back(prepare_served(m.name, generate(cfg, m), cfg.seed));
  for (const auto& m : w.churn)
    churn.push_back(prepare_served(m.name, generate(cfg, m), cfg.seed));
  for (const auto* set : {&hot, &churn})
    for (const auto& m : *set)
      describe(m.id, m.rows, m.cols, m.nnz, m.bro.size());
  stage("inputs", t0);

  Tracer off(false);
  Stack s;
  std::vector<double> setups, peaks;
  bool rss_reset = true;
  while (another_setup(cfg, setups)) {
    s.close();
    rss_reset = reset_peak_rss() && rss_reset;
    setups.push_back(set_up(s, w, hot, !churn.empty(),
                            cfg.trace ? tracer : off, report));
    peaks.push_back(double(peak_rss_bytes()));
  }
  stage("setup", t0);
  rss_reset = reset_peak_rss() && rss_reset;

  if (!cfg.trace) {
    const Phase ph =
        measure(s, w, hot, churn, cfg.seed, cfg.seconds, off, false);
    peaks.push_back(double(peak_rss_bytes()));
    s.close();
    tally(ph, report);
    report.add("setup_s", median(setups), "s", setups.size(), "p50");
    add_rss(report, peaks, rss_reset);
    // Printed for the reader of the log; the bounded metrics are above.
    std::printf("  served %llu requests, %.4g req/s, p50 %.4g ms",
                static_cast<unsigned long long>(ph.ok()),
                double(ph.ok()) / ph.elapsed(), median(ph.rtts()) * 1e3);
    if (!churn.empty())
      std::printf("; writer %.3g cycles/s",
                  double(ph.writer.ok) / ph.writer.elapsed);
    std::printf("\n");
    return;
  }

  const auto [plain, traced] =
      traced_serving(cfg, w, s, hot, churn, cfg.seconds, tracer, report);
  s.close();
  report.add("trace.overhead", plain.throughput() / traced.throughput() - 1,
             "ratio", traced.ok,
             "untraced / traced throughput - 1, alternating slices");
  report.add("workload.throughput_per_s", plain.throughput(), "1/s", plain.ok,
             "completed reader requests / s, untraced slices");
  add_p50(report, "workload.latency_p50_ms", plain.rtt, 1e3, "ms");
  add_tail(report, plain.rtt);
  report.add("workload.writer_cycles_per_s",
             double(plain.cycles) / plain.elapsed, "1/s", plain.cycles,
             "untraced slices");
  core_probe(cfg, hot, tracer, report);
  hot.clear();
  churn.clear();

  const bro::sparse::Csr kernel_matrix = generate(cfg, w.hot.front());
  kernel_sweep(cfg, kernel_matrix, triad, tracer, report);
  const bro::sparse::Csr spd = make_spd(kernel_matrix);
  RepeatedSolve cg(spd, random_vector(std::size_t(spd.rows), cfg.seed),
                   plan_for(spd));
  for (int i = 0; i < 2; ++i) cg.solve(tracer, report);
  cg.add_metrics(tracer, report);
}

void serve_probe(const Config& cfg, const ServedMatrix& m, Tracer& tracer,
                 Report& report) {
  Workload spec;
  spec.connections = 1;
  spec.window = 1;
  spec.server_threads = 1;
  const std::vector<ServedMatrix> hot = {m};
  Stack s;
  set_up(s, spec, hot, false, tracer, report);
  traced_serving(cfg, spec, s, hot, {}, std::max(1.0, cfg.seconds / 4),
                 tracer, report);
}

} // namespace perf
