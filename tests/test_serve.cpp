// Serving-layer tests: the plan cache's hit/miss/eviction accounting
// (PlanCache.*: each registered matrix's plan, held under the byte budget,
// including the N-threads-by-M-matrices contention case and removal during
// a cold build), re-registration, SpmvServer correctness, deterministic
// batching through the synchronous poll_once path, backpressure, and the
// SpmvPlan single-executor guard.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/plan.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "sparse/convert.h"
#include "sparse/matgen/generators.h"
#include "util/rng.h"

namespace bs = bro::sparse;
namespace bc = bro::core;
namespace be = bro::engine;
namespace bv = bro::serve;
using bro::index_t;
using bro::value_t;

namespace {

std::shared_ptr<bc::Matrix> make_matrix(index_t rows, index_t cols,
                                        std::uint64_t seed) {
  bs::GenSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.mu = 7;
  spec.sigma = 3;
  spec.seed = seed;
  return std::make_shared<bc::Matrix>(bc::Matrix::from_csr(bs::generate(spec)));
}

std::vector<value_t> random_x(index_t n, std::uint64_t seed) {
  bro::Rng rng(seed);
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

std::vector<value_t> reference(const bc::Matrix& m,
                               const std::vector<value_t>& x) {
  std::vector<value_t> y(static_cast<std::size_t>(m.rows()));
  bs::spmv_csr_reference(m.csr(), x, y);
  return y;
}

void expect_near_ref(const std::vector<value_t>& y,
                     const std::vector<value_t>& ref) {
  ASSERT_EQ(y.size(), ref.size());
  for (std::size_t r = 0; r < ref.size(); ++r)
    ASSERT_NEAR(y[r], ref[r], 1e-10 * (1.0 + std::abs(ref[r]))) << "row " << r;
}

/// y = m * x through an in-process plan of `format`: what the server must
/// return bit for bit.
std::vector<value_t> planned(const std::shared_ptr<const bc::Matrix>& m,
                             bc::Format format,
                             const std::vector<value_t>& x) {
  std::vector<value_t> y(static_cast<std::size_t>(m->rows()));
  be::SpmvPlan(m, format).execute(x, y);
  return y;
}

/// Options for `threads` dispatch threads, one format for every matrix when
/// given, and a plan byte budget; the rest are the defaults.
bv::ServerOptions options(
    int threads, std::optional<bc::Format> format = std::nullopt,
    std::size_t cache_bytes = bv::ServerOptions{}.cache_bytes) {
  bv::ServerOptions opts;
  opts.threads = threads;
  opts.format = format;
  opts.cache_bytes = cache_bytes;
  return opts;
}

/// Submit one request and serve it (synchronously when threads == 0).
std::vector<value_t> serve_one(bv::SpmvServer& server, const std::string& id,
                               const std::vector<value_t>& x) {
  auto f = server.submit(id, x);
  server.drain();
  return f.get();
}

std::size_t rep_bytes(const std::shared_ptr<const bc::Matrix>& m,
                      bc::Format format) {
  return be::SpmvPlan(m, format).representation_bytes();
}

} // namespace

TEST(PlanCache, HitsMissesAndSharing) {
  // The first batch builds the matrix's plan; the next reuses it.
  bv::SpmvServer server(options(0, bc::Format::kBroEll));
  auto m = make_matrix(120, 110, 1);
  server.add_matrix("a", m);
  const auto x = random_x(m->cols(), 2);

  EXPECT_EQ(serve_one(server, "a", x), planned(m, bc::Format::kBroEll, x));
  EXPECT_EQ(serve_one(server, "a", x), planned(m, bc::Format::kBroEll, x));

  const auto s = server.metrics().cache;
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
  EXPECT_EQ(s.resident_bytes, rep_bytes(m, bc::Format::kBroEll));
}

TEST(PlanCache, LruEvictionKeepsMostRecent) {
  // A 1-byte budget holds exactly one (MRU) plan at a time.
  bv::SpmvServer server(options(0, bc::Format::kBroEll, 1));
  auto ma = make_matrix(100, 100, 2);
  auto mb = make_matrix(100, 100, 3);
  server.add_matrix("a", ma);
  server.add_matrix("b", mb);
  const auto x = random_x(100, 7);

  serve_one(server, "a", x);
  EXPECT_EQ(server.metrics().cache.entries, 1u);
  serve_one(server, "b", x); // evicts "a"
  EXPECT_EQ(server.metrics().cache.entries, 1u);
  EXPECT_EQ(server.metrics().cache.evictions, 1u);

  // "a" was evicted, so this is a miss that rebuilds the same answer.
  EXPECT_EQ(serve_one(server, "a", x), planned(ma, bc::Format::kBroEll, x));
  const auto s = server.metrics().cache;
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.resident_bytes, rep_bytes(ma, bc::Format::kBroEll));
}

TEST(PlanCache, BudgetChargesRepresentationBytes) {
  // Two matrices whose CSRs alone exceed the budget while their BRO-ELL
  // representations fit: served alternately, each plan is built once and
  // none is evicted, since evicting one would free only its representation.
  auto ma = make_matrix(2000, 2000, 40);
  auto mb = make_matrix(2000, 2000, 41);
  const std::size_t budget =
      rep_bytes(ma, bc::Format::kBroEll) + rep_bytes(mb, bc::Format::kBroEll);
  const std::size_t csr_bytes = ma->nnz() * (sizeof(index_t) + sizeof(value_t));
  ASSERT_GT(csr_bytes, budget);

  bv::SpmvServer server(options(0, bc::Format::kBroEll, budget));
  server.add_matrix("a", ma);
  server.add_matrix("b", mb);
  const auto x = random_x(2000, 42);
  for (int i = 0; i < 6; ++i) {
    const auto& m = i % 2 == 0 ? ma : mb;
    EXPECT_EQ(serve_one(server, i % 2 == 0 ? "a" : "b", x),
              planned(m, bc::Format::kBroEll, x));
  }
  const auto s = server.metrics().cache;
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.resident_bytes, budget);
}

// Plans build lock-free from one shared matrix: core::Matrix is an
// immutable CSR and each plan builds and owns its representation, so two
// threads planning different formats (and the same format) at once share
// only const data. ThreadSanitizer (the tsan preset) checks the claim.
TEST(SpmvPlan, BuildsLockFreeFromOneSharedMatrix) {
  const std::shared_ptr<const bc::Matrix> m = make_matrix(400, 380, 9);
  const auto x = random_x(m->cols(), 10);
  const auto ref = reference(*m, x);
  const std::vector<std::vector<bc::Format>> orders = {
      {bc::Format::kBroEll, bc::Format::kCoo, bc::Format::kBroHyb},
      {bc::Format::kBroHyb, bc::Format::kBroCoo, bc::Format::kBroEll}};

  std::atomic<int> ready{0};
  std::vector<std::vector<std::vector<value_t>>> results(orders.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < orders.size(); ++t)
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < static_cast<int>(orders.size()))
        std::this_thread::yield();
      for (const bc::Format f : orders[t]) {
        be::SpmvPlan plan(m, f);
        std::vector<value_t> y(ref.size());
        plan.execute(x, y);
        results[t].push_back(std::move(y));
      }
    });
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < orders.size(); ++t) {
    ASSERT_EQ(results[t].size(), orders[t].size());
    for (const auto& y : results[t]) expect_near_ref(y, ref);
  }
}

// N submitting threads hammer M matrices through dispatch threads whose
// plan budget forces continual eviction. Counters must reconcile exactly
// and every result must match the sequential CSR reference.
TEST(PlanCache, ContendedCountersReconcileAndResultsMatch) {
  constexpr int kThreads = 4;
  constexpr int kMatrices = 3;
  constexpr int kIters = 25;

  std::vector<std::shared_ptr<bc::Matrix>> matrices;
  std::vector<std::vector<value_t>> xs, refs;
  for (int i = 0; i < kMatrices; ++i) {
    matrices.push_back(make_matrix(150 + 10 * i, 140 + 10 * i,
                                   static_cast<std::uint64_t>(100 + i)));
    xs.push_back(random_x(matrices.back()->cols(),
                          static_cast<std::uint64_t>(200 + i)));
    refs.push_back(reference(*matrices.back(), xs.back()));
  }

  // Budget of one plan: batches constantly evict each other's plans.
  const std::size_t budget = rep_bytes(matrices[0], bc::Format::kBroEll);
  bv::SpmvServer server(options(kThreads, bc::Format::kBroEll, budget));
  const std::string ids[] = {"m0", "m1", "m2"};
  for (int i = 0; i < kMatrices; ++i)
    server.add_matrix(ids[i], matrices[static_cast<std::size_t>(i)]);

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const auto i = static_cast<std::size_t>((t + it) % kMatrices);
        const auto y = server.submit(ids[i], xs[i]).get();
        const auto& ref = refs[i];
        for (std::size_t r = 0; r < ref.size(); ++r)
          if (std::abs(y[r] - ref[r]) > 1e-10 * (1.0 + std::abs(ref[r]))) {
            ++failures;
            break;
          }
      }
    });
  }
  for (auto& th : threads) th.join();
  server.drain();
  EXPECT_EQ(failures.load(), 0);

  const auto m = server.metrics();
  const auto& s = m.cache;
  EXPECT_EQ(m.served, std::uint64_t{kThreads} * kIters);
  EXPECT_EQ(s.hits + s.misses, m.batches); // one plan lookup per batch
  EXPECT_EQ(s.build_failures, 0u);
  EXPECT_GT(s.evictions, 0u); // the tiny budget must have evicted
  EXPECT_EQ(s.entries, s.misses - s.evictions - s.build_failures);
  EXPECT_LE(s.resident_bytes, 2 * budget);
}

TEST(SpmvPlan, ConcurrentExecuteThrowsInsteadOfRacing) {
  auto m = make_matrix(80, 80, 5);
  be::SpmvPlan plan(m, bc::Format::kCsr);
  const auto x = random_x(m->cols(), 9);
  std::vector<value_t> y(static_cast<std::size_t>(m->rows()));

  plan.debug_acquire(); // simulate another thread mid-execute
  EXPECT_THROW(plan.execute(x, y), std::runtime_error);
  EXPECT_THROW(plan.execute_multi(x, y, 1), std::runtime_error);
  plan.debug_release();
  plan.execute(x, y); // usable again after the guard is released
  expect_near_ref(y, reference(*m, x));
}

TEST(SpmvServer, ServesCorrectResults) {
  bv::ServerOptions opts;
  opts.threads = 2;
  bv::SpmvServer server(opts);
  auto ma = make_matrix(130, 120, 6);
  auto mb = make_matrix(90, 95, 7);
  server.add_matrix("a", ma);
  server.add_matrix("b", mb);

  std::vector<std::future<std::vector<value_t>>> futures;
  std::vector<std::vector<value_t>> expected;
  for (int i = 0; i < 20; ++i) {
    const bool use_a = i % 2 == 0;
    const auto& m = use_a ? ma : mb;
    const auto x = random_x(m->cols(), static_cast<std::uint64_t>(400 + i));
    expected.push_back(reference(*m, x));
    futures.push_back(server.submit(use_a ? "a" : "b", x));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE(i);
    expect_near_ref(futures[i].get(), expected[i]);
  }

  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.submitted, 20u);
  EXPECT_EQ(metrics.served, 20u);
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_GE(metrics.cache.misses, 1u);
  EXPECT_FALSE(metrics.latency_by_format.empty());
}

TEST(SpmvServer, SynchronousModeCoalescesBatches) {
  bv::ServerOptions opts;
  opts.threads = 0; // caller drives with poll_once: fully deterministic
  opts.max_batch = 4;
  opts.format = bc::Format::kBroEll;
  bv::SpmvServer server(opts);
  auto m = make_matrix(100, 100, 8);
  server.add_matrix("a", m);

  std::vector<std::future<std::vector<value_t>>> futures;
  std::vector<std::vector<value_t>> expected;
  for (int i = 0; i < 8; ++i) {
    const auto x = random_x(m->cols(), static_cast<std::uint64_t>(500 + i));
    expected.push_back(reference(*m, x));
    futures.push_back(server.submit("a", x));
  }

  EXPECT_TRUE(server.poll_once());  // serves requests 0..3 as one batch
  EXPECT_TRUE(server.poll_once());  // serves requests 4..7
  EXPECT_FALSE(server.poll_once()); // queue is empty

  for (std::size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE(i);
    expect_near_ref(futures[i].get(), expected[i]);
  }

  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.batches, 2u);
  EXPECT_EQ(metrics.served, 8u);
  EXPECT_DOUBLE_EQ(metrics.batch_sizes.mean(), 4.0);
  EXPECT_DOUBLE_EQ(metrics.batch_sizes.max(), 4.0);
  ASSERT_EQ(metrics.latency_by_format.count("BRO-ELL"), 1u);
  EXPECT_EQ(metrics.latency_by_format.at("BRO-ELL").count(), 2u);
}

TEST(SpmvServer, BackpressureRejectsWhenQueueFull) {
  bv::ServerOptions opts;
  opts.threads = 0;
  opts.max_queue = 2;
  bv::SpmvServer server(opts);
  auto m = make_matrix(50, 50, 9);
  server.add_matrix("a", m);
  const auto x = random_x(m->cols(), 10);

  auto f1 = server.submit("a", x);
  auto f2 = server.submit("a", x);
  EXPECT_THROW(server.submit("a", x), bv::RejectedError);
  EXPECT_EQ(server.metrics().rejected, 1u);

  server.drain(); // synchronous drain serves the two queued requests
  expect_near_ref(f1.get(), reference(*m, x));
  expect_near_ref(f2.get(), reference(*m, x));
  // With room again, the same submit is accepted.
  auto f3 = server.submit("a", x);
  server.drain();
  expect_near_ref(f3.get(), reference(*m, x));
}

TEST(SpmvServer, RejectsBadRequestsEagerly) {
  bv::SpmvServer server({.threads = 0});
  auto m = make_matrix(40, 40, 11);
  server.add_matrix("a", m);

  std::vector<value_t> wrong(static_cast<std::size_t>(m->cols()) + 1, 1.0);
  EXPECT_THROW(server.submit("a", wrong), std::runtime_error);
  EXPECT_THROW(server.submit("nope", random_x(40, 12)), std::runtime_error);
  EXPECT_EQ(server.metrics().submitted, 0u);
  EXPECT_EQ(server.matrix("a").get(), m.get());
  EXPECT_EQ(server.matrix("nope"), nullptr);
}

TEST(SpmvServer, DestructorDrainsPendingRequests) {
  auto m = make_matrix(60, 60, 13);
  const auto x = random_x(m->cols(), 14);
  std::future<std::vector<value_t>> f;
  {
    bv::SpmvServer server({.threads = 0});
    server.add_matrix("a", m);
    f = server.submit("a", x);
  } // destructor must serve the queued request, not abandon the promise
  expect_near_ref(f.get(), reference(*m, x));
}

TEST(ServerOptions, ValidatedAtConstruction) {
  EXPECT_THROW(bv::SpmvServer({.threads = -1}), std::runtime_error);
  EXPECT_THROW(bv::SpmvServer({.max_queue = 0}), std::runtime_error);
  EXPECT_THROW(bv::SpmvServer({.max_batch = 0}), std::runtime_error);
  EXPECT_THROW(bv::SpmvServer({.max_batch = -7}), std::runtime_error);
  EXPECT_THROW(bv::SpmvServer(options(0, std::nullopt, 0)), std::runtime_error);
}

TEST(SpmvServer, RejectedErrorCarriesQueueDepth) {
  bv::ServerOptions opts;
  opts.threads = 0;
  opts.max_queue = 3;
  bv::SpmvServer server(opts);
  auto m = make_matrix(40, 40, 15);
  server.add_matrix("a", m);
  const auto x = random_x(m->cols(), 16);

  for (int i = 0; i < 3; ++i) server.submit("a", x);
  try {
    server.submit("a", x);
    FAIL() << "expected RejectedError";
  } catch (const bv::RejectedError& e) {
    EXPECT_EQ(e.queue_depth(), 3u); // the depth the submit observed
  }
  server.drain();
}

TEST(SpmvServer, RemoveMatrixDropsRegistrationAndCachedPlans) {
  bv::ServerOptions opts;
  opts.threads = 0;
  bv::SpmvServer server(opts);
  auto m = make_matrix(70, 70, 17);
  server.add_matrix("a", m);
  server.add_matrix("b", make_matrix(50, 50, 18));

  // Build plans for both, then drop "a": its cache entries must go too.
  auto fa = server.submit("a", random_x(m->cols(), 19));
  auto fb = server.submit("b", random_x(50, 20));
  server.drain();
  fa.get();
  fb.get();
  const auto before = server.metrics().cache;
  EXPECT_EQ(before.entries, 2u);

  EXPECT_TRUE(server.remove_matrix("a"));
  EXPECT_EQ(server.matrix("a"), nullptr);
  const auto after = server.metrics().cache;
  EXPECT_EQ(after.entries, 1u);
  EXPECT_LT(after.resident_bytes, before.resident_bytes);

  // Gone for new submits; removing again reports false.
  EXPECT_THROW(server.submit("a", random_x(m->cols(), 21)),
               std::runtime_error);
  EXPECT_FALSE(server.remove_matrix("a"));
  // "b" is untouched.
  auto fb2 = server.submit("b", random_x(50, 22));
  server.drain();
  fb2.get();
}

TEST(SpmvServer, RemoveMatrixFailsQueuedRequestsLoudly) {
  bv::ServerOptions opts;
  opts.threads = 0;
  bv::SpmvServer server(opts);
  auto m = make_matrix(30, 30, 23);
  server.add_matrix("a", m);
  auto f = server.submit("a", random_x(m->cols(), 24));
  server.remove_matrix("a"); // request still queued
  server.drain();
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_EQ(server.metrics().failed, 1u);
}

TEST(AdmissionController, TokenBucketThrottlesPerClient) {
  // Deterministic: the test owns the clock.
  double now = 0;
  bv::AdmissionOptions opts;
  opts.rate = 2;  // 2 tokens/s
  opts.burst = 3; // bucket capacity
  bv::AdmissionController adm(opts, [&] { return now; });

  // A fresh client starts with a full burst, then runs dry.
  adm.admit("alice", 0);
  adm.admit("alice", 0);
  adm.admit("alice", 0);
  EXPECT_THROW(adm.admit("alice", 5), bv::RejectedError);
  // Other clients have their own bucket.
  adm.admit("bob", 0);

  // Half a second refills one token (rate 2/s)...
  now = 0.5;
  adm.admit("alice", 0);
  EXPECT_THROW(adm.admit("alice", 0), bv::RejectedError);
  // ...and a long idle period caps at burst, not unbounded credit.
  now = 100.0;
  adm.admit("alice", 0);
  adm.admit("alice", 0);
  adm.admit("alice", 0);
  EXPECT_THROW(adm.admit("alice", 0), bv::RejectedError);

  const auto s = adm.stats();
  EXPECT_EQ(s.admitted, 8u);
  EXPECT_EQ(s.throttled, 3u);
  EXPECT_EQ(s.shed, 0u);
}

TEST(AdmissionController, ShedsAtDepthBeforeTouchingBuckets) {
  bv::AdmissionOptions opts;
  opts.rate = 1;
  opts.burst = 1;
  opts.shed_depth = 4;
  double now = 0;
  bv::AdmissionController adm(opts, [&] { return now; });

  try {
    adm.admit("carol", 4); // at the shed depth
    FAIL() << "expected RejectedError";
  } catch (const bv::RejectedError& e) {
    EXPECT_EQ(e.queue_depth(), 4u);
  }
  EXPECT_EQ(adm.stats().shed, 1u);
  // The shed did not consume carol's token.
  adm.admit("carol", 3);
  EXPECT_EQ(adm.stats().admitted, 1u);
}

TEST(SpmvServer, ShedsAndThrottlesThroughSubmit) {
  bv::ServerOptions opts;
  opts.threads = 0;
  opts.max_queue = 16;
  opts.admission.shed_depth = 2;
  bv::SpmvServer server(opts);
  auto m = make_matrix(40, 40, 26);
  server.add_matrix("a", m);
  const auto x = random_x(m->cols(), 27);

  server.submit("a", x, "c1");
  server.submit("a", x, "c1");
  EXPECT_THROW(server.submit("a", x, "c1"), bv::RejectedError);
  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.shed, 1u);
  EXPECT_EQ(metrics.rejected, 1u);
  EXPECT_EQ(metrics.submitted, 2u);
  server.drain();
}

TEST(Scheduler, DrainRacesConcurrentSubmit) {
  // Hammer drain() from one side while submitters and a dispatcher race on
  // the other: every accepted request must be served exactly once and
  // every drain() return must observe an empty, idle scheduler.
  bv::ServerOptions opts;
  opts.threads = 2;
  opts.max_queue = 64;
  opts.max_batch = 4;
  bv::SpmvServer server(opts);
  auto m = make_matrix(60, 60, 28);
  server.add_matrix("a", m);
  const auto x = random_x(m->cols(), 29);
  const auto ref = reference(*m, x);

  std::atomic<int> accepted{0};
  std::atomic<bool> go{true};
  std::vector<std::thread> submitters;
  std::mutex fut_mu;
  std::vector<std::future<std::vector<value_t>>> futures;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&] {
      while (go.load()) {
        try {
          auto f = server.submit("a", x);
          ++accepted;
          std::lock_guard lk(fut_mu);
          futures.push_back(std::move(f));
        } catch (const bv::RejectedError&) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int i = 0; i < 50; ++i) server.drain();
  go.store(false);
  for (auto& t : submitters) t.join();
  server.drain();

  ASSERT_EQ(static_cast<int>(futures.size()), accepted.load());
  for (auto& f : futures) expect_near_ref(f.get(), ref);
  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.served, static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(metrics.failed, 0u);
}

TEST(SpmvServer, MetricsSplitQueueWaitFromExecute) {
  bv::ServerOptions opts;
  opts.threads = 0;
  bv::SpmvServer server(opts);
  auto m = make_matrix(100, 100, 34);
  server.add_matrix("a", m);
  for (int i = 0; i < 4; ++i)
    server.submit("a", random_x(m->cols(), static_cast<std::uint64_t>(i)));
  server.drain();
  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.queue_wait.count(), 4u); // one sample per request
  EXPECT_EQ(metrics.execute.count(), metrics.batches);
  EXPECT_GT(metrics.execute.max(), 0.0);
  ASSERT_EQ(metrics.latency_by_format.size(), 1u);
  EXPECT_EQ(metrics.latency_by_format.begin()->first,
            be::traits(m->auto_format()).name);
}

TEST(AdmissionController, EvictsIdleRefilledBuckets) {
  double now = 0;
  bv::AdmissionOptions opts;
  opts.rate = 1;
  opts.burst = 2;
  opts.idle_window = 10;
  bv::AdmissionController adm(opts, [&] { return now; });

  for (int i = 0; i < 100; ++i) adm.admit("client-" + std::to_string(i), 0);
  EXPECT_EQ(adm.tracked_clients(), 100u);

  // Refilled (2s at rate 1 restores the spent token) but not yet idle for
  // the window: everything stays.
  now = 9;
  adm.admit("fresh", 0);
  EXPECT_EQ(adm.tracked_clients(), 101u);

  // Past the window every refilled bucket is byte-identical to a fresh
  // one, so the sweep drops them all — only the new probe remains.
  now = 20;
  adm.admit("probe", 0);
  EXPECT_EQ(adm.tracked_clients(), 1u);

  // Eviction changed no admission decision: the stats saw only admits.
  EXPECT_EQ(adm.stats().throttled, 0u);
}

TEST(AdmissionController, KeepsUnrefilledBucketsAndCapsTrackedClients) {
  double now = 0;
  bv::AdmissionOptions opts;
  opts.rate = 0.01; // refill takes ~100s, far past the idle window
  opts.burst = 2;
  opts.idle_window = 10;
  opts.max_clients = 3;
  bv::AdmissionController adm(opts, [&] { return now; });

  adm.admit("a", 0);
  adm.admit("b", 0);
  adm.admit("c", 0);
  EXPECT_EQ(adm.tracked_clients(), 3u);

  // Idle past the window but not refilled: the sweep must keep the spent
  // buckets (evicting one would grant its client a fresh burst). The hard
  // cap then evicts exactly one LRU bucket to admit the newcomer.
  now = 20;
  adm.admit("d", 0);
  EXPECT_EQ(adm.tracked_clients(), 3u);
}

TEST(SpmvServer, ReRegisteredIdServesTheNewMatrix) {
  // Replacing a registration replaces its plan: the next request is served
  // with the new matrix, bit for bit, synchronously and from dispatch
  // threads.
  for (const int threads : {0, 2}) {
    SCOPED_TRACE(threads);
    bv::SpmvServer server(options(threads));
    const std::shared_ptr<const bc::Matrix> old_m = make_matrix(90, 80, 43);
    const std::shared_ptr<const bc::Matrix> new_m = make_matrix(90, 80, 44);
    const auto x = random_x(80, 45);
    server.add_matrix("a", old_m);
    EXPECT_EQ(serve_one(server, "a", x),
              planned(old_m, old_m->auto_format(), x));

    server.add_matrix("a", new_m);
    const auto want = planned(new_m, new_m->auto_format(), x);
    ASSERT_NE(want, planned(old_m, old_m->auto_format(), x));
    EXPECT_EQ(serve_one(server, "a", x), want);
    EXPECT_EQ(serve_one(server, "a", x), want);

    const auto s = server.metrics().cache;
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.resident_bytes, rep_bytes(new_m, new_m->auto_format()));
  }
}

TEST(PlanCache, RetiringAnIdDuringItsColdBuildServesTheBatch) {
  // Remove, then replace, a registration while the dispatch thread builds
  // its plan. The batch that triggered the build predates the change, so
  // it is served with the matrix it resolved; the plan it built is not
  // kept, and the counters settle with nothing resident. Whichever side
  // wins the race, the same must hold.
  const std::shared_ptr<const bc::Matrix> m = make_matrix(600, 600, 29);
  const std::shared_ptr<const bc::Matrix> other = make_matrix(600, 600, 30);
  const auto x = random_x(600, 31);
  const auto want = planned(m, bc::Format::kBroEll, x);
  for (const bool replace : {false, true}) {
    SCOPED_TRACE(replace ? "replace" : "remove");
    bv::SpmvServer server(options(1, bc::Format::kBroEll));
    server.add_matrix("gone", m);
    auto f = server.submit("gone", x);
    // entries turns 1 once the build has begun: the batch has resolved its
    // registration by then.
    while (server.metrics().cache.entries == 0) std::this_thread::yield();
    if (replace)
      server.add_matrix("gone", other);
    else
      EXPECT_TRUE(server.remove_matrix("gone"));
    EXPECT_EQ(f.get(), want);
    server.drain();

    auto s = server.metrics().cache;
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.resident_bytes, 0u);

    // The id is fully forgotten: the next registration's first batch is a
    // fresh miss that keeps its plan.
    server.add_matrix("gone", other);
    EXPECT_EQ(serve_one(server, "gone", x),
              planned(other, bc::Format::kBroEll, x));
    s = server.metrics().cache;
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.resident_bytes, rep_bytes(other, bc::Format::kBroEll));
  }
}

TEST(Scheduler, MaxBatchOneDisablesCoalescing) {
  bv::Scheduler sched(16, /*max_batch=*/1);
  for (int i = 0; i < 3; ++i) {
    bv::Request req;
    req.id = "m";
    req.x = {static_cast<value_t>(i)};
    sched.enqueue(std::move(req));
  }
  for (int i = 0; i < 3; ++i) {
    auto batch = sched.try_take();
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->size(), 1u); // same id queued, but no coalescing
    EXPECT_EQ((*batch)[0].x[0], static_cast<value_t>(i));
    sched.complete();
  }
  EXPECT_FALSE(sched.try_take().has_value());
}

TEST(Scheduler, CoalescingPreservesSubmissionOrderAcrossInterleavedIds) {
  bv::Scheduler sched(16, /*max_batch=*/8);
  // Interleave two matrices: a0 b0 a1 b1 a2.
  for (int i = 0; i < 5; ++i) {
    bv::Request req;
    req.id = (i % 2 == 0) ? "a" : "b";
    req.x = {static_cast<value_t>(i)};
    sched.enqueue(std::move(req));
  }
  // First take coalesces every queued "a" in submission order...
  auto batch = sched.try_take();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 3u);
  for (std::size_t i = 0; i < batch->size(); ++i) {
    EXPECT_EQ((*batch)[i].id, "a");
    EXPECT_EQ((*batch)[i].x[0], static_cast<value_t>(2 * i));
  }
  sched.complete();
  // ...and the "b" requests are untouched, still in order.
  batch = sched.try_take();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 2u);
  for (std::size_t i = 0; i < batch->size(); ++i) {
    EXPECT_EQ((*batch)[i].id, "b");
    EXPECT_EQ((*batch)[i].x[0], static_cast<value_t>(2 * i + 1));
  }
  sched.complete();
}

TEST(Scheduler, CompleteWithoutTakeThrows) {
  bv::Scheduler sched(4, 2);
  EXPECT_THROW(sched.complete(), std::runtime_error);

  bv::Request req;
  req.id = "m";
  req.x = {1.0};
  sched.enqueue(std::move(req));
  ASSERT_TRUE(sched.try_take().has_value());
  sched.complete();
  // A double complete for one take is the same driver bug.
  EXPECT_THROW(sched.complete(), std::runtime_error);
}

TEST(SpmvServer, DrainRacesActiveDispatchAndInFlightBatches) {
  // drain() must block on batches that dispatch threads have already taken
  // and are still executing, and must stay correct when submits keep
  // arriving while it waits. Every accepted future resolves, exactly once.
  bv::ServerOptions opts;
  opts.threads = 2;
  opts.max_queue = 32;
  opts.max_batch = 4;
  bv::SpmvServer server(opts);
  auto m = make_matrix(300, 280, 61);
  server.add_matrix("a", m);
  const auto x = random_x(m->cols(), 62);
  const auto ref = reference(*m, x);

  std::atomic<int> accepted{0};
  std::atomic<bool> go{true};
  std::mutex fut_mu;
  std::vector<std::future<std::vector<value_t>>> futures;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t)
    submitters.emplace_back([&] {
      while (go.load()) {
        try {
          auto f = server.submit("a", x);
          ++accepted;
          std::lock_guard lk(fut_mu);
          futures.push_back(std::move(f));
        } catch (const bv::RejectedError&) {
          std::this_thread::yield();
        }
      }
    });

  // Several concurrent drainers: drain() is a shared-state barrier, not
  // an owner-only operation, and overlapping calls must all return. They
  // start after the first accepted submit: otherwise, on a loaded host,
  // both can finish before any submitter is scheduled and nothing races.
  std::vector<std::thread> drainers;
  for (int d = 0; d < 2; ++d)
    drainers.emplace_back([&] {
      while (accepted.load() == 0) std::this_thread::yield();
      for (int i = 0; i < 25; ++i) server.drain();
    });
  for (auto& t : drainers) t.join();
  go.store(false);
  for (auto& t : submitters) t.join();
  server.drain(); // the final drain settles everything still queued

  ASSERT_EQ(static_cast<int>(futures.size()), accepted.load());
  for (auto& f : futures) expect_near_ref(f.get(), ref);
  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.served, static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(metrics.failed, 0u);
}

TEST(SpmvServer, DrainReturnsWithEmptyQueueUnderSubmitPressure) {
  // Weaker but sharper invariant than the race above: with submitters
  // paused at the moment drain() is called (nothing new arriving), drain
  // must leave zero pending work — poll_once() right after finds nothing.
  bv::ServerOptions opts;
  opts.threads = 2;
  opts.max_queue = 64;
  bv::SpmvServer server(opts);
  auto m = make_matrix(80, 80, 63);
  server.add_matrix("a", m);
  const auto x = random_x(m->cols(), 64);

  std::vector<std::future<std::vector<value_t>>> futures;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 16; ++i) {
      try {
        futures.push_back(server.submit("a", x));
      } catch (const bv::RejectedError&) {
      }
    }
    server.drain();
    EXPECT_FALSE(server.poll_once()) << "drain left work queued";
  }
  for (auto& f : futures) EXPECT_EQ(f.get().size(), 80u);
}
