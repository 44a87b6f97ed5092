// Serving-layer tests: PlanCache hit/miss/eviction accounting (including
// the N-threads-by-M-matrices contention case), SpmvServer correctness,
// deterministic batching through the synchronous poll_once path,
// backpressure, and the SpmvPlan single-executor guard.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/plan.h"
#include "serve/plan_cache.h"
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

} // namespace

TEST(PlanCache, HitsMissesAndSharing) {
  bv::PlanCache cache(std::size_t{64} << 20);
  auto m = make_matrix(120, 110, 1);

  auto p1 = cache.get_or_build("a", m, bc::Format::kCsr);
  auto p2 = cache.get_or_build("a", m, bc::Format::kCsr);
  EXPECT_EQ(p1.get(), p2.get()); // same cached plan, not a rebuild
  auto p3 = cache.get_or_build("a", m, bc::Format::kBroEll);
  EXPECT_NE(p1.get(), p3.get()); // format is part of the key

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_GT(s.resident_bytes, 0u);
  EXPECT_EQ(s.resident_bytes, p1->resident_bytes() + p3->resident_bytes());
}

TEST(PlanCache, LruEvictionKeepsMostRecent) {
  // A 1-byte budget admits exactly one (MRU) entry at a time.
  bv::PlanCache cache(1);
  auto ma = make_matrix(100, 100, 2);
  auto mb = make_matrix(100, 100, 3);

  auto pa = cache.get_or_build("a", ma, bc::Format::kCsr);
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.get_or_build("b", mb, bc::Format::kCsr); // evicts "a"
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // "a" was evicted, so this is a miss; our shared_ptr kept pa alive.
  auto pa2 = cache.get_or_build("a", ma, bc::Format::kCsr);
  EXPECT_NE(pa.get(), pa2.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 2u);

  // The evicted plan is still usable through the caller's reference.
  const auto x = random_x(ma->cols(), 7);
  std::vector<value_t> y(static_cast<std::size_t>(ma->rows()));
  pa->execute(x, y);
  expect_near_ref(y, reference(*ma, x));
}

TEST(PlanCache, ClearDropsEntries) {
  bv::PlanCache cache(std::size_t{64} << 20);
  auto m = make_matrix(60, 60, 4);
  cache.get_or_build("a", m, m->auto_format());
  cache.get_or_build("b", m, m->auto_format());
  cache.clear();
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
}

// The contention satellite: N threads hammer M matrices through one cache
// whose budget forces continual eviction. Counters must reconcile exactly
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

  // Budget of one plan: threads constantly evict each other's entries.
  bv::PlanCache cache(be::SpmvPlan(matrices[0], bc::Format::kCsr)
                          .resident_bytes());
  // Returned plans are single-executor objects shared between threads that
  // hit the same cache entry; executes serialize per matrix id, exactly as
  // SpmvServer does.
  std::mutex exec_mu[kMatrices];

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string ids[] = {"m0", "m1", "m2"};
      for (int it = 0; it < kIters; ++it) {
        const int i = (t + it) % kMatrices;
        auto plan = cache.get_or_build(
            ids[i], matrices[static_cast<std::size_t>(i)], bc::Format::kCsr);
        std::vector<value_t> y(refs[static_cast<std::size_t>(i)].size());
        {
          std::lock_guard<std::mutex> lock(exec_mu[i]);
          plan->execute(xs[static_cast<std::size_t>(i)], y);
        }
        const auto& ref = refs[static_cast<std::size_t>(i)];
        for (std::size_t r = 0; r < ref.size(); ++r)
          if (std::abs(y[r] - ref[r]) > 1e-10 * (1.0 + std::abs(ref[r]))) {
            ++failures;
            break;
          }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, std::uint64_t{kThreads} * kIters);
  EXPECT_EQ(s.build_failures, 0u);
  EXPECT_GT(s.evictions, 0u); // the tiny budget must have evicted
  EXPECT_EQ(s.entries, s.misses - s.evictions - s.build_failures);
  EXPECT_LE(s.resident_bytes, 2 * cache.max_resident_bytes());
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
  bv::ServerOptions bad_pools;
  bad_pools.pools = -1;
  EXPECT_THROW(bv::SpmvServer{bad_pools}, std::runtime_error);
  bv::ServerOptions bad_shards;
  bad_shards.shards = -2;
  EXPECT_THROW(bv::SpmvServer{bad_shards}, std::runtime_error);
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

TEST(PlanCache, EraseMatrixDropsAllFormatsForThatId) {
  bv::PlanCache cache(std::size_t{64} << 20);
  auto m = make_matrix(80, 80, 25);
  cache.get_or_build("a", m, bc::Format::kCsr);
  cache.get_or_build("a", m, bc::Format::kBroEll);
  cache.get_or_build("b", m, bc::Format::kCsr);
  ASSERT_EQ(cache.stats().entries, 3u);

  EXPECT_EQ(cache.erase_matrix("a"), 2u);
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(cache.erase_matrix("a"), 0u);
  EXPECT_EQ(cache.erase_matrix("missing"), 0u);
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

TEST(HashRing, DeterministicAndCoversAllNodes) {
  bv::HashRing ring(4);
  ASSERT_EQ(ring.nodes(), 4);
  std::vector<int> seen(4, 0);
  for (int i = 0; i < 256; ++i) {
    const std::string key = "matrix-" + std::to_string(i);
    const int n = ring.node(key);
    ASSERT_GE(n, 0);
    ASSERT_LT(n, 4);
    EXPECT_EQ(n, ring.node(key)); // stable
    ++seen[static_cast<std::size_t>(n)];
  }
  for (int n = 0; n < 4; ++n) EXPECT_GT(seen[static_cast<std::size_t>(n)], 0);
  // A single-node ring maps everything to node 0.
  bv::HashRing one(1);
  EXPECT_EQ(one.node("anything"), 0);
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

TEST(SpmvServer, ShardedExecutionMatchesUnshardedBitwise) {
  auto m = make_matrix(400, 380, 30);

  bv::ServerOptions plain;
  plain.threads = 0;
  plain.format = bc::Format::kCsr;
  bv::SpmvServer unsharded(plain);
  unsharded.add_matrix("a", m);

  bv::ServerOptions sharded = plain;
  sharded.pools = 2;
  sharded.pool_threads = 2;
  sharded.shards = 3;
  sharded.shard_min_nnz = 1; // force sharding for this small matrix
  bv::SpmvServer server(sharded);
  server.add_matrix("a", m);

  const auto x = random_x(m->cols(), 31);
  auto f_plain = unsharded.submit("a", x);
  auto f_shard = server.submit("a", x);
  unsharded.drain();
  server.drain();
  const auto y_plain = f_plain.get();
  const auto y_shard = f_shard.get();
  ASSERT_EQ(y_plain.size(), y_shard.size());
  for (std::size_t r = 0; r < y_plain.size(); ++r)
    ASSERT_EQ(y_shard[r], y_plain[r]) << "row " << r; // bitwise

  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.sharded_batches, 1u);
  EXPECT_EQ(metrics.batches, 1u);
  EXPECT_EQ(unsharded.metrics().sharded_batches, 0u);
}

TEST(SpmvServer, SmallMatricesRouteUnshardedThroughPools) {
  bv::ServerOptions opts;
  opts.threads = 0;
  opts.pools = 2;
  opts.shards = 4;
  opts.shard_min_nnz = std::size_t{1} << 40; // nothing is big enough
  bv::SpmvServer server(opts);
  auto m = make_matrix(64, 64, 32);
  server.add_matrix("a", m);
  const auto x = random_x(m->cols(), 33);
  auto f = server.submit("a", x);
  server.drain();
  expect_near_ref(f.get(), reference(*m, x));
  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.batches, 1u);
  EXPECT_EQ(metrics.sharded_batches, 0u);
  // With no forced format, the format resolved at registration is the
  // auto-selected one.
  ASSERT_EQ(metrics.latency_by_format.size(), 1u);
  EXPECT_EQ(metrics.latency_by_format.begin()->first,
            be::traits(m->auto_format()).name);
  // Placement went through the consistent-hash ring.
  auto& ex = dynamic_cast<bv::ShardedExecutor&>(server.executor());
  EXPECT_EQ(ex.pool_count(), 2);
  const int pool = ex.pool_for("a");
  EXPECT_GE(pool, 0);
  EXPECT_LT(pool, 2);
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

TEST(PlanCache, EraseMatrixDropsInFlightBuilds) {
  bv::PlanCache cache(std::size_t{64} << 20);
  auto m = make_matrix(600, 600, 29);

  // Race removal against the build: the builder thread starts a miss, the
  // main thread erases the matrix as soon as the building placeholder is
  // visible. Whichever side wins, no entry for the removed id may remain
  // once the build completes — the old code re-inserted it from the
  // builder, resurrecting a removed matrix in the cache.
  std::shared_ptr<be::SpmvPlan> built;
  std::thread builder(
      [&] { built = cache.get_or_build("gone", m, bc::Format::kBroEll); });
  while (cache.stats().entries == 0) std::this_thread::yield();
  cache.erase_matrix("gone");
  builder.join();

  ASSERT_NE(built, nullptr); // the in-flight caller still gets its plan
  EXPECT_EQ(cache.stats().entries, 0u);

  // The id is fully forgotten: the next build is a fresh miss that caches
  // normally again.
  cache.get_or_build("gone", m, bc::Format::kBroEll);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PlanCache, ClearDiscardsInFlightBuilds) {
  bv::PlanCache cache(std::size_t{64} << 20);
  auto m = make_matrix(600, 600, 31);
  cache.get_or_build("done", m, bc::Format::kCsr);

  std::shared_ptr<be::SpmvPlan> built;
  std::thread builder(
      [&] { built = cache.get_or_build("building", m, bc::Format::kBroEll); });
  while (cache.stats().entries < 2) std::this_thread::yield();
  cache.clear();
  builder.join();

  ASSERT_NE(built, nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
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

TEST(SpmvServer, DrainRacesActiveDispatchAndInFlightShardedBatches) {
  // drain() must block on batches that dispatch threads have already taken
  // — including row-sharded multi-pool batches whose shards are still in
  // flight across workers — and must stay correct when submits keep
  // arriving while it waits. Every accepted future resolves, exactly once.
  bv::ServerOptions opts;
  opts.threads = 2;
  opts.max_queue = 32;
  opts.max_batch = 4;
  opts.pools = 2;
  opts.pool_threads = 2;
  opts.shards = 2;
  opts.shard_min_nnz = 1; // every batch fans out over row shards
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
  // an owner-only operation, and overlapping calls must all return.
  std::vector<std::thread> drainers;
  for (int d = 0; d < 2; ++d)
    drainers.emplace_back([&] {
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
  EXPECT_GT(metrics.sharded_batches, 0u); // the race really covered shards
  EXPECT_EQ(metrics.sharded_batches, metrics.batches);
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
