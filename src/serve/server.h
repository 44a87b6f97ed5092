// bro::serve::SpmvServer — the concurrent multi-matrix serving façade.
//
// The repo's north star is a service, not a library: many callers, a
// working set of matrices, each request a right-hand side. The server is a
// thin composition of three explicit layers:
//
//   * transport (serve/admission.h): submit-side validation, per-client
//     token-bucket admission and load shedding in front of the queue —
//     every refusal is a RejectedError carrying the observed queue depth,
//   * scheduling (serve/scheduler.h): the bounded pending queue
//     (max_queue backpressure) and same-matrix coalescing into SpMM
//     batches of up to max_batch right-hand sides,
//   * execution (serve/executor.h): the matrix registry, each matrix's
//     plan (built on its first batch, held under a byte budget), per-matrix
//     plan serialization, and the SpMM itself, run on the thread that took
//     the batch.
//
// The façade owns `threads` dispatch threads that move batches from the
// scheduler to the executor; each runs its batch's kernel, which
// parallelizes rows internally. With threads == 0 the server runs
// synchronously: the caller drives batches with poll_once() —
// deterministic, which is what the batching tests and benches need.
// Metrics merge the per-layer views: admission (shed/throttled),
// scheduler (submitted/rejected), executor (batches, queue-wait vs
// execute-time percentiles, per-format latency, cache stats).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/admission.h"
#include "serve/executor.h"
#include "serve/scheduler.h"
#include "util/histogram.h"

namespace bro::serve {

struct ServerOptions {
  int threads = 2;          // dispatch threads; 0 = synchronous (poll_once)
  std::size_t max_queue = 256; // pending-request bound (backpressure)
  int max_batch = 8;        // most right-hand sides folded into one SpMM
  // Budget for the plans' representation bytes (the CSRs are not charged).
  std::size_t cache_bytes = std::size_t{256} << 20;
  // Force one format for every matrix; default auto-selects per matrix.
  std::optional<core::Format> format;

  // Transport: token-bucket rate/burst per client and the shed depth
  // (admission.h); all off by default.
  AdmissionOptions admission;

  /// Throws (BRO_CHECK) on out-of-domain values: threads < 0,
  /// max_batch < 1, max_queue == 0, cache_bytes == 0, a negative
  /// admission rate.
  void validate() const;
};

struct ServerMetrics {
  std::uint64_t submitted = 0; // accepted into the queue
  std::uint64_t rejected = 0;  // refused with RejectedError (all causes)
  std::uint64_t shed = 0;      //   ... of which: load shed (admission)
  std::uint64_t throttled = 0; //   ... of which: client token bucket empty
  std::uint64_t served = 0;    // requests whose future got a value
  std::uint64_t failed = 0;    // requests whose future got an exception
  std::uint64_t batches = 0;   // execute_multi invocations
  PlanCacheStats cache;
  Histogram batch_sizes;       // one sample per batch
  Histogram queue_wait;        // per-request seconds enqueue -> execute
  Histogram execute;           // per-batch execute seconds
  // One histogram of per-batch execute seconds per canonical format name.
  std::unordered_map<std::string, Histogram> latency_by_format;

  ServerMetrics();
};

class SpmvServer {
 public:
  explicit SpmvServer(ServerOptions opts = {});
  /// Drains the queue, then joins the dispatch threads.
  ~SpmvServer();

  SpmvServer(const SpmvServer&) = delete;
  SpmvServer& operator=(const SpmvServer&) = delete;

  /// Register a matrix under `id`, replacing any previous registration and
  /// its plan for new requests; in-flight batches keep the plan they
  /// resolved.
  void add_matrix(const std::string& id, core::Matrix matrix);
  void add_matrix(const std::string& id,
                  std::shared_ptr<const core::Matrix> matrix);

  /// Drop the registration and the plan for `id`. Returns false
  /// when the id was not registered. Requests already queued against the
  /// id fail with their promise's exception; new submits throw.
  bool remove_matrix(const std::string& id);

  /// The registered matrix, or null.
  std::shared_ptr<const core::Matrix> matrix(const std::string& id) const;

  /// Enqueue y = A[id] * x; the future delivers y (or the serving error).
  /// Throws std::runtime_error for an unknown id or wrong-sized x, and
  /// RejectedError (with the observed queue depth) when the queue is full,
  /// the request is shed, or `client`'s token bucket is empty.
  std::future<std::vector<value_t>> submit(const std::string& id,
                                           std::vector<value_t> x,
                                           const std::string& client = "");

  /// Serve one coalesced batch on the calling thread. Returns false when
  /// the queue is empty. The synchronous driver for threads == 0 setups
  /// (also usable alongside dispatch threads).
  bool poll_once();

  /// Block until the queue is empty and no batch is in flight.
  void drain();

  ServerMetrics metrics() const;
  const ServerOptions& options() const { return opts_; }

 private:
  void dispatch_loop();

  ServerOptions opts_;
  Executor executor_;
  Scheduler scheduler_;
  AdmissionController admission_;
  std::vector<std::thread> dispatchers_;
};

} // namespace bro::serve
