#include "serve/server.h"

#include "util/error.h"

namespace bro::serve {

void ServerOptions::validate() const {
  BRO_CHECK_MSG(threads >= 0, "SpmvServer threads must be >= 0");
  BRO_CHECK_MSG(max_batch >= 1, "SpmvServer max_batch must be >= 1");
  BRO_CHECK_MSG(max_queue >= 1, "SpmvServer max_queue must be >= 1");
  BRO_CHECK_MSG(cache_bytes > 0, "SpmvServer needs a nonzero cache_bytes");
  BRO_CHECK_MSG(admission.rate >= 0,
                "SpmvServer admission rate must be >= 0");
}

ServerMetrics::ServerMetrics()
    : batch_sizes(Histogram::linear(0.5, 64.5, 64)),
      queue_wait(Histogram::exponential(1e-6, 10.0, 2.0)),
      execute(Histogram::exponential(1e-6, 10.0, 2.0)) {}

SpmvServer::SpmvServer(ServerOptions opts)
    : opts_((opts.validate(), opts)),
      executor_(opts.cache_bytes, opts.format),
      scheduler_(opts.max_queue, opts.max_batch),
      admission_(opts.admission) {
  dispatchers_.reserve(static_cast<std::size_t>(opts_.threads));
  for (int i = 0; i < opts_.threads; ++i)
    dispatchers_.emplace_back([this] { dispatch_loop(); });
}

SpmvServer::~SpmvServer() {
  scheduler_.stop();
  for (auto& d : dispatchers_) d.join();
  // Synchronous servers have no dispatchers to drain the queue; serve what
  // is left so no promise is silently broken.
  while (poll_once()) {
  }
}

void SpmvServer::dispatch_loop() {
  while (auto batch = scheduler_.wait_take()) {
    executor_.execute_batch(*batch);
    scheduler_.complete();
  }
}

void SpmvServer::add_matrix(const std::string& id, core::Matrix matrix) {
  add_matrix(id, std::make_shared<const core::Matrix>(std::move(matrix)));
}

void SpmvServer::add_matrix(const std::string& id,
                            std::shared_ptr<const core::Matrix> matrix) {
  executor_.add_matrix(id, std::move(matrix));
}

bool SpmvServer::remove_matrix(const std::string& id) {
  return executor_.remove_matrix(id);
}

std::shared_ptr<const core::Matrix> SpmvServer::matrix(
    const std::string& id) const {
  return executor_.matrix(id);
}

std::future<std::vector<value_t>> SpmvServer::submit(
    const std::string& id, std::vector<value_t> x,
    const std::string& client) {
  // Transport: validate against the registry, then admission-control.
  const auto m = executor_.matrix(id);
  BRO_CHECK_MSG(m != nullptr, "unknown matrix id '" << id << "'");
  const auto cols = static_cast<std::size_t>(m->cols());
  BRO_CHECK_MSG(x.size() == cols, "matrix '" << id << "' needs x of size "
                                             << cols << ", got " << x.size());
  admission_.admit(client, scheduler_.depth());

  // Scheduling: the bounded queue owns the request from here.
  Request req;
  req.id = id;
  req.x = std::move(x);
  auto future = req.result.get_future();
  scheduler_.enqueue(std::move(req));
  return future;
}

bool SpmvServer::poll_once() {
  auto batch = scheduler_.try_take();
  if (!batch) return false;
  executor_.execute_batch(*batch);
  scheduler_.complete();
  return true;
}

void SpmvServer::drain() {
  if (opts_.threads == 0) {
    // Synchronous mode: the caller is the dispatcher.
    while (poll_once()) {
    }
  }
  scheduler_.drain();
}

ServerMetrics SpmvServer::metrics() const {
  ServerMetrics m;
  const AdmissionStats adm = admission_.stats();
  const SchedulerStats sched = scheduler_.stats();
  const ExecMetrics exec = executor_.metrics();
  m.submitted = sched.submitted;
  m.shed = adm.shed;
  m.throttled = adm.throttled;
  m.rejected = sched.rejected + adm.shed + adm.throttled;
  m.served = exec.served;
  m.failed = exec.failed;
  m.batches = exec.batches;
  m.cache = executor_.cache_stats();
  m.batch_sizes = exec.batch_sizes;
  m.queue_wait = exec.queue_wait;
  m.execute = exec.execute;
  m.latency_by_format = exec.latency_by_format;
  return m;
}

} // namespace bro::serve
