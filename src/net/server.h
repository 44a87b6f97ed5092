// bro::net::NetServer — the async socket front-end of the serving stack.
//
// A poll(2)-based non-blocking accept/IO event loop that replaces
// SpmvServer::submit as the transport layer's caller: frames arrive on TCP
// connections (net/protocol.h), SUBMIT requests become SpmvServer futures,
// and completed futures are encoded back onto the owning connection's write
// queue. One loop thread serves every connection:
//
//   * per-connection read buffers with partial-frame reassembly
//     (FrameAssembler) and write queues drained as POLLOUT allows, so a
//     slow reader never blocks the loop,
//   * many in-flight requests per connection, correlated by request id —
//     responses are sent in completion order, clients re-associate,
//   * every serve-layer refusal is answered with its typed status
//     (queue-full / shed / throttled + observed queue depth), never a
//     dropped connection; frame-level corruption, by contrast, closes the
//     connection (reassembly has lost sync),
//   * graceful shutdown (the DRAIN op, or stop()): stop accepting, drain
//     the SpmvServer, flush every queued response, then close.
//
// With a synchronous SpmvServer (threads == 0) the loop drives poll_once()
// whenever its frame backlog is empty, so a single-threaded deterministic
// service needs no dispatch threads at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/protocol.h"
#include "serve/server.h"
#include "util/fd.h"

namespace bro::net {

struct NetServerOptions {
  std::string listen = "127.0.0.1"; // IPv4 dotted-quad to bind
  int port = 0;                     // 0 = kernel-assigned (see port())

  /// Throws (BRO_CHECK) on out-of-domain values.
  void validate() const;
};

struct NetServerStats {
  std::uint64_t accepted = 0;        // connections accepted
  std::uint64_t closed = 0;          // connections closed (any reason)
  std::uint64_t frames_in = 0;       // complete request frames parsed
  std::uint64_t frames_out = 0;      // response frames fully written
  std::uint64_t protocol_errors = 0; // connections dropped on corrupt frames
};

class NetServer {
 public:
  /// Binds and listens immediately (so port() is valid before run/start);
  /// the caller keeps ownership of `server` and must outlive the loop.
  NetServer(serve::SpmvServer& server, NetServerOptions opts = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port (resolves option port == 0).
  int port() const { return port_; }

  /// Run the event loop on the calling thread; returns after graceful
  /// shutdown (a client's DRAIN op, or stop() from another thread).
  void run();

  /// run() on a background thread.
  void start();

  /// Request graceful shutdown (stop accepting, drain the SpmvServer,
  /// flush responses) and join the start() thread. Safe to call twice;
  /// also safe against a concurrent client-initiated DRAIN.
  void stop();

  /// True once a drain began; new requests are answered kShuttingDown.
  bool draining() const { return draining_.load(); }

  NetServerStats stats() const;

 private:
  struct Connection;
  struct Loop; // poll-loop state, lives for one run()

  void handle_frame(Loop& loop, Connection& conn, Frame& frame);
  void begin_drain(Loop& loop);

  serve::SpmvServer& server_;
  NetServerOptions opts_;
  UniqueFd listen_fd_;
  UniqueFd wake_read_, wake_write_;
  int port_ = 0;

  std::thread loop_thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};

  mutable std::mutex stats_mu_;
  NetServerStats stats_;
};

} // namespace bro::net
