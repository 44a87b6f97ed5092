#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <span>
#include <vector>

#include "util/error.h"

namespace bro::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

} // namespace

void NetServerOptions::validate() const {
  BRO_CHECK_MSG(port >= 0 && port <= 65535,
                "NetServer port must be in [0, 65535]");
  BRO_CHECK_MSG(backlog >= 1, "NetServer backlog must be >= 1");
  BRO_CHECK_MSG(max_frame_bytes >= kFrameHeaderBytes,
                "NetServer max_frame_bytes too small for a header");
  BRO_CHECK_MSG(!listen.empty(), "NetServer listen address must be set");
}

/// One accepted TCP connection: reassembly buffer in, write queue out, and
/// the submit futures whose responses this connection still owes. A large
/// upload's bytes go to its decoder as they arrive (FrameAssembler).
struct NetServer::Connection {
  explicit Connection(UniqueFd f, std::size_t max_frame)
      : fd(std::move(f)), assembler(max_frame) {}

  UniqueFd fd;
  FrameAssembler assembler;

  // Write side: encoded response frames, drained front-first as the socket
  // accepts bytes; write_off is the progress inside the front buffer.
  std::deque<std::vector<std::uint8_t>> write_queue;
  std::size_t write_off = 0;

  struct Pending {
    std::uint64_t request_id = 0;
    std::future<std::vector<value_t>> future;
  };
  std::vector<Pending> pending; // in-flight SUBMITs, any completion order

  bool close_after_flush = false; // drain path: flush, then close
  bool dead = false;              // remove at end of the iteration
};

/// Per-run() loop state (connections live exactly as long as one run).
struct NetServer::Loop {
  std::vector<std::unique_ptr<Connection>> conns;
  bool stopping = false; // drain finished; exit once every queue flushes
};

NetServer::NetServer(serve::SpmvServer& server, NetServerOptions opts)
    : server_(server), opts_((opts.validate(), std::move(opts))) {
  // Self-pipe: stop() wakes a loop that is blocked in poll().
  int pipefd[2];
  if (::pipe(pipefd) != 0) throw_errno("pipe");
  wake_read_.reset(pipefd[0]);
  wake_write_.reset(pipefd[1]);
  set_nonblocking(wake_read_.get());
  set_nonblocking(wake_write_.get());

  listen_fd_.reset(::socket(AF_INET, SOCK_STREAM, 0));
  if (!listen_fd_) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  BRO_CHECK_MSG(::inet_pton(AF_INET, opts_.listen.c_str(), &addr.sin_addr) ==
                    1,
                "bad listen address '" << opts_.listen << '\'');
  if (::bind(listen_fd_.get(), reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw_errno("bind " + opts_.listen + ":" + std::to_string(opts_.port));
  if (::listen(listen_fd_.get(), opts_.backlog) != 0) throw_errno("listen");
  set_nonblocking(listen_fd_.get());

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_.get(), reinterpret_cast<sockaddr*>(&bound),
                    &len) != 0)
    throw_errno("getsockname");
  port_ = ntohs(bound.sin_port);
}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  BRO_CHECK_MSG(!loop_thread_.joinable(), "NetServer already started");
  loop_thread_ = std::thread([this] { run(); });
}

void NetServer::stop() {
  stop_requested_.store(true);
  if (wake_write_) {
    const char b = 1;
    // Best-effort: a full pipe already guarantees a pending wake-up.
    (void)!::write(wake_write_.get(), &b, 1);
  }
  if (loop_thread_.joinable()) loop_thread_.join();
}

NetServerStats NetServer::stats() const {
  std::lock_guard lk(stats_mu_);
  return stats_;
}

void NetServer::begin_drain(Loop& loop) {
  if (draining_.exchange(true)) return;
  listen_fd_.reset(); // stop accepting

  // Final read sweep: requests the kernel has already buffered for any
  // connection get typed kShuttingDown answers (handle_frame sees
  // draining_) rather than vanishing when the connection closes below.
  std::uint8_t buf[4096];
  for (auto& cp : loop.conns) {
    Connection& c = *cp;
    if (c.dead) continue;
    for (;;) {
      const ssize_t got = ::recv(c.fd.get(), buf, sizeof(buf), 0);
      if (got <= 0) break;
      c.assembler.append(buf, static_cast<std::size_t>(got));
    }
    try {
      while (auto frame = c.assembler.next()) handle_frame(loop, c, *frame);
    } catch (const ProtocolError&) {
      c.dead = true;
      c.fd.reset();
      std::lock_guard lk(stats_mu_);
      ++stats_.protocol_errors;
      ++stats_.closed;
    }
  }

  // Block until the queue is empty and no batch is in flight; with a
  // synchronous SpmvServer drain() itself drives poll_once. Dispatch
  // threads keep completing futures while we wait.
  server_.drain();
  loop.stopping = true;
  for (auto& c : loop.conns) c->close_after_flush = true;
}

void NetServer::handle_frame(Loop& loop, Connection& conn, Frame& frame) {
  {
    std::lock_guard lk(stats_mu_);
    ++stats_.frames_in;
  }
  if (frame.header.kind != FrameKind::kRequest)
    throw ProtocolError("response frame received by server");
  const std::uint64_t rid = frame.header.request_id;
  const auto respond = [&](std::vector<std::uint8_t> bytes) {
    conn.write_queue.push_back(std::move(bytes));
  };

  if (draining_.load()) {
    // DRAIN is idempotent: a second drainer gets OK once the first drain
    // has completed (which it has — begin_drain is synchronous).
    if (frame.op() == Op::kDrain)
      respond(make_ok_response(rid));
    else
      respond(make_error_response(rid, Status::kShuttingDown, 0,
                                  "server is draining"));
    return;
  }

  switch (frame.op()) {
    case Op::kPing:
      respond(make_ok_response(rid));
      return;

    case Op::kSubmit: {
      SubmitRequest req;
      try {
        req = parse_submit_request(frame);
      } catch (const std::exception& e) {
        respond(make_error_response(rid, Status::kBadRequest, 0, e.what()));
        return;
      }
      // Pre-validate so the wire can distinguish unknown-id from a
      // malformed x (SpmvServer folds both into one runtime_error).
      const auto m = server_.matrix(req.matrix_id);
      if (!m) {
        respond(make_error_response(rid, Status::kUnknownMatrix, 0,
                                    "unknown matrix id '" + req.matrix_id +
                                        "'"));
        return;
      }
      if (req.x.size() != static_cast<std::size_t>(m->cols())) {
        respond(make_error_response(
            rid, Status::kBadRequest, 0,
            "matrix '" + req.matrix_id + "' needs x of size " +
                std::to_string(m->cols()) + ", got " +
                std::to_string(req.x.size())));
        return;
      }
      try {
        auto future =
            server_.submit(req.matrix_id, std::move(req.x), req.client_id);
        conn.pending.push_back({rid, std::move(future)});
      } catch (const serve::RejectedError& e) {
        respond(make_error_response(rid, status_for(e.cause()),
                                    e.queue_depth(), e.what()));
      } catch (const std::exception& e) {
        respond(make_error_response(rid, Status::kInternalError, 0, e.what()));
      }
      return;
    }

    case Op::kUploadMatrix: {
      try {
        // A large upload was decoded as its bytes arrived: the server never
        // held its payload, only the CSR it decodes to.
        Upload up = decode_upload(frame);
        auto m = std::make_shared<const core::Matrix>(std::move(up.matrix));
        UploadAck ack;
        ack.rows = static_cast<std::uint64_t>(m->rows());
        ack.cols = static_cast<std::uint64_t>(m->cols());
        ack.nnz = m->nnz();
        server_.add_matrix(up.matrix_id, std::move(m));
        respond(make_upload_ack(rid, ack));
      } catch (const std::exception& e) {
        respond(make_error_response(rid, Status::kBadRequest, 0, e.what()));
      }
      return;
    }

    case Op::kRemove: {
      try {
        respond(make_bool_response(
            rid, server_.remove_matrix(parse_remove_request(frame))));
      } catch (const std::exception& e) {
        respond(make_error_response(rid, Status::kBadRequest, 0, e.what()));
      }
      return;
    }

    case Op::kStats:
      respond(make_stats_response(rid, snapshot_from(server_.metrics())));
      return;

    case Op::kDrain:
      begin_drain(loop);
      respond(make_ok_response(rid));
      return;
  }
  respond(make_error_response(rid, Status::kBadRequest, 0,
                              "unknown op " +
                                  std::to_string(frame.header.code)));
}

void NetServer::run() {
  Loop loop;

  const auto close_conn = [&](Connection& c) {
    if (c.dead) return;
    c.dead = true;
    c.fd.reset();
    // Orphaned futures are simply dropped: std::future's destructor does
    // not block, and the executor fulfills the promise regardless.
    std::lock_guard lk(stats_mu_);
    ++stats_.closed;
  };

  std::vector<pollfd> pfds;
  std::vector<Connection*> pfd_conns;
  std::vector<std::uint8_t> rdbuf(kRecvChunkBytes);

  for (;;) {
    // --- build the poll set -------------------------------------------
    pfds.clear();
    pfd_conns.clear();
    pfds.push_back({wake_read_.get(), POLLIN, 0});
    if (listen_fd_)
      pfds.push_back({listen_fd_.get(), POLLIN, 0});
    const std::size_t first_conn = pfds.size();
    bool any_pending = false;
    for (auto& c : loop.conns) {
      short events = 0;
      if (!c->close_after_flush) events |= POLLIN;
      if (!c->write_queue.empty()) events |= POLLOUT;
      pfds.push_back({c->fd.get(), events, 0});
      pfd_conns.push_back(c.get());
      any_pending = any_pending || !c->pending.empty();
    }

    // Pending futures complete on dispatch threads; poll with a short
    // timeout so they are harvested promptly. Otherwise sleep until IO.
    const int timeout_ms = any_pending || loop.stopping ? 1 : 500;
    const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (n < 0 && errno != EINTR) throw_errno("poll");

    // --- wake pipe / external stop ------------------------------------
    if (pfds[0].revents & POLLIN) {
      std::uint8_t sink[64];
      while (::read(wake_read_.get(), sink, sizeof(sink)) > 0) {
      }
    }
    if (stop_requested_.load()) begin_drain(loop);

    // --- accept -------------------------------------------------------
    if (listen_fd_ && first_conn >= 2 && (pfds[1].revents & POLLIN)) {
      for (;;) {
        UniqueFd fd(::accept(listen_fd_.get(), nullptr, nullptr));
        if (!fd) break; // EAGAIN or transient error: try next iteration
        set_nonblocking(fd.get());
        const int one = 1;
        ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        loop.conns.push_back(std::make_unique<Connection>(
            std::move(fd), opts_.max_frame_bytes));
        {
          std::lock_guard lk(stats_mu_);
          ++stats_.accepted;
        }
      }
    }

    // --- reads + frame handling ---------------------------------------
    for (std::size_t i = 0; i < pfd_conns.size(); ++i) {
      Connection& c = *pfd_conns[i];
      const short rev = pfds[first_conn + i].revents;
      if (rev & (POLLERR | POLLHUP | POLLNVAL)) {
        if (c.write_queue.empty() || (rev & (POLLERR | POLLNVAL)))
          close_conn(c);
      }
      if (c.dead || !(rev & POLLIN)) continue;
      bool peer_closed = false;
      try {
        // Each read's frames are handled before the next read: that is
        // where next() arms a large frame's payload, so the following
        // reads land in it directly (uploads and SUBMIT x alike).
        for (bool more = true; more && !c.dead;) {
          const std::span<std::uint8_t> tail = c.assembler.direct_tail();
          const std::span<std::uint8_t> dst =
              tail.empty() ? std::span<std::uint8_t>(rdbuf) : tail;
          const ssize_t got = ::recv(c.fd.get(), dst.data(), dst.size(), 0);
          if (got > 0) {
            const auto n = static_cast<std::size_t>(got);
            if (tail.empty())
              c.assembler.append(rdbuf.data(), n);
            else
              c.assembler.commit_direct(n);
            more = n == dst.size();
          } else {
            more = false;
            peer_closed = got == 0 || !(errno == EAGAIN ||
                                        errno == EWOULDBLOCK || errno == EINTR);
          }
          while (!c.dead)
            if (auto frame = c.assembler.next())
              handle_frame(loop, c, *frame);
            else
              break;
        }
      } catch (const ProtocolError&) {
        // Reassembly lost sync; nothing sensible can follow.
        if (!c.dead) {
          std::lock_guard lk(stats_mu_);
          ++stats_.protocol_errors;
        }
        close_conn(c);
        continue;
      }
      if (peer_closed && c.write_queue.empty()) close_conn(c);
      if (peer_closed) c.close_after_flush = true;
    }

    // --- synchronous SpmvServer: the loop is the dispatcher ------------
    if (server_.options().threads == 0)
      while (server_.poll_once()) {
      }

    // --- harvest completed futures onto write queues -------------------
    for (auto& cp : loop.conns) {
      Connection& c = *cp;
      if (c.dead) continue;
      for (std::size_t i = 0; i < c.pending.size();) {
        auto& p = c.pending[i];
        if (p.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        try {
          const std::vector<value_t> y = p.future.get();
          c.write_queue.push_back(make_vector_response(p.request_id, y));
        } catch (const std::exception& e) {
          c.write_queue.push_back(make_error_response(
              p.request_id, Status::kInternalError, 0, e.what()));
        }
        c.pending.erase(c.pending.begin() +
                        static_cast<std::ptrdiff_t>(i));
      }
    }

    // --- flush write queues --------------------------------------------
    for (auto& cp : loop.conns) {
      Connection& c = *cp;
      if (c.dead) continue;
      while (!c.write_queue.empty()) {
        const auto& buf = c.write_queue.front();
        const ssize_t sent =
            ::send(c.fd.get(), buf.data() + c.write_off,
                   buf.size() - c.write_off, MSG_NOSIGNAL);
        if (sent < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            break;
          close_conn(c); // EPIPE / ECONNRESET: the peer is gone
          break;
        }
        c.write_off += static_cast<std::size_t>(sent);
        if (c.write_off < buf.size()) break; // socket full; POLLOUT resumes
        c.write_queue.pop_front();
        c.write_off = 0;
        std::lock_guard lk(stats_mu_);
        ++stats_.frames_out;
      }
      if (!c.dead && c.close_after_flush && c.write_queue.empty() &&
          c.pending.empty())
        close_conn(c);
    }

    // --- sweep dead connections ----------------------------------------
    std::erase_if(loop.conns,
                  [](const std::unique_ptr<Connection>& c) { return c->dead; });

    // --- exit after a drain once every response has been flushed -------
    if (loop.stopping) {
      bool all_flushed = true;
      for (const auto& c : loop.conns)
        all_flushed =
            all_flushed && c->write_queue.empty() && c->pending.empty();
      if (all_flushed) break;
    }
  }

  for (auto& c : loop.conns)
    if (!c->dead) {
      c->fd.reset();
      std::lock_guard lk(stats_mu_);
      ++stats_.closed;
    }
}

} // namespace bro::net
