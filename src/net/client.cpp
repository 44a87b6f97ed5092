#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/error.h"

namespace bro::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

} // namespace

NetClient::NetClient(const std::string& host, int port) {
  BRO_CHECK_MSG(port > 0 && port <= 65535,
                "client port must be in [1, 65535]");
  fd_.reset(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd_) throw_errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  BRO_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                "bad host address '" << host << '\'');
  if (::connect(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0)
    throw_errno("connect " + host + ":" + std::to_string(port));
  const int one = 1;
  ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void NetClient::send_all(std::span<const std::uint8_t> head,
                         std::span<const std::uint8_t> tail) {
  iovec iov[2] = {{const_cast<std::uint8_t*>(head.data()), head.size()},
                  {const_cast<std::uint8_t*>(tail.data()), tail.size()}};
  std::size_t first = 0;
  for (;;) {
    while (first < 2 && iov[first].iov_len == 0) ++first;
    if (first == 2) return;
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = 2 - first;
    const ssize_t sent = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    // Partial write: drop what went out, resume mid-buffer.
    for (auto left = static_cast<std::size_t>(sent); left > 0; ++first) {
      const std::size_t k = std::min(left, iov[first].iov_len);
      iov[first].iov_base = static_cast<std::uint8_t*>(iov[first].iov_base) + k;
      iov[first].iov_len -= k;
      left -= k;
      if (iov[first].iov_len > 0) break;
    }
  }
}

Frame NetClient::read_response(std::uint64_t request_id) {
  for (;;) {
    if (auto it = received_.find(request_id); it != received_.end()) {
      Frame f = std::move(it->second);
      received_.erase(it);
      return f;
    }
    while (auto f = assembler_.next()) {
      BRO_CHECK_MSG(f->header.kind == FrameKind::kResponse,
                    "request frame received by client");
      received_.emplace(f->header.request_id, std::move(*f));
    }
    if (received_.count(request_id)) continue;

    // A large response (next() armed its payload) is received in place.
    std::uint8_t buf[kRecvChunkBytes];
    const std::span<std::uint8_t> tail = assembler_.direct_tail();
    const std::span<std::uint8_t> dst = tail.empty() ? std::span(buf) : tail;
    const ssize_t got = ::recv(fd_.get(), dst.data(), dst.size(), 0);
    if (got > 0) {
      const auto n = static_cast<std::size_t>(got);
      if (tail.empty())
        assembler_.append(buf, n);
      else
        assembler_.commit_direct(n);
    } else if (got == 0) {
      throw std::runtime_error(
          "connection closed while awaiting response " +
          std::to_string(request_id));
    } else if (errno != EINTR) {
      throw_errno("recv");
    }
  }
}

Frame NetClient::call(std::uint64_t request_id,
                      std::span<const std::uint8_t> head,
                      std::span<const std::uint8_t> tail) {
  send_all(head, tail);
  Frame resp = read_response(request_id);
  if (resp.status() != Status::kOk) {
    const ErrorInfo e = parse_error_response(resp);
    throw RpcError(e.status, e.queue_depth,
                   std::string(status_name(e.status)) + ": " + e.message);
  }
  return resp;
}

void NetClient::ping() {
  const std::uint64_t rid = next_id();
  call(rid, make_empty_request(rid, Op::kPing));
}

std::vector<value_t> NetClient::submit(const std::string& matrix_id,
                                       std::span<const value_t> x,
                                       const std::string& client_id) {
  const std::uint64_t rid = next_id();
  const FrameParts req = submit_request_parts(rid, matrix_id, client_id, x);
  return parse_vector_response(call(rid, req.head, req.tail));
}

UploadAck NetClient::upload_matrix(const std::string& matrix_id,
                                   std::span<const std::uint8_t> bro_bytes) {
  const std::uint64_t rid = next_id();
  const FrameParts req = upload_request_parts(rid, matrix_id, bro_bytes);
  return parse_upload_ack(call(rid, req.head, req.tail));
}

bool NetClient::remove_matrix(const std::string& matrix_id) {
  const std::uint64_t rid = next_id();
  return parse_bool_response(call(rid, make_remove_request(rid, matrix_id)));
}

StatsSnapshot NetClient::stats() {
  const std::uint64_t rid = next_id();
  return parse_stats_response(call(rid, make_empty_request(rid, Op::kStats)));
}

void NetClient::drain() {
  const std::uint64_t rid = next_id();
  call(rid, make_empty_request(rid, Op::kDrain));
}

std::uint64_t NetClient::enqueue_submit(const std::string& matrix_id,
                                        std::span<const value_t> x,
                                        const std::string& client_id) {
  const std::uint64_t rid = next_id();
  const FrameParts req = submit_request_parts(rid, matrix_id, client_id, x);
  send_buf_.insert(send_buf_.end(), req.head.begin(), req.head.end());
  send_buf_.insert(send_buf_.end(), req.tail.begin(), req.tail.end());
  return rid;
}

void NetClient::flush() {
  if (send_buf_.empty()) return;
  send_all(send_buf_);
  send_buf_.clear();
}

NetClient::SubmitResult NetClient::wait_submit(std::uint64_t request_id) {
  flush();
  Frame resp = read_response(request_id);
  SubmitResult r;
  r.status = resp.status();
  if (r.status == Status::kOk) {
    r.y = parse_vector_response(resp);
  } else {
    const ErrorInfo e = parse_error_response(resp);
    r.queue_depth = e.queue_depth;
    r.message = e.message;
  }
  return r;
}

} // namespace bro::net
