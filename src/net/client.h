// bro::net::NetClient — blocking TCP client for the bro::net protocol.
//
// One connection, synchronous calls by default (submit/upload/stats/...),
// plus an explicit pipelining surface for load generation: enqueue_submit()
// buffers request frames locally, flush() writes them in one send, and
// wait_submit() collects each response by request id in any order. That is
// the client half of the protocol's many-in-flight design: the server
// answers in completion order and the client re-associates.
//
// Server refusals raise RpcError carrying the typed wire Status and the
// observed queue depth — the remote mirror of serve::RejectedError. The
// pipelined path returns SubmitResult values instead of throwing, so a
// load generator can count rejections by cause without exception traffic.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "util/fd.h"

namespace bro::net {

/// A non-kOk response to a synchronous call.
class RpcError : public std::runtime_error {
 public:
  RpcError(Status status, std::uint64_t queue_depth, const std::string& what)
      : std::runtime_error(what), status_(status), queue_depth_(queue_depth) {}

  Status status() const { return status_; }
  std::uint64_t queue_depth() const { return queue_depth_; }

 private:
  Status status_;
  std::uint64_t queue_depth_;
};

class NetClient {
 public:
  /// Connect to host:port (IPv4 dotted-quad). Throws std::runtime_error
  /// when the connection cannot be established.
  NetClient(const std::string& host, int port);

  NetClient(NetClient&&) = default;
  NetClient& operator=(NetClient&&) = default;

  // --- synchronous calls (throw RpcError on a non-kOk status) -----------

  void ping();

  /// y = A[matrix_id] * x, round-tripped through the server.
  std::vector<value_t> submit(const std::string& matrix_id,
                              std::span<const value_t> x,
                              const std::string& client_id = "");

  /// Register `bro_bytes` (a tagged .bro stream) under matrix_id.
  UploadAck upload_matrix(const std::string& matrix_id,
                          std::span<const std::uint8_t> bro_bytes);

  /// Returns whether the id had been registered.
  bool remove_matrix(const std::string& matrix_id);

  StatsSnapshot stats();

  /// Ask the server to shut down gracefully; returns once acknowledged.
  void drain();

  // --- pipelining -------------------------------------------------------

  /// Outcome of one pipelined submit; rejections are data, not exceptions.
  struct SubmitResult {
    Status status = Status::kInternalError;
    std::vector<value_t> y;    // valid when status == kOk
    std::uint64_t queue_depth = 0;
    std::string message;

    bool ok() const { return status == Status::kOk; }
  };

  /// Buffer a SUBMIT frame locally; returns its request id. Nothing is
  /// written until flush().
  std::uint64_t enqueue_submit(const std::string& matrix_id,
                               std::span<const value_t> x,
                               const std::string& client_id = "");

  /// Write every buffered frame in one send (one TCP burst — this is what
  /// lets a test fill the server's bounded queue deterministically).
  void flush();

  /// Block until the response for `request_id` arrives (responses for
  /// other in-flight ids are cached and handed out on their own waits).
  SubmitResult wait_submit(std::uint64_t request_id);

 private:
  std::uint64_t next_id() { return next_id_++; }
  /// Write `head` then `tail` in one gathered write loop.
  void send_all(std::span<const std::uint8_t> head,
                std::span<const std::uint8_t> tail = {});
  /// Read frames until `request_id`'s response arrives.
  Frame read_response(std::uint64_t request_id);
  /// send + read_response + throw RpcError on non-kOk.
  Frame call(std::uint64_t request_id, std::span<const std::uint8_t> head,
             std::span<const std::uint8_t> tail = {});

  UniqueFd fd_;
  FrameAssembler assembler_;
  std::uint64_t next_id_ = 1;
  std::vector<std::uint8_t> send_buf_; // frames staged by enqueue_submit
  std::unordered_map<std::uint64_t, Frame> received_; // out-of-order cache
};

} // namespace bro::net
