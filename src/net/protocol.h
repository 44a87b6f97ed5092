// bro::net wire protocol — the compact length-prefixed binary framing that
// puts a real service boundary in front of serve::SpmvServer.
//
// Every message is one frame: a fixed 16-byte little-endian header followed
// by an op-specific payload.
//
//   offset  size  field
//   0       u32   payload_len   bytes following the header
//   4       u8    version       kProtocolVersion; mismatch is fatal
//   5       u8    kind          0 = request, 1 = response
//   6       u8    code          request: Op; response: Status
//   7       u8    reserved      must be 0
//   8       u64   request_id    chosen by the client, echoed verbatim
//
// request_id correlation is what allows many in-flight requests per
// connection: the server answers batches in completion order, not
// submission order, and the client re-associates by id. Matrix payloads
// ride the existing tagged `.bro` serialization (core/serialize.h) —
// UPLOAD_MATRIX frames carry exactly the bytes `brospmv compress` writes,
// and the server decodes them in place, dispatching on the embedded tag,
// via core::read_bro_to_csr.
//
// Every serve-layer refusal maps to a distinct Status (queue-full vs shed
// vs throttled, mirroring serve::RejectCause) and carries the observed
// queue depth, so remote clients get the same backpressure signal as
// in-process callers of SpmvServer::submit.
//
// Versioning rule: any change to the frame header or to an existing
// payload layout bumps kProtocolVersion; the server closes connections
// that open with any other version. New ops may be added within a version
// (old servers answer them with kBadRequest).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "util/bytes.h"
#include "util/types.h"
#include "util/uninit.h"

namespace bro::net {

inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Frames above this payload size are rejected as corrupt (a length field
/// damaged in transit would otherwise ask for gigabytes of reassembly).
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{1} << 30;

enum class Op : std::uint8_t {
  kPing = 1,         // liveness probe; empty payload both ways
  kSubmit = 2,       // y = A[id] * x
  kUploadMatrix = 3, // register a matrix from .bro bytes
  kRemove = 4,       // drop a matrix registration
  kStats = 5,        // server metrics snapshot
  kDrain = 6,        // graceful shutdown: stop accepting, drain, flush
};

enum class Status : std::uint8_t {
  kOk = 0,
  kQueueFull = 1,     // RejectCause::kQueueFull
  kShed = 2,          // RejectCause::kShed
  kThrottled = 3,     // RejectCause::kThrottled
  kUnknownMatrix = 4, // submit/remove against an unregistered id
  kBadRequest = 5,    // malformed payload, wrong x size, unknown op
  kInternalError = 6, // execution failure surfaced by the request's future
  kShuttingDown = 7,  // received after a drain began
};

enum class FrameKind : std::uint8_t { kRequest = 0, kResponse = 1 };

const char* op_name(Op op);
const char* status_name(Status s);

/// The wire status a serve-layer refusal maps to.
Status status_for(serve::RejectCause cause);

/// Frame-level corruption (bad version, oversized length, reserved bits):
/// unrecoverable for the connection — reassembly has lost sync.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t version = kProtocolVersion;
  FrameKind kind = FrameKind::kRequest;
  std::uint8_t code = 0; // Op for requests, Status for responses
  std::uint64_t request_id = 0;
};

/// A received frame's payload: one allocation at its exact size, never
/// zero-filled (util::UninitVector, so a large one is on huge pages), so
/// the memory a frame holds grows with the bytes that have actually
/// arrived rather than with the length its header announces.
class Payload {
 public:
  Payload() = default;
  explicit Payload(std::size_t n) : bytes_(n) {}

  std::uint8_t* data() { return bytes_.data(); }
  const std::uint8_t* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size(); }

 private:
  util::UninitVector<std::uint8_t> bytes_;
};

struct Frame {
  FrameHeader header;
  Payload payload;

  Op op() const { return static_cast<Op>(header.code); }
  Status status() const { return static_cast<Status>(header.code); }
};

/// One complete frame: header + payload, ready to write to a socket.
std::vector<std::uint8_t> encode_frame(FrameKind kind, std::uint8_t code,
                                       std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload);

/// A frame ready for a gathered write: `head` holds the header, the fixed
/// fields and the trailing array's count, and `tail` views that array's
/// bytes where the caller keeps them. head followed by tail is
/// byte-identical to the matching make_* frame.
struct FrameParts {
  std::vector<std::uint8_t> head;
  std::span<const std::uint8_t> tail;
};

/// The socket loops' read size, and the payload size above which a frame
/// is received straight into its own buffer instead of through staging.
inline constexpr std::size_t kRecvChunkBytes = 64 * 1024;

/// Incremental frame reassembly over a byte stream: append() whatever the
/// socket produced, next() yields complete frames (nullopt while a frame is
/// still partial). Throws ProtocolError when the stream cannot be a valid
/// frame sequence (version mismatch, oversized or malformed header).
///
/// Headers and frames of at most kRecvChunkBytes of payload reassemble in a
/// staging buffer. A larger frame lands in memory once: when next() has
/// validated its header, it allocates the payload at its exact size, moves
/// in the bytes already staged, and exposes the rest as direct_tail(), the
/// place the next socket read should land. append() fills that tail too.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void append(const std::uint8_t* data, std::size_t n);
  std::optional<Frame> next();

  /// The unfilled part of a large frame's payload; empty when the next
  /// bytes belong in append().
  std::span<std::uint8_t> direct_tail();
  /// Record that the first `n` bytes of direct_tail() were written.
  void commit_direct(std::size_t n);

  /// Staged bytes not yet consumed (a large payload's bytes excluded).
  std::size_t buffered() const { return buf_.size() - pos_; }
  /// Once every staged byte is consumed, at most 2 * kRecvChunkBytes.
  std::size_t staging_capacity() const { return buf_.capacity(); }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;          // consumed prefix; compacted lazily
  std::optional<Frame> pending_; // a large frame whose payload is arriving
  std::size_t filled_ = 0;       // bytes of pending_'s payload received
};

// ---------------------------------------------------------------------------
// Payload codecs. make_* return complete frames; parse_* decode a received
// frame's payload and throw std::runtime_error on malformed contents (the
// server answers kBadRequest, the connection survives).

struct SubmitRequest {
  std::string matrix_id;
  std::string client_id;
  std::vector<value_t> x;
};

std::vector<std::uint8_t> make_submit_request(std::uint64_t request_id,
                                              const std::string& matrix_id,
                                              const std::string& client_id,
                                              std::span<const value_t> x);
/// The same frame with `x` left in place as the tail.
FrameParts submit_request_parts(std::uint64_t request_id,
                                const std::string& matrix_id,
                                const std::string& client_id,
                                std::span<const value_t> x);
SubmitRequest parse_submit_request(const Frame& f);

/// kOk submit response: the y vector.
std::vector<std::uint8_t> make_vector_response(std::uint64_t request_id,
                                               std::span<const value_t> y);
std::vector<value_t> parse_vector_response(const Frame& f);

/// Non-kOk responses share one payload: the queue depth observed at refusal
/// (0 when meaningless) plus a human-readable message.
struct ErrorInfo {
  Status status = Status::kInternalError;
  std::uint64_t queue_depth = 0;
  std::string message;
};

std::vector<std::uint8_t> make_error_response(std::uint64_t request_id,
                                              Status status,
                                              std::uint64_t queue_depth,
                                              const std::string& message);
ErrorInfo parse_error_response(const Frame& f);

struct UploadRequest {
  std::string matrix_id;
  /// A complete tagged .bro stream, viewed in place in the frame payload:
  /// valid only while the parsed Frame lives.
  std::span<const std::uint8_t> bro_bytes;
};

std::vector<std::uint8_t> make_upload_request(
    std::uint64_t request_id, const std::string& matrix_id,
    std::span<const std::uint8_t> bro_bytes);
/// The same frame with `bro_bytes` left in place as the tail.
FrameParts upload_request_parts(std::uint64_t request_id,
                                const std::string& matrix_id,
                                std::span<const std::uint8_t> bro_bytes);
UploadRequest parse_upload_request(const Frame& f);

/// kOk upload response: dimensions of the registered matrix.
struct UploadAck {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t nnz = 0;
};

std::vector<std::uint8_t> make_upload_ack(std::uint64_t request_id,
                                          const UploadAck& ack);
UploadAck parse_upload_ack(const Frame& f);

std::vector<std::uint8_t> make_remove_request(std::uint64_t request_id,
                                              const std::string& matrix_id);
std::string parse_remove_request(const Frame& f);

/// kOk remove response: whether the id was registered.
std::vector<std::uint8_t> make_bool_response(std::uint64_t request_id,
                                             bool value);
bool parse_bool_response(const Frame& f);

/// Ping / stats / drain requests and the empty kOk response.
std::vector<std::uint8_t> make_empty_request(std::uint64_t request_id, Op op);
std::vector<std::uint8_t> make_ok_response(std::uint64_t request_id);

/// The STATS payload: the server-side counters and the split queue-wait vs
/// execute-time percentiles, so a remote load generator can attribute
/// round-trip latency to network vs queueing vs execution. On the wire:
/// 11 u64 (eight counters, one reserved zero slot after `batches`, then
/// the two histogram counts) and 6 f64, 136 bytes.
struct StatsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;   // all causes
  std::uint64_t queue_full = 0; //   of which: scheduler bound
  std::uint64_t shed = 0;       //   of which: load shed
  std::uint64_t throttled = 0;  //   of which: token bucket
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t wait_count = 0;
  std::uint64_t exec_count = 0;
  double wait_p50 = 0, wait_p99 = 0, wait_mean = 0; // seconds
  double exec_p50 = 0, exec_p99 = 0, exec_mean = 0; // seconds
};

/// Condense ServerMetrics into the wire snapshot (percentiles evaluated
/// from the split queue-wait / execute histograms).
StatsSnapshot snapshot_from(const serve::ServerMetrics& m);

std::vector<std::uint8_t> make_stats_response(std::uint64_t request_id,
                                              const StatsSnapshot& s);
StatsSnapshot parse_stats_response(const Frame& f);

// ---------------------------------------------------------------------------
// Matrix payload round-trip, riding the registry's Tag-dispatched
// serialization.

/// Serialize through the registry's serialize hook for `format` (throws for
/// formats without an on-disk form).
std::vector<std::uint8_t> matrix_to_bro_bytes(const core::Matrix& m,
                                              core::Format format);

/// Reconstruct a Matrix from a tagged .bro stream, decoded in place straight
/// to CSR (exact — indices and values are stored losslessly), so the server
/// plans from the same CSR the uploader held. Throws std::runtime_error on
/// malformed bytes.
core::Matrix matrix_from_bro_bytes(std::span<const std::uint8_t> bytes);

} // namespace bro::net
