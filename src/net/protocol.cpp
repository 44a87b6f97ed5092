#include "net/protocol.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <ostream>
#include <streambuf>

#include "core/serialize.h"
#include "engine/format_registry.h"
#include "sparse/convert.h"
#include "util/error.h"

namespace bro::net {

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing: return "PING";
    case Op::kSubmit: return "SUBMIT";
    case Op::kUploadMatrix: return "UPLOAD_MATRIX";
    case Op::kRemove: return "REMOVE";
    case Op::kStats: return "STATS";
    case Op::kDrain: return "DRAIN";
  }
  return "UNKNOWN";
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "OK";
    case Status::kQueueFull: return "QUEUE_FULL";
    case Status::kShed: return "SHED";
    case Status::kThrottled: return "THROTTLED";
    case Status::kUnknownMatrix: return "UNKNOWN_MATRIX";
    case Status::kBadRequest: return "BAD_REQUEST";
    case Status::kInternalError: return "INTERNAL_ERROR";
    case Status::kShuttingDown: return "SHUTTING_DOWN";
  }
  return "UNKNOWN";
}

Status status_for(serve::RejectCause cause) {
  switch (cause) {
    case serve::RejectCause::kQueueFull: return Status::kQueueFull;
    case serve::RejectCause::kShed: return Status::kShed;
    case serve::RejectCause::kThrottled: return Status::kThrottled;
  }
  return Status::kInternalError;
}

namespace {

/// A frame is encoded into one buffer: the header slot is reserved up
/// front, the payload written in place behind it, and the header patched
/// in by finish_frame once the payload length is known.
ByteWriter frame_writer(std::size_t payload_hint = 0) {
  ByteWriter w;
  w.reserve(kFrameHeaderBytes + payload_hint);
  w.put<std::uint64_t>(0);
  w.put<std::uint64_t>(0);
  return w;
}

/// `tail_bytes` counts payload bytes that follow `w` in a gathered write.
std::vector<std::uint8_t> finish_frame(ByteWriter&& w, FrameKind kind,
                                       std::uint8_t code,
                                       std::uint64_t request_id,
                                       std::size_t tail_bytes = 0) {
  const std::size_t payload = w.size() - kFrameHeaderBytes + tail_bytes;
  BRO_CHECK_MSG(payload <= UINT32_MAX,
                "frame payload of " << payload << " B exceeds the u32 length");
  w.put_at<std::uint32_t>(0, static_cast<std::uint32_t>(payload));
  w.put_at<std::uint8_t>(4, kProtocolVersion);
  w.put_at<std::uint8_t>(5, static_cast<std::uint8_t>(kind));
  w.put_at<std::uint8_t>(6, code);
  w.put_at<std::uint8_t>(7, 0); // reserved
  w.put_at<std::uint64_t>(8, request_id);
  return w.take();
}

} // namespace

std::vector<std::uint8_t> encode_frame(FrameKind kind, std::uint8_t code,
                                       std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload) {
  ByteWriter w = frame_writer(payload.size());
  w.put_bytes(payload.data(), payload.size());
  return finish_frame(std::move(w), kind, code, request_id);
}

std::span<std::uint8_t> FrameAssembler::direct_tail() {
  if (!pending_) return {};
  Payload& p = pending_->payload;
  return {p.data() + filled_, p.size() - filled_};
}

void FrameAssembler::commit_direct(std::size_t n) {
  BRO_CHECK(n <= direct_tail().size());
  filled_ += n;
}

void FrameAssembler::append(const std::uint8_t* data, std::size_t n) {
  const std::span<std::uint8_t> tail = direct_tail();
  const std::size_t direct = std::min(n, tail.size());
  if (direct > 0) {
    std::memcpy(tail.data(), data, direct);
    filled_ += direct;
    data += direct;
    n -= direct;
  }
  if (n == 0) return;
  // Compact once the consumed prefix dominates. Compaction only moves
  // bytes: the capacity a burst of appends grew is given back by next()
  // once staging drains.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameAssembler::next() {
  if (pending_) {
    if (!direct_tail().empty()) return std::nullopt;
    std::optional<Frame> f = std::move(pending_);
    pending_.reset();
    return f;
  }
  if (buffered() < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* h = buf_.data() + pos_;
  FrameHeader header;
  std::memcpy(&header.payload_len, h, 4);
  header.version = h[4];
  const std::uint8_t kind = h[5];
  header.code = h[6];
  const std::uint8_t reserved = h[7];
  std::memcpy(&header.request_id, h + 8, 8);

  if (header.version != kProtocolVersion)
    throw ProtocolError("frame version " + std::to_string(header.version) +
                        " != " + std::to_string(kProtocolVersion));
  if (kind > 1)
    throw ProtocolError("frame kind " + std::to_string(kind) + " is not 0/1");
  if (reserved != 0) throw ProtocolError("frame reserved byte is not 0");
  if (header.payload_len > max_frame_bytes_)
    throw ProtocolError("frame payload " + std::to_string(header.payload_len) +
                        " B exceeds the " + std::to_string(max_frame_bytes_) +
                        " B bound");
  header.kind = static_cast<FrameKind>(kind);

  const std::size_t len = header.payload_len;
  const std::size_t staged = std::min(buffered() - kFrameHeaderBytes, len);
  if (staged < len && len <= kRecvChunkBytes) return std::nullopt;

  Frame f;
  f.header = header;
  try {
    f.payload = Payload(len);
  } catch (const std::bad_alloc&) {
    throw ProtocolError("cannot allocate a frame payload of " +
                        std::to_string(len) + " B");
  }
  if (staged > 0) std::memcpy(f.payload.data(), h + kFrameHeaderBytes, staged);
  pos_ += kFrameHeaderBytes + staged;
  if (pos_ == buf_.size()) {
    // Drained: reuse the buffer, but give back what one burst of appends
    // grew it to.
    buf_.clear();
    pos_ = 0;
    if (buf_.capacity() > 2 * kRecvChunkBytes) buf_.shrink_to_fit();
  }
  if (staged < len) {
    // A large frame: the rest of its payload lands straight in it.
    pending_ = std::move(f);
    filled_ = staged;
    return std::nullopt;
  }
  return f;
}

namespace {

std::vector<std::uint8_t> request_frame(std::uint64_t request_id, Op op,
                                        ByteWriter&& frame,
                                        std::size_t tail_bytes = 0) {
  return finish_frame(std::move(frame), FrameKind::kRequest,
                      static_cast<std::uint8_t>(op), request_id, tail_bytes);
}

std::vector<std::uint8_t> response_frame(std::uint64_t request_id,
                                         Status status, ByteWriter&& frame) {
  return finish_frame(std::move(frame), FrameKind::kResponse,
                      static_cast<std::uint8_t>(status), request_id);
}

ByteReader payload_reader(const Frame& f) {
  return ByteReader(f.payload.data(), f.payload.size());
}

std::vector<std::uint8_t> joined(FrameParts parts) {
  parts.head.insert(parts.head.end(), parts.tail.begin(), parts.tail.end());
  return std::move(parts.head);
}

/// An output stream buffer that appends what is written to a byte vector,
/// so a writer's bytes land in the vector without an intermediate copy.
class VectorStreamBuf : public std::streambuf {
 public:
  explicit VectorStreamBuf(std::vector<std::uint8_t>& out) : out_(out) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto* p = reinterpret_cast<const std::uint8_t*>(s);
    out_.insert(out_.end(), p, p + n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof()))
      out_.push_back(static_cast<std::uint8_t>(c));
    return traits_type::not_eof(c);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

} // namespace

FrameParts submit_request_parts(std::uint64_t request_id,
                                const std::string& matrix_id,
                                const std::string& client_id,
                                std::span<const value_t> x) {
  ByteWriter w = frame_writer(4 + matrix_id.size() + 4 + client_id.size() + 8);
  w.put_string(matrix_id);
  w.put_string(client_id);
  w.put<std::uint64_t>(x.size());
  const auto tail = std::as_bytes(x);
  return {request_frame(request_id, Op::kSubmit, std::move(w), tail.size()),
          {reinterpret_cast<const std::uint8_t*>(tail.data()), tail.size()}};
}

std::vector<std::uint8_t> make_submit_request(std::uint64_t request_id,
                                              const std::string& matrix_id,
                                              const std::string& client_id,
                                              std::span<const value_t> x) {
  return joined(submit_request_parts(request_id, matrix_id, client_id, x));
}

SubmitRequest parse_submit_request(const Frame& f) {
  auto r = payload_reader(f);
  SubmitRequest req;
  req.matrix_id = r.get_string();
  req.client_id = r.get_string();
  req.x = r.get_array<value_t>();
  BRO_CHECK_MSG(r.done(), "trailing bytes after SUBMIT payload");
  return req;
}

std::vector<std::uint8_t> make_vector_response(std::uint64_t request_id,
                                               std::span<const value_t> y) {
  ByteWriter w = frame_writer(8 + y.size_bytes());
  w.put_array<value_t>(y);
  return response_frame(request_id, Status::kOk, std::move(w));
}

std::vector<value_t> parse_vector_response(const Frame& f) {
  auto r = payload_reader(f);
  auto y = r.get_array<value_t>();
  BRO_CHECK_MSG(r.done(), "trailing bytes after vector payload");
  return y;
}

std::vector<std::uint8_t> make_error_response(std::uint64_t request_id,
                                              Status status,
                                              std::uint64_t queue_depth,
                                              const std::string& message) {
  ByteWriter w = frame_writer();
  w.put<std::uint64_t>(queue_depth);
  w.put_string(message);
  return response_frame(request_id, status, std::move(w));
}

ErrorInfo parse_error_response(const Frame& f) {
  auto r = payload_reader(f);
  ErrorInfo e;
  e.status = f.status();
  e.queue_depth = r.get<std::uint64_t>();
  e.message = r.get_string();
  return e;
}

FrameParts upload_request_parts(std::uint64_t request_id,
                                const std::string& matrix_id,
                                std::span<const std::uint8_t> bro_bytes) {
  ByteWriter w = frame_writer(4 + matrix_id.size() + 8);
  w.put_string(matrix_id);
  w.put<std::uint64_t>(bro_bytes.size());
  return {request_frame(request_id, Op::kUploadMatrix, std::move(w),
                        bro_bytes.size()),
          bro_bytes};
}

std::vector<std::uint8_t> make_upload_request(
    std::uint64_t request_id, const std::string& matrix_id,
    std::span<const std::uint8_t> bro_bytes) {
  return joined(upload_request_parts(request_id, matrix_id, bro_bytes));
}

UploadRequest parse_upload_request(const Frame& f) {
  auto r = payload_reader(f);
  UploadRequest req;
  req.matrix_id = r.get_string();
  req.bro_bytes = r.get_array_bytes<std::uint8_t>();
  BRO_CHECK_MSG(r.done(), "trailing bytes after UPLOAD_MATRIX payload");
  return req;
}

std::vector<std::uint8_t> make_upload_ack(std::uint64_t request_id,
                                          const UploadAck& ack) {
  ByteWriter w = frame_writer();
  w.put<std::uint64_t>(ack.rows);
  w.put<std::uint64_t>(ack.cols);
  w.put<std::uint64_t>(ack.nnz);
  return response_frame(request_id, Status::kOk, std::move(w));
}

UploadAck parse_upload_ack(const Frame& f) {
  auto r = payload_reader(f);
  UploadAck ack;
  ack.rows = r.get<std::uint64_t>();
  ack.cols = r.get<std::uint64_t>();
  ack.nnz = r.get<std::uint64_t>();
  return ack;
}

std::vector<std::uint8_t> make_remove_request(std::uint64_t request_id,
                                              const std::string& matrix_id) {
  ByteWriter w = frame_writer();
  w.put_string(matrix_id);
  return request_frame(request_id, Op::kRemove, std::move(w));
}

std::string parse_remove_request(const Frame& f) {
  auto r = payload_reader(f);
  auto id = r.get_string();
  BRO_CHECK_MSG(r.done(), "trailing bytes after REMOVE payload");
  return id;
}

std::vector<std::uint8_t> make_bool_response(std::uint64_t request_id,
                                             bool value) {
  ByteWriter w = frame_writer();
  w.put<std::uint8_t>(value ? 1 : 0);
  return response_frame(request_id, Status::kOk, std::move(w));
}

bool parse_bool_response(const Frame& f) {
  auto r = payload_reader(f);
  return r.get<std::uint8_t>() != 0;
}

std::vector<std::uint8_t> make_empty_request(std::uint64_t request_id, Op op) {
  return request_frame(request_id, op, frame_writer());
}

std::vector<std::uint8_t> make_ok_response(std::uint64_t request_id) {
  return response_frame(request_id, Status::kOk, frame_writer());
}

StatsSnapshot snapshot_from(const serve::ServerMetrics& m) {
  StatsSnapshot s;
  s.submitted = m.submitted;
  s.rejected = m.rejected;
  s.shed = m.shed;
  s.throttled = m.throttled;
  s.queue_full = m.rejected - m.shed - m.throttled;
  s.served = m.served;
  s.failed = m.failed;
  s.batches = m.batches;
  s.wait_count = m.queue_wait.count();
  s.exec_count = m.execute.count();
  s.wait_p50 = m.queue_wait.percentile(50);
  s.wait_p99 = m.queue_wait.percentile(99);
  s.wait_mean = m.queue_wait.mean();
  s.exec_p50 = m.execute.percentile(50);
  s.exec_p99 = m.execute.percentile(99);
  s.exec_mean = m.execute.mean();
  return s;
}

std::vector<std::uint8_t> make_stats_response(std::uint64_t request_id,
                                              const StatsSnapshot& s) {
  ByteWriter w = frame_writer();
  w.put(s.submitted);
  w.put(s.rejected);
  w.put(s.queue_full);
  w.put(s.shed);
  w.put(s.throttled);
  w.put(s.served);
  w.put(s.failed);
  w.put(s.batches);
  // Reserved until STATS v2: the slot that carried sharded_batches, always
  // zero now, kept so v1 payloads stay byte-identical.
  w.put(std::uint64_t{0});
  w.put(s.wait_count);
  w.put(s.exec_count);
  w.put(s.wait_p50);
  w.put(s.wait_p99);
  w.put(s.wait_mean);
  w.put(s.exec_p50);
  w.put(s.exec_p99);
  w.put(s.exec_mean);
  return response_frame(request_id, Status::kOk, std::move(w));
}

StatsSnapshot parse_stats_response(const Frame& f) {
  auto r = payload_reader(f);
  StatsSnapshot s;
  s.submitted = r.get<std::uint64_t>();
  s.rejected = r.get<std::uint64_t>();
  s.queue_full = r.get<std::uint64_t>();
  s.shed = r.get<std::uint64_t>();
  s.throttled = r.get<std::uint64_t>();
  s.served = r.get<std::uint64_t>();
  s.failed = r.get<std::uint64_t>();
  s.batches = r.get<std::uint64_t>();
  (void)r.get<std::uint64_t>(); // reserved slot
  s.wait_count = r.get<std::uint64_t>();
  s.exec_count = r.get<std::uint64_t>();
  s.wait_p50 = r.get<double>();
  s.wait_p99 = r.get<double>();
  s.wait_mean = r.get<double>();
  s.exec_p50 = r.get<double>();
  s.exec_p99 = r.get<double>();
  s.exec_mean = r.get<double>();
  BRO_CHECK_MSG(r.done(), "trailing bytes after STATS payload");
  return s;
}

std::vector<std::uint8_t> matrix_to_bro_bytes(const core::Matrix& m,
                                              core::Format format) {
  const auto& t = engine::traits(format);
  BRO_CHECK_MSG(t.serialize != nullptr,
                t.name << " has no serialized form (use a BRO format)");
  std::vector<std::uint8_t> bytes;
  VectorStreamBuf buf(bytes);
  std::ostream out(&buf);
  // A failed allocation in the buffer propagates instead of leaving the
  // bytes silently cut short.
  out.exceptions(std::ios::badbit);
  t.serialize(out, t.make(engine::borrow_csr(m.csr()), m.options()).get());
  return bytes;
}

core::Matrix matrix_from_bro_bytes(std::span<const std::uint8_t> bytes) {
  // Decoded in place: no copy of the upload is made on the way to CSR. The
  // tag dispatch lives in core::read_bro_to_csr, so uploads accept every
  // serializable format automatically.
  return core::Matrix::from_csr(core::read_bro_to_csr(bytes));
}

} // namespace bro::net
