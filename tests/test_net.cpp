// bro::net tests: wire-payload round-trips through every registered
// serializable format, frame reassembly and corruption handling, and the
// loopback server — end-to-end answers bitwise-identical to in-process
// submit, every serve-layer refusal surfaced as its typed status, counter
// reconciliation against STATS, and graceful shutdown under load.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bcsr_gate_reference.h"
#include "engine/format_registry.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/server.h"
#include "sparse/matgen/adversarial.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"
#include "util/rng.h"

namespace bn = bro::net;
namespace bc = bro::core;
namespace be = bro::engine;
namespace bv = bro::serve;
using bro::index_t;
using bro::value_t;

namespace {

bc::Matrix make_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  bro::sparse::GenSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.mu = 7;
  spec.sigma = 3;
  spec.seed = seed;
  return bc::Matrix::from_csr(bro::sparse::generate(spec));
}

std::vector<value_t> random_x(index_t n, std::uint64_t seed) {
  bro::Rng rng(seed);
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

/// Raw TCP connection speaking hand-built frames: the tests that pipeline
/// several ops in one send (deterministic queue pressure) or send garbage
/// (protocol-error handling) need byte-level control NetClient hides.
struct RawConn {
  bro::UniqueFd fd;
  bn::FrameAssembler assembler;

  explicit RawConn(int port) {
    fd.reset(::socket(AF_INET, SOCK_STREAM, 0));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd.get(), bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next frame, reading as needed. nullopt = server closed the connection.
  std::optional<bn::Frame> recv_frame() {
    for (;;) {
      if (auto f = assembler.next()) return f;
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      assembler.append(buf, static_cast<std::size_t>(n));
    }
  }
};

/// Resident set size of this process, from /proc/self/statm.
std::int64_t resident_bytes() {
  std::ifstream in("/proc/self/statm");
  std::int64_t pages = 0, resident = 0;
  in >> pages >> resident;
  return resident * ::sysconf(_SC_PAGESIZE);
}

constexpr std::int64_t kMiB = std::int64_t{1} << 20;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  bro::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// A frame header alone, announcing `payload_len` bytes.
std::vector<std::uint8_t> header_announcing(
    std::uint32_t payload_len, bn::Op op = bn::Op::kUploadMatrix) {
  auto h = bn::make_empty_request(1, op);
  std::memcpy(h.data(), &payload_len, 4);
  return h;
}

/// How a simulated reader hands stream bytes to a FrameAssembler: append()
/// only, reads into direct_tail() whenever one is armed (the socket loops'
/// rule), or a random choice between the two on every read.
enum class Feed { kAppend, kDirect, kMixed };

/// Feed `stream` in random read sizes (tiny and up to a full chunk),
/// draining next() after every read as the socket loops do.
std::vector<bn::Frame> reassemble(bn::FrameAssembler& fa,
                                  std::span<const std::uint8_t> stream,
                                  Feed feed, std::uint64_t seed) {
  bro::Rng rng(seed);
  std::vector<bn::Frame> out;
  for (std::size_t off = 0; off < stream.size();) {
    std::size_t n = rng.below(2) == 0 ? 1 + rng.below(40)
                                      : 1 + rng.below(bn::kRecvChunkBytes);
    n = std::min(n, stream.size() - off);
    const std::span<std::uint8_t> tail = fa.direct_tail();
    const bool direct = !tail.empty() &&
                        (feed == Feed::kDirect ||
                         (feed == Feed::kMixed && rng.below(2) == 0));
    if (direct) {
      n = std::min(n, tail.size());
      std::memcpy(tail.data(), stream.data() + off, n);
      fa.commit_direct(n);
    } else {
      fa.append(stream.data() + off, n);
    }
    off += n;
    while (auto f = fa.next()) out.push_back(std::move(*f));
  }
  return out;
}

/// Every registered format that has a serialized form.
std::vector<const be::FormatTraits*> serializable_formats() {
  std::vector<const be::FormatTraits*> out;
  for (const auto& t : be::format_registry())
    if (t.serialize) out.push_back(&t);
  return out;
}

} // namespace

// ---------------------------------------------------------------------------
// Wire-payload round-trip: every registry format survives
// serialize -> frame -> reassemble -> parse -> deserialize bitwise.

/// Whether matrix_to_bro_bytes refuses `csr` in format `t`: only a format
/// that pads its rows, past the ELL expansion bound.
bool writer_refuses(const be::FormatTraits& t, const bro::sparse::Csr& csr,
                    double max_ell_expand) {
  return t.pads_rows && !be::ell_padding_fits(csr, max_ell_expand);
}

TEST(Protocol, EveryRegistryFormatRoundTripsBitwise) {
  const bc::Matrix m = make_matrix(96, 80, 42);
  const auto formats = serializable_formats();
  ASSERT_GE(formats.size(), 5u); // all five BRO formats serialize
  for (const auto* t : formats) {
    SCOPED_TRACE(t->name);
    ASSERT_FALSE(writer_refuses(*t, m.csr(), m.options().max_ell_expand));
    const auto bytes = bn::matrix_to_bro_bytes(m, t->format);

    // Through a frame, reassembled from awkward split points.
    const auto frame_bytes = bn::make_upload_request(7, "m", bytes);
    bn::FrameAssembler fa;
    const std::size_t cut = frame_bytes.size() / 3 + 1;
    for (std::size_t off = 0; off < frame_bytes.size(); off += cut) {
      const std::size_t n = std::min(cut, frame_bytes.size() - off);
      if (off + n < frame_bytes.size())
        EXPECT_FALSE(fa.next().has_value());
      fa.append(frame_bytes.data() + off, n);
    }
    auto frame = fa.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->op(), bn::Op::kUploadMatrix);
    EXPECT_EQ(frame->header.request_id, 7u);
    bn::Upload up = bn::decode_upload(*frame);
    EXPECT_EQ(up.matrix_id, "m");

    // Deserialize and re-serialize: the round trip must be lossless, so
    // the re-encoded stream is bitwise identical.
    const bc::Matrix& back = up.matrix;
    EXPECT_EQ(back.rows(), m.rows());
    EXPECT_EQ(back.cols(), m.cols());
    EXPECT_EQ(back.nnz(), m.nnz());
    EXPECT_EQ(bn::matrix_to_bro_bytes(back, t->format), bytes);
  }
}

TEST(Protocol, UploadBytesAreTheWritersBytes) {
  // matrix_to_bro_bytes writes into its result directly; its bytes must be
  // what the format's writer puts on an ostringstream. A format that pads
  // its rows refuses a matrix past the ELL expansion bound, as a typed
  // error naming the format and max_ell_expand, before anything is padded:
  // rajat30's BRO-ELL stream alone would be 543 MB.
  for (const auto& c : bro::oracle::gate_cases()) {
    const bc::Matrix m = bc::Matrix::from_csr(c.csr);
    for (const auto* t : serializable_formats()) {
      SCOPED_TRACE(c.name + " " + t->name);
      if (writer_refuses(*t, c.csr, m.options().max_ell_expand)) {
        try {
          bn::matrix_to_bro_bytes(m, t->format);
          ADD_FAILURE() << "a matrix past the expansion bound was padded";
        } catch (const be::NotApplicableError& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find(t->name), std::string::npos) << what;
          EXPECT_NE(what.find("max_ell_expand"), std::string::npos) << what;
        }
        continue;
      }
      std::ostringstream out(std::ios::binary);
      try {
        t->serialize(out, t->make(be::borrow_csr(m.csr()), m.options()).get());
      } catch (const std::exception&) {
        EXPECT_ANY_THROW(bn::matrix_to_bro_bytes(m, t->format));
        continue;
      }
      const std::string want = out.str();
      const auto bytes = bn::matrix_to_bro_bytes(m, t->format);
      ASSERT_EQ(bytes.size(), want.size());
      EXPECT_TRUE(std::ranges::equal(bytes, want, {}, {}, [](char ch) {
        return static_cast<std::uint8_t>(ch);
      }));
    }
  }
}

TEST(Protocol, CodecsRoundTrip) {
  const std::vector<value_t> x = {1.5, -2.25, 0.0, 1e-9};
  auto f = [](std::vector<std::uint8_t> bytes) {
    bn::FrameAssembler fa;
    fa.append(bytes.data(), bytes.size());
    auto frame = fa.next();
    EXPECT_TRUE(frame.has_value());
    EXPECT_EQ(fa.buffered(), 0u);
    return std::move(*frame);
  };

  const auto sub = f(bn::make_submit_request(3, "mat", "cli", x));
  EXPECT_EQ(sub.op(), bn::Op::kSubmit);
  const auto sreq = bn::parse_submit_request(sub);
  EXPECT_EQ(sreq.matrix_id, "mat");
  EXPECT_EQ(sreq.client_id, "cli");
  EXPECT_EQ(sreq.x, x);

  EXPECT_EQ(bn::parse_vector_response(f(bn::make_vector_response(4, x))), x);

  const auto err = f(bn::make_error_response(5, bn::Status::kShed, 17, "no"));
  EXPECT_EQ(err.status(), bn::Status::kShed);
  const auto einfo = bn::parse_error_response(err);
  EXPECT_EQ(einfo.status, bn::Status::kShed);
  EXPECT_EQ(einfo.queue_depth, 17u);
  EXPECT_EQ(einfo.message, "no");

  bn::UploadAck ack{10, 20, 30};
  const auto got = bn::parse_upload_ack(f(bn::make_upload_ack(6, ack)));
  EXPECT_EQ(got.rows, 10u);
  EXPECT_EQ(got.cols, 20u);
  EXPECT_EQ(got.nnz, 30u);

  EXPECT_EQ(bn::parse_remove_request(f(bn::make_remove_request(7, "z"))), "z");
  EXPECT_TRUE(bn::parse_bool_response(f(bn::make_bool_response(8, true))));
  EXPECT_FALSE(bn::parse_bool_response(f(bn::make_bool_response(9, false))));

  bn::StatsSnapshot s;
  s.submitted = 1;
  s.rejected = 2;
  s.queue_full = 3;
  s.shed = 4;
  s.throttled = 5;
  s.served = 6;
  s.wait_p99 = 0.25;
  s.exec_p50 = 0.125;
  const auto s2 = bn::parse_stats_response(f(bn::make_stats_response(10, s)));
  EXPECT_EQ(s2.submitted, 1u);
  EXPECT_EQ(s2.queue_full, 3u);
  EXPECT_EQ(s2.throttled, 5u);
  EXPECT_EQ(s2.wait_p99, 0.25);
  EXPECT_EQ(s2.exec_p50, 0.125);
}

TEST(Protocol, StatsPayloadKeepsItsV1Layout) {
  // STATS v1 is 11 u64 then 6 f64, 136 bytes. The u64 after `batches` is a
  // reserved slot: always written as zero and skipped on parse, so every
  // other field keeps its offset and old clients read the same bytes.
  EXPECT_EQ(bn::kProtocolVersion, 1);
  bn::StatsSnapshot s;
  s.submitted = 11;
  s.rejected = 12;
  s.queue_full = 13;
  s.shed = 14;
  s.throttled = 15;
  s.served = 16;
  s.failed = 17;
  s.batches = 18;
  s.wait_count = 19;
  s.exec_count = 20;
  s.wait_p50 = 0.5;
  s.wait_p99 = 0.75;
  s.wait_mean = 1.5;
  s.exec_p50 = 2.5;
  s.exec_p99 = 3.25;
  s.exec_mean = 4.125;
  auto bytes = bn::make_stats_response(10, s);
  ASSERT_EQ(bytes.size(), bn::kFrameHeaderBytes + 136);
  const std::uint8_t* payload = bytes.data() + bn::kFrameHeaderBytes;
  const auto u64_at = [&](std::size_t off) {
    std::uint64_t v;
    std::memcpy(&v, payload + off, sizeof v);
    return v;
  };
  const auto f64_at = [&](std::size_t off) {
    double v;
    std::memcpy(&v, payload + off, sizeof v);
    return v;
  };
  const std::uint64_t counters[] = {11, 12, 13, 14, 15, 16, 17, 18,
                                    0 /* reserved */, 19, 20};
  for (std::size_t i = 0; i < std::size(counters); ++i)
    EXPECT_EQ(u64_at(8 * i), counters[i]) << "u64 slot " << i;
  const double times[] = {0.5, 0.75, 1.5, 2.5, 3.25, 4.125};
  for (std::size_t i = 0; i < std::size(times); ++i)
    EXPECT_EQ(f64_at(88 + 8 * i), times[i]) << "f64 slot " << i;

  // A nonzero reserved slot from an older peer is skipped, not misread.
  const std::uint64_t legacy = 7;
  std::memcpy(bytes.data() + bn::kFrameHeaderBytes + 64, &legacy,
              sizeof legacy);
  bn::FrameAssembler fa;
  fa.append(bytes.data(), bytes.size());
  const auto frame = fa.next();
  ASSERT_TRUE(frame.has_value());
  const auto back = bn::parse_stats_response(*frame);
  EXPECT_EQ(back.batches, 18u);
  EXPECT_EQ(back.wait_count, 19u);
  EXPECT_EQ(back.exec_count, 20u);
  EXPECT_EQ(back.exec_mean, 4.125);
}

TEST(Protocol, MapsEveryRejectCauseToDistinctStatus) {
  const auto qf = bn::status_for(bv::RejectCause::kQueueFull);
  const auto sh = bn::status_for(bv::RejectCause::kShed);
  const auto th = bn::status_for(bv::RejectCause::kThrottled);
  EXPECT_EQ(qf, bn::Status::kQueueFull);
  EXPECT_EQ(sh, bn::Status::kShed);
  EXPECT_EQ(th, bn::Status::kThrottled);
  EXPECT_NE(qf, sh);
  EXPECT_NE(sh, th);
  EXPECT_NE(qf, th);
}

TEST(Protocol, RejectsTruncatedAndCorruptFrames) {
  const auto good = bn::make_empty_request(1, bn::Op::kPing);
  ASSERT_EQ(good.size(), bn::kFrameHeaderBytes);

  { // truncated header: incomplete, never an error
    bn::FrameAssembler fa;
    fa.append(good.data(), bn::kFrameHeaderBytes - 1);
    EXPECT_FALSE(fa.next().has_value());
  }
  { // truncated payload: incomplete until the last byte arrives
    const std::vector<value_t> x = {1.0};
    const auto frame = bn::make_submit_request(2, "m", "", x);
    bn::FrameAssembler fa;
    fa.append(frame.data(), frame.size() - 1);
    EXPECT_FALSE(fa.next().has_value());
    fa.append(frame.data() + frame.size() - 1, 1);
    EXPECT_TRUE(fa.next().has_value());
  }
  { // wrong version
    auto bad = good;
    bad[4] = bn::kProtocolVersion + 1;
    bn::FrameAssembler fa;
    fa.append(bad.data(), bad.size());
    EXPECT_THROW(fa.next(), bn::ProtocolError);
  }
  { // bad kind
    auto bad = good;
    bad[5] = 9;
    bn::FrameAssembler fa;
    fa.append(bad.data(), bad.size());
    EXPECT_THROW(fa.next(), bn::ProtocolError);
  }
  { // reserved byte set
    auto bad = good;
    bad[7] = 1;
    bn::FrameAssembler fa;
    fa.append(bad.data(), bad.size());
    EXPECT_THROW(fa.next(), bn::ProtocolError);
  }
  { // oversized payload length vs the assembler's bound
    auto bad = good;
    const std::uint32_t huge = 1000;
    std::memcpy(bad.data(), &huge, 4);
    bn::FrameAssembler fa(64);
    fa.append(bad.data(), bad.size());
    EXPECT_THROW(fa.next(), bn::ProtocolError);
  }
  { // trailing bytes inside a payload are a parse error, not a frame error
    auto frame = bn::make_remove_request(3, "m");
    frame.push_back(0xAB); // extend payload by one byte
    std::uint32_t len;
    std::memcpy(&len, frame.data(), 4);
    ++len;
    std::memcpy(frame.data(), &len, 4);
    bn::FrameAssembler fa;
    fa.append(frame.data(), frame.size());
    const auto parsed = fa.next();
    ASSERT_TRUE(parsed.has_value());
    EXPECT_THROW(bn::parse_remove_request(*parsed), std::runtime_error);
  }
  { // truncated .bro payload inside a well-formed frame
    const bc::Matrix m = make_matrix(32, 32, 1);
    auto bytes = bn::matrix_to_bro_bytes(m, bc::Format::kBroEll);
    bytes.resize(bytes.size() / 2);
    EXPECT_THROW(bn::matrix_from_bro_bytes(bytes), std::runtime_error);
  }
}

TEST(Protocol, UploadIngestMatchesSourceCsrBitwise) {
  // Every serializable format x the adversarial battery x Test Set 1
  // stand-ins: an upload reassembled from random read sizes must hand the
  // server exactly the uploader's CSR.
  std::vector<bro::sparse::AdversarialCase> cases =
      bro::sparse::adversarial_suite(2);
  const auto set1 = bro::sparse::suite_test_set(1);
  for (std::size_t i = 0; i < 3 && i < set1.size(); ++i)
    cases.push_back(
        {set1[i].name, bro::sparse::generate_suite_matrix(set1[i], 0.02)});
  for (const auto& c : cases) {
    const bc::Matrix m = bc::Matrix::from_csr(c.csr);
    for (const auto* t : serializable_formats()) {
      if (!t->applicable(c.csr, 3.0)) continue;
      SCOPED_TRACE(c.name + " / " + t->name);
      const auto frame_bytes =
          bn::make_upload_request(1, "m", bn::matrix_to_bro_bytes(m, t->format));
      bn::FrameAssembler fa;
      auto frames = reassemble(fa, frame_bytes, Feed::kMixed, 5);
      ASSERT_EQ(frames.size(), 1u);
      bn::Frame& frame = frames.front();
      // A payload above the staging chunk is never held: its decoder takes
      // the bytes as they arrive.
      const bool large =
          frame_bytes.size() - bn::kFrameHeaderBytes > bn::kRecvChunkBytes;
      EXPECT_EQ(frame.upload != nullptr, large);
      EXPECT_EQ(frame.payload.size(), large ? 0 : frame.header.payload_len);
      const bc::Matrix back = bn::decode_upload(frame).matrix;
      const bro::sparse::Csr& got = back.csr();
      EXPECT_EQ(got.rows, c.csr.rows);
      EXPECT_EQ(got.cols, c.csr.cols);
      EXPECT_EQ(got.row_ptr, c.csr.row_ptr);
      EXPECT_EQ(got.col_idx, c.csr.col_idx);
      ASSERT_EQ(got.vals.size(), c.csr.vals.size());
      if (!got.vals.empty()) {
        EXPECT_EQ(std::memcmp(got.vals.data(), c.csr.vals.data(),
                              got.vals.size() * sizeof(value_t)),
                  0);
      }
    }
  }
}

TEST(Protocol, StompedArrayCountFailsBeforeAllocating) {
  // A SUBMIT whose x count claims just under the sanity bound: the parse
  // must refuse it against the bytes left, not allocate gigabytes first.
  auto frame_bytes =
      bn::make_submit_request(5, "m", "c", std::vector<value_t>(4, 1.0));
  const std::uint64_t stomp = bro::ByteReader::kSaneCount - 1;
  const std::size_t count_at = bn::kFrameHeaderBytes + 4 + 1 + 4 + 1;
  std::memcpy(frame_bytes.data() + count_at, &stomp, sizeof(stomp));
  bn::FrameAssembler fa;
  fa.append(frame_bytes.data(), frame_bytes.size());
  const auto frame = fa.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_THROW(bn::parse_submit_request(*frame), std::runtime_error);
}

TEST(Protocol, SplitPointSweepMatchesEncodedFrames) {
  // Payloads around the staging chunk, each with a small frame right behind
  // it, fed by append() in random read sizes, through the direct tail, and
  // by both mixed: every frame must come out whole, intact and in order.
  const std::size_t c = bn::kRecvChunkBytes;
  const std::vector<std::size_t> sizes = {0, 1, c - 1, c, c + 1, 3 << 20};
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::uint8_t> stream;
  std::uint64_t rid = 100;
  for (const std::size_t n : sizes) {
    payloads.push_back(random_bytes(n, n + 1));
    payloads.push_back(random_bytes(7, n + 2)); // the small frame behind it
  }
  for (const auto& p : payloads) {
    const auto f = bn::encode_frame(bn::FrameKind::kResponse,
                                    static_cast<std::uint8_t>(rid % 8), rid, p);
    stream.insert(stream.end(), f.begin(), f.end());
    ++rid;
  }

  for (const Feed feed : {Feed::kAppend, Feed::kDirect, Feed::kMixed})
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("feed " + std::to_string(static_cast<int>(feed)) +
                   " seed " + std::to_string(seed));
      bn::FrameAssembler fa;
      const auto frames = reassemble(fa, stream, feed, seed);
      ASSERT_EQ(frames.size(), payloads.size());
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const std::uint64_t want_rid = 100 + i;
        EXPECT_EQ(frames[i].header.request_id, want_rid);
        EXPECT_EQ(frames[i].header.kind, bn::FrameKind::kResponse);
        EXPECT_EQ(frames[i].header.code, want_rid % 8);
        EXPECT_EQ(frames[i].header.payload_len, payloads[i].size());
        ASSERT_TRUE(std::ranges::equal(frames[i].payload, payloads[i]))
            << "frame " << i;
      }
      EXPECT_EQ(fa.buffered(), 0u);
      EXPECT_TRUE(fa.direct_tail().empty());
    }

  { // One read carrying the end of a large payload, a whole small frame and
    // the start of the next frame.
    // (A SUBMIT: a large UPLOAD_MATRIX payload goes to its decoder.)
    const auto large = bn::encode_frame(
        bn::FrameKind::kRequest, static_cast<std::uint8_t>(bn::Op::kSubmit), 1,
        random_bytes(c + 100, 9));
    const auto small = bn::make_empty_request(2, bn::Op::kPing);
    const auto third = bn::make_remove_request(3, "m");
    std::vector<std::uint8_t> rest(large.begin() + 50, large.end());
    rest.insert(rest.end(), small.begin(), small.end());
    rest.insert(rest.end(), third.begin(), third.begin() + 5);

    bn::FrameAssembler fa;
    fa.append(large.data(), 50);
    EXPECT_FALSE(fa.next().has_value());
    // Armed: the payload is allocated and its tail awaits the rest.
    EXPECT_EQ(fa.direct_tail().size(), c + 100 - (50 - bn::kFrameHeaderBytes));
    EXPECT_EQ(fa.buffered(), 0u);
    fa.append(rest.data(), rest.size());
    const auto f1 = fa.next();
    ASSERT_TRUE(f1.has_value());
    EXPECT_EQ(f1->header.request_id, 1u);
    EXPECT_TRUE(std::ranges::equal(
        f1->payload, std::span(large).subspan(bn::kFrameHeaderBytes)));
    const auto f2 = fa.next();
    ASSERT_TRUE(f2.has_value());
    EXPECT_EQ(f2->op(), bn::Op::kPing);
    EXPECT_FALSE(fa.next().has_value());
    fa.append(third.data() + 5, third.size() - 5);
    const auto f3 = fa.next();
    ASSERT_TRUE(f3.has_value());
    EXPECT_EQ(bn::parse_remove_request(*f3), "m");
  }
}

TEST(Protocol, StagingStaysBoundedAfterLargeFrame) {
  // A 32 MB frame followed by small frames: read by the socket loops' rule
  // (chunk-sized reads, direct reads into an armed payload) the large
  // payload never passes through staging; appended in one piece, staging
  // gives the memory back once it has drained.
  const std::size_t c = bn::kRecvChunkBytes;
  const auto large = bn::encode_frame(bn::FrameKind::kRequest, 3, 1,
                                      random_bytes(32 << 20, 5));
  std::vector<std::uint8_t> stream = large;
  for (std::uint64_t r = 2; r < 2000; ++r) {
    const auto f = bn::make_remove_request(r, std::to_string(r));
    stream.insert(stream.end(), f.begin(), f.end());
  }

  {
    bn::FrameAssembler fa;
    std::size_t frames = 0, max_capacity = 0;
    for (std::size_t off = 0; off < stream.size();) {
      const std::span<std::uint8_t> tail = fa.direct_tail();
      const std::size_t n = std::min(tail.empty() ? c : tail.size(),
                                     stream.size() - off);
      if (tail.empty()) {
        fa.append(stream.data() + off, n);
      } else {
        std::memcpy(tail.data(), stream.data() + off, n);
        fa.commit_direct(n);
      }
      off += n;
      while (auto f = fa.next()) ++frames;
      max_capacity = std::max(max_capacity, fa.staging_capacity());
    }
    EXPECT_EQ(frames, 1999u);
    EXPECT_LE(max_capacity, 2 * c);
  }
  {
    bn::FrameAssembler fa;
    fa.append(stream.data(), stream.size());
    std::size_t frames = 0;
    while (auto f = fa.next()) ++frames;
    EXPECT_EQ(frames, 1999u);
    EXPECT_LE(fa.staging_capacity(), 2 * c);
  }
}

TEST(Protocol, HostileLengthCostsOnlyTheBytesSent) {
  // A SUBMIT header announcing 512 MB, then a few bytes: the payload is
  // allocated but never zero-filled, so resident memory follows the bytes
  // received. (An upload allocates no payload at all,
  // Protocol.UploadHoldsNoWholePayload.)
  constexpr std::uint32_t kAnnounced = 512u << 20;
  auto bytes = header_announcing(kAnnounced, bn::Op::kSubmit);
  const auto few = random_bytes(64, 3);
  bytes.insert(bytes.end(), few.begin(), few.end());

  const std::int64_t before = resident_bytes();
  {
    bn::FrameAssembler fa;
    fa.append(bytes.data(), bytes.size());
    EXPECT_FALSE(fa.next().has_value());
    EXPECT_EQ(fa.direct_tail().size(), kAnnounced - few.size());
    EXPECT_LT(resident_bytes() - before, 4 * kMiB);
  }

  // A corrupt header must throw before its length sizes anything.
  const auto corrupt = [&](std::size_t at, std::uint8_t value,
                           std::size_t max_frame) {
    auto bad = header_announcing(kAnnounced);
    if (at < bad.size()) bad[at] = value;
    bn::FrameAssembler fa(max_frame);
    fa.append(bad.data(), bad.size());
    const std::size_t mapped = ::mallinfo2().hblkhd;
    EXPECT_THROW(fa.next(), bn::ProtocolError);
    EXPECT_EQ(::mallinfo2().hblkhd, mapped);
    EXPECT_TRUE(fa.direct_tail().empty());
  };
  corrupt(4, bn::kProtocolVersion + 1, bn::kDefaultMaxFrameBytes); // version
  corrupt(5, 2, bn::kDefaultMaxFrameBytes);                        // kind
  corrupt(7, 1, bn::kDefaultMaxFrameBytes);                        // reserved
  corrupt(bn::kFrameHeaderBytes, 0, kAnnounced - 1);               // oversized
}

TEST(Protocol, GatheredPartsMatchEncodedFrames) {
  // The parts a client writes from the caller's buffer, joined, are the
  // make_* frame, and both match a frame built by the generic encoder.
  const auto bro = random_bytes(3 << 20, 11);
  const auto up = bn::upload_request_parts(4, "mat", bro);
  EXPECT_EQ(up.tail.data(), bro.data()); // the caller's bytes, not a copy
  std::vector<std::uint8_t> joined = up.head;
  joined.insert(joined.end(), up.tail.begin(), up.tail.end());
  EXPECT_EQ(joined, bn::make_upload_request(4, "mat", bro));
  bro::ByteWriter w;
  w.put_string("mat");
  w.put_array<std::uint8_t>(bro);
  EXPECT_EQ(joined, bn::encode_frame(bn::FrameKind::kRequest,
                                     static_cast<std::uint8_t>(
                                         bn::Op::kUploadMatrix),
                                     4, w.bytes()));

  const auto x = random_x(20000, 12);
  const auto sub = bn::submit_request_parts(5, "mat", "cli", x);
  joined = sub.head;
  joined.insert(joined.end(), sub.tail.begin(), sub.tail.end());
  EXPECT_EQ(joined, bn::make_submit_request(5, "mat", "cli", x));
  bro::ByteWriter sw;
  sw.put_string("mat");
  sw.put_string("cli");
  sw.put_array<value_t>(x);
  EXPECT_EQ(joined,
            bn::encode_frame(bn::FrameKind::kRequest,
                             static_cast<std::uint8_t>(bn::Op::kSubmit), 5,
                             sw.bytes()));
}

// ---------------------------------------------------------------------------
// Loopback server.

TEST(NetServer, LoopbackMatchesInProcessBitwise) {
  bv::ServerOptions sopts;
  sopts.threads = 2;
  sopts.max_batch = 4;
  bv::SpmvServer remote_core(sopts);
  bn::NetServer server(remote_core, {});
  server.start();

  const bc::Matrix m = make_matrix(200, 160, 7);
  const auto bytes = bn::matrix_to_bro_bytes(m, bc::Format::kBroHyb);

  bn::NetClient cli("127.0.0.1", server.port());
  cli.ping();
  const auto ack = cli.upload_matrix("A", bytes);
  EXPECT_EQ(ack.rows, 200u);
  EXPECT_EQ(ack.cols, 160u);
  EXPECT_EQ(ack.nnz, m.nnz());

  // The in-process twin: same options, a matrix built from the same wire
  // bytes. Loopback answers must match its submit() bit for bit.
  bv::SpmvServer local(sopts);
  local.add_matrix("A", bn::matrix_from_bro_bytes(bytes));

  for (int r = 0; r < 8; ++r) {
    const auto x = random_x(160, 100 + static_cast<std::uint64_t>(r));
    const std::vector<value_t> want = local.submit("A", x).get();
    const std::vector<value_t> got = cli.submit("A", x);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "row " << i << " round " << r;
  }

  // Pipelined: many in-flight ids on one connection, answered by id.
  std::vector<std::uint64_t> rids;
  std::vector<std::vector<value_t>> xs;
  for (int r = 0; r < 16; ++r) {
    xs.push_back(random_x(160, 500 + static_cast<std::uint64_t>(r)));
    rids.push_back(cli.enqueue_submit("A", xs.back()));
  }
  cli.flush();
  for (std::size_t r = rids.size(); r-- > 0;) { // reverse wait order
    const auto res = cli.wait_submit(rids[r]);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.y, local.submit("A", xs[r]).get());
  }

  server.stop();
}

TEST(NetServer, TypedStatusesForEveryRefusal) {
  // Synchronous core: the event loop is the only dispatcher, so a burst of
  // frames in one TCP segment meets the queue exactly as sent.
  bv::ServerOptions sopts;
  sopts.threads = 0;
  sopts.admission.rate = 1e-9; // effectively never refills
  sopts.admission.burst = 1;   // one token per client, ever
  bv::SpmvServer core(sopts);
  bn::NetServer server(core, {});
  server.start();

  const bc::Matrix m = make_matrix(64, 48, 3);
  bn::NetClient cli("127.0.0.1", server.port());
  cli.upload_matrix("A", bn::matrix_to_bro_bytes(m, bc::Format::kBroEll));
  const auto x = random_x(48, 9);

  { // unknown matrix
    try {
      cli.submit("nope", x);
      FAIL() << "expected RpcError";
    } catch (const bn::RpcError& e) {
      EXPECT_EQ(e.status(), bn::Status::kUnknownMatrix);
    }
  }
  { // wrong x size
    try {
      cli.submit("A", random_x(5, 1));
      FAIL() << "expected RpcError";
    } catch (const bn::RpcError& e) {
      EXPECT_EQ(e.status(), bn::Status::kBadRequest);
    }
  }
  { // token bucket: first submit spends the only token, second throttles
    EXPECT_EQ(cli.submit("A", x, "alice").size(), 64u);
    try {
      cli.submit("A", x, "alice");
      FAIL() << "expected RpcError";
    } catch (const bn::RpcError& e) {
      EXPECT_EQ(e.status(), bn::Status::kThrottled);
    }
    // A different client id holds its own token.
    EXPECT_EQ(cli.submit("A", x, "bob").size(), 64u);
  }
  { // unknown op answers kBadRequest; the connection survives
    RawConn raw(server.port());
    raw.send_bytes(bn::encode_frame(bn::FrameKind::kRequest, 99, 1, {}));
    const auto resp = raw.recv_frame();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status(), bn::Status::kBadRequest);
    raw.send_bytes(bn::make_empty_request(2, bn::Op::kPing));
    const auto pong = raw.recv_frame();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->status(), bn::Status::kOk);
  }

  const auto stats = cli.stats();
  EXPECT_EQ(stats.throttled, 1u);
  EXPECT_EQ(stats.rejected, stats.queue_full + stats.shed + stats.throttled);
  server.stop();
}

TEST(NetServer, PipelinedBurstGetsQueueFullAndReconciles) {
  bv::ServerOptions sopts;
  sopts.threads = 0; // only the loop serves: buffered frames meet a full queue
  sopts.max_queue = 1;
  sopts.max_batch = 1;
  bv::SpmvServer core(sopts);
  bn::NetServer server(core, {});
  server.start();

  const bc::Matrix m = make_matrix(32, 24, 5);
  bn::NetClient cli("127.0.0.1", server.port());
  cli.upload_matrix("A", bn::matrix_to_bro_bytes(m, bc::Format::kBroEll));
  const auto x = random_x(24, 11);

  // One send carrying many SUBMITs: the loop handles them back to back, so
  // with max_queue == 1 the burst must overflow (TCP may split the burst
  // across reads, so "how many" is not pinned — "at least one" and exact
  // counter reconciliation are).
  constexpr int kBurst = 8;
  std::vector<std::uint64_t> rids;
  for (int r = 0; r < kBurst; ++r) rids.push_back(cli.enqueue_submit("A", x));
  cli.flush();
  std::uint64_t ok = 0, queue_full = 0;
  for (const auto rid : rids) {
    const auto res = cli.wait_submit(rid);
    if (res.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(res.status, bn::Status::kQueueFull);
      EXPECT_GE(res.queue_depth, 1u);
      ++queue_full;
    }
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GE(queue_full, 1u);
  EXPECT_EQ(ok + queue_full, static_cast<std::uint64_t>(kBurst));

  const auto stats = cli.stats();
  EXPECT_EQ(stats.queue_full, queue_full);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.throttled, 0u);
  EXPECT_EQ(stats.served, ok);
  server.stop();
}

TEST(NetServer, ShedStatusAtConfiguredDepth) {
  bv::ServerOptions sopts;
  sopts.threads = 0;
  sopts.max_queue = 64;
  sopts.admission.shed_depth = 1; // shed as soon as one request is pending
  bv::SpmvServer core(sopts);
  bn::NetServer server(core, {});
  server.start();

  const bc::Matrix m = make_matrix(32, 24, 6);
  bn::NetClient cli("127.0.0.1", server.port());
  cli.upload_matrix("A", bn::matrix_to_bro_bytes(m, bc::Format::kBroEll));
  const auto x = random_x(24, 13);

  std::vector<std::uint64_t> rids;
  for (int r = 0; r < 8; ++r) rids.push_back(cli.enqueue_submit("A", x));
  cli.flush();
  std::uint64_t ok = 0, shed = 0;
  for (const auto rid : rids) {
    const auto res = cli.wait_submit(rid);
    if (res.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(res.status, bn::Status::kShed);
      ++shed;
    }
  }
  EXPECT_GE(shed, 1u);
  const auto stats = cli.stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.served, ok);
  server.stop();
}

TEST(NetServer, CorruptFrameClosesOnlyThatConnection) {
  bv::ServerOptions sopts;
  sopts.threads = 0;
  bv::SpmvServer core(sopts);
  bn::NetServer server(core, {});
  server.start();

  bn::NetClient healthy("127.0.0.1", server.port());

  RawConn corrupt(server.port());
  std::vector<std::uint8_t> garbage(32, 0xFF);
  corrupt.send_bytes(garbage);
  EXPECT_FALSE(corrupt.recv_frame().has_value()); // server closed it

  healthy.ping(); // the healthy connection is unaffected

  for (int i = 0; i < 100 && server.stats().protocol_errors == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  server.stop();
}

TEST(NetServer, DrainFlushesInFlightThenCloses) {
  bv::ServerOptions sopts;
  sopts.threads = 2;
  bv::SpmvServer core(sopts);
  bn::NetServer server(core, {});
  server.start();

  const bc::Matrix m = make_matrix(128, 96, 8);
  const auto bytes = bn::matrix_to_bro_bytes(m, bc::Format::kBroHyb);
  bn::NetClient cli("127.0.0.1", server.port());
  cli.upload_matrix("A", bytes);

  // Pipeline work, then DRAIN on a second connection while it is in
  // flight: every queued submit must still be answered (flushed), after
  // which the server closes connections and run() returns.
  std::vector<std::uint64_t> rids;
  const auto x = random_x(96, 21);
  for (int r = 0; r < 32; ++r) rids.push_back(cli.enqueue_submit("A", x));
  cli.flush();

  bn::NetClient drainer("127.0.0.1", server.port());
  drainer.drain();
  EXPECT_TRUE(server.draining());

  std::uint64_t answered = 0;
  for (const auto rid : rids) {
    const auto res = cli.wait_submit(rid);
    // Every id gets a response: a real y, or a typed shutdown refusal for
    // submits that arrived after the drain began. Never a dropped frame.
    if (res.ok()) {
      EXPECT_EQ(res.y.size(), 128u);
    } else {
      EXPECT_EQ(res.status, bn::Status::kShuttingDown);
    }
    ++answered;
  }
  EXPECT_EQ(answered, rids.size());

  server.stop(); // joins; idempotent after the client-initiated drain

  // New connections are refused once the listener is closed.
  EXPECT_THROW(bn::NetClient("127.0.0.1", server.port()).ping(),
               std::exception);
}

TEST(NetServer, StatsRemoveAndUploadRoundTrip) {
  bv::ServerOptions sopts;
  sopts.threads = 0;
  bv::SpmvServer core(sopts);
  bn::NetServer server(core, {});
  server.start();

  const bc::Matrix m = make_matrix(40, 30, 9);
  bn::NetClient cli("127.0.0.1", server.port());

  const auto before = cli.stats();
  EXPECT_EQ(before.submitted, 0u);

  cli.upload_matrix("A", bn::matrix_to_bro_bytes(m, bc::Format::kBroCsr));
  EXPECT_EQ(cli.submit("A", random_x(30, 2)).size(), 40u);

  const auto after = cli.stats();
  EXPECT_EQ(after.submitted, 1u);
  EXPECT_EQ(after.served, 1u);

  EXPECT_TRUE(cli.remove_matrix("A"));
  EXPECT_FALSE(cli.remove_matrix("A")); // second remove: already gone
  try {
    cli.submit("A", random_x(30, 2));
    FAIL() << "expected RpcError";
  } catch (const bn::RpcError& e) {
    EXPECT_EQ(e.status(), bn::Status::kUnknownMatrix);
  }
  server.stop();
}

TEST(NetServer, AllZeroMatricesUploadInEveryFormat) {
  // A matrix with no non-zeros pads nothing, so every format writes it
  // (BRO-HYB, compress's default, included) although no BRO gate takes it
  // for auto-selection; the server registers exactly that matrix.
  bv::ServerOptions sopts;
  sopts.threads = 0;
  bv::SpmvServer core(sopts);
  bn::NetServer server(core, {});
  server.start();
  bn::NetClient cli("127.0.0.1", server.port());

  int cases = 0;
  for (const auto& c : bro::sparse::adversarial_suite(2)) {
    if (c.csr.nnz() != 0) continue;
    ++cases;
    const bc::Matrix m = bc::Matrix::from_csr(c.csr);
    for (const auto* t : serializable_formats()) {
      SCOPED_TRACE(c.name + " / " + t->name);
      const auto bytes = bn::matrix_to_bro_bytes(m, t->format);
      const auto ack = cli.upload_matrix("zero", bytes);
      EXPECT_EQ(ack.rows, static_cast<std::uint64_t>(m.rows()));
      EXPECT_EQ(ack.cols, static_cast<std::uint64_t>(m.cols()));
      EXPECT_EQ(ack.nnz, 0u);
      if (m.rows() > 0 && m.cols() > 0) {
        const auto y = cli.submit("zero", random_x(m.cols(), 5));
        EXPECT_EQ(y, std::vector<value_t>(y.size(), 0.0));
        EXPECT_EQ(y.size(), static_cast<std::size_t>(m.rows()));
      }
      EXPECT_TRUE(cli.remove_matrix("zero"));

      const bc::Matrix back = bn::matrix_from_bro_bytes(bytes);
      EXPECT_EQ(back.rows(), m.rows());
      EXPECT_EQ(back.cols(), m.cols());
      EXPECT_EQ(back.csr().row_ptr, m.csr().row_ptr);
      EXPECT_EQ(back.nnz(), 0u);
      EXPECT_EQ(bn::matrix_to_bro_bytes(back, t->format), bytes);
    }
  }
  EXPECT_GE(cases, 3);
  server.stop();
}

TEST(NetServer, ManyConnectionsConcurrently) {
  bv::ServerOptions sopts;
  sopts.threads = 2;
  bv::SpmvServer core(sopts);
  bn::NetServer server(core, {});
  server.start();

  const bc::Matrix m = make_matrix(100, 90, 10);
  {
    bn::NetClient up("127.0.0.1", server.port());
    up.upload_matrix("A", bn::matrix_to_bro_bytes(m, bc::Format::kBroEll));
  }

  constexpr int kThreads = 4, kReqs = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      bn::NetClient cli("127.0.0.1", server.port());
      for (int r = 0; r < kReqs; ++r) {
        const auto y =
            cli.submit("A", random_x(90, static_cast<std::uint64_t>(t * 1000 + r)));
        if (y.size() == 100) ok.fetch_add(1);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads * kReqs);

  const auto ns = server.stats();
  EXPECT_GE(ns.accepted, static_cast<std::uint64_t>(kThreads) + 1);
  EXPECT_EQ(ns.protocol_errors, 0u);
  server.stop();
}

namespace {

/// Read exactly `n` bytes from a blocking socket.
std::vector<std::uint8_t> recv_exact(int fd, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t off = 0; off < n;) {
    const ssize_t got = ::recv(fd, out.data() + off, n - off, 0);
    if (got <= 0) return {};
    off += static_cast<std::size_t>(got);
  }
  return out;
}

/// One request frame as it crossed the wire, header and payload (empty
/// when the stream does not hold one of a plausible size).
std::vector<std::uint8_t> recv_wire_frame(int fd) {
  auto bytes = recv_exact(fd, bn::kFrameHeaderBytes);
  if (bytes.empty()) return {};
  std::uint32_t len = 0;
  std::memcpy(&len, bytes.data(), 4);
  if (len > (64u << 20)) return {};
  const auto payload = recv_exact(fd, len);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

} // namespace

TEST(NetClient, GatheredSendPutsEncodedFramesOnTheWire) {
  // A bare listener stands in for the server and records the bytes the
  // client writes: a multi-MB upload and an x above the staging chunk go
  // out from the caller's buffers, byte-identical to make_*. The large y
  // it answers with is received straight into its frame.
  bro::UniqueFd listener(::socket(AF_INET, SOCK_STREAM, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener.get(), 1), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr), &len);

  bn::NetClient cli("127.0.0.1", ntohs(addr.sin_port));
  bro::UniqueFd peer(::accept(listener.get(), nullptr, nullptr));
  ASSERT_TRUE(peer.valid());

  const auto bro_bytes = random_bytes(5 << 20, 21);
  const auto x = random_x(20000, 22);
  const auto y = random_x(30000, 23);
  std::vector<std::uint8_t> upload_wire, submit_wire;
  std::thread server([&] {
    // A receive timeout and the final shutdown turn a malformed frame
    // into a failed comparison on both sides rather than a hang.
    const timeval timeout{10, 0};
    ::setsockopt(peer.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    upload_wire = recv_wire_frame(peer.get());
    if (!upload_wire.empty()) {
      const auto ack = bn::make_upload_ack(1, {30000, 20000, 7});
      ::send(peer.get(), ack.data(), ack.size(), MSG_NOSIGNAL);
      submit_wire = recv_wire_frame(peer.get());
    }
    if (!submit_wire.empty()) {
      const auto resp = bn::make_vector_response(2, y);
      for (std::size_t off = 0; off < resp.size();) {
        const ssize_t n = ::send(peer.get(), resp.data() + off,
                                 resp.size() - off, MSG_NOSIGNAL);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
    }
    ::shutdown(peer.get(), SHUT_RDWR);
  });
  bn::UploadAck ack;
  std::vector<value_t> got;
  try {
    ack = cli.upload_matrix("A", bro_bytes);
    got = cli.submit("A", x, "cli");
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  server.join();

  EXPECT_EQ(ack.rows, 30000u);
  EXPECT_EQ(upload_wire, bn::make_upload_request(1, "A", bro_bytes));
  EXPECT_EQ(submit_wire, bn::make_submit_request(2, "A", "cli", x));
  ASSERT_EQ(got.size(), y.size());
  EXPECT_EQ(std::memcmp(got.data(), y.data(), y.size() * sizeof(value_t)), 0);
}

TEST(NetServer, LargeFramesCrossTheWireIntact) {
  // A multi-MB upload, x and y above the staging chunk, synchronous and
  // pipelined: all take the direct receive path. The served CSR and every
  // y are bitwise the in-process ones, and the frame counters reconcile.
  bv::ServerOptions sopts;
  sopts.threads = 2;
  sopts.max_batch = 4;
  bv::SpmvServer remote_core(sopts);
  bn::NetServer server(remote_core, {});
  server.start();

  bro::sparse::GenSpec spec;
  spec.rows = 30000;
  spec.cols = 20000;
  spec.mu = 12;
  spec.sigma = 4;
  spec.seed = 31;
  const bro::sparse::Csr src = bro::sparse::generate(spec);
  const auto bytes =
      bn::matrix_to_bro_bytes(bc::Matrix::from_csr(src), bc::Format::kBroHyb);
  ASSERT_GT(bytes.size(), std::size_t{2} << 20);

  bn::NetClient cli("127.0.0.1", server.port());
  const auto ack = cli.upload_matrix("A", bytes);
  EXPECT_EQ(ack.nnz, src.nnz());
  const auto served = remote_core.matrix("A");
  ASSERT_NE(served, nullptr);
  const bro::sparse::Csr& csr = served->csr();
  EXPECT_EQ(csr.row_ptr, src.row_ptr);
  EXPECT_EQ(csr.col_idx, src.col_idx);
  ASSERT_EQ(csr.vals.size(), src.vals.size());
  EXPECT_EQ(std::memcmp(csr.vals.data(), src.vals.data(),
                        src.vals.size() * sizeof(value_t)),
            0);

  bv::SpmvServer local(sopts);
  local.add_matrix("A", bn::matrix_from_bro_bytes(bytes));
  std::uint64_t requests = 1; // the upload
  for (int r = 0; r < 3; ++r, ++requests) {
    const auto x = random_x(20000, 40 + static_cast<std::uint64_t>(r));
    EXPECT_EQ(cli.submit("A", x), local.submit("A", x).get());
  }
  std::vector<std::uint64_t> rids;
  std::vector<std::vector<value_t>> xs;
  for (int r = 0; r < 6; ++r, ++requests) {
    xs.push_back(random_x(20000, 60 + static_cast<std::uint64_t>(r)));
    rids.push_back(cli.enqueue_submit("A", xs.back()));
  }
  cli.flush();
  for (std::size_t r = rids.size(); r-- > 0;) {
    const auto res = cli.wait_submit(rids[r]);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.y, local.submit("A", xs[r]).get());
  }

  const auto stats = cli.stats();
  ++requests;
  EXPECT_EQ(stats.submitted, 9u);
  EXPECT_EQ(stats.served, 9u);
  // frames_out counts a response once it is fully written, which the loop
  // records just after the client may already have read it.
  for (int i = 0; i < 200 && server.stats().frames_out < requests; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto ns = server.stats();
  EXPECT_EQ(ns.frames_in, requests);
  EXPECT_EQ(ns.frames_out, requests);
  EXPECT_EQ(ns.protocol_errors, 0u);
  server.stop();
}

TEST(NetServer, HostileLengthHoldsOnlyReceivedBytesAndFreesOnClose) {
  // A peer announces a 384 MB SUBMIT and sends 4 MB of it: the server
  // holds what arrived, not what was announced, and closing the connection
  // mid-payload frees it. (A SUBMIT's x is received into a payload of its
  // own; an upload is never held, Protocol.UploadHoldsNoWholePayload. The
  // bound leaves room for a sanitizer's shadow of the bytes received; the
  // announced length is far above it.)
  bv::ServerOptions sopts;
  sopts.threads = 0;
  bv::SpmvServer core(sopts);
  bn::NetServer server(core, {});
  server.start();

  constexpr std::uint32_t kAnnounced = 384u << 20;
  constexpr std::int64_t kSent = 4 * kMiB;
  auto bytes = header_announcing(kAnnounced, bn::Op::kSubmit);
  const auto body = random_bytes(static_cast<std::size_t>(kSent), 41);
  bytes.insert(bytes.end(), body.begin(), body.end());

  const auto wait_for_rise = [&](std::int64_t before, auto done) {
    std::int64_t rise = resident_bytes() - before;
    for (int i = 0; i < 2000 && !done(rise); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      rise = resident_bytes() - before;
    }
    return rise;
  };
  const std::int64_t before = resident_bytes();
  {
    RawConn raw(server.port());
    raw.send_bytes(bytes);
    const std::int64_t held =
        wait_for_rise(before, [&](std::int64_t r) { return r >= kSent; });
    EXPECT_GE(held, kSent);
    EXPECT_LT(held, std::int64_t{kAnnounced} / 8);
  }
  // The connection is closed, then swept with its half-filled frame. (A
  // sanitizer's allocator can return memory freed by earlier tests
  // meanwhile, so the wait is for the close as well as the fall.)
  EXPECT_LT(wait_for_rise(before,
                          [&](std::int64_t r) {
                            return r < 2 * kMiB && server.stats().closed == 1;
                          }),
            2 * kMiB);
  EXPECT_EQ(server.stats().closed, 1u);

  bn::NetClient cli("127.0.0.1", server.port());
  cli.ping(); // the server is unaffected
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  server.stop();
}

TEST(Protocol, UploadHoldsNoWholePayload) {
  // A BRO-HYB upload of at least 64 MB is decoded as its bytes arrive: at
  // no moment does the server's resident memory grow by more than the CSR
  // it registers, the stream's index sections and 16 MiB (the value
  // window, receive buffers and scratch). The payload is never held whole.
  bv::ServerOptions sopts;
  sopts.threads = 0;
  bv::SpmvServer core(sopts);
  bn::NetServer server(core, {});
  server.start();

  bro::sparse::GenSpec spec;
  spec.rows = 125000; // x and y stay small beside the upload
  spec.cols = 25000;
  spec.mu = 56;
  spec.sigma = 6;
  spec.seed = 64;
  const bro::sparse::Csr src = bro::sparse::generate(spec);
  const auto bytes =
      bn::matrix_to_bro_bytes(bc::Matrix::from_csr(src), bc::Format::kBroHyb);
  ASSERT_GE(bytes.size(), std::size_t{64} << 20);
  // The ELL part's width: its body (rows, cols, width) follows the 9-byte
  // header and BRO-HYB's rows, cols, split_width and ell_nnz.
  std::int32_t width = 0;
  std::memcpy(&width, bytes.data() + 9 + 20 + 8, sizeof(width));
  const std::int64_t values =
      std::int64_t{spec.rows} * width * std::int64_t{sizeof(value_t)};
  const std::int64_t index = std::int64_t(bytes.size()) - values;
  const std::int64_t csr =
      std::int64_t(src.row_ptr.size() * sizeof(index_t) +
                   src.nnz() * (sizeof(index_t) + sizeof(value_t)));
  // A sanitizer shadows what the process touches: ASan with an eighth of
  // it, TSan with four times it.
  std::int64_t bound = csr + index + 16 * kMiB;
#if defined(__SANITIZE_ADDRESS__)
  bound += (csr + index) / 8;
#elif defined(__SANITIZE_THREAD__)
  bound += 4 * (csr + index);
#endif

  bn::NetClient cli("127.0.0.1", server.port());
  cli.ping();
  const std::int64_t before = resident_bytes();
  std::atomic<bool> uploading{true};
  std::int64_t peak = 0;
  std::thread sampler([&] {
    while (uploading.load()) {
      peak = std::max(peak, resident_bytes() - before);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const auto ack = cli.upload_matrix("A", bytes);
  uploading = false;
  sampler.join();
  peak = std::max(peak, resident_bytes() - before);
  EXPECT_EQ(ack.nnz, src.nnz());
  EXPECT_LE(peak, bound) << "CSR " << csr << " B, index " << index
                         << " B, payload " << bytes.size() << " B";
  const auto served = core.matrix("A");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->csr().row_ptr, src.row_ptr);
  EXPECT_EQ(served->csr().col_idx, src.col_idx);
  EXPECT_EQ(std::memcmp(served->csr().vals.data(), src.vals.data(),
                        src.vals.size() * sizeof(value_t)),
            0);

  // An upload announcing 512 MB whose peer closes in the middle of its
  // value array frees everything it built (the allocator's count of bytes
  // in use returns; resident memory may stay cached in it), while a second
  // connection keeps being served.
  constexpr std::uint32_t kAnnounced = 512u << 20;
  auto frame = header_announcing(kAnnounced);
  bro::ByteWriter head;
  head.put_string("B");
  head.put<std::uint64_t>(kAnnounced - head.size() - sizeof(std::uint64_t));
  frame.insert(frame.end(), head.bytes().begin(), head.bytes().end());
  const std::size_t cut = static_cast<std::size_t>(index + values / 2);
  frame.insert(frame.end(), bytes.begin(),
               bytes.begin() + static_cast<std::ptrdiff_t>(cut));
  const auto x = random_x(spec.cols, 65);
  const auto y = cli.submit("A", x);
  const auto in_use = [] {
    const auto mi = ::mallinfo2();
    return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
  };
  const std::int64_t base = resident_bytes(), base_in_use = in_use();
  {
    RawConn raw(server.port());
    raw.send_bytes(frame);
    // Half the value array is on its way; a quarter of it is resident
    // once the server has written it into the CSR it is building.
    std::int64_t held = 0;
    for (int i = 0; i < 2000 && held < values / 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      held = resident_bytes() - base;
    }
    EXPECT_GE(held, values / 4);
    bn::NetClient other("127.0.0.1", server.port());
    other.ping();
    EXPECT_EQ(other.submit("A", x), y);
  }
  std::int64_t left = 0;
  for (int i = 0; i < 400; ++i) {
    left = in_use() - base_in_use;
    if (left < kMiB) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LT(left, kMiB);
  EXPECT_EQ(cli.submit("A", x), y);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  server.stop();
}
