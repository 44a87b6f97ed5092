#include "core/serialize.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <ranges>

#include "bits/delta.h"
#include "util/bytes.h"
#include "util/error.h"

namespace bro::core {

/// Passkey granting the serializers access to the formats' internals.
struct SerializeAccess {
  static BroEll make_ell(index_t rows, index_t cols, index_t width,
                         BroEllOptions opts, std::vector<BroEllSlice> slices,
                         EllValues vals) {
    BroEll m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.width_ = width;
    m.opts_ = opts;
    m.slices_ = std::move(slices);
    m.vals_ = std::move(vals);
    return m;
  }
  static BroCoo make_coo(index_t rows, index_t cols, std::size_t nnz,
                         BroCooOptions opts,
                         std::vector<BroCooInterval> intervals,
                         std::vector<index_t> col_idx,
                         std::vector<value_t> vals) {
    BroCoo m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.nnz_ = nnz;
    m.opts_ = opts;
    m.intervals_ = std::move(intervals);
    m.col_idx_ = std::move(col_idx);
    m.vals_ = std::move(vals);
    return m;
  }
  static BroHyb make_hyb(index_t rows, index_t cols, index_t split_width,
                         std::size_t ell_nnz, BroEll ell, BroCoo coo) {
    BroHyb m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.split_width_ = split_width;
    m.ell_nnz_ = ell_nnz;
    m.ell_ = std::move(ell);
    m.coo_ = std::move(coo);
    return m;
  }
  static const bits::BitString& csr_stream(const BroCsr& m) {
    return m.stream_;
  }
  static BroAns make_ans(index_t rows, index_t cols, index_t width,
                         BroAnsOptions opts, bits::AnsTable table,
                         std::vector<BroAnsSlice> slices,
                         EllValues vals) {
    BroAns m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.width_ = width;
    m.opts_ = opts;
    m.table_ = std::move(table);
    m.slices_ = std::move(slices);
    m.vals_ = std::move(vals);
    return m;
  }
  static BroBcsr make_bcsr(index_t rows, index_t cols, int br, int bc,
                           index_t ell_width, std::size_t nnz,
                           BroBcsrOptions opts,
                           std::vector<BroEllSlice> slices,
                           std::vector<std::size_t> val_off,
                           std::vector<value_t> vals) {
    BroBcsr m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.br_ = br;
    m.bc_ = bc;
    m.block_rows_ = rows == 0 ? 0 : (rows + br - 1) / br;
    m.ell_width_ = ell_width;
    m.nnz_ = nnz;
    m.opts_ = opts;
    m.slices_ = std::move(slices);
    m.val_off_ = std::move(val_off);
    m.vals_ = std::move(vals);
    return m;
  }
  static BroCsr make_csr(index_t rows, index_t cols, BroCsrOptions opts,
                         std::vector<index_t> row_ptr,
                         std::vector<std::uint8_t> bits,
                         std::vector<std::uint32_t> sym_ptr,
                         std::vector<value_t> vals, bits::BitString stream) {
    BroCsr m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.opts_ = opts;
    m.row_ptr_ = std::move(row_ptr);
    m.bits_ = std::move(bits);
    m.sym_ptr_ = std::move(sym_ptr);
    m.vals_ = std::move(vals);
    m.stream_ = std::move(stream);
    return m;
  }
};

namespace {

constexpr std::uint32_t kMagic = 0x53'4F'52'42; // "BROS" little-endian
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 4 + 1;

enum class Tag : std::uint8_t {
  kBroEll = 1,
  kBroCoo = 2,
  kBroHyb = 3,
  kBroCsr = 4,
  kBroAns = 5,
  kBroBcsr = 6,
};

// ---------------------------------------------------------------------------
// Writers.

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// A counted array: its element count, then its bytes, straight from the
/// caller's storage (any vector or span).
template <std::ranges::contiguous_range R>
void write_vec(std::ostream& out, const R& v) {
  using T = std::ranges::range_value_t<R>;
  write_pod<std::uint64_t>(out, std::ranges::size(v));
  if (!std::ranges::empty(v))
    out.write(reinterpret_cast<const char*>(std::ranges::data(v)),
              static_cast<std::streamsize>(std::ranges::size(v) * sizeof(T)));
}

void write_header(std::ostream& out, Tag tag) {
  write_pod(out, kMagic);
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint8_t>(tag));
}

void write_mux(std::ostream& out, const bits::MuxedStream& s) {
  write_pod<std::int32_t>(out, s.sym_len());
  write_pod<std::uint64_t>(out, s.height());
  write_pod<std::uint64_t>(out, s.symbols_per_row());
  for (std::size_t i = 0; i < s.total_symbols(); ++i)
    write_pod<std::uint64_t>(out, s[i]);
}

void write_ell_slice(std::ostream& out, const BroEllSlice& s) {
  write_pod(out, s.first_row);
  write_pod(out, s.height);
  write_pod(out, s.num_col);
  write_pod<std::int32_t>(out, s.pad_bits);
  write_vec(out, s.bit_alloc);
  write_mux(out, s.stream);
}

void write_ell_body(std::ostream& out, const BroEll& m) {
  write_pod(out, m.rows());
  write_pod(out, m.cols());
  write_pod(out, m.width());
  write_pod<std::int32_t>(out, m.options().slice_height);
  write_pod<std::int32_t>(out, m.options().sym_len);
  write_pod<std::uint64_t>(out, m.slices().size());
  for (const BroEllSlice& s : m.slices()) write_ell_slice(out, s);
  write_vec(out, m.vals());
}

void write_ans_body(std::ostream& out, const BroAns& m) {
  write_pod(out, m.rows());
  write_pod(out, m.cols());
  write_pod(out, m.width());
  write_pod<std::int32_t>(out, m.options().slice_height);
  write_pod<std::int32_t>(out, m.options().sym_len);
  write_pod<std::int32_t>(out, m.options().table_log);
  // Payload layout version (the header tag and global version are shared
  // with every format): 2 = interleaved lane groups with out-of-band
  // initial states. Version 1 (one whole-slice stream, state in-stream) is
  // no longer written or read.
  write_pod<std::uint32_t>(out, 2);
  // The normalized frequency table; the decode table is rebuilt on load.
  write_vec(out, m.table().freqs());
  write_pod<std::uint64_t>(out, m.slices().size());
  for (const BroAnsSlice& s : m.slices()) {
    write_pod(out, s.first_row);
    write_pod(out, s.height);
    write_pod(out, s.num_col);
    write_vec(out, s.init_states);
    write_pod<std::uint64_t>(out, s.groups.size());
    for (const bits::MuxedStream& g : s.groups) write_mux(out, g);
  }
  write_vec(out, m.vals());
}

void write_coo_body(std::ostream& out, const BroCoo& m) {
  write_pod(out, m.rows());
  write_pod(out, m.cols());
  write_pod<std::uint64_t>(out, m.nnz());
  write_pod<std::int32_t>(out, m.options().warp_size);
  write_pod<std::int32_t>(out, m.options().interval_cols);
  write_pod<std::int32_t>(out, m.options().sym_len);
  write_pod<std::uint64_t>(out, m.intervals().size());
  for (const BroCooInterval& iv : m.intervals()) {
    write_pod(out, iv.start_row);
    write_pod<std::int32_t>(out, iv.bits);
    write_mux(out, iv.stream);
  }
  write_vec(out, m.col_idx());
  write_vec(out, m.vals());
}

void write_bcsr_body(std::ostream& out, const BroBcsr& m) {
  write_pod(out, m.rows());
  write_pod(out, m.cols());
  write_pod<std::int32_t>(out, m.block_r());
  write_pod<std::int32_t>(out, m.block_c());
  write_pod(out, m.ell_width());
  write_pod<std::uint64_t>(out, m.nnz());
  write_pod<std::int32_t>(out, m.options().block_rows);
  write_pod<std::int32_t>(out, m.options().block_cols);
  write_pod<std::int32_t>(out, m.options().slice_height);
  write_pod<std::int32_t>(out, m.options().sym_len);
  write_pod<double>(out, m.options().min_fill);
  write_pod<std::uint64_t>(out, m.slices().size());
  for (const BroEllSlice& s : m.slices()) write_ell_slice(out, s);
  write_vec(out, m.vals());
}

// ---------------------------------------------------------------------------
// The reader: one bounds-checked ByteReader cursor over the stream bytes.
// Every element count is checked against the bytes left before it sizes an
// allocation (ByteReader::get_count), with the minimum wire size of one
// element as the divisor.

/// Wire bytes of a mux header (sym_len, height, symbols_per_row); a mux
/// occupies at least this much even with no slots.
constexpr std::size_t kMuxHeaderBytes = 4 + 8 + 8;
/// An ELL-style slice at its smallest: four i32 fields, an empty bit_alloc
/// and an empty mux.
constexpr std::size_t kMinEllSliceBytes = 4 * 4 + 8 + kMuxHeaderBytes;
/// A BRO-ANS slice at its smallest: three i32 fields, an empty init_states
/// array and a zero lane-group count.
constexpr std::size_t kMinAnsSliceBytes = 3 * 4 + 8 + 8;
/// A BRO-COO interval at its smallest: two i32 fields and an empty mux.
constexpr std::size_t kMinCooIntervalBytes = 2 * 4 + kMuxHeaderBytes;

/// A counted array left in place in the input: the ingest path reads value
/// and column arrays straight out of the stream bytes instead of copying
/// them into vectors first.
template <typename T>
class ArrayView {
 public:
  ArrayView() = default;
  explicit ArrayView(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t size() const { return bytes_.size() / sizeof(T); }
  T operator[](std::size_t i) const {
    T v;
    std::memcpy(&v, bytes_.data() + i * sizeof(T), sizeof(T));
    return v;
  }
  /// The array copied into a vector of type V (EllValues reads without a
  /// zeroing pass first).
  template <typename V = std::vector<T>>
  V to_vector() const {
    V v(size());
    if (!v.empty()) std::memcpy(v.data(), bytes_.data(), bytes_.size());
    return v;
  }

 private:
  std::span<const std::uint8_t> bytes_;
};

template <typename T>
ArrayView<T> read_view(ByteReader& in) {
  return ArrayView<T>(in.get_array_bytes<T>());
}

Format format_of(std::uint8_t tag) {
  switch (static_cast<Tag>(tag)) {
    case Tag::kBroEll: return Format::kBroEll;
    case Tag::kBroCoo: return Format::kBroCoo;
    case Tag::kBroHyb: return Format::kBroHyb;
    case Tag::kBroCsr: return Format::kBroCsr;
    case Tag::kBroAns: return Format::kBroAns;
    case Tag::kBroBcsr: return Format::kBroBcsr;
  }
  BRO_CHECK_MSG(false, "unknown format tag " << int(tag));
  return Format::kBroHyb; // unreachable
}

Format read_header(ByteReader& in) {
  BRO_CHECK_MSG(in.get<std::uint32_t>() == kMagic,
                "not a BRO serialized stream (bad magic)");
  BRO_CHECK_MSG(in.get<std::uint32_t>() == kVersion,
                "unsupported BRO stream version");
  return format_of(in.get<std::uint8_t>());
}

void expect_header(ByteReader& in, Format expected) {
  const Format f = read_header(in);
  BRO_CHECK_MSG(f == expected, "stream holds a different format (tag "
                                   << static_cast<int>(f) << ')');
}

bits::MuxedStream read_mux(ByteReader& in) {
  const auto sym_len = in.get<std::int32_t>();
  BRO_CHECK_MSG(sym_len == 32 || sym_len == 64,
                "corrupt stream sym_len " << sym_len);
  const auto height = in.get<std::uint64_t>();
  const auto spr = in.get<std::uint64_t>();
  // Every slot is a u64 on the wire, so height x symbols_per_row is bounded
  // by the bytes left before the stream is sized.
  const std::uint64_t slots_left = in.remaining() / sizeof(std::uint64_t);
  BRO_CHECK_MSG(height <= slots_left && spr <= ByteReader::kSaneCount &&
                    (height == 0 || spr <= slots_left / height),
                "implausible stream dimensions " << height << " x " << spr
                                                 << " with "
                                                 << in.remaining()
                                                 << " bytes left");
  const std::size_t n = static_cast<std::size_t>(height * spr);
  return bits::MuxedStream::from_u64_slots(
      sym_len, static_cast<std::size_t>(height), static_cast<std::size_t>(spr),
      in.get_span(n * sizeof(std::uint64_t)));
}

std::vector<BroEllSlice> read_ell_slices(ByteReader& in) {
  std::vector<BroEllSlice> slices(in.get_count(kMinEllSliceBytes));
  for (auto& s : slices) {
    s.first_row = in.get<index_t>();
    s.height = in.get<index_t>();
    s.num_col = in.get<index_t>();
    s.pad_bits = in.get<std::int32_t>();
    s.bit_alloc = in.get_array<std::uint8_t>();
    s.stream = read_mux(in);
  }
  return slices;
}

struct EllBody {
  index_t rows = 0, cols = 0, width = 0;
  BroEllOptions opts;
  std::vector<BroEllSlice> slices;
  ArrayView<value_t> vals;
};

EllBody read_ell_body(ByteReader& in) {
  EllBody b;
  b.rows = in.get<index_t>();
  b.cols = in.get<index_t>();
  b.width = in.get<index_t>();
  b.opts.slice_height = in.get<std::int32_t>();
  b.opts.sym_len = in.get<std::int32_t>();
  BRO_CHECK_MSG(b.opts.sym_len == 32 || b.opts.sym_len == 64,
                "corrupt sym_len");
  b.slices = read_ell_slices(in);
  b.vals = read_view<value_t>(in);
  return b;
}

struct AnsBody {
  index_t rows = 0, cols = 0, width = 0;
  BroAnsOptions opts;
  bits::AnsTable table;
  std::vector<BroAnsSlice> slices;
  ArrayView<value_t> vals;
};

AnsBody read_ans_body(ByteReader& in) {
  AnsBody b;
  b.rows = in.get<index_t>();
  b.cols = in.get<index_t>();
  b.width = in.get<index_t>();
  b.opts.slice_height = in.get<std::int32_t>();
  b.opts.sym_len = in.get<std::int32_t>();
  b.opts.table_log = in.get<std::int32_t>();
  BRO_CHECK_MSG(b.opts.sym_len == 32 || b.opts.sym_len == 64,
                "corrupt sym_len");
  const auto layout = in.get<std::uint32_t>();
  BRO_CHECK_MSG(layout == 2, "unsupported BRO-ANS payload layout "
                                 << layout
                                 << " (this build reads layout 2 only)");
  // from_freqs validates table_log range, table size and frequency sum.
  b.table = bits::AnsTable::from_freqs(in.get_array<std::uint16_t>(),
                                       b.opts.table_log);
  b.slices.resize(in.get_count(kMinAnsSliceBytes));
  for (auto& s : b.slices) {
    s.first_row = in.get<index_t>();
    s.height = in.get<index_t>();
    s.num_col = in.get<index_t>();
    s.init_states = in.get_array<std::uint16_t>();
    s.groups.resize(in.get_count(kMuxHeaderBytes));
    for (auto& g : s.groups) g = read_mux(in);
  }
  b.vals = read_view<value_t>(in);
  return b;
}

struct CooBody {
  index_t rows = 0, cols = 0;
  std::uint64_t nnz = 0;
  BroCooOptions opts;
  std::vector<BroCooInterval> intervals;
  ArrayView<index_t> col_idx;
  ArrayView<value_t> vals;
};

CooBody read_coo_body(ByteReader& in) {
  CooBody b;
  b.rows = in.get<index_t>();
  b.cols = in.get<index_t>();
  b.nnz = in.get<std::uint64_t>();
  b.opts.warp_size = in.get<std::int32_t>();
  b.opts.interval_cols = in.get<std::int32_t>();
  b.opts.sym_len = in.get<std::int32_t>();
  b.intervals.resize(in.get_count(kMinCooIntervalBytes));
  for (auto& iv : b.intervals) {
    iv.start_row = in.get<index_t>();
    iv.bits = in.get<std::int32_t>();
    iv.stream = read_mux(in);
  }
  b.col_idx = read_view<index_t>(in);
  b.vals = read_view<value_t>(in);
  return b;
}

struct HybBody {
  index_t rows = 0, cols = 0, split_width = 0;
  std::uint64_t ell_nnz = 0;
  EllBody ell;
  CooBody coo;
};

HybBody read_hyb_body(ByteReader& in) {
  HybBody b;
  b.rows = in.get<index_t>();
  b.cols = in.get<index_t>();
  b.split_width = in.get<index_t>();
  b.ell_nnz = in.get<std::uint64_t>();
  b.ell = read_ell_body(in);
  b.coo = read_coo_body(in);
  return b;
}

BroEll make_ell(EllBody b) {
  return SerializeAccess::make_ell(b.rows, b.cols, b.width, b.opts,
                                   std::move(b.slices),
                                   b.vals.to_vector<EllValues>());
}

BroCoo make_coo(CooBody b) {
  return SerializeAccess::make_coo(b.rows, b.cols,
                                   static_cast<std::size_t>(b.nnz), b.opts,
                                   std::move(b.intervals),
                                   b.col_idx.to_vector(), b.vals.to_vector());
}

BroAns read_ans(ByteReader& in) {
  AnsBody b = read_ans_body(in);
  return SerializeAccess::make_ans(b.rows, b.cols, b.width, b.opts,
                                   std::move(b.table), std::move(b.slices),
                                   b.vals.to_vector<EllValues>());
}

BroHyb read_hyb(ByteReader& in) {
  HybBody b = read_hyb_body(in);
  return SerializeAccess::make_hyb(b.rows, b.cols, b.split_width,
                                   static_cast<std::size_t>(b.ell_nnz),
                                   make_ell(std::move(b.ell)),
                                   make_coo(std::move(b.coo)));
}

BroCsr read_csr(ByteReader& in) {
  const auto rows = in.get<index_t>();
  const auto cols = in.get<index_t>();
  BroCsrOptions opts;
  opts.sym_len = in.get<std::int32_t>();
  auto row_ptr = in.get_array<index_t>();
  auto bits_v = in.get_array<std::uint8_t>();
  auto sym_ptr = in.get_array<std::uint32_t>();
  auto vals = in.get_array<value_t>();
  const auto size_bits = in.get<std::uint64_t>();
  auto words = in.get_array<std::uint64_t>();
  return SerializeAccess::make_csr(
      rows, cols, opts, std::move(row_ptr), std::move(bits_v),
      std::move(sym_ptr), std::move(vals),
      bits::BitString::from_words(std::move(words), size_bits));
}

BroBcsr read_bcsr(ByteReader& in) {
  const auto rows = in.get<index_t>();
  const auto cols = in.get<index_t>();
  const auto br = in.get<std::int32_t>();
  const auto bc = in.get<std::int32_t>();
  BRO_CHECK_MSG(br >= 1 && br <= 8 && (bc == 1 || bc == 2 || bc == 4 || bc == 8),
                "corrupt BRO-BCSR block shape " << br << 'x' << bc);
  const auto ell_width = in.get<index_t>();
  const auto nnz = in.get<std::uint64_t>();
  BroBcsrOptions opts;
  opts.block_rows = in.get<std::int32_t>();
  opts.block_cols = in.get<std::int32_t>();
  opts.slice_height = in.get<std::int32_t>();
  opts.sym_len = in.get<std::int32_t>();
  opts.min_fill = in.get<double>();
  BRO_CHECK_MSG(opts.sym_len == 32 || opts.sym_len == 64, "corrupt sym_len");
  BRO_CHECK_MSG(opts.slice_height > 0, "corrupt slice_height");
  std::vector<BroEllSlice> slices = read_ell_slices(in);
  std::vector<std::size_t> val_off;
  val_off.reserve(slices.size());
  std::size_t slots = 0;
  const auto tile = static_cast<std::size_t>(br) * static_cast<std::size_t>(bc);
  for (const auto& s : slices) {
    BRO_CHECK_MSG(s.height >= 0 && s.num_col >= 0 &&
                      s.bit_alloc.size() ==
                          static_cast<std::size_t>(s.num_col),
                  "corrupt BRO-BCSR slice header");
    val_off.push_back(slots);
    slots += static_cast<std::size_t>(s.height) *
             static_cast<std::size_t>(s.num_col) * tile;
  }
  auto vals = in.get_array<value_t>();
  BRO_CHECK_MSG(vals.size() == slots,
                "BRO-BCSR value array size mismatches its slices");
  return SerializeAccess::make_bcsr(rows, cols, br, bc, ell_width, nnz, opts,
                                    std::move(slices), std::move(val_off),
                                    std::move(vals));
}

// ---------------------------------------------------------------------------
// Ingest: stream bytes straight to canonical CSR, one row at a time, with
// no padded ELL, intermediate COO or sort in between. Each check below
// guards an index the row decoders would otherwise take on trust.

/// Slices must tile `rows` exactly as the writers lay them out: slice s
/// holds rows [s*h, min((s+1)*h, rows)).
template <typename Slice>
void check_tiling(const std::vector<Slice>& slices, index_t rows, int h,
                  const char* what) {
  BRO_CHECK_MSG(rows >= 0 && h > 0, "corrupt " << what << " dimensions");
  BRO_CHECK_MSG(slices.size() == (static_cast<std::size_t>(rows) +
                                  static_cast<std::size_t>(h) - 1) /
                                     static_cast<std::size_t>(h),
                what << " slice count mismatches its rows");
  for (std::size_t si = 0; si < slices.size(); ++si) {
    const std::int64_t first = static_cast<std::int64_t>(si) * h;
    BRO_CHECK_MSG(slices[si].first_row == first &&
                      slices[si].height ==
                          std::min<std::int64_t>(h, rows - first) &&
                      slices[si].num_col >= 0,
                  what << " slice " << si << " does not tile the rows");
  }
}

/// An ELL-style slice's stream has one lane per slice row and a bit width
/// in [1, 32] per slice column.
void check_ell_slice(const BroEllSlice& s, int sym_len, const char* what) {
  BRO_CHECK_MSG(s.bit_alloc.size() == static_cast<std::size_t>(s.num_col),
                "corrupt " << what << " slice header");
  for (const std::uint8_t b : s.bit_alloc)
    BRO_CHECK_MSG(b >= 1 && b <= 32, "corrupt " << what << " bit width "
                                                << int(b));
  BRO_CHECK_MSG(s.stream.sym_len() == sym_len &&
                    s.stream.height() == static_cast<std::size_t>(s.height),
                what << " stream shape mismatches its slice");
}

/// Dimensions and the column-major value array of an ELL-style body.
void check_ell_values(index_t rows, index_t cols, index_t width,
                      std::size_t nvals, const char* what) {
  BRO_CHECK_MSG(rows >= 0 && cols >= 0 && width >= 0,
                "corrupt " << what << " dimensions");
  BRO_CHECK_MSG(nvals == static_cast<std::size_t>(rows) *
                             static_cast<std::size_t>(width),
                what << " value array size mismatches rows x width");
}

/// Append one decoded row: `next(c)` yields the delta of slot c (0 =
/// padding) and `value(c)` the value stored in that slot; returns the
/// entries appended. Padding must be a suffix. The format's own SpMV pairs
/// value slot c with stream position c, so a real delta after a padding one
/// would decode to a CSR whose product differs from the format's; no writer
/// emits one, and the row is rejected.
template <typename NextDelta, typename SlotValue>
index_t append_row(sparse::CsrBuilder& out, index_t cols, index_t num_col,
                   NextDelta&& next, SlotValue&& value) {
  std::int64_t col = -1;
  index_t c = 0;
  for (; c < num_col; ++c) {
    const std::uint32_t d = next(c);
    if (d == bits::kInvalidDelta) break;
    col += d;
    BRO_CHECK_MSG(col < cols,
                  "decoded column " << col << " outside [0, " << cols << ')');
    out.push(static_cast<index_t>(col), value(c));
  }
  const index_t entries = c;
  for (++c; c < num_col; ++c)
    BRO_CHECK_MSG(next(c) == bits::kInvalidDelta,
                  "row stream holds a real delta after padding");
  return entries;
}

/// The rows of a BRO-ELL body, decoded with RowStreamDecoder.
class EllRows {
 public:
  explicit EllRows(const EllBody& b) : b_(b) {
    check_ell_values(b.rows, b.cols, b.width, b.vals.size(), "BRO-ELL");
    check_tiling(b.slices, b.rows, b.opts.slice_height, "BRO-ELL");
    for (const auto& s : b.slices) {
      check_ell_slice(s, b.opts.sym_len, "BRO-ELL");
      BRO_CHECK_MSG(s.num_col <= b.width, "BRO-ELL slice wider than width");
    }
  }

  void append(index_t r, sparse::CsrBuilder& out) {
    const BroEllSlice& s =
        b_.slices[static_cast<std::size_t>(r / b_.opts.slice_height)];
    RowStreamDecoder dec(s, r - s.first_row, b_.opts.sym_len);
    entries_ += append_row(
        out, b_.cols, s.num_col,
        [&](index_t c) {
          return dec.next(s.bit_alloc[static_cast<std::size_t>(c)]);
        },
        [&](index_t c) {
          return b_.vals[static_cast<std::size_t>(c) *
                             static_cast<std::size_t>(b_.rows) +
                         static_cast<std::size_t>(r)];
        });
  }

  /// Entries appended so far.
  std::uint64_t entries() const { return entries_; }

 private:
  const EllBody& b_;
  std::uint64_t entries_ = 0;
};

/// The rows of a BRO-ANS body, decoded with AnsRowDecoder.
class AnsRows {
 public:
  explicit AnsRows(const AnsBody& b) : b_(b) {
    check_ell_values(b.rows, b.cols, b.width, b.vals.size(), "BRO-ANS");
    check_tiling(b.slices, b.rows, b.opts.slice_height, "BRO-ANS");
    for (const auto& s : b.slices) {
      BRO_CHECK_MSG(s.num_col <= b.width, "BRO-ANS slice wider than width");
      BRO_CHECK_MSG(
          s.init_states.size() == static_cast<std::size_t>(s.height) &&
              s.groups.size() ==
                  static_cast<std::size_t>(ans_num_groups(s.height)),
          "corrupt BRO-ANS slice header");
      for (std::size_t g = 0; g < s.groups.size(); ++g)
        BRO_CHECK_MSG(s.groups[g].sym_len() == b.opts.sym_len &&
                          s.groups[g].height() ==
                              static_cast<std::size_t>(ans_group_width(
                                  s.height, static_cast<index_t>(g))),
                      "BRO-ANS lane-group shape mismatches its slice");
    }
  }

  void append(index_t r, sparse::CsrBuilder& out) {
    const BroAnsSlice& s =
        b_.slices[static_cast<std::size_t>(r / b_.opts.slice_height)];
    if (s.num_col == 0) return;
    AnsRowDecoder dec(b_.table, s, r - s.first_row, b_.opts.sym_len);
    append_row(
        out, b_.cols, s.num_col, [&](index_t) { return dec.next(); },
        [&](index_t c) {
          return b_.vals[static_cast<std::size_t>(c) *
                             static_cast<std::size_t>(b_.rows) +
                         static_cast<std::size_t>(r)];
        });
  }

 private:
  const AnsBody& b_;
};

/// The entries of a BRO-COO body, row by row. The writer emits them in row
/// order, so row r's entries are one run of the stream; a hand-built stream
/// that interleaves rows is bucketed by row first (stably, so each row's
/// entries keep their stream order for CsrBuilder's canonicalization).
class CooRows {
 public:
  CooRows(const CooBody& b, index_t rows, index_t cols) : b_(b) {
    BRO_CHECK_MSG(b.rows == rows && b.cols == cols,
                  "BRO-COO dimensions mismatch the matrix");
    BRO_CHECK_MSG(b.opts.warp_size > 0 && b.opts.interval_cols > 0 &&
                      (b.opts.sym_len == 32 || b.opts.sym_len == 64),
                  "corrupt BRO-COO options");
    const std::size_t interval_size =
        static_cast<std::size_t>(b.opts.warp_size) *
        static_cast<std::size_t>(b.opts.interval_cols);
    const std::size_t padded = b.col_idx.size();
    BRO_CHECK_MSG(b.vals.size() == padded && padded % interval_size == 0 &&
                      padded / interval_size == b.intervals.size() &&
                      b.nnz <= padded,
                  "BRO-COO arrays mismatch its intervals");
    for (const auto& iv : b.intervals)
      BRO_CHECK_MSG(iv.bits >= 1 && iv.bits <= 32 &&
                        iv.stream.sym_len() == b.opts.sym_len &&
                        iv.stream.height() ==
                            static_cast<std::size_t>(b.opts.warp_size),
                    "corrupt BRO-COO interval");

    const std::vector<index_t> stream_rows =
        decode_coo_rows(b.intervals, b.opts, rows);
    const auto nnz = static_cast<std::size_t>(b.nnz);
    ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
    bool sorted = true;
    for (std::size_t i = 0; i < nnz; ++i) {
      ++ptr_[static_cast<std::size_t>(stream_rows[i]) + 1];
      sorted = sorted && (i == 0 || stream_rows[i - 1] <= stream_rows[i]);
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r)
      ptr_[r + 1] += ptr_[r];
    if (!sorted) {
      std::vector<std::size_t> next(ptr_.begin(), ptr_.end() - 1);
      order_.resize(nnz);
      for (std::size_t i = 0; i < nnz; ++i)
        order_[next[static_cast<std::size_t>(stream_rows[i])]++] = i;
    }
    cols_ = cols;
  }

  void append(index_t r, sparse::CsrBuilder& out) {
    for (std::size_t k = ptr_[static_cast<std::size_t>(r)];
         k < ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::size_t i = order_.empty() ? k : order_[k];
      const index_t c = b_.col_idx[i];
      BRO_CHECK_MSG(c >= 0 && c < cols_,
                    "BRO-COO column " << c << " outside [0, " << cols_
                                      << ')');
      out.push(c, b_.vals[i]);
    }
  }

 private:
  const CooBody& b_;
  index_t cols_ = 0;
  std::vector<std::size_t> ptr_;   // row r's entries: [ptr_[r], ptr_[r+1])
  std::vector<std::size_t> order_; // bucketed stream positions; empty when
                                   // the stream is already row-ordered
};

/// Row r of the result is row r of every part, in order, canonicalized by
/// CsrBuilder::end_row.
template <typename... Parts>
sparse::Csr assemble(index_t rows, index_t cols, std::size_t nnz_hint,
                     Parts&... parts) {
  sparse::CsrBuilder out(rows, cols, nnz_hint);
  for (index_t r = 0; r < rows; ++r) {
    (parts.append(r, out), ...);
    out.end_row();
  }
  return out.finish();
}

sparse::Csr csr_from_ell(const EllBody& b) {
  // BRO-ELL carries no nnz field; rows x width bounds it (and is bounded
  // by the value bytes just read).
  EllRows rows(b);
  return assemble(b.rows, b.cols, b.vals.size(), rows);
}

sparse::Csr csr_from_ans(const AnsBody& b) {
  AnsRows rows(b);
  return assemble(b.rows, b.cols, b.vals.size(), rows);
}

sparse::Csr csr_from_coo(const CooBody& b) {
  BRO_CHECK_MSG(b.rows >= 0 && b.cols >= 0, "corrupt BRO-COO dimensions");
  CooRows rows(b, b.rows, b.cols);
  return assemble(b.rows, b.cols, static_cast<std::size_t>(b.nnz), rows);
}

sparse::Csr csr_from_hyb(const HybBody& b) {
  // The HYB split puts each row's first split_width entries in the ELL part
  // and the rest in the COO part, so ELL row r then COO row r is row r.
  BRO_CHECK_MSG(b.ell.rows == b.rows && b.ell.cols == b.cols,
                "BRO-HYB ELL part dimensions mismatch the matrix");
  EllRows ell(b.ell);
  CooRows coo(b.coo, b.rows, b.cols);
  const std::size_t nnz =
      std::min<std::uint64_t>(b.ell_nnz, b.ell.vals.size()) + b.coo.nnz;
  sparse::Csr out = assemble(b.rows, b.cols, nnz, ell, coo);
  BRO_CHECK_MSG(ell.entries() == b.ell_nnz,
                "BRO-HYB ell_nnz " << b.ell_nnz << " mismatches the "
                                   << ell.entries()
                                   << " entries of its ELL part");
  return out;
}

sparse::Csr csr_from_bro_csr(const BroCsr& m) {
  const auto rows = static_cast<std::size_t>(m.rows());
  const auto& row_ptr = m.row_ptr();
  BRO_CHECK_MSG(m.rows() >= 0 && m.cols() >= 0 &&
                    row_ptr.size() == rows + 1 &&
                    m.bits_per_row().size() == rows &&
                    m.row_sym_ptr().size() == rows + 1 && row_ptr[0] == 0 &&
                    static_cast<std::size_t>(row_ptr[rows]) == m.nnz(),
                "corrupt BRO-CSR row arrays");
  for (std::size_t r = 0; r < rows; ++r)
    BRO_CHECK_MSG(row_ptr[r] <= row_ptr[r + 1] &&
                      m.bits_per_row()[r] >= 1 && m.bits_per_row()[r] <= 32,
                  "corrupt BRO-CSR row " << r);
  sparse::CsrBuilder out(m.rows(), m.cols(), m.nnz());
  for (index_t r = 0; r < m.rows(); ++r) {
    const std::vector<index_t> cols = m.decode_row(r);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      BRO_CHECK_MSG(cols[j] >= 0 && cols[j] < m.cols(),
                    "BRO-CSR column " << cols[j] << " outside [0, "
                                      << m.cols() << ')');
      out.push(cols[j], m.vals()[static_cast<std::size_t>(row_ptr[r]) + j]);
    }
    out.end_row();
  }
  return out.finish();
}

sparse::Csr csr_from_bcsr(const BroBcsr& m) {
  BRO_CHECK_MSG(m.rows() >= 0 && m.cols() >= 0, "corrupt BRO-BCSR dimensions");
  const index_t block_rows =
      m.rows() == 0 ? 0 : (m.rows() - 1) / m.block_r() + 1;
  check_tiling(m.slices(), block_rows, m.options().slice_height, "BRO-BCSR");
  for (const auto& s : m.slices())
    check_ell_slice(s, m.options().sym_len, "BRO-BCSR");
  // The cover stores fill-in zeros; strip them so serialize -> deserialize
  // -> serialize is bitwise idempotent for any matrix without explicitly
  // stored zero values. (A source entry that IS exactly 0.0 is
  // indistinguishable from fill and gets dropped too — the one lossy corner
  // of this format's serialization. SpMV results are unaffected either way.)
  const sparse::Csr cover = m.to_csr();
  sparse::CsrBuilder out(cover.rows, cover.cols, cover.nnz());
  for (index_t r = 0; r < cover.rows; ++r) {
    for (index_t e = cover.row_ptr[r]; e < cover.row_ptr[r + 1]; ++e) {
      const auto i = static_cast<std::size_t>(e);
      if (cover.vals[i] == value_t{0}) continue;
      BRO_CHECK_MSG(cover.col_idx[i] >= 0 && cover.col_idx[i] < cover.cols,
                    "BRO-BCSR column outside the matrix");
      out.push(cover.col_idx[i], cover.vals[i]);
    }
    out.end_row();
  }
  return out.finish();
}

/// Parse one object of any tag and decode it to CSR: the ONE tag-dispatch
/// site behind both read_bro_to_csr overloads.
sparse::Csr decode_csr(ByteReader& in, Format* fmt) {
  const Format f = read_header(in);
  if (fmt != nullptr) *fmt = f;
  switch (f) {
    case Format::kBroEll: return csr_from_ell(read_ell_body(in));
    case Format::kBroAns: return csr_from_ans(read_ans_body(in));
    case Format::kBroCoo: return csr_from_coo(read_coo_body(in));
    case Format::kBroHyb: return csr_from_hyb(read_hyb_body(in));
    case Format::kBroCsr: return csr_from_bro_csr(read_csr(in));
    case Format::kBroBcsr: return csr_from_bcsr(read_bcsr(in));
    default: break;
  }
  BRO_CHECK_MSG(false, "unsupported .bro payload format tag");
  return {}; // unreachable
}

/// The std::istream adapters: read the rest of the stream, parse one object
/// from those bytes, and leave a seekable stream positioned just after the
/// object (a non-seekable one is consumed to its end).
template <typename Parse>
auto read_from_stream(std::istream& in, Parse&& parse) {
  const std::istream::pos_type start = in.tellg();
  std::vector<std::uint8_t> bytes;
  if (start != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
    const auto end = in.tellg();
    in.seekg(start);
    bytes.resize(static_cast<std::size_t>(end - start));
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    BRO_CHECK_MSG(in.good(), "stream read failed");
  } else {
    in.clear();
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ByteReader r(bytes);
  auto out = parse(r);
  if (start != std::istream::pos_type(-1)) {
    in.clear();
    in.seekg(start + static_cast<std::streamoff>(r.position()));
  }
  return out;
}

} // namespace

Format peek_bro_format(std::istream& in) {
  std::uint8_t header[kHeaderBytes];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  BRO_CHECK_MSG(in.gcount() == static_cast<std::streamsize>(sizeof(header)),
                "truncated stream while reading the header");
  ByteReader r(header, sizeof(header));
  return read_header(r);
}

void write_bro_ell(std::ostream& out, const BroEll& m) {
  write_header(out, Tag::kBroEll);
  write_ell_body(out, m);
}

BroEll read_bro_ell(std::istream& in) {
  return read_from_stream(in, [](ByteReader& r) {
    expect_header(r, Format::kBroEll);
    return make_ell(read_ell_body(r));
  });
}

void write_bro_ans(std::ostream& out, const BroAns& m) {
  write_header(out, Tag::kBroAns);
  write_ans_body(out, m);
}

BroAns read_bro_ans(std::istream& in) {
  return read_from_stream(in, [](ByteReader& r) {
    expect_header(r, Format::kBroAns);
    return read_ans(r);
  });
}

void write_bro_coo(std::ostream& out, const BroCoo& m) {
  write_header(out, Tag::kBroCoo);
  write_coo_body(out, m);
}

BroCoo read_bro_coo(std::istream& in) {
  return read_from_stream(in, [](ByteReader& r) {
    expect_header(r, Format::kBroCoo);
    return make_coo(read_coo_body(r));
  });
}

void write_bro_hyb(std::ostream& out, const BroHyb& m) {
  write_header(out, Tag::kBroHyb);
  write_pod(out, m.rows());
  write_pod(out, m.cols());
  write_pod(out, m.split_width());
  write_pod<std::uint64_t>(out, m.ell_nnz());
  write_ell_body(out, m.ell_part());
  write_coo_body(out, m.coo_part());
}

BroHyb read_bro_hyb(std::istream& in) {
  return read_from_stream(in, [](ByteReader& r) {
    expect_header(r, Format::kBroHyb);
    return read_hyb(r);
  });
}

void write_bro_csr(std::ostream& out, const BroCsr& m) {
  write_header(out, Tag::kBroCsr);
  write_pod(out, m.rows());
  write_pod(out, m.cols());
  write_pod<std::int32_t>(out, m.options().sym_len);
  write_vec(out, m.row_ptr());
  write_vec(out, m.bits_per_row());
  write_vec(out, m.row_sym_ptr());
  write_vec(out, m.vals());
  // Raw bit-string words.
  const bits::BitString& stream = SerializeAccess::csr_stream(m);
  write_pod<std::uint64_t>(out, stream.size_bits());
  write_vec(out, stream.words());
}

BroCsr read_bro_csr(std::istream& in) {
  return read_from_stream(in, [](ByteReader& r) {
    expect_header(r, Format::kBroCsr);
    return read_csr(r);
  });
}

void write_bro_bcsr(std::ostream& out, const BroBcsr& m) {
  write_header(out, Tag::kBroBcsr);
  write_bcsr_body(out, m);
}

BroBcsr read_bro_bcsr(std::istream& in) {
  return read_from_stream(in, [](ByteReader& r) {
    expect_header(r, Format::kBroBcsr);
    return read_bcsr(r);
  });
}

sparse::Csr read_bro_to_csr(std::span<const std::uint8_t> bytes, Format* fmt) {
  ByteReader r(bytes);
  sparse::Csr out = decode_csr(r, fmt);
  BRO_CHECK_MSG(r.done(), r.remaining() << " trailing bytes after the .bro "
                                           "object");
  return out;
}

sparse::Csr read_bro_to_csr(std::istream& in, Format* fmt) {
  return read_from_stream(in,
                          [fmt](ByteReader& r) { return decode_csr(r, fmt); });
}

void save_bro_ell(const std::string& path, const BroEll& m) {
  std::ofstream out(path, std::ios::binary);
  BRO_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  write_bro_ell(out, m);
}

BroEll load_bro_ell(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  BRO_CHECK_MSG(in.good(), "cannot open '" << path << '\'');
  return read_bro_ell(in);
}

void save_bro_hyb(const std::string& path, const BroHyb& m) {
  std::ofstream out(path, std::ios::binary);
  BRO_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  write_bro_hyb(out, m);
}

BroHyb load_bro_hyb(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  BRO_CHECK_MSG(in.good(), "cannot open '" << path << '\'');
  return read_bro_hyb(in);
}

} // namespace bro::core
