#include "core/serialize.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <istream>
#include <iterator>
#include <limits>
#include <numeric>
#include <ostream>
#include <ranges>

#include "bits/delta.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/uninit.h"

namespace bro::core {

namespace {

constexpr std::uint32_t kMagic = 0x53'4F'52'42; // "BROS" little-endian
constexpr std::uint32_t kVersion = 1;

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
  // The stream keeps ELLPACK's padded column-major value array, built from
  // the values the representation reads in place.
  write_vec(out, ell_values(m.csr(), m.width()));
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

bits::MuxedStream read_mux(ByteReader& in) {
  const auto sym_len = in.get<std::int32_t>();
  BRO_CHECK_MSG(sym_len == 32 || sym_len == 64,
                "corrupt stream sym_len " << sym_len);
  const auto height = in.get<std::uint64_t>();
  const auto spr = in.get<std::uint64_t>();
  // Every slot is a u64 on the wire, so height x symbols_per_row is bounded
  // by the bytes left before the stream is sized. A stream with no symbols
  // (a slice of empty rows) may be of any height up to the sanity bound.
  const std::uint64_t slots_left = in.remaining() / sizeof(std::uint64_t);
  BRO_CHECK_MSG(height <= ByteReader::kSaneCount &&
                    spr <= ByteReader::kSaneCount &&
                    (spr == 0 || height <= slots_left / spr),
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

/// BRO-CSR's arrays and its packed stream's words, all read where they lie.
struct CsrBody {
  index_t rows = 0, cols = 0;
  std::int32_t sym_len = 0;
  ArrayView<index_t> row_ptr;
  ArrayView<std::uint8_t> bits_per_row;
  ArrayView<std::uint32_t> row_sym_ptr;
  ArrayView<value_t> vals;
  ArrayView<std::uint64_t> words;
};

CsrBody read_csr_body(ByteReader& in) {
  CsrBody b;
  b.rows = in.get<index_t>();
  b.cols = in.get<index_t>();
  b.sym_len = in.get<std::int32_t>();
  b.row_ptr = read_view<index_t>(in);
  b.bits_per_row = read_view<std::uint8_t>(in);
  b.row_sym_ptr = read_view<std::uint32_t>(in);
  b.vals = read_view<value_t>(in);
  const auto size_bits = in.get<std::uint64_t>();
  b.words = read_view<std::uint64_t>(in);
  BRO_CHECK_MSG(b.words.size() == (size_bits + 63) / 64,
                "word count inconsistent with bit size");
  return b;
}

struct BcsrBody {
  index_t rows = 0, cols = 0;
  int br = 1, bc = 1;
  BroBcsrOptions opts;
  std::vector<BroEllSlice> slices; // rows are block rows
  ArrayView<value_t> vals;         // row-major br x bc tiles, per slice
};

BcsrBody read_bcsr_body(ByteReader& in) {
  BcsrBody b;
  b.rows = in.get<index_t>();
  b.cols = in.get<index_t>();
  b.br = in.get<std::int32_t>();
  b.bc = in.get<std::int32_t>();
  BRO_CHECK_MSG(b.br >= 1 && b.br <= 8 &&
                    (b.bc == 1 || b.bc == 2 || b.bc == 4 || b.bc == 8),
                "corrupt BRO-BCSR block shape " << b.br << 'x' << b.bc);
  in.get<index_t>();       // ell_width: the savings baseline, not decoded
  in.get<std::uint64_t>(); // nnz with fill: pass 1 counts the real entries
  b.opts.block_rows = in.get<std::int32_t>();
  b.opts.block_cols = in.get<std::int32_t>();
  b.opts.slice_height = in.get<std::int32_t>();
  b.opts.sym_len = in.get<std::int32_t>();
  b.opts.min_fill = in.get<double>();
  BRO_CHECK_MSG(b.opts.sym_len == 32 || b.opts.sym_len == 64,
                "corrupt sym_len");
  BRO_CHECK_MSG(b.opts.slice_height > 0, "corrupt slice_height");
  b.slices = read_ell_slices(in);
  b.vals = read_view<value_t>(in);
  return b;
}

// ---------------------------------------------------------------------------
// Ingest: stream bytes straight to canonical CSR, with no padded ELL,
// intermediate COO or sort in between, in two passes over tiles of rows.
// Every tag decodes this way. A tile is a run of rows (an ELL-style
// body's slice, the rows of a BRO-BCSR slice's block rows, 256 rows
// otherwise) and each tile is one task of parallel_for_slices. A body is
// one or more parts; row r of the result is row r of every part, in part
// order. A part decodes any tile in both passes:
//
//   count(t, first, last, len)    adds the entries of row first+i to len[i];
//   fill(t, first, last, pos, cols, vals)
//                                 writes them to cols/vals at pos[i],
//                                 pos[i] + 1, ..., advancing pos[i].
//
// Pass 1 counts into the output's row_ptr and one exclusive scan turns the
// counts into offsets; pass 2 decodes again, writes every entry straight
// into the final arrays and canonicalizes the tile's rows in place. Both
// passes decode the same bytes the same way, so the output does not depend
// on the thread count, and a part's scratch is O(tile rows). Each check
// below guards an index the decoders would otherwise take on trust; the
// first tile that fails one throws after its loop (util::parallel_for_slices).

/// Rows per tile of the bodies that have no slices (BRO-COO, BRO-CSR).
constexpr index_t kIngestTileRows = 256;

index_t tile_count(index_t rows, index_t tile_rows) {
  return static_cast<index_t>(
      (static_cast<std::int64_t>(rows) + tile_rows - 1) / tile_rows);
}

/// Rows [first, last) of tile t.
std::pair<index_t, index_t> tile_span(index_t t, index_t rows,
                                      index_t tile_rows) {
  const std::int64_t first = static_cast<std::int64_t>(t) * tile_rows;
  return {static_cast<index_t>(first),
          static_cast<index_t>(std::min<std::int64_t>(rows, first + tile_rows))};
}

/// Pass 1: row r's entry count over every part into row_ptr[r + 1], then
/// the exclusive scan, checked against the index_t range. Each tile zeroes
/// its own counts.
template <typename... Parts>
util::UninitVector<index_t> count_rows(index_t rows, index_t tile_rows,
                                       Parts&... parts) {
  util::UninitVector<index_t> row_ptr(static_cast<std::size_t>(rows) + 1);
  row_ptr[0] = 0;
  util::parallel_for_slices(tile_count(rows, tile_rows), [&](index_t t) {
    const auto [first, last] = tile_span(t, rows, tile_rows);
    index_t* len = row_ptr.data() + first + 1;
    std::fill(len, len + (last - first), index_t{0});
    (parts.count(t, first, last, len), ...);
  });
  std::int64_t total = 0;
  for (std::size_t r = 1; r < row_ptr.size(); ++r) {
    total += row_ptr[r];
    BRO_CHECK_MSG(total <= std::numeric_limits<index_t>::max(),
                  "matrix exceeds the index range");
    row_ptr[r] = static_cast<index_t>(total);
  }
  return row_ptr;
}

/// Close the slots that rows merging duplicate columns left behind: each
/// row's canonical entries are a prefix of its slots, ended by the first
/// column -1.
void compact_rows(sparse::Csr& a) {
  std::size_t w = 0, start = 0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(a.rows); ++r) {
    const auto end = static_cast<std::size_t>(a.row_ptr[r + 1]);
    for (std::size_t k = start; k < end && a.col_idx[k] >= 0; ++k, ++w) {
      a.col_idx[w] = a.col_idx[k];
      a.vals[w] = a.vals[k];
    }
    a.row_ptr[r + 1] = static_cast<index_t>(w);
    start = end;
  }
  a.col_idx.resize(w);
  a.vals.resize(w);
}

/// Pass 2: the parts write every entry into place (the first touch of the
/// unzeroed arrays, on the tile's thread), then each row is
/// canonicalized there (sparse::canonicalize_row). A row whose columns
/// arrive unsorted or duplicated comes only from a hand-built stream; one
/// that merged duplicates marks its leftover slots with column -1, and
/// compact_rows closes them once every tile is done.
template <typename... Parts>
sparse::Csr fill_rows(index_t rows, index_t cols, index_t tile_rows,
                      util::UninitVector<index_t> row_ptr, Parts&... parts) {
  sparse::Csr out;
  out.rows = rows;
  out.cols = cols;
  out.col_idx.resize(static_cast<std::size_t>(row_ptr.back()));
  out.vals.resize(out.col_idx.size());
  std::atomic<bool> merged{false};
  util::parallel_for_slices(tile_count(rows, tile_rows), [&](index_t t) {
    const auto [first, last] = tile_span(t, rows, tile_rows);
    std::vector<index_t> pos(row_ptr.begin() + first, row_ptr.begin() + last);
    (parts.fill(t, first, last, pos.data(), out.col_idx.data(),
                out.vals.data()),
     ...);
    for (index_t r = first; r < last; ++r) {
      BRO_CHECK_MSG(pos[static_cast<std::size_t>(r - first)] == row_ptr[r + 1],
                    "ingest passes disagree on row " << r);
      const auto start = static_cast<std::size_t>(row_ptr[r]);
      const auto end = static_cast<std::size_t>(row_ptr[r + 1]);
      const std::size_t n =
          start + sparse::canonicalize_row(out.col_idx.data() + start,
                                           out.vals.data() + start,
                                           end - start);
      if (n < end) {
        std::fill(out.col_idx.begin() + static_cast<std::ptrdiff_t>(n),
                  out.col_idx.begin() + static_cast<std::ptrdiff_t>(end),
                  index_t{-1});
        merged = true;
      }
    }
  });
  out.row_ptr = std::move(row_ptr);
  if (merged) compact_rows(out);
  return out;
}

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

/// An ELL-style slice's stream has one lane per slice row, a bit width in
/// [1, 32] per slice column, and room for every lane's fields. A slice with
/// columns therefore has symbols, so its height is bounded by the bytes its
/// stream occupies.
void check_ell_slice(const BroEllSlice& s, int sym_len, const char* what) {
  BRO_CHECK_MSG(s.bit_alloc.size() == static_cast<std::size_t>(s.num_col),
                "corrupt " << what << " slice header");
  std::size_t bits = 0;
  for (const std::uint8_t b : s.bit_alloc) {
    BRO_CHECK_MSG(b >= 1 && b <= 32, "corrupt " << what << " bit width "
                                                << int(b));
    bits += b;
  }
  BRO_CHECK_MSG(s.stream.sym_len() == sym_len &&
                    s.stream.height() == static_cast<std::size_t>(s.height) &&
                    bits <= s.stream.symbols_per_row() *
                                static_cast<std::size_t>(sym_len),
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

void check_ell_body(const EllBody& b) {
  check_ell_values(b.rows, b.cols, b.width, b.vals.size(), "BRO-ELL");
  check_tiling(b.slices, b.rows, b.opts.slice_height, "BRO-ELL");
  for (const auto& s : b.slices) {
    check_ell_slice(s, b.opts.sym_len, "BRO-ELL");
    BRO_CHECK_MSG(s.num_col <= b.width, "BRO-ELL slice wider than width");
  }
}

void check_ans_body(const AnsBody& b) {
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

/// The lanes of one BRO-ELL slice, decoded in lockstep: column c's delta
/// of every lane (0 = padding) per call.
class EllLanes {
 public:
  EllLanes(const EllBody& b, const BroEllSlice& s)
      : s_(s), dec_(s.stream, b.opts.sym_len) {}
  void operator()(index_t c, std::uint32_t* d) {
    dec_.next(s_.bit_alloc[static_cast<std::size_t>(c)], d);
  }

 private:
  const BroEllSlice& s_;
  LockstepDecoder dec_;
};

/// The lanes of one BRO-ANS slice: one AnsRowDecoder per lane, stepped
/// together column by column.
class AnsLanes {
 public:
  AnsLanes(const AnsBody& b, const BroAnsSlice& s) {
    dec_.reserve(static_cast<std::size_t>(s.height));
    for (index_t t = 0; t < s.height; ++t)
      dec_.emplace_back(b.table, s, t, b.opts.sym_len);
  }
  void operator()(index_t, std::uint32_t* d) {
    for (AnsRowDecoder& dec : dec_) *d++ = dec.next();
  }

 private:
  std::vector<AnsRowDecoder> dec_;
};

/// An ELL-style body as a part: tile t is slice t, its lanes decoded
/// column by column, so the deltas and the column-major value array are
/// read sequentially. Padding must be a suffix of each row. The format's
/// own SpMV pairs value slot c with stream position c, so a real delta
/// after a padding one would decode to a CSR whose product differs from
/// the format's; no writer emits one, and the row is rejected.
template <typename Body, typename Lanes>
class SlicePart {
 public:
  explicit SlicePart(const Body& b) : b_(b) {}

  void count(index_t t, index_t, index_t, index_t* len) {
    const auto& s = b_.slices[static_cast<std::size_t>(t)];
    if (s.num_col == 0) return; // empty rows: no lanes to decode
    const auto h = static_cast<std::size_t>(s.height);
    Lanes lanes(b_, s);
    std::vector<std::uint32_t> d(h);
    std::vector<index_t> n(h, 0); // real deltas so far per lane
    bool interior = false;
    for (index_t c = 0; c < s.num_col; ++c) {
      lanes(c, d.data());
      for (std::size_t i = 0; i < h; ++i) {
        const bool real = d[i] != bits::kInvalidDelta;
        interior |= real && n[i] != c;
        n[i] += real;
      }
    }
    BRO_CHECK_MSG(!interior, "row stream holds a real delta after padding");
    std::uint64_t entries = 0;
    for (std::size_t i = 0; i < h; ++i) {
      len[i] += n[i];
      entries += static_cast<std::uint64_t>(n[i]);
    }
    entries_ += entries;
  }

  void fill(index_t t, index_t first, index_t, index_t* pos, index_t* cols,
            value_t* vals) {
    const auto& s = b_.slices[static_cast<std::size_t>(t)];
    if (s.num_col == 0) return;
    const auto h = static_cast<std::size_t>(s.height);
    Lanes lanes(b_, s);
    std::vector<std::uint32_t> d(h);
    std::vector<std::int64_t> col(h, -1);
    for (index_t c = 0; c < s.num_col; ++c) {
      lanes(c, d.data());
      const std::size_t slot = static_cast<std::size_t>(c) *
                                   static_cast<std::size_t>(b_.rows) +
                               static_cast<std::size_t>(first);
      for (std::size_t i = 0; i < h; ++i) {
        if (d[i] == bits::kInvalidDelta) continue; // padding: a suffix
        col[i] += d[i];
        BRO_CHECK_MSG(col[i] < b_.cols, "decoded column " << col[i]
                                                          << " outside [0, "
                                                          << b_.cols << ')');
        const auto p = static_cast<std::size_t>(pos[i]++);
        cols[p] = static_cast<index_t>(col[i]);
        vals[p] = b_.vals[slot + i];
      }
    }
  }

  /// Real entries counted by pass 1.
  std::uint64_t entries() const { return entries_; }

 private:
  const Body& b_;
  std::atomic<std::uint64_t> entries_{0};
};

using EllPart = SlicePart<EllBody, EllLanes>;
using AnsPart = SlicePart<AnsBody, AnsLanes>;

/// The entries of a BRO-COO body as a part: the interval lanes decode to
/// one row index per entry (decode_coo_rows, intervals in parallel), and a
/// tile's entries are the run of rows inside it. The writer emits entries
/// in row order; a hand-built stream that interleaves rows is ordered by
/// row first, stably, so each row's entries keep their stream order for
/// canonicalize_row.
class CooPart {
 public:
  CooPart(const CooBody& b, index_t rows, index_t cols) : b_(b), cols_(cols) {
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

    rows_ = decode_coo_rows(b.intervals, b.opts, rows);
    rows_.resize(static_cast<std::size_t>(b.nnz));
    if (!std::is_sorted(rows_.begin(), rows_.end())) {
      order_.resize(rows_.size());
      std::iota(order_.begin(), order_.end(), std::size_t{0});
      std::stable_sort(order_.begin(), order_.end(),
                       [&](std::size_t a, std::size_t c) {
                         return rows_[a] < rows_[c];
                       });
      util::UninitVector<index_t> sorted(rows_.size());
      for (std::size_t k = 0; k < sorted.size(); ++k)
        sorted[k] = rows_[order_[k]];
      rows_ = std::move(sorted);
    }
  }

  void count(index_t, index_t first, index_t last, index_t* len) {
    const auto [lo, hi] = run(first, last);
    for (std::size_t k = lo; k < hi; ++k) ++len[rows_[k] - first];
  }

  void fill(index_t, index_t first, index_t last, index_t* pos, index_t* cols,
            value_t* vals) {
    const auto [lo, hi] = run(first, last);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t i = order_.empty() ? k : order_[k];
      const index_t c = b_.col_idx[i];
      BRO_CHECK_MSG(c >= 0 && c < cols_,
                    "BRO-COO column " << c << " outside [0, " << cols_
                                      << ')');
      const auto p = static_cast<std::size_t>(pos[rows_[k] - first]++);
      cols[p] = c;
      vals[p] = b_.vals[i];
    }
  }

 private:
  /// The entries of rows [first, last): positions [lo, hi) of rows_.
  std::pair<std::size_t, std::size_t> run(index_t first, index_t last) const {
    const auto lo = std::lower_bound(rows_.begin(), rows_.end(), first);
    const auto hi = std::lower_bound(lo, rows_.end(), last);
    return {static_cast<std::size_t>(lo - rows_.begin()),
            static_cast<std::size_t>(hi - rows_.begin())};
  }

  const CooBody& b_;
  index_t cols_ = 0;
  util::UninitVector<index_t> rows_; // each entry's row, ascending
  std::vector<std::size_t> order_;   // stream position of entry k; empty
                                     // when the stream is row-ordered
};

/// A BRO-CSR body as a part of the fill pass (its stored row_ptr gives the
/// counts): row r's deltas start at its row symbol pointer, all of the
/// row's one bit width.
class BroCsrPart {
 public:
  explicit BroCsrPart(const CsrBody& b) : b_(b) {}

  void fill(index_t, index_t first, index_t last, index_t* pos, index_t* cols,
            value_t* vals) {
    const auto sym_len = static_cast<std::size_t>(b_.sym_len);
    for (index_t r = first; r < last; ++r) {
      const auto row = static_cast<std::size_t>(r);
      const int b = b_.bits_per_row[row];
      std::size_t bit_pos = b_.row_sym_ptr[row] * sym_len;
      std::int64_t col = -1;
      for (index_t e = b_.row_ptr[row]; e < b_.row_ptr[row + 1]; ++e) {
        col += static_cast<std::int64_t>(
            bits::peek_bits(b_.words, bit_pos, b));
        bit_pos += static_cast<std::size_t>(b);
        BRO_CHECK_MSG(col >= 0 && col < b_.cols,
                      "BRO-CSR column " << col << " outside [0, " << b_.cols
                                        << ')');
        const auto p = static_cast<std::size_t>(pos[r - first]++);
        cols[p] = static_cast<index_t>(col);
        vals[p] = b_.vals[static_cast<std::size_t>(e)];
      }
    }
  }

 private:
  const CsrBody& b_;
};

/// A BRO-BCSR body as a part: tile t is slice t, slice_height block rows
/// of block_r matrix rows each. Each block row's stream decodes its block
/// columns in ascending order, and every real block gives each of its
/// rows the tile's values in column order, so rows come out sorted. A
/// tile value equal to zero is the cover's fill and is dropped; a source
/// entry that IS exactly 0.0 cannot be told from fill and is dropped too
/// (the one lossy corner of this format's serialization; SpMV results are
/// unaffected). The format's SpMV takes block j's tile at stream position
/// j, so, as in SlicePart, a real delta after a padding one is rejected.
class BcsrPart {
 public:
  explicit BcsrPart(const BcsrBody& b)
      : b_(b), block_cols_((static_cast<std::int64_t>(b.cols) + b.bc - 1) /
                           b.bc) {
    BRO_CHECK_MSG(b.rows >= 0 && b.cols >= 0, "corrupt BRO-BCSR dimensions");
    const index_t block_rows = b.rows == 0 ? 0 : (b.rows - 1) / b.br + 1;
    check_tiling(b.slices, block_rows, b.opts.slice_height, "BRO-BCSR");
    std::size_t slots = 0;
    const auto tile = static_cast<std::size_t>(b.br * b.bc);
    for (const auto& s : b.slices) {
      check_ell_slice(s, b.opts.sym_len, "BRO-BCSR");
      val_off_.push_back(slots);
      slots += static_cast<std::size_t>(s.height) *
               static_cast<std::size_t>(s.num_col) * tile;
    }
    BRO_CHECK_MSG(b.vals.size() == slots,
                  "BRO-BCSR value array size mismatches its slices");
  }

  /// Matrix rows per tile: one slice's, capped at the matrix so that a
  /// lone slice of a tall slice_height cannot overflow index_t.
  index_t tile_rows() const {
    return static_cast<index_t>(std::clamp<std::int64_t>(
        std::int64_t{b_.opts.slice_height} * b_.br, 1,
        std::max<index_t>(b_.rows, 1)));
  }

  void count(index_t t, index_t first, index_t, index_t* len) {
    visit(t, first, [&](index_t i, index_t, value_t) { ++len[i]; });
  }

  void fill(index_t t, index_t first, index_t, index_t* pos, index_t* cols,
            value_t* vals) {
    visit(t, first, [&](index_t i, index_t c, value_t v) {
      const auto p = static_cast<std::size_t>(pos[i]++);
      cols[p] = c;
      vals[p] = v;
    });
  }

 private:
  /// emit(row - first, column, value) for every non-zero value of slice
  /// t's real blocks, block by block.
  template <typename Emit>
  void visit(index_t t, index_t first, Emit&& emit) const {
    const BroEllSlice& s = b_.slices[static_cast<std::size_t>(t)];
    const auto tile = static_cast<std::size_t>(b_.br * b_.bc);
    for (index_t i = 0; i < s.height; ++i) {
      const index_t r0 = (s.first_row + i) * b_.br;
      const int rh = static_cast<int>(std::min<index_t>(b_.br, b_.rows - r0));
      RowStreamDecoder dec(s, i, b_.opts.sym_len);
      std::int64_t bcol = -1;
      bool padded = false;
      for (index_t j = 0; j < s.num_col; ++j) {
        const std::uint32_t d =
            dec.next(s.bit_alloc[static_cast<std::size_t>(j)]);
        if (d == bits::kInvalidDelta) {
          padded = true;
          continue;
        }
        BRO_CHECK_MSG(!padded, "row stream holds a real delta after padding");
        bcol += d;
        BRO_CHECK_MSG(bcol < block_cols_, "decoded block column "
                                              << bcol << " outside [0, "
                                              << block_cols_ << ')');
        const auto c0 = static_cast<index_t>(bcol * b_.bc);
        const int ch = static_cast<int>(std::min<index_t>(b_.bc, b_.cols - c0));
        const std::size_t at =
            val_off_[static_cast<std::size_t>(t)] +
            (static_cast<std::size_t>(i) * static_cast<std::size_t>(s.num_col) +
             static_cast<std::size_t>(j)) *
                tile;
        for (int k = 0; k < rh; ++k)
          for (int c = 0; c < ch; ++c) {
            const value_t v =
                b_.vals[at + static_cast<std::size_t>(k * b_.bc + c)];
            if (v != value_t{0}) emit(r0 - first + k, c0 + c, v);
          }
      }
    }
  }

  const BcsrBody& b_;
  std::int64_t block_cols_ = 0;
  std::vector<std::size_t> val_off_; // per-slice offset into the tiles
};

sparse::Csr csr_from_ell(const EllBody& b) {
  check_ell_body(b);
  EllPart ell(b);
  const index_t h = b.opts.slice_height;
  return fill_rows(b.rows, b.cols, h, count_rows(b.rows, h, ell), ell);
}

sparse::Csr csr_from_ans(const AnsBody& b) {
  check_ans_body(b);
  AnsPart ans(b);
  const index_t h = b.opts.slice_height;
  return fill_rows(b.rows, b.cols, h, count_rows(b.rows, h, ans), ans);
}

sparse::Csr csr_from_coo(const CooBody& b) {
  BRO_CHECK_MSG(b.rows >= 0 && b.cols >= 0, "corrupt BRO-COO dimensions");
  CooPart coo(b, b.rows, b.cols);
  return fill_rows(b.rows, b.cols, kIngestTileRows,
                   count_rows(b.rows, kIngestTileRows, coo), coo);
}

sparse::Csr csr_from_hyb(const HybBody& b) {
  // The HYB split puts each row's first split_width entries in the ELL part
  // and the rest in the COO part, so ELL row r then COO row r is row r.
  BRO_CHECK_MSG(b.ell.rows == b.rows && b.ell.cols == b.cols,
                "BRO-HYB ELL part dimensions mismatch the matrix");
  check_ell_body(b.ell);
  EllPart ell(b.ell);
  CooPart coo(b.coo, b.rows, b.cols);
  const index_t h = b.ell.opts.slice_height;
  util::UninitVector<index_t> row_ptr = count_rows(b.rows, h, ell, coo);
  BRO_CHECK_MSG(ell.entries() == b.ell_nnz,
                "BRO-HYB ell_nnz " << b.ell_nnz << " mismatches the "
                                   << ell.entries()
                                   << " entries of its ELL part");
  return fill_rows(b.rows, b.cols, h, std::move(row_ptr), ell, coo);
}

sparse::Csr csr_from_bro_csr(const CsrBody& b) {
  const auto rows = static_cast<std::size_t>(b.rows);
  BRO_CHECK_MSG(b.rows >= 0 && b.cols >= 0 && b.row_ptr.size() == rows + 1 &&
                    b.bits_per_row.size() == rows &&
                    b.row_sym_ptr.size() == rows + 1 && b.row_ptr[0] == 0 &&
                    static_cast<std::size_t>(b.row_ptr[rows]) == b.vals.size(),
                "corrupt BRO-CSR row arrays");
  util::UninitVector<index_t> row_ptr(rows + 1);
  row_ptr[0] = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    row_ptr[r + 1] = b.row_ptr[r + 1];
    BRO_CHECK_MSG(row_ptr[r] <= row_ptr[r + 1] && b.bits_per_row[r] >= 1 &&
                      b.bits_per_row[r] <= 32,
                  "corrupt BRO-CSR row " << r);
  }
  BroCsrPart part(b);
  return fill_rows(b.rows, b.cols, kIngestTileRows, std::move(row_ptr), part);
}

sparse::Csr csr_from_bcsr(const BcsrBody& b) {
  BcsrPart bcsr(b);
  const index_t h = bcsr.tile_rows();
  return fill_rows(b.rows, b.cols, h, count_rows(b.rows, h, bcsr), bcsr);
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
    case Format::kBroCsr: return csr_from_bro_csr(read_csr_body(in));
    case Format::kBroBcsr: return csr_from_bcsr(read_bcsr_body(in));
    default: break;
  }
  BRO_CHECK_MSG(false, "unsupported .bro payload format tag");
  return {}; // unreachable
}

} // namespace

void write_bro_ell(std::ostream& out, const BroEll& m) {
  write_header(out, Tag::kBroEll);
  write_ell_body(out, m);
}

void write_bro_ans(std::ostream& out, const BroAns& m) {
  write_header(out, Tag::kBroAns);
  write_ans_body(out, m);
}

void write_bro_coo(std::ostream& out, const BroCoo& m) {
  write_header(out, Tag::kBroCoo);
  write_coo_body(out, m);
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
  const bits::BitString& stream = m.stream();
  write_pod<std::uint64_t>(out, stream.size_bits());
  write_vec(out, stream.words());
}

void write_bro_bcsr(std::ostream& out, const BroBcsr& m) {
  write_header(out, Tag::kBroBcsr);
  write_bcsr_body(out, m);
}

sparse::Csr read_bro_to_csr(std::span<const std::uint8_t> bytes, Format* fmt) {
  ByteReader r(bytes);
  sparse::Csr out = decode_csr(r, fmt);
  BRO_CHECK_MSG(r.done(), r.remaining() << " trailing bytes after the .bro "
                                           "object");
  return out;
}

sparse::Csr read_bro_to_csr(std::istream& in, Format* fmt) {
  // Read the rest of the stream, parse one object from those bytes, and
  // leave a seekable stream just after it (a non-seekable one is consumed
  // to its end).
  const std::istream::pos_type start = in.tellg();
  util::UninitVector<std::uint8_t> bytes; // read() overwrites it in full
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
  sparse::Csr out = decode_csr(r, fmt);
  if (start != std::istream::pos_type(-1)) {
    in.clear();
    in.seekg(start + static_cast<std::streamoff>(r.position()));
  }
  return out;
}

} // namespace bro::core
