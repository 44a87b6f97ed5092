#include "core/bro_bcsr.h"

#include <algorithm>
#include <limits>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "util/error.h"

namespace bro::core {

namespace {

// Relative cost the best blocked cover must stay under versus the unblocked
// baseline: hysteresis so matrices that are only marginally blocked keep
// BRO-ELL (whose decode is the more mature path). The fill floor is the
// structural discriminator (run-structured matrices never cover densely);
// this margin additionally demands the cover actually pays for itself.
// Truss-FEM assemblies stay under 0.48 on this ratio from 1/16 generator
// scale up (and fall with size), so 0.7 leaves real headroom.
constexpr double kBcsrSavingsMargin = 0.7;

void check_shape(int br, int bc) {
  BRO_CHECK_MSG(br >= 1 && br <= 8, "block_rows must be in [1, 8]");
  BRO_CHECK_MSG(bc == 1 || bc == 2 || bc == 4 || bc == 8,
                "block_cols must divide 8");
}

/// Walk the block rows of an r x c cover in order, materializing one block
/// row's ascending unique block-column list at a time (cursor merge over the
/// r member rows; each CSR row is sorted).
template <typename Fn>
void for_each_block_row(const sparse::Csr& csr, int br, int bc, Fn&& fn) {
  const index_t nbrows = csr.rows == 0 ? 0 : (csr.rows + br - 1) / br;
  std::vector<index_t> bcols;
  std::array<index_t, 8> p{}, e{};
  for (index_t brow = 0; brow < nbrows; ++brow) {
    const index_t r0 = brow * br;
    const int rh = static_cast<int>(std::min<index_t>(br, csr.rows - r0));
    for (int i = 0; i < rh; ++i) {
      p[static_cast<std::size_t>(i)] = csr.row_ptr[static_cast<std::size_t>(r0 + i)];
      e[static_cast<std::size_t>(i)] = csr.row_ptr[static_cast<std::size_t>(r0 + i) + 1];
    }
    bcols.clear();
    for (;;) {
      index_t next = std::numeric_limits<index_t>::max();
      for (int i = 0; i < rh; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        if (p[ui] < e[ui])
          next = std::min(next, csr.col_idx[static_cast<std::size_t>(p[ui])] /
                                    bc);
      }
      if (next == std::numeric_limits<index_t>::max()) break;
      bcols.push_back(next);
      for (int i = 0; i < rh; ++i) {
        auto& pi = p[static_cast<std::size_t>(i)];
        const index_t ei = e[static_cast<std::size_t>(i)];
        while (pi < ei &&
               csr.col_idx[static_cast<std::size_t>(pi)] / bc == next)
          ++pi;
      }
    }
    fn(brow, rh, bcols);
  }
}

/// Exact packed-stream cost of slicing `lists` of (block-)column indices the
/// BRO-ELL way: per-slice-column bit allocation over the 1-based deltas,
/// per-row padding to a sym_len multiple, plus bit_alloc and num_col header
/// bytes per slice. Streams one slice of state at a time.
struct SliceCostAccum {
  int slice_height;
  int sym_len;
  std::size_t bits = 0;
  std::size_t value_slots = 0; // slices' height * num_col (TILES, not bytes)

  // current slice state
  index_t in_slice = 0;
  index_t num_col = 0;
  std::vector<int> width = {}; // per slice column, floor 1

  void add_row(std::span<const index_t> cols) {
    const auto deltas = bits::delta_encode_row(cols);
    if (static_cast<index_t>(deltas.size()) > num_col) {
      num_col = static_cast<index_t>(deltas.size());
      width.resize(static_cast<std::size_t>(num_col), 1);
    }
    for (std::size_t j = 0; j < deltas.size(); ++j)
      width[j] = std::max(width[j], bits::bit_width_of(deltas[j]));
    if (++in_slice == slice_height) flush();
  }

  void flush() {
    if (in_slice == 0) return;
    std::size_t row_bits = 0;
    for (index_t j = 0; j < num_col; ++j)
      row_bits += static_cast<std::size_t>(width[static_cast<std::size_t>(j)]);
    const auto sym = static_cast<std::size_t>(sym_len);
    row_bits = (row_bits + sym - 1) / sym * sym;
    bits += static_cast<std::size_t>(in_slice) * row_bits;
    bits += 8 * (static_cast<std::size_t>(num_col) + sizeof(index_t));
    value_slots +=
        static_cast<std::size_t>(in_slice) * static_cast<std::size_t>(num_col);
    in_slice = 0;
    num_col = 0;
    width.clear();
  }
};

} // namespace

BcsrAnalysis analyze_bro_bcsr(const sparse::Csr& csr,
                              const BroBcsrOptions& opts) {
  BRO_CHECK_MSG(opts.slice_height > 0, "slice height must be positive");
  BRO_CHECK_MSG(opts.sym_len == 32 || opts.sym_len == 64,
                "sym_len must be 32 or 64");

  BcsrAnalysis out;
  out.ell_value_slots = static_cast<std::size_t>(csr.rows) *
                        static_cast<std::size_t>(csr.max_row_length());

  // Unblocked baseline: the exact BRO-ELL index stream cost of the rows.
  {
    SliceCostAccum acc{opts.slice_height, opts.sym_len};
    for (index_t r = 0; r < csr.rows; ++r) acc.add_row(csr.row_cols(r));
    acc.flush();
    out.ell_index_bits = acc.bits;
  }

  for (const auto& [br, bc] : kBcsrCandidateShapes) {
    BcsrShapeStats s;
    s.br = br;
    s.bc = bc;
    SliceCostAccum acc{opts.slice_height, opts.sym_len};
    for_each_block_row(csr, br, bc,
                       [&](index_t, int, const std::vector<index_t>& bcols) {
                         s.blocks += bcols.size();
                         acc.add_row(bcols);
                       });
    acc.flush();
    s.index_bits = acc.bits;
    s.value_slots = acc.value_slots * static_cast<std::size_t>(br) *
                    static_cast<std::size_t>(bc);
    const std::size_t tile_entries =
        s.blocks * static_cast<std::size_t>(br) * static_cast<std::size_t>(bc);
    s.fill = tile_entries == 0
                 ? 0.0
                 : static_cast<double>(csr.nnz()) /
                       static_cast<double>(tile_entries);
    // Fill charge: every tile value slot beyond the nnz a plain CSR value
    // array would hold costs a stored double. Charging against nnz (not the
    // ELLPACK slot count, which one heavy row can inflate without bound)
    // makes the shape choice weigh fill-in directly: halving the index bits
    // never justifies doubling the explicit zeros.
    const std::size_t excess =
        s.value_slots > csr.nnz() ? s.value_slots - csr.nnz() : 0;
    s.cost_bytes = (s.index_bits + 7) / 8 + sizeof(value_t) * excess;
    out.shapes.push_back(s);
  }

  if (csr.rows > 0) {
    out.best = 0;
    for (int i = 1; i < static_cast<int>(out.shapes.size()); ++i)
      if (out.shapes[static_cast<std::size_t>(i)].cost_bytes <
          out.shapes[static_cast<std::size_t>(out.best)].cost_bytes)
        out.best = i;
  }
  return out;
}

bool bro_bcsr_applicable(const sparse::Csr& csr, double max_ell_expand,
                         const BroBcsrOptions& opts) {
  if (csr.rows == 0 || csr.cols == 0 || csr.nnz() == 0) return false;
  const BcsrAnalysis a = analyze_bro_bcsr(csr, opts);
  if (a.best < 0) return false;
  const BcsrShapeStats& s = a.shapes[static_cast<std::size_t>(a.best)];
  if (s.fill < opts.min_fill) return false;
  if (static_cast<double>(s.value_slots) >
      max_ell_expand * static_cast<double>(csr.nnz()))
    return false;
  // Same accounting as the blocked cover: index bytes plus a stored double
  // per value slot beyond nnz (the ELL padding). With both sides charged for
  // their padding, a blocked cover only wins when its fill-in is cheaper
  // than the row-length-variance padding it removes — which keeps BRO-BCSR
  // off the near-uniform Test Set 1 matrices automatically.
  const std::size_t ell_excess = a.ell_value_slots > csr.nnz()
                                     ? a.ell_value_slots - csr.nnz()
                                     : 0;
  const std::size_t baseline =
      (a.ell_index_bits + 7) / 8 + sizeof(value_t) * ell_excess;
  return static_cast<double>(s.cost_bytes) <
         kBcsrSavingsMargin * static_cast<double>(baseline);
}

BroBcsr BroBcsr::compress(const sparse::Csr& csr, BroBcsrOptions opts) {
  BRO_CHECK_MSG(opts.slice_height > 0, "slice height must be positive");
  BRO_CHECK_MSG(opts.sym_len == 32 || opts.sym_len == 64,
                "sym_len must be 32 or 64");
  BRO_CHECK_MSG((opts.block_rows == 0) == (opts.block_cols == 0),
                "block_rows and block_cols must be forced together");
  BRO_CHECK_MSG(csr.is_valid(), "BroBcsr::compress needs a valid CSR");

  int br = opts.block_rows, bc = opts.block_cols;
  if (br == 0) {
    const BcsrAnalysis a = analyze_bro_bcsr(csr, opts);
    if (a.best >= 0) {
      br = a.shapes[static_cast<std::size_t>(a.best)].br;
      bc = a.shapes[static_cast<std::size_t>(a.best)].bc;
    } else {
      br = kBcsrCandidateShapes[0].first;
      bc = kBcsrCandidateShapes[0].second;
    }
  }
  check_shape(br, bc);

  BroBcsr out;
  out.rows_ = csr.rows;
  out.cols_ = csr.cols;
  out.br_ = br;
  out.bc_ = bc;
  out.block_rows_ = csr.rows == 0 ? 0 : (csr.rows + br - 1) / br;
  out.ell_width_ = csr.max_row_length();
  out.nnz_ = csr.nnz();
  out.opts_ = opts;

  const index_t h = opts.slice_height;
  const index_t num_slices =
      out.block_rows_ == 0 ? 0 : (out.block_rows_ + h - 1) / h;
  out.slices_.reserve(static_cast<std::size_t>(num_slices));
  out.val_off_.reserve(static_cast<std::size_t>(num_slices));

  // The block cover, one slice of block rows at a time.
  std::vector<std::vector<index_t>> slice_bcols;
  index_t next_brow = 0;
  const auto tile = static_cast<std::size_t>(br) * static_cast<std::size_t>(bc);

  for_each_block_row(
      csr, br, bc, [&](index_t brow, int, const std::vector<index_t>& bcols) {
        slice_bcols.push_back(bcols);
        next_brow = brow + 1;
        const bool slice_done =
            next_brow == out.block_rows_ || next_brow % h == 0;
        if (!slice_done) return;

        BroEllSlice slice;
        slice.height = static_cast<index_t>(slice_bcols.size());
        slice.first_row = next_brow - slice.height;
        slice.num_col = 0;
        std::vector<std::vector<std::uint32_t>> deltas(slice_bcols.size());
        for (std::size_t t = 0; t < slice_bcols.size(); ++t) {
          deltas[t] = bits::delta_encode_row(slice_bcols[t]);
          slice.num_col =
              std::max(slice.num_col, static_cast<index_t>(deltas[t].size()));
        }

        slice.bit_alloc.assign(static_cast<std::size_t>(slice.num_col), 1);
        for (index_t c = 0; c < slice.num_col; ++c) {
          int b = 1;
          for (const auto& d : deltas)
            if (static_cast<std::size_t>(c) < d.size())
              b = std::max(b,
                           bits::bit_width_of(d[static_cast<std::size_t>(c)]));
          slice.bit_alloc[static_cast<std::size_t>(c)] =
              static_cast<std::uint8_t>(b);
        }

        std::vector<bits::BitString> row_streams(slice_bcols.size());
        for (std::size_t t = 0; t < slice_bcols.size(); ++t) {
          auto& bs = row_streams[t];
          for (index_t c = 0; c < slice.num_col; ++c) {
            const std::uint32_t v = static_cast<std::size_t>(c) < deltas[t].size()
                                        ? deltas[t][static_cast<std::size_t>(c)]
                                        : bits::kInvalidDelta;
            bs.append(v, slice.bit_alloc[static_cast<std::size_t>(c)]);
          }
          slice.pad_bits = bs.pad_to_multiple(opts.sym_len);
        }

        if (slice.num_col > 0) {
          slice.stream = bits::MuxedStream::interleave(row_streams, opts.sym_len);
        } else {
          slice.stream =
              bits::MuxedStream(opts.sym_len, slice_bcols.size(), 0);
        }

        out.val_off_.push_back(out.vals_.size());
        out.vals_.resize(out.vals_.size() +
                             slice_bcols.size() *
                                 static_cast<std::size_t>(slice.num_col) * tile,
                         0.0);

        // Value pass: scatter each member row's entries into its tiles.
        value_t* vb = out.vals_.data() + out.val_off_.back();
        for (std::size_t t = 0; t < slice_bcols.size(); ++t) {
          const index_t r0 = (slice.first_row + static_cast<index_t>(t)) * br;
          const int rh =
              static_cast<int>(std::min<index_t>(br, csr.rows - r0));
          const auto& cols = slice_bcols[t];
          for (int i = 0; i < rh; ++i) {
            const index_t r = r0 + i;
            std::size_t j = 0;
            for (index_t p = csr.row_ptr[static_cast<std::size_t>(r)];
                 p < csr.row_ptr[static_cast<std::size_t>(r) + 1]; ++p) {
              const index_t col = csr.col_idx[static_cast<std::size_t>(p)];
              while (cols[j] != col / bc) ++j;
              vb[(t * static_cast<std::size_t>(slice.num_col) + j) * tile +
                 static_cast<std::size_t>(i) * static_cast<std::size_t>(bc) +
                 static_cast<std::size_t>(col - cols[j] * bc)] =
                  csr.vals[static_cast<std::size_t>(p)];
            }
          }
        }

        out.slices_.push_back(std::move(slice));
        slice_bcols.clear();
      });

  return out;
}

std::vector<index_t> BroBcsr::decode_block_row(index_t brow) const {
  BRO_CHECK(brow >= 0 && brow < block_rows_);
  const auto& slice =
      slices_[static_cast<std::size_t>(brow / opts_.slice_height)];
  const index_t t = brow - slice.first_row;
  RowStreamDecoder dec(slice, t, opts_.sym_len);
  std::vector<index_t> bcols;
  const std::int64_t block_cols =
      (static_cast<std::int64_t>(cols_) + bc_ - 1) / bc_;
  std::int64_t acc = -1;
  for (index_t c = 0; c < slice.num_col; ++c) {
    const std::uint32_t d =
        dec.next(slice.bit_alloc[static_cast<std::size_t>(c)]);
    if (d == bits::kInvalidDelta) continue;
    acc += d;
    BRO_CHECK_MSG(acc < block_cols, "decoded block column " << acc
                                                            << " outside [0, "
                                                            << block_cols
                                                            << ')');
    bcols.push_back(static_cast<index_t>(acc));
  }
  return bcols;
}

void BroBcsr::spmv(std::span<const value_t> x, std::span<value_t> y) const {
  BRO_CHECK(x.size() == static_cast<std::size_t>(cols_));
  BRO_CHECK(y.size() == static_cast<std::size_t>(rows_));
  const auto tile_sz =
      static_cast<std::size_t>(br_) * static_cast<std::size_t>(bc_);
  for (std::size_t si = 0; si < slices_.size(); ++si) {
    const BroEllSlice& slice = slices_[si];
    const value_t* vb = vals_.data() + val_off_[si];
    for (index_t t = 0; t < slice.height; ++t) {
      const index_t r0 = (slice.first_row + t) * br_;
      const int rh = static_cast<int>(std::min<index_t>(br_, rows_ - r0));
      BcsrLaneAcc acc[8];
      RowStreamDecoder dec(slice, t, opts_.sym_len);
      index_t bcol = -1;
      for (index_t j = 0; j < slice.num_col; ++j) {
        const std::uint32_t d =
            dec.next(slice.bit_alloc[static_cast<std::size_t>(j)]);
        if (d == bits::kInvalidDelta) continue;
        bcol += static_cast<index_t>(d);
        const value_t* tv =
            vb + (static_cast<std::size_t>(t) *
                      static_cast<std::size_t>(slice.num_col) +
                  static_cast<std::size_t>(j)) *
                     tile_sz;
        const index_t c0 = bcol * bc_;
        const int ch = static_cast<int>(std::min<index_t>(bc_, cols_ - c0));
        for (int i = 0; i < rh; ++i)
          for (int k = 0; k < ch; ++k)
            acc[i].add(c0 + k, tv[i * bc_ + k],
                       x[static_cast<std::size_t>(c0 + k)]);
      }
      for (int i = 0; i < rh; ++i)
        y[static_cast<std::size_t>(r0 + i)] = acc[i].reduce();
    }
  }
}

sparse::Csr BroBcsr::to_csr() const {
  sparse::Csr out;
  out.rows = rows_;
  out.cols = cols_;
  out.row_ptr.assign(static_cast<std::size_t>(rows_) + 1, 0);
  const auto tile_sz =
      static_cast<std::size_t>(br_) * static_cast<std::size_t>(bc_);
  for (std::size_t si = 0; si < slices_.size(); ++si) {
    const BroEllSlice& slice = slices_[si];
    const value_t* vb = vals_.data() + val_off_[si];
    for (index_t t = 0; t < slice.height; ++t) {
      const index_t brow = slice.first_row + t;
      const std::vector<index_t> bcols = decode_block_row(brow);
      const index_t r0 = brow * br_;
      const int rh = static_cast<int>(std::min<index_t>(br_, rows_ - r0));
      for (int i = 0; i < rh; ++i) {
        for (std::size_t j = 0; j < bcols.size(); ++j) {
          const index_t c0 = bcols[j] * bc_;
          const int ch = static_cast<int>(std::min<index_t>(bc_, cols_ - c0));
          const value_t* tv =
              vb + (static_cast<std::size_t>(t) *
                        static_cast<std::size_t>(slice.num_col) +
                    j) *
                       tile_sz;
          for (int k = 0; k < ch; ++k) {
            out.col_idx.push_back(c0 + k);
            out.vals.push_back(tv[i * bc_ + k]);
          }
        }
        out.row_ptr[static_cast<std::size_t>(r0 + i) + 1] =
            static_cast<index_t>(out.col_idx.size());
      }
    }
  }
  return out;
}

std::size_t BroBcsr::compressed_index_bytes() const {
  std::size_t total = 0;
  for (const auto& s : slices_) {
    total += s.stream.byte_size();
    total += s.bit_alloc.size();
    total += sizeof(index_t);
  }
  if (vals_.size() > nnz_) total += sizeof(value_t) * (vals_.size() - nnz_);
  return total;
}

std::size_t BroBcsr::resident_index_bytes() const {
  std::size_t total = 0;
  for (const auto& s : slices_) {
    total += s.stream.resident_bytes();
    total += s.bit_alloc.size();
    total += sizeof(index_t);
  }
  return total;
}

std::size_t BroBcsr::original_index_bytes() const {
  return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(ell_width_) *
         sizeof(index_t);
}

} // namespace bro::core
