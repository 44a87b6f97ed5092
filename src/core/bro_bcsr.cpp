#include "core/bro_bcsr.h"

#include <algorithm>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

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

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

int thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

void check_shape(int br, int bc) {
  BRO_CHECK_MSG(br >= 1 && br <= 8, "block_rows must be in [1, 8]");
  BRO_CHECK_MSG(bc == 1 || bc == 2 || bc == 4 || bc == 8,
                "block_cols must divide 8");
}

/// An r x c block cover: every block row's ascending unique block-column
/// list, stored flat.
struct BlockCover {
  std::vector<index_t> cols;
  std::vector<std::span<const index_t>> rows; // views into cols
};

/// Build the cover by merging each block row's member rows (each CSR row
/// is sorted, so each contributes one ascending run).
BlockCover block_cover(const sparse::Csr& csr, int br, int bc) {
  BlockCover out;
  out.cols.reserve(csr.nnz()); // never outgrown, so the row views stay valid
  for (index_t r0 = 0, r1 = 0; r0 < csr.rows; r0 = r1) {
    r1 = r0 + std::min<index_t>(br, csr.rows - r0);
    const auto first = static_cast<std::ptrdiff_t>(out.cols.size());
    for (index_t r = r0; r < r1; ++r) {
      const auto mid = static_cast<std::ptrdiff_t>(out.cols.size());
      for (const index_t col : csr.row_cols(r)) out.cols.push_back(col / bc);
      std::inplace_merge(out.cols.begin() + first, out.cols.begin() + mid,
                         out.cols.end());
    }
    out.cols.erase(std::unique(out.cols.begin() + first, out.cols.end()),
                   out.cols.end());
    out.rows.emplace_back(out.cols.data() + first,
                          out.cols.size() - static_cast<std::size_t>(first));
  }
  return out;
}

/// Fill of a cover from its non-empty block count, as analyze_bro_bcsr
/// computes it (the prefilter must agree with it bit for bit).
double cover_fill(std::size_t nnz, std::size_t blocks, int br, int bc) {
  const std::size_t tile_entries =
      blocks * static_cast<std::size_t>(br) * static_cast<std::size_t>(bc);
  return tile_entries == 0 ? 0.0
                           : static_cast<double>(nnz) /
                                 static_cast<double>(tile_entries);
}

constexpr std::size_t kShapes = kBcsrCandidateShapes.size();
/// Per candidate shape, per block column: the last block row that touched it.
using ShapeStamps = std::array<std::vector<index_t>, kShapes>;

/// Add to `blocks` the non-empty blocks of every candidate shape in rows
/// [first, end), where no block of any shape crosses `first` or `end`: a
/// block is counted when an entry finds its column's stamp stale. Returns
/// false, counting stopped, at a column outside the matrix.
bool count_blocks(const sparse::Csr& csr, index_t first, index_t end,
                  ShapeStamps& stamp,
                  std::array<std::size_t, kShapes>& blocks) {
  for (index_t r = first; r < end; ++r) {
    std::array<index_t, kShapes> brow;
    for (std::size_t i = 0; i < kShapes; ++i)
      brow[i] = r / kBcsrCandidateShapes[i].first;
    for (const index_t col : csr.row_cols(r)) {
      if (col < 0 || col >= csr.cols) return false;
      for (std::size_t i = 0; i < kShapes; ++i) {
        index_t& last =
            stamp[i][static_cast<std::size_t>(col / kBcsrCandidateShapes[i].second)];
        blocks[i] += last != brow[i];
        last = brow[i];
      }
    }
  }
  return true;
}

/// Whether some candidate shape's cover can reach `min_fill`, from exact
/// counts of each shape's non-empty blocks (count_blocks). Rows split into
/// chunks of 8, the lcm of the candidate block heights, so no block spans
/// two chunks and the chunks count in parallel: each thread counts its
/// chunks with its own stamps, and the integer counts sum to the serial
/// ones. The chunks are counted in rounds. After each round, a shape's
/// final block count is at least its count so far plus the entries left
/// over br * bc, since a block holds at most br * bc entries of distinct
/// non-negative columns (as in every valid CSR). So its final fill is at
/// most cover_fill of that sum, and once no shape's bound reaches the
/// floor the answer is no. After the last round nothing is left and the
/// bound is the exact fill. Returns true (no verdict) when a
/// counted column lies outside the matrix, or when the stamps would
/// outgrow the CSR itself (far more columns than entries), leaving such
/// input to the full analysis.
bool fill_floor_reachable(const sparse::Csr& csr, double min_fill) {
  const auto cols = static_cast<std::size_t>(csr.cols);
  if (cols > csr.nnz() + static_cast<std::size_t>(csr.rows)) return true;
  constexpr index_t kChunkRows = 8;
  static_assert(std::ranges::all_of(kBcsrCandidateShapes, [](const auto& s) {
    return kChunkRows % s.first == 0;
  }));
  // A round is 1/64 of the chunks, at least 32 (256 rows), so the two
  // barriers a round costs stay small next to its counting.
  const index_t chunks = (csr.rows + kChunkRows - 1) / kChunkRows;
  const index_t round_chunks = std::max<index_t>(32, (chunks + 63) / 64);

  // One cache line per thread for its counts; every thread's stamps are
  // allocated here, before the parallel region, so the workers allocate
  // nothing.
  struct alignas(64) Counter {
    ShapeStamps stamp;
    std::array<std::size_t, kShapes> blocks{};
    bool out_of_range = false;
  };
  std::vector<Counter> counters(static_cast<std::size_t>(max_threads()));
  for (Counter& c : counters)
    for (std::size_t i = 0; i < kShapes; ++i) {
      const auto bc = static_cast<std::size_t>(kBcsrCandidateShapes[i].second);
      c.stamp[i].assign((cols + bc - 1) / bc, -1);
    }

  bool reachable = true, done = false;
#pragma omp parallel
  {
    Counter& mine = counters[static_cast<std::size_t>(thread_id())];
    for (index_t first = 0; !done; first += round_chunks) {
      const index_t last = std::min(chunks, first + round_chunks);
#pragma omp for schedule(dynamic, 16)
      for (index_t k = first; k < last; ++k)
        if (!mine.out_of_range)
          mine.out_of_range = !count_blocks(
              csr, k * kChunkRows, std::min(csr.rows, (k + 1) * kChunkRows),
              mine.stamp, mine.blocks);
#pragma omp single
      {
        const std::size_t left =
            csr.nnz() - static_cast<std::size_t>(
                            csr.row_ptr[static_cast<std::size_t>(
                                std::min(csr.rows, last * kChunkRows))]);
        std::array<std::size_t, kShapes> blocks{};
        bool out_of_range = false;
        for (const Counter& c : counters) {
          out_of_range = out_of_range || c.out_of_range;
          for (std::size_t i = 0; i < kShapes; ++i) blocks[i] += c.blocks[i];
        }
        reachable = out_of_range;
        for (std::size_t i = 0; i < kShapes && !reachable; ++i) {
          const auto [br, bc] = kBcsrCandidateShapes[i];
          const auto area = static_cast<std::size_t>(br * bc);
          reachable = cover_fill(csr.nnz(), blocks[i] + (left + area - 1) / area,
                                 br, bc) >= min_fill;
        }
        done = !reachable || out_of_range || last == chunks;
      }
    }
  }
  return reachable;
}

/// Exact cost of slicing `rows` (index lists) the BRO-ELL way, from the
/// slice packer's own layout: {padded stream bits plus bit_alloc and
/// num_col header bytes per slice, the slices' height * num_col value
/// slots (TILES, not bytes)}.
std::pair<std::size_t, std::size_t> slice_cost(
    std::span<const std::span<const index_t>> rows, const BroBcsrOptions& opts) {
  std::size_t bits = 0, slots = 0;
  const auto h = static_cast<std::size_t>(opts.slice_height);
  for (std::size_t first = 0; first < rows.size(); first += h) {
    const std::size_t n = std::min(h, rows.size() - first);
    const BroEllSlice s = slice_layout(0, rows.subspan(first, n), opts.sym_len);
    std::size_t row_bits = static_cast<std::size_t>(s.pad_bits);
    for (const std::uint8_t b : s.bit_alloc) row_bits += b;
    const auto num_col = static_cast<std::size_t>(s.num_col);
    bits += n * row_bits + 8 * (num_col + sizeof(index_t));
    slots += n * num_col;
  }
  return {bits, slots};
}

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
  std::vector<std::span<const index_t>> rows(static_cast<std::size_t>(csr.rows));
  for (index_t r = 0; r < csr.rows; ++r)
    rows[static_cast<std::size_t>(r)] = csr.row_cols(r);
  out.ell_index_bits = slice_cost(rows, opts).first;

  for (const auto& [br, bc] : kBcsrCandidateShapes) {
    BcsrShapeStats s;
    s.br = br;
    s.bc = bc;
    const BlockCover cover = block_cover(csr, br, bc);
    s.blocks = cover.cols.size();
    const auto [index_bits, tiles] = slice_cost(cover.rows, opts);
    s.index_bits = index_bits;
    s.value_slots =
        tiles * static_cast<std::size_t>(br) * static_cast<std::size_t>(bc);
    s.fill = cover_fill(csr.nnz(), s.blocks, br, bc);
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
  // Exact early-out: the best shape's fill is at most the highest fill of
  // any candidate, so when none can reach the floor the full analysis below
  // would reject too.
  if (!fill_floor_reachable(csr, opts.min_fill)) return false;
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
  // The block cover, packed slice by slice in parallel, then each slice's
  // tiles filled in parallel once the value offsets are known.
  const BlockCover cover = block_cover(csr, br, bc);
  const std::span<const std::span<const index_t>> lists(cover.rows);
  out.slices_.resize(static_cast<std::size_t>(num_slices));
  util::parallel_for_slices(num_slices, [&](index_t s) {
    const auto first = static_cast<std::size_t>(s * h);
    out.slices_[static_cast<std::size_t>(s)] = pack_slice(
        s * h,
        lists.subspan(first, std::min<std::size_t>(h, lists.size() - first)),
        opts.sym_len);
  });
  const auto tile = static_cast<std::size_t>(br) * static_cast<std::size_t>(bc);
  std::size_t total = 0;
  for (const BroEllSlice& slice : out.slices_) {
    out.val_off_.push_back(total);
    total += static_cast<std::size_t>(slice.height) *
             static_cast<std::size_t>(slice.num_col) * tile;
  }
  out.vals_.resize(total);

  // Value pass: zero each slice's tiles, then scatter each member row's
  // entries into them, so the slice's task first-touches its values.
  util::parallel_for_slices(num_slices, [&](index_t s) {
    const BroEllSlice& slice = out.slices_[static_cast<std::size_t>(s)];
    value_t* vb = out.vals_.data() + out.val_off_[static_cast<std::size_t>(s)];
    std::fill_n(vb,
                static_cast<std::size_t>(slice.height) *
                    static_cast<std::size_t>(slice.num_col) * tile,
                value_t{0});
    for (index_t t = 0; t < slice.height; ++t) {
      const index_t r0 = (slice.first_row + t) * br;
      const auto cols = lists[static_cast<std::size_t>(slice.first_row + t)];
      for (index_t r = r0; r < r0 + std::min<index_t>(br, csr.rows - r0); ++r) {
        std::size_t j = 0;
        for (index_t p = csr.row_ptr[static_cast<std::size_t>(r)];
             p < csr.row_ptr[static_cast<std::size_t>(r) + 1]; ++p) {
          const index_t col = csr.col_idx[static_cast<std::size_t>(p)];
          while (cols[j] != col / bc) ++j;
          vb[(static_cast<std::size_t>(t) * static_cast<std::size_t>(slice.num_col) + j) * tile +
             static_cast<std::size_t>((r - r0) * bc + col - cols[j] * bc)] =
              csr.vals[static_cast<std::size_t>(p)];
        }
      }
    }
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
  const std::size_t fill = vals_.size() > nnz_ ? vals_.size() - nnz_ : 0;
  return slice_index_bytes(slices_) + sizeof(value_t) * fill;
}

std::size_t BroBcsr::original_index_bytes() const {
  return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(ell_width_) *
         sizeof(index_t);
}

} // namespace bro::core
