// Simulator kernels for ELLPACK, ELLPACK-R and BRO-ELL (thread-per-row).
#include <algorithm>
#include <array>

#include "bits/delta.h"
#include "kernels/sim_spmv.h"
#include "util/error.h"

namespace bro::kernels {

namespace {

constexpr int kBlockSize = 256; // h: threads per block (paper §4)
constexpr int kWarp = 32;

using AddrArray = std::array<std::uint64_t, kWarp>;

} // namespace

SimResult combine(SimResult first, const SimResult& second) {
  first.stats.dram_read_bytes += second.stats.dram_read_bytes;
  first.stats.dram_write_bytes += second.stats.dram_write_bytes;
  first.stats.l2_hits += second.stats.l2_hits;
  first.stats.l2_misses += second.stats.l2_misses;
  first.stats.tex_hits += second.stats.tex_hits;
  first.stats.tex_misses += second.stats.tex_misses;
  first.stats.warp_loads += second.stats.warp_loads;
  first.stats.mem_transactions += second.stats.mem_transactions;
  first.stats.dp_flops += second.stats.dp_flops;
  first.stats.int_ops += second.stats.int_ops;
  first.stats.shfl_ops += second.stats.shfl_ops;

  first.time.seconds += second.time.seconds;
  first.time.mem_seconds += second.time.mem_seconds;
  first.time.compute_seconds += second.time.compute_seconds;
  first.time.memory_bound = first.time.mem_seconds >= first.time.compute_seconds;
  first.launches += second.launches;
  return first;
}

SimResult sim_spmv_ell(const sim::DeviceSpec& dev, const sparse::Ell& a,
                       std::span<const value_t> x) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  const index_t m = a.rows;
  const std::uint64_t blocks =
      std::max<std::uint64_t>(1, (static_cast<std::uint64_t>(m) + kBlockSize - 1) /
                                     kBlockSize);
  sim::SimContext sim(dev, {blocks, kBlockSize});
  const auto col_arr = sim.alloc(a.entries(), sizeof(index_t));
  const auto val_arr = sim.alloc(a.entries(), sizeof(value_t));
  const auto x_arr = sim.alloc(x.size(), sizeof(value_t));
  const auto y_arr = sim.alloc(static_cast<std::uint64_t>(m), sizeof(value_t));

  SimResult res;
  res.y.assign(static_cast<std::size_t>(m), value_t{0});
  std::size_t nnz = 0;

  AddrArray addrs{};
  for (std::uint64_t b = 0; b < blocks; ++b) {
    auto blk = sim.begin_block(b);
    for (int w = 0; w < kBlockSize / kWarp; ++w) {
      const index_t r0 = static_cast<index_t>(b) * kBlockSize + w * kWarp;
      if (r0 >= m) break;
      const int lanes = std::min<index_t>(kWarp, m - r0);

      for (index_t j = 0; j < a.width; ++j) {
        // Load the column-index column slice for this warp (coalesced:
        // column-major layout puts the warp's rows contiguously).
        for (int l = 0; l < kWarp; ++l)
          addrs[static_cast<std::size_t>(l)] =
              l < lanes ? col_arr.addr(static_cast<std::uint64_t>(j) * m + r0 + l)
                        : sim::kInactive;
        blk.load_global(addrs, sizeof(index_t));
        blk.add_int_ops(static_cast<std::uint64_t>(lanes) * kEllIterIntOps);

        // Lanes with valid (non-padding) entries load vals and x, then FMA.
        AddrArray vaddrs{};
        AddrArray xaddrs{};
        int active = 0;
        for (int l = 0; l < kWarp; ++l) {
          vaddrs[static_cast<std::size_t>(l)] = sim::kInactive;
          xaddrs[static_cast<std::size_t>(l)] = sim::kInactive;
          if (l >= lanes) continue;
          const index_t r = r0 + l;
          const index_t c = a.col_at(r, j);
          if (c == sparse::kPad) continue;
          vaddrs[static_cast<std::size_t>(l)] =
              val_arr.addr(static_cast<std::uint64_t>(j) * m + r);
          xaddrs[static_cast<std::size_t>(l)] =
              x_arr.addr(static_cast<std::uint64_t>(c));
          res.y[static_cast<std::size_t>(r)] +=
              a.val_at(r, j) * x[static_cast<std::size_t>(c)];
          ++active;
          ++nnz;
        }
        if (active > 0) {
          blk.load_global(vaddrs, sizeof(value_t));
          blk.load_texture(xaddrs, sizeof(value_t));
          blk.add_dp_fma(static_cast<std::uint64_t>(active));
        }
      }

      for (int l = 0; l < kWarp; ++l)
        addrs[static_cast<std::size_t>(l)] =
            l < lanes ? y_arr.addr(static_cast<std::uint64_t>(r0 + l))
                      : sim::kInactive;
      blk.store_global(addrs, sizeof(value_t));
    }
  }

  res.stats = sim.stats();
  res.time = sim.estimate(2.0 * static_cast<double>(nnz));
  return res;
}

SimResult sim_spmv_ellr(const sim::DeviceSpec& dev, const sparse::EllR& a,
                        std::span<const value_t> x) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.ell.cols));
  const index_t m = a.ell.rows;
  const std::uint64_t blocks =
      std::max<std::uint64_t>(1, (static_cast<std::uint64_t>(m) + kBlockSize - 1) /
                                     kBlockSize);
  sim::SimContext sim(dev, {blocks, kBlockSize});
  const auto col_arr = sim.alloc(a.ell.entries(), sizeof(index_t));
  const auto val_arr = sim.alloc(a.ell.entries(), sizeof(value_t));
  const auto len_arr = sim.alloc(static_cast<std::uint64_t>(m), sizeof(index_t));
  const auto x_arr = sim.alloc(x.size(), sizeof(value_t));
  const auto y_arr = sim.alloc(static_cast<std::uint64_t>(m), sizeof(value_t));

  SimResult res;
  res.y.assign(static_cast<std::size_t>(m), value_t{0});
  std::size_t nnz = 0;

  AddrArray addrs{};
  for (std::uint64_t b = 0; b < blocks; ++b) {
    auto blk = sim.begin_block(b);
    for (int w = 0; w < kBlockSize / kWarp; ++w) {
      const index_t r0 = static_cast<index_t>(b) * kBlockSize + w * kWarp;
      if (r0 >= m) break;
      const int lanes = std::min<index_t>(kWarp, m - r0);

      // Load row lengths for the warp.
      index_t warp_max = 0;
      for (int l = 0; l < kWarp; ++l) {
        addrs[static_cast<std::size_t>(l)] =
            l < lanes ? len_arr.addr(static_cast<std::uint64_t>(r0 + l))
                      : sim::kInactive;
        if (l < lanes)
          warp_max = std::max(warp_max,
                              a.row_length[static_cast<std::size_t>(r0 + l)]);
      }
      blk.load_global(addrs, sizeof(index_t));

      // The warp iterates to the longest row among its lanes only
      // (ELLPACK-R's saving over ELLPACK).
      for (index_t j = 0; j < warp_max; ++j) {
        AddrArray caddrs{};
        AddrArray vaddrs{};
        AddrArray xaddrs{};
        int active = 0;
        for (int l = 0; l < kWarp; ++l) {
          caddrs[static_cast<std::size_t>(l)] = sim::kInactive;
          vaddrs[static_cast<std::size_t>(l)] = sim::kInactive;
          xaddrs[static_cast<std::size_t>(l)] = sim::kInactive;
          if (l >= lanes) continue;
          const index_t r = r0 + l;
          if (j >= a.row_length[static_cast<std::size_t>(r)]) continue;
          const index_t c = a.ell.col_at(r, j);
          caddrs[static_cast<std::size_t>(l)] =
              col_arr.addr(static_cast<std::uint64_t>(j) * m + r);
          vaddrs[static_cast<std::size_t>(l)] =
              val_arr.addr(static_cast<std::uint64_t>(j) * m + r);
          xaddrs[static_cast<std::size_t>(l)] =
              x_arr.addr(static_cast<std::uint64_t>(c));
          res.y[static_cast<std::size_t>(r)] +=
              a.ell.val_at(r, j) * x[static_cast<std::size_t>(c)];
          ++active;
          ++nnz;
        }
        blk.load_global(caddrs, sizeof(index_t));
        blk.load_global(vaddrs, sizeof(value_t));
        blk.load_texture(xaddrs, sizeof(value_t));
        blk.add_dp_fma(static_cast<std::uint64_t>(active));
        blk.add_int_ops(static_cast<std::uint64_t>(active) * kEllRIterIntOps);
      }

      for (int l = 0; l < kWarp; ++l)
        addrs[static_cast<std::size_t>(l)] =
            l < lanes ? y_arr.addr(static_cast<std::uint64_t>(r0 + l))
                      : sim::kInactive;
      blk.store_global(addrs, sizeof(value_t));
    }
  }

  res.stats = sim.stats();
  res.time = sim.estimate(2.0 * static_cast<double>(nnz));
  return res;
}

SimResult sim_spmv_bro_ell(const sim::DeviceSpec& dev, const core::BroEll& a,
                           std::span<const value_t> x) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols()));
  const index_t m = a.rows();
  const int h = a.options().slice_height;
  const int sym_bytes = a.options().sym_len / 8;
  const std::uint64_t blocks = std::max<std::uint64_t>(1, a.slices().size());
  sim::SimContext sim(dev, {blocks, h});

  // The device holds ELLPACK's padded column-major value array (rows x
  // width), whatever layout the host representation keeps its values in.
  const auto val_arr = sim.alloc(
      static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(a.width()),
      sizeof(value_t));
  const auto x_arr = sim.alloc(x.size(), sizeof(value_t));
  const auto y_arr = sim.alloc(static_cast<std::uint64_t>(m), sizeof(value_t));
  // One virtual region per slice stream keeps the addressing simple; the
  // traffic is identical to a single concatenated stream.
  std::vector<sim::VirtualArray> stream_arrs;
  stream_arrs.reserve(a.slices().size());
  for (const auto& s : a.slices())
    stream_arrs.push_back(sim.alloc(s.stream.total_symbols(), sym_bytes));

  SimResult res;
  res.y.assign(static_cast<std::size_t>(m), value_t{0});
  std::size_t nnz = 0;

  AddrArray addrs{};
  for (std::size_t si = 0; si < a.slices().size(); ++si) {
    const core::BroEllSlice& slice = a.slices()[si];
    auto blk = sim.begin_block(si);
    const auto& stream_arr = stream_arrs[si];

    const int warps = (slice.height + kWarp - 1) / kWarp;
    for (int w = 0; w < warps; ++w) {
      const index_t t0 = w * kWarp; // thread index within the slice
      const int lanes = std::min<index_t>(kWarp, slice.height - t0);

      // Per-lane functional decoders (Algorithm 1 state).
      std::vector<core::RowStreamDecoder> dec;
      dec.reserve(static_cast<std::size_t>(lanes));
      for (int l = 0; l < lanes; ++l)
        dec.emplace_back(slice, t0 + l, a.options().sym_len);
      std::vector<index_t> col(static_cast<std::size_t>(lanes), -1);

      int rb = 0; // warp-uniform remaining-bit counter (mirrors the lanes)
      index_t loads = 0;
      for (index_t c = 0; c < slice.num_col; ++c) {
        const int bwidth = slice.bit_alloc[static_cast<std::size_t>(c)];
        // bit_alloc lives in constant memory: broadcast, 1 int op.
        blk.add_int_ops(static_cast<std::uint64_t>(lanes));

        const bool need_load = bwidth > rb;
        if (need_load) {
          // Warp-uniform symbol load: comp_str[loads*h + t].
          for (int l = 0; l < kWarp; ++l)
            addrs[static_cast<std::size_t>(l)] =
                l < lanes
                    ? stream_arr.addr(static_cast<std::uint64_t>(loads) * h +
                                      t0 + l)
                    : sim::kInactive;
          blk.load_global(addrs, sym_bytes);
          rb = a.options().sym_len - (bwidth - rb);
          ++loads;
        } else {
          rb -= bwidth;
        }
        blk.add_int_ops(static_cast<std::uint64_t>(lanes) * kBroDecodeIntOps);

        AddrArray vaddrs{};
        AddrArray xaddrs{};
        int active = 0;
        for (int l = 0; l < kWarp; ++l) {
          vaddrs[static_cast<std::size_t>(l)] = sim::kInactive;
          xaddrs[static_cast<std::size_t>(l)] = sim::kInactive;
          if (l >= lanes) continue;
          const std::uint32_t d = dec[static_cast<std::size_t>(l)].next(bwidth);
          if (d == bits::kInvalidDelta) continue;
          auto& cl = col[static_cast<std::size_t>(l)];
          cl += static_cast<index_t>(d);
          const index_t r = slice.first_row + t0 + l;
          vaddrs[static_cast<std::size_t>(l)] =
              val_arr.addr(static_cast<std::uint64_t>(c) * m + r);
          xaddrs[static_cast<std::size_t>(l)] =
              x_arr.addr(static_cast<std::uint64_t>(cl));
          res.y[static_cast<std::size_t>(r)] +=
              a.val_at(r, c) * x[static_cast<std::size_t>(cl)];
          ++active;
          ++nnz;
        }
        if (active > 0) {
          blk.load_global(vaddrs, sizeof(value_t));
          blk.load_texture(xaddrs, sizeof(value_t));
          blk.add_dp_fma(static_cast<std::uint64_t>(active));
        }
      }

      for (int l = 0; l < kWarp; ++l)
        addrs[static_cast<std::size_t>(l)] =
            l < lanes ? y_arr.addr(
                            static_cast<std::uint64_t>(slice.first_row + t0 + l))
                      : sim::kInactive;
      blk.store_global(addrs, sizeof(value_t));
    }
  }

  res.stats = sim.stats();
  res.time = sim.estimate(2.0 * static_cast<double>(nnz));
  return res;
}

} // namespace bro::kernels
