// Simulator kernels for COO and BRO-COO (warp-per-interval with segmented
// reduction, following the CUSP implementation the paper builds on).
//
// Both kernels charge the warp-level segmented scan (log2(32) = 5
// shuffle+add steps per element) and a second reduction launch that combines
// the per-warp carry-outs — the overheads the paper cites when explaining
// why BRO-COO speedups are smaller than BRO-ELL's (§4.2.3).
#include <algorithm>
#include <array>

#include "kernels/sim_spmv.h"
#include "util/error.h"

namespace bro::kernels {

namespace {

constexpr int kWarp = 32;
constexpr int kBlockSize = 256;

using AddrArray = std::array<std::uint64_t, kWarp>;

/// Charge the second "carry reduction" kernel: one (row, value) pair per
/// warp is read back, segment-reduced and added to y.
void charge_carry_reduction(const sim::DeviceSpec& dev, std::uint64_t warps,
                            SimResult& res) {
  sim::SimContext sim(dev, {std::max<std::uint64_t>(1, (warps + kBlockSize - 1) /
                                                           kBlockSize),
                            kBlockSize});
  const auto carry_rows = sim.alloc(warps, sizeof(index_t));
  const auto carry_vals = sim.alloc(warps, sizeof(value_t));
  const auto y_arr = sim.alloc(warps, sizeof(value_t));

  AddrArray addrs{};
  for (std::uint64_t w0 = 0; w0 < warps; w0 += kWarp) {
    auto blk = sim.begin_block(w0 / kBlockSize);
    const int lanes = static_cast<int>(std::min<std::uint64_t>(kWarp, warps - w0));
    for (int l = 0; l < kWarp; ++l)
      addrs[static_cast<std::size_t>(l)] =
          l < lanes ? carry_rows.addr(w0 + static_cast<std::uint64_t>(l))
                    : sim::kInactive;
    blk.load_global(addrs, sizeof(index_t));
    for (int l = 0; l < kWarp; ++l)
      if (l < lanes)
        addrs[static_cast<std::size_t>(l)] =
            carry_vals.addr(w0 + static_cast<std::uint64_t>(l));
    blk.load_global(addrs, sizeof(value_t));
    blk.add_shfl_ops(static_cast<std::uint64_t>(lanes) * kCooScanSteps);
    blk.add_dp_fma(static_cast<std::uint64_t>(lanes) * kCooScanSteps);
    for (int l = 0; l < kWarp; ++l)
      if (l < lanes)
        addrs[static_cast<std::size_t>(l)] =
            y_arr.addr(w0 + static_cast<std::uint64_t>(l));
    blk.atomic_add_global(addrs, sizeof(value_t));
  }
  SimResult reduction;
  reduction.stats = sim.stats();
  reduction.time = sim.estimate(0.0);
  res = combine(std::move(res), reduction);
}

} // namespace

core::BroCooOptions bro_coo_options_for(std::size_t nnz,
                                        const sim::DeviceSpec& dev) {
  core::BroCooOptions opts;
  const std::uint64_t target_warps =
      static_cast<std::uint64_t>(dev.sm_count) *
      static_cast<std::uint64_t>(dev.max_warps_per_sm);
  const std::uint64_t per_lane = std::max<std::uint64_t>(
      1, (nnz + target_warps * 32 - 1) / (target_warps * 32));
  opts.interval_cols = static_cast<int>(std::min<std::uint64_t>(64, per_lane));
  return opts;
}

SimResult sim_spmv_coo_accumulate(const sim::DeviceSpec& dev,
                                  const sparse::Coo& a,
                                  std::span<const value_t> x,
                                  std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows));

  SimResult res;
  res.y.assign(y.begin(), y.end());
  if (a.nnz() == 0) {
    sim::SimContext sim(dev, {1, kBlockSize});
    res.time = sim.estimate(0.0);
    return res;
  }

  // Interval sizing: fill the device with resident warps, as CUSP does.
  const std::uint64_t nnz = a.nnz();
  const std::uint64_t target_warps =
      static_cast<std::uint64_t>(dev.sm_count) *
      static_cast<std::uint64_t>(dev.max_warps_per_sm);
  const std::uint64_t per_lane = std::max<std::uint64_t>(
      1, (nnz + target_warps * kWarp - 1) / (target_warps * kWarp));
  const std::uint64_t interval = per_lane * kWarp;
  const std::uint64_t warps = (nnz + interval - 1) / interval;
  const std::uint64_t blocks =
      std::max<std::uint64_t>(1, (warps * kWarp + kBlockSize - 1) / kBlockSize);

  sim::SimContext sim(dev, {blocks, kBlockSize});
  const auto row_arr = sim.alloc(nnz, sizeof(index_t));
  const auto col_arr = sim.alloc(nnz, sizeof(index_t));
  const auto val_arr = sim.alloc(nnz, sizeof(value_t));
  const auto x_arr = sim.alloc(x.size(), sizeof(value_t));
  const auto y_arr =
      sim.alloc(static_cast<std::uint64_t>(a.rows), sizeof(value_t));

  AddrArray addrs{};
  for (std::uint64_t w = 0; w < warps; ++w) {
    auto blk = sim.begin_block(w * kWarp / kBlockSize);
    const std::uint64_t base = w * interval;
    const std::uint64_t end = std::min<std::uint64_t>(base + interval, nnz);

    for (std::uint64_t chunk = base; chunk < end; chunk += kWarp) {
      const int lanes = static_cast<int>(std::min<std::uint64_t>(kWarp, end - chunk));
      // Coalesced loads of row, col, val for the chunk.
      for (int l = 0; l < kWarp; ++l)
        addrs[static_cast<std::size_t>(l)] =
            l < lanes ? row_arr.addr(chunk + static_cast<std::uint64_t>(l))
                      : sim::kInactive;
      blk.load_global(addrs, sizeof(index_t));
      for (int l = 0; l < lanes; ++l)
        addrs[static_cast<std::size_t>(l)] =
            col_arr.addr(chunk + static_cast<std::uint64_t>(l));
      blk.load_global(addrs, sizeof(index_t));
      for (int l = 0; l < lanes; ++l)
        addrs[static_cast<std::size_t>(l)] =
            val_arr.addr(chunk + static_cast<std::uint64_t>(l));
      blk.load_global(addrs, sizeof(value_t));

      // x gathers.
      AddrArray xaddrs{};
      for (int l = 0; l < kWarp; ++l)
        xaddrs[static_cast<std::size_t>(l)] =
            l < lanes ? x_arr.addr(static_cast<std::uint64_t>(
                            a.col_idx[chunk + static_cast<std::uint64_t>(l)]))
                      : sim::kInactive;
      blk.load_texture(xaddrs, sizeof(value_t));

      blk.add_dp_fma(static_cast<std::uint64_t>(lanes));
      blk.add_int_ops(static_cast<std::uint64_t>(lanes) * kCooIterIntOps);
      // Segmented scan across the warp.
      blk.add_shfl_ops(static_cast<std::uint64_t>(lanes) * kCooScanSteps);
      blk.add_dp_fma(static_cast<std::uint64_t>(lanes) * kCooScanSteps);

      // Functional accumulation + segment-boundary stores.
      AddrArray baddrs{};
      int boundaries = 0;
      for (int l = 0; l < kWarp; ++l)
        baddrs[static_cast<std::size_t>(l)] = sim::kInactive;
      for (int l = 0; l < lanes; ++l) {
        const std::uint64_t i = chunk + static_cast<std::uint64_t>(l);
        res.y[static_cast<std::size_t>(a.row_idx[i])] +=
            a.vals[i] * x[static_cast<std::size_t>(a.col_idx[i])];
        const bool last_of_segment =
            (i + 1 == end) || (a.row_idx[i + 1] != a.row_idx[i]);
        if (last_of_segment) {
          baddrs[static_cast<std::size_t>(l)] =
              y_arr.addr(static_cast<std::uint64_t>(a.row_idx[i]));
          ++boundaries;
        }
      }
      if (boundaries > 0) blk.store_global(baddrs, sizeof(value_t));
    }
  }

  res.stats = sim.stats();
  res.time = sim.estimate(2.0 * static_cast<double>(nnz));
  charge_carry_reduction(dev, warps, res);
  // combine() overwrote the useful-flops-based gflops; recompute.
  res.time.gflops = 2.0 * static_cast<double>(nnz) / res.time.seconds / 1e9;
  return res;
}

SimResult sim_spmv_coo(const sim::DeviceSpec& dev, const sparse::Coo& a,
                       std::span<const value_t> x) {
  std::vector<value_t> y(static_cast<std::size_t>(a.rows), value_t{0});
  return sim_spmv_coo_accumulate(dev, a, x, y);
}

SimResult sim_spmv_bro_coo_accumulate(const sim::DeviceSpec& dev,
                                      const core::BroCoo& a,
                                      std::span<const value_t> x,
                                      std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols()));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows()));

  SimResult res;
  res.y.assign(y.begin(), y.end());
  if (a.nnz() == 0) {
    sim::SimContext sim(dev, {1, kBlockSize});
    res.time = sim.estimate(0.0);
    return res;
  }

  const int w = a.options().warp_size;
  BRO_CHECK_MSG(w == kWarp, "simulator assumes 32-lane intervals");
  const int sym_bytes = a.options().sym_len / 8;
  const std::uint64_t warps = a.intervals().size();
  const std::uint64_t blocks =
      std::max<std::uint64_t>(1, (warps * kWarp + kBlockSize - 1) / kBlockSize);

  sim::SimContext sim(dev, {blocks, kBlockSize});
  const auto col_arr = sim.alloc(a.padded_nnz(), sizeof(index_t));
  const auto val_arr = sim.alloc(a.padded_nnz(), sizeof(value_t));
  const auto start_arr = sim.alloc(warps, sizeof(index_t));
  const auto x_arr = sim.alloc(x.size(), sizeof(value_t));
  const auto y_arr =
      sim.alloc(static_cast<std::uint64_t>(a.rows()), sizeof(value_t));
  std::vector<sim::VirtualArray> stream_arrs;
  stream_arrs.reserve(a.intervals().size());
  for (const auto& iv : a.intervals())
    stream_arrs.push_back(sim.alloc(iv.stream.total_symbols(), sym_bytes));

  // Decode once functionally (the per-lane decode cost is charged below).
  const auto rows = a.decode_rows();
  const std::size_t interval_size =
      static_cast<std::size_t>(kWarp) *
      static_cast<std::size_t>(a.options().interval_cols);

  AddrArray addrs{};
  for (std::uint64_t iv_id = 0; iv_id < warps; ++iv_id) {
    const auto& iv = a.intervals()[iv_id];
    auto blk = sim.begin_block(iv_id * kWarp / kBlockSize);
    const std::uint64_t base = iv_id * interval_size;

    // Broadcast load of the interval's start row + bit width (one lane).
    for (int l = 0; l < kWarp; ++l) addrs[static_cast<std::size_t>(l)] = sim::kInactive;
    addrs[0] = start_arr.addr(iv_id);
    blk.load_global(addrs, sizeof(index_t));

    int rb = 0;
    index_t loads = 0;
    for (int c = 0; c < a.options().interval_cols; ++c) {
      const std::uint64_t chunk = base + static_cast<std::uint64_t>(c) * kWarp;

      // Warp-uniform symbol loads for the compressed row stream.
      if (iv.bits > rb) {
        for (int l = 0; l < kWarp; ++l)
          addrs[static_cast<std::size_t>(l)] = stream_arrs[iv_id].addr(
              static_cast<std::uint64_t>(loads) * kWarp +
              static_cast<std::uint64_t>(l));
        blk.load_global(addrs, sym_bytes);
        rb = a.options().sym_len - (iv.bits - rb);
        ++loads;
      } else {
        rb -= iv.bits;
      }
      blk.add_int_ops(kWarp * kBroCooDecodeIntOps);

      // col and val loads (uncompressed, coalesced).
      for (int l = 0; l < kWarp; ++l)
        addrs[static_cast<std::size_t>(l)] =
            col_arr.addr(chunk + static_cast<std::uint64_t>(l));
      blk.load_global(addrs, sizeof(index_t));
      for (int l = 0; l < kWarp; ++l)
        addrs[static_cast<std::size_t>(l)] =
            val_arr.addr(chunk + static_cast<std::uint64_t>(l));
      blk.load_global(addrs, sizeof(value_t));

      AddrArray xaddrs{};
      for (int l = 0; l < kWarp; ++l)
        xaddrs[static_cast<std::size_t>(l)] = x_arr.addr(
            static_cast<std::uint64_t>(a.col_idx()[chunk + static_cast<std::uint64_t>(l)]));
      blk.load_texture(xaddrs, sizeof(value_t));

      blk.add_dp_fma(kWarp);
      blk.add_shfl_ops(kWarp * kCooScanSteps);
      blk.add_dp_fma(kWarp * kCooScanSteps);

      AddrArray baddrs{};
      int boundaries = 0;
      for (int l = 0; l < kWarp; ++l) baddrs[static_cast<std::size_t>(l)] = sim::kInactive;
      for (int l = 0; l < kWarp; ++l) {
        const std::size_t i = chunk + static_cast<std::size_t>(l);
        res.y[static_cast<std::size_t>(rows[i])] +=
            a.vals()[i] * x[static_cast<std::size_t>(a.col_idx()[i])];
        const bool last_of_segment =
            (i + 1 == rows.size()) || (rows[i + 1] != rows[i]);
        if (last_of_segment) {
          baddrs[static_cast<std::size_t>(l)] =
              y_arr.addr(static_cast<std::uint64_t>(rows[i]));
          ++boundaries;
        }
      }
      if (boundaries > 0) blk.store_global(baddrs, sizeof(value_t));
    }
  }

  res.stats = sim.stats();
  res.time = sim.estimate(2.0 * static_cast<double>(a.nnz()));
  charge_carry_reduction(dev, warps, res);
  res.time.gflops = 2.0 * static_cast<double>(a.nnz()) / res.time.seconds / 1e9;
  return res;
}

SimResult sim_spmv_bro_coo(const sim::DeviceSpec& dev, const core::BroCoo& a,
                           std::span<const value_t> x) {
  std::vector<value_t> y(static_cast<std::size_t>(a.rows()), value_t{0});
  return sim_spmv_bro_coo_accumulate(dev, a, x, y);
}

} // namespace bro::kernels
