#include "kernels/sim_spmv_ext.h"

#include <algorithm>
#include <array>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "util/error.h"

namespace bro::kernels {

namespace {

constexpr int kWarp = 32;

using AddrArray = std::array<std::uint64_t, kWarp>;

} // namespace

SimResult sim_spmv_bro_ans(const sim::DeviceSpec& dev, const core::BroAns& a,
                           std::span<const value_t> x) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols()));
  const index_t m = a.rows();
  const int h = a.options().slice_height;
  const int sym_bytes = a.options().sym_len / 8;
  const int sym_len = a.options().sym_len;
  const int tl = a.table().table_log();
  const std::uint64_t blocks = std::max<std::uint64_t>(1, a.slices().size());
  sim::SimContext sim(dev, {blocks, h});

  const auto val_arr = sim.alloc(a.vals().size(), sizeof(value_t));
  const auto x_arr = sim.alloc(x.size(), sizeof(value_t));
  const auto y_arr = sim.alloc(static_cast<std::uint64_t>(m), sizeof(value_t));
  // One device array per lane-group stream plus one per-slice array of
  // out-of-band initial states (v2 interleaved layout, core/bro_ans.h).
  std::vector<std::vector<sim::VirtualArray>> group_arrs;
  std::vector<sim::VirtualArray> init_arrs;
  group_arrs.reserve(a.slices().size());
  init_arrs.reserve(a.slices().size());
  for (const auto& s : a.slices()) {
    std::vector<sim::VirtualArray> ga;
    ga.reserve(s.groups.size());
    for (const auto& g : s.groups)
      ga.push_back(sim.alloc(g.total_symbols(), sym_bytes));
    group_arrs.push_back(std::move(ga));
    init_arrs.push_back(
        sim.alloc(s.init_states.size(), sizeof(std::uint16_t)));
  }

  SimResult res;
  res.y.assign(static_cast<std::size_t>(m), value_t{0});
  std::size_t nnz = 0;

  // Per-lane functional reader over the slice's muxed stream: same bit
  // arithmetic as the host decoders, but reporting which load index (if
  // any) each read consumed so the divergent refill traffic can be issued.
  struct Lane {
    std::uint64_t sym = 0;
    int rb = 0;
    index_t loads = 0;
    std::uint32_t state = 0;
    index_t col = -1;
  };

  AddrArray addrs{};
  for (std::size_t si = 0; si < a.slices().size(); ++si) {
    const core::BroAnsSlice& slice = a.slices()[si];
    auto blk = sim.begin_block(si);
    const auto& slice_group_arrs = group_arrs[si];
    const auto& init_arr = init_arrs[si];
    if (slice.num_col == 0) {
      for (int l = 0; l < kWarp; ++l)
        addrs[static_cast<std::size_t>(l)] =
            l < slice.height
                ? y_arr.addr(static_cast<std::uint64_t>(slice.first_row + l))
                : sim::kInactive;
      blk.store_global(addrs, sizeof(value_t));
      continue;
    }

    const auto read = [&](Lane& ln, index_t t, int b,
                          std::uint64_t& load_addr) -> std::uint32_t {
      std::uint64_t d;
      load_addr = sim::kInactive;
      if (b <= ln.rb) {
        d = b > 0 ? (ln.sym >> (ln.rb - b)) & bits::max_value_for_bits(b) : 0;
        ln.rb -= b;
      } else {
        const int high = ln.rb;
        d = high > 0 ? (ln.sym & bits::max_value_for_bits(high)) : 0;
        const index_t g = t / core::kAnsLaneGroup;
        const index_t j = t % core::kAnsLaneGroup;
        const bits::MuxedStream& mux =
            slice.groups[static_cast<std::size_t>(g)];
        ln.sym = mux.at(static_cast<std::size_t>(ln.loads),
                        static_cast<std::size_t>(j));
        load_addr = slice_group_arrs[static_cast<std::size_t>(g)].addr(
            static_cast<std::uint64_t>(ln.loads) * mux.height() +
            static_cast<std::uint64_t>(j));
        ++ln.loads;
        const int low = b - high;
        d = (d << low) |
            ((ln.sym >> (sym_len - low)) & bits::max_value_for_bits(low));
        ln.rb = sym_len - low;
      }
      return static_cast<std::uint32_t>(d);
    };

    const int warps = (slice.height + kWarp - 1) / kWarp;
    for (int w = 0; w < warps; ++w) {
      const index_t t0 = w * kWarp;
      const int lanes = std::min<index_t>(kWarp, slice.height - t0);
      std::vector<Lane> lane(static_cast<std::size_t>(lanes));

      // Initial state: one coalesced 2-byte load per lane from the
      // out-of-band init_states array (no in-stream bits in the v2 layout).
      for (int l = 0; l < kWarp; ++l) addrs[static_cast<std::size_t>(l)] = sim::kInactive;
      for (int l = 0; l < lanes; ++l) {
        auto& ln = lane[static_cast<std::size_t>(l)];
        ln.state = (1u << tl) +
                   slice.init_states[static_cast<std::size_t>(t0 + l)];
        addrs[static_cast<std::size_t>(l)] =
            init_arr.addr(static_cast<std::uint64_t>(t0 + l));
      }
      blk.load_global(addrs, sizeof(std::uint16_t));
      blk.add_int_ops(static_cast<std::uint64_t>(lanes) * 2);

      for (index_t c = 0; c < slice.num_col; ++c) {
        // Decode-table lookup (shared memory) + class/bits/base unpack +
        // state rebuild: modeled as int ops on top of the bit extraction.
        blk.add_int_ops(static_cast<std::uint64_t>(lanes) *
                        (kBroDecodeIntOps + 4));

        // The mantissa and renormalization reads each refill at most once
        // per lane, and lanes diverge — gather both rounds' addresses.
        AddrArray refill1{};
        AddrArray refill2{};
        AddrArray vaddrs{};
        AddrArray xaddrs{};
        int loads1 = 0, loads2 = 0, active = 0;
        for (int l = 0; l < kWarp; ++l) {
          refill1[static_cast<std::size_t>(l)] = sim::kInactive;
          refill2[static_cast<std::size_t>(l)] = sim::kInactive;
          vaddrs[static_cast<std::size_t>(l)] = sim::kInactive;
          xaddrs[static_cast<std::size_t>(l)] = sim::kInactive;
          if (l >= lanes) continue;
          auto& ln = lane[static_cast<std::size_t>(l)];
          const std::uint32_t e = a.table().entry(ln.state);
          const int cls = bits::AnsTable::entry_class(e);
          const int nb = bits::AnsTable::entry_bits(e);
          std::uint64_t la1, la2;
          const std::uint32_t mantissa =
              cls > 0 ? read(ln, t0 + l, cls - 1, la1) : (la1 = sim::kInactive, 0u);
          const std::uint32_t state_bits = read(ln, t0 + l, nb, la2);
          ln.state = bits::AnsTable::entry_base(e) + state_bits;
          refill1[static_cast<std::size_t>(l)] = la1;
          refill2[static_cast<std::size_t>(l)] = la2;
          if (la1 != sim::kInactive) ++loads1;
          if (la2 != sim::kInactive) ++loads2;
          if (cls == 0) continue; // padding slot
          ln.col += static_cast<index_t>((1u << (cls - 1)) | mantissa);
          const index_t r = slice.first_row + t0 + l;
          vaddrs[static_cast<std::size_t>(l)] =
              val_arr.addr(static_cast<std::uint64_t>(c) * m + r);
          xaddrs[static_cast<std::size_t>(l)] =
              x_arr.addr(static_cast<std::uint64_t>(ln.col));
          res.y[static_cast<std::size_t>(r)] +=
              a.val_at(r, c) * x[static_cast<std::size_t>(ln.col)];
          ++active;
          ++nnz;
        }
        if (loads1 > 0) blk.load_global(refill1, sym_bytes);
        if (loads2 > 0) blk.load_global(refill2, sym_bytes);
        if (active > 0) {
          blk.load_global(vaddrs, sizeof(value_t));
          blk.load_texture(xaddrs, sizeof(value_t));
          blk.add_dp_fma(static_cast<std::uint64_t>(active));
        }
      }

      for (int l = 0; l < kWarp; ++l)
        addrs[static_cast<std::size_t>(l)] =
            l < lanes ? y_arr.addr(static_cast<std::uint64_t>(slice.first_row +
                                                              t0 + l))
                      : sim::kInactive;
      blk.store_global(addrs, sizeof(value_t));
    }
  }

  res.stats = sim.stats();
  res.time = sim.estimate(2.0 * static_cast<double>(nnz));
  return res;
}

SimResult sim_spmv_bro_bcsr(const sim::DeviceSpec& dev, const core::BroBcsr& a,
                            std::span<const value_t> x) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols()));
  const index_t m = a.rows();
  const int br = a.block_r();
  const int bc = a.block_c();
  const int tile = br * bc;
  const int h = a.options().slice_height;
  const int sym_len = a.options().sym_len;
  const int sym_bytes = sym_len / 8;
  const std::uint64_t blocks = std::max<std::uint64_t>(1, a.slices().size());
  sim::SimContext sim(dev, {blocks, h});

  const auto x_arr = sim.alloc(x.size(), sizeof(value_t));
  const auto y_arr = sim.alloc(static_cast<std::uint64_t>(m), sizeof(value_t));
  std::vector<sim::VirtualArray> idx_arrs, val_arrs;
  for (const auto& s : a.slices()) {
    idx_arrs.push_back(sim.alloc(s.stream.total_symbols(), sym_bytes));
    val_arrs.push_back(sim.alloc(static_cast<std::uint64_t>(s.height) *
                                     std::max<index_t>(1, s.num_col) * tile,
                                 sizeof(value_t)));
  }

  SimResult res;
  std::size_t decoded_blocks = 0;

  AddrArray addrs{};
  for (std::size_t si = 0; si < a.slices().size(); ++si) {
    const core::BroEllSlice& slice = a.slices()[si];
    auto blk = sim.begin_block(si);
    const int warps = (slice.height + kWarp - 1) / kWarp;
    for (int w = 0; w < warps; ++w) {
      const index_t t0 = w * kWarp;
      const int lanes = std::min<index_t>(kWarp, slice.height - t0);

      std::vector<core::RowStreamDecoder> dec;
      dec.reserve(static_cast<std::size_t>(lanes));
      for (int l = 0; l < lanes; ++l)
        dec.emplace_back(slice, t0 + l, sym_len);
      std::vector<index_t> bcol(static_cast<std::size_t>(lanes), -1);

      int rb = 0;
      index_t loads = 0;
      for (index_t c = 0; c < slice.num_col; ++c) {
        const int bwidth = slice.bit_alloc[static_cast<std::size_t>(c)];
        // Uniform per-column widths: the warp's refills stay in lockstep,
        // one coalesced load round whenever the shared buffer runs dry.
        if (bwidth > rb) {
          for (int l = 0; l < kWarp; ++l)
            addrs[static_cast<std::size_t>(l)] =
                l < lanes ? idx_arrs[si].addr(
                                static_cast<std::uint64_t>(loads) * h + t0 + l)
                          : sim::kInactive;
          blk.load_global(addrs, sym_bytes);
          rb = sym_len - (bwidth - rb);
          ++loads;
        } else {
          rb -= bwidth;
        }
        blk.add_int_ops(static_cast<std::uint64_t>(lanes) * kBroDecodeIntOps);

        std::vector<bool> active(static_cast<std::size_t>(lanes), false);
        int nactive = 0;
        for (int l = 0; l < lanes; ++l) {
          const std::uint32_t d = dec[static_cast<std::size_t>(l)].next(bwidth);
          if (d == bits::kInvalidDelta) continue;
          bcol[static_cast<std::size_t>(l)] += static_cast<index_t>(d);
          active[static_cast<std::size_t>(l)] = true;
          ++nactive;
          ++decoded_blocks;
        }
        if (nactive == 0) continue;

        // One decoded block index feeds r*c value loads and FMAs; the tile
        // is contiguous per thread, so element e of every lane's tile forms
        // one warp access round.
        for (int e = 0; e < tile; ++e) {
          for (int l = 0; l < kWarp; ++l)
            addrs[static_cast<std::size_t>(l)] =
                (l < lanes && active[static_cast<std::size_t>(l)])
                    ? val_arrs[si].addr(
                          (static_cast<std::uint64_t>(t0 + l) * slice.num_col +
                           c) *
                              tile +
                          e)
                    : sim::kInactive;
          blk.load_global(addrs, sizeof(value_t));
        }
        // x: one texture read per block column of the tile, reused by all
        // r rows of the block.
        for (int k = 0; k < bc; ++k) {
          for (int l = 0; l < kWarp; ++l) {
            addrs[static_cast<std::size_t>(l)] = sim::kInactive;
            if (l >= lanes || !active[static_cast<std::size_t>(l)]) continue;
            const index_t col = bcol[static_cast<std::size_t>(l)] * bc + k;
            if (col < a.cols())
              addrs[static_cast<std::size_t>(l)] =
                  x_arr.addr(static_cast<std::uint64_t>(col));
          }
          blk.load_texture(addrs, sizeof(value_t));
        }
        blk.add_dp_fma(static_cast<std::uint64_t>(nactive) * tile);
      }

      // Each thread owns br output rows (clipped at the matrix edge).
      for (int i = 0; i < br; ++i) {
        for (int l = 0; l < kWarp; ++l) {
          addrs[static_cast<std::size_t>(l)] = sim::kInactive;
          if (l >= lanes) continue;
          const index_t r = (slice.first_row + t0 + l) * br + i;
          if (r < m) addrs[static_cast<std::size_t>(l)] =
              y_arr.addr(static_cast<std::uint64_t>(r));
        }
        blk.store_global(addrs, sizeof(value_t));
      }
    }
  }

  // Numerical result from the format's reference implementation.
  std::vector<value_t> y(static_cast<std::size_t>(m));
  a.spmv(x, y);
  res.y = std::move(y);

  res.stats = sim.stats();
  // Useful flops count only the real nonzeros: fill-in work the cover
  // executes is pure overhead and shows up as a lower headline rate.
  res.time = sim.estimate(2.0 * static_cast<double>(a.nnz()));
  (void)decoded_blocks;
  return res;
}

SimResult sim_spmv_bro_csr(const sim::DeviceSpec& dev, const core::BroCsr& a,
                           std::span<const value_t> x) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols()));
  const index_t m = a.rows();
  constexpr int kBlockSize = 256;
  const std::uint64_t warps = std::max<index_t>(1, m); // one warp per row
  const std::uint64_t blocks = (warps * kWarp + kBlockSize - 1) / kBlockSize;
  sim::SimContext sim(dev, {blocks, kBlockSize});

  const int sym_bytes = a.options().sym_len / 8;
  const auto sym_arr = sim.alloc(a.total_symbols(), sym_bytes);
  const auto val_arr = sim.alloc(a.nnz(), sizeof(value_t));
  const auto bits_arr = sim.alloc(static_cast<std::uint64_t>(m), 1);
  const auto ptr_arr = sim.alloc(static_cast<std::uint64_t>(m) + 1,
                                 sizeof(std::uint32_t));
  const auto x_arr = sim.alloc(x.size(), sizeof(value_t));
  const auto y_arr = sim.alloc(static_cast<std::uint64_t>(m), sizeof(value_t));

  SimResult res;
  res.y.assign(static_cast<std::size_t>(m), value_t{0});

  AddrArray addrs{};
  for (index_t r = 0; r < m; ++r) {
    auto blk = sim.begin_block(static_cast<std::uint64_t>(r) * kWarp / kBlockSize);
    const index_t len = a.row_ptr()[r + 1] - a.row_ptr()[r];
    const int b = a.bits_per_row()[static_cast<std::size_t>(r)];

    // Header loads (bits, sym_ptr, row_ptr) — lane 0 broadcast.
    for (int l = 0; l < kWarp; ++l) addrs[static_cast<std::size_t>(l)] = sim::kInactive;
    addrs[0] = bits_arr.addr(static_cast<std::uint64_t>(r));
    blk.load_global(addrs, 1);
    addrs[0] = ptr_arr.addr(static_cast<std::uint64_t>(r));
    blk.load_global(addrs, sizeof(std::uint32_t));

    const std::uint64_t row_sym0 =
        a.row_sym_ptr()[static_cast<std::size_t>(r)];
    std::size_t bit_pos =
        static_cast<std::size_t>(row_sym0) * static_cast<std::size_t>(a.options().sym_len);
    index_t col = -1;

    for (index_t chunk = 0; chunk < len; chunk += kWarp) {
      const int lanes = std::min<index_t>(kWarp, len - chunk);
      // The chunk's deltas occupy lanes*b consecutive bits: every touched
      // symbol is loaded once by some lane (coalesced — consecutive 4/8 B
      // words of the stream).
      const std::size_t first_sym = bit_pos / static_cast<std::size_t>(a.options().sym_len);
      const std::size_t last_sym =
          (bit_pos + static_cast<std::size_t>(lanes) * b - 1) /
          static_cast<std::size_t>(a.options().sym_len);
      int li = 0;
      for (std::size_t s2 = first_sym; s2 <= last_sym && li < kWarp; ++s2, ++li)
        addrs[static_cast<std::size_t>(li)] = sym_arr.addr(s2);
      for (; li < kWarp; ++li) addrs[static_cast<std::size_t>(li)] = sim::kInactive;
      blk.load_global(addrs, sym_bytes);

      // Extraction (~4 ops) + inclusive scan (log2(32) shuffle+add steps)
      // + carry broadcast from the previous chunk.
      blk.add_int_ops(static_cast<std::uint64_t>(lanes) * 4);
      blk.add_shfl_ops(static_cast<std::uint64_t>(lanes) * (kCooScanSteps + 1));
      blk.add_int_ops(static_cast<std::uint64_t>(lanes) * kCooScanSteps);

      AddrArray vaddrs{};
      AddrArray xaddrs{};
      for (int l = 0; l < kWarp; ++l) {
        vaddrs[static_cast<std::size_t>(l)] = sim::kInactive;
        xaddrs[static_cast<std::size_t>(l)] = sim::kInactive;
        if (l >= lanes) continue;
        // Functional decode straight from the stream (lane l's delta).
        const std::size_t p =
            bit_pos + static_cast<std::size_t>(l) * static_cast<std::size_t>(b);
        col += static_cast<index_t>(a.decode_bits(p, b));
        const std::uint64_t vp = static_cast<std::uint64_t>(a.row_ptr()[r]) +
                                 static_cast<std::uint64_t>(chunk + l);
        vaddrs[static_cast<std::size_t>(l)] = val_arr.addr(vp);
        xaddrs[static_cast<std::size_t>(l)] =
            x_arr.addr(static_cast<std::uint64_t>(col));
        res.y[static_cast<std::size_t>(r)] +=
            a.vals()[vp] * x[static_cast<std::size_t>(col)];
      }
      blk.load_global(vaddrs, sizeof(value_t));
      blk.load_texture(xaddrs, sizeof(value_t));
      blk.add_dp_fma(static_cast<std::uint64_t>(lanes));
      bit_pos += static_cast<std::size_t>(lanes) * static_cast<std::size_t>(b);
    }

    // Final cross-lane reduction + single-lane store.
    blk.add_shfl_ops(kWarp * kCooScanSteps);
    blk.add_dp_fma(kWarp * kCooScanSteps);
    for (int l = 0; l < kWarp; ++l) addrs[static_cast<std::size_t>(l)] = sim::kInactive;
    addrs[0] = y_arr.addr(static_cast<std::uint64_t>(r));
    blk.store_global(addrs, sizeof(value_t));
  }

  res.stats = sim.stats();
  res.time = sim.estimate(2.0 * static_cast<double>(a.nnz()));
  return res;
}

} // namespace bro::kernels
