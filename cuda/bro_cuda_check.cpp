// Device-vs-host cross-check for the CUDA backend (built only with
// -DBRO_ENABLE_CUDA=ON on a machine with the CUDA toolkit and a GPU).
//
// Compresses a generated matrix on the host with the library's BRO-ELL
// compressor, uploads the streams in the documented layout, runs the device
// kernels and compares against the host SpMV.
#include <cuda_runtime.h>

#include <cstdio>
#include <vector>

#include "bro_kernels.cuh"
#include "core/bro_ell.h"
#include "sparse/convert.h"
#include "sparse/matgen/generators.h"
#include "util/rng.h"

namespace {

#define CUDA_OK(call)                                                    \
  do {                                                                   \
    const cudaError_t err_ = (call);                                     \
    if (err_ != cudaSuccess) {                                           \
      std::fprintf(stderr, "%s:%d: %s\n", __FILE__, __LINE__,            \
                   cudaGetErrorString(err_));                            \
      return 1;                                                          \
    }                                                                    \
  } while (0)

template <typename T, typename Alloc>
T* upload(const std::vector<T, Alloc>& host) {
  T* dev = nullptr;
  cudaMalloc(&dev, host.size() * sizeof(T));
  cudaMemcpy(dev, host.data(), host.size() * sizeof(T),
             cudaMemcpyHostToDevice);
  return dev;
}

} // namespace

int main() {
  using namespace bro;

  const sparse::Csr csr = sparse::generate_poisson2d(512, 512);
  const sparse::Ell ell = sparse::csr_to_ell(csr);
  core::BroEllOptions opts; // h = 256, sym_len = 32
  const core::BroEll bro = core::BroEll::compress(ell, opts);

  // Flatten the slice streams into the kernel's concatenated layout.
  std::vector<std::uint32_t> comp_str;
  std::vector<std::uint64_t> slice_sym_off, bit_alloc_off;
  std::vector<std::uint8_t> bit_alloc;
  std::vector<int> num_col;
  for (const auto& s : bro.slices()) {
    slice_sym_off.push_back(comp_str.size());
    for (std::size_t i = 0; i < s.stream.total_symbols(); ++i)
      comp_str.push_back(static_cast<std::uint32_t>(s.stream[i]));
    bit_alloc_off.push_back(bit_alloc.size());
    bit_alloc.insert(bit_alloc.end(), s.bit_alloc.begin(), s.bit_alloc.end());
    num_col.push_back(s.num_col);
  }

  Rng rng(7);
  std::vector<value_t> x(static_cast<std::size_t>(csr.cols));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  std::vector<value_t> y_host(static_cast<std::size_t>(csr.rows));
  bro.spmv(x, y_host);

  // Device buffers.
  auto* d_str = upload(comp_str);
  auto* d_soff = upload(slice_sym_off);
  auto* d_ba = upload(bit_alloc);
  auto* d_boff = upload(bit_alloc_off);
  auto* d_ncol = upload(num_col);
  // The kernel reads ELLPACK's padded column-major value array.
  auto* d_vals = upload(core::ell_values(bro.csr(), bro.width()));
  auto* d_x = upload(x);
  double* d_y = nullptr;
  CUDA_OK(cudaMalloc(&d_y, y_host.size() * sizeof(double)));

  bro::cuda::bro_ell_spmv_kernel<<<static_cast<unsigned>(bro.slices().size()),
                                   opts.slice_height>>>(
      d_str, d_soff, d_ba, d_boff, d_ncol, d_vals, d_x, d_y, csr.rows);
  CUDA_OK(cudaGetLastError());
  CUDA_OK(cudaDeviceSynchronize());

  std::vector<value_t> y_dev(y_host.size());
  CUDA_OK(cudaMemcpy(y_dev.data(), d_y, y_dev.size() * sizeof(double),
                     cudaMemcpyDeviceToHost));

  double max_err = 0;
  for (std::size_t i = 0; i < y_host.size(); ++i)
    max_err = std::max(max_err, std::abs(y_dev[i] - y_host[i]));
  std::printf("BRO-ELL device vs host: max |diff| = %.3e over %zu rows\n",
              max_err, y_host.size());
  return max_err < 1e-10 ? 0 : 1;
}
