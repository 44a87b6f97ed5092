#include "engine/simulate.h"

#include "kernels/sim_spmv_ext.h"
#include "util/error.h"

namespace bro::engine {

namespace {

template <typename T>
const T& as(const void* rep) {
  return *static_cast<const T*>(rep);
}

} // namespace

kernels::SimResult simulate(const sim::DeviceSpec& dev, core::Format format,
                            const void* rep, std::span<const value_t> x) {
  using core::Format;
  using namespace kernels;
  switch (format) {
    case Format::kCsr:
      return sim_spmv_csr_scalar(dev, as<sparse::Csr>(rep), x);
    case Format::kCoo: return sim_spmv_coo(dev, as<sparse::Coo>(rep), x);
    case Format::kEll: return sim_spmv_ell(dev, as<sparse::Ell>(rep), x);
    case Format::kEllR: return sim_spmv_ellr(dev, as<sparse::EllR>(rep), x);
    case Format::kHyb: return sim_spmv_hyb(dev, as<sparse::Hyb>(rep), x);
    case Format::kBroEll:
      return sim_spmv_bro_ell(dev, as<core::BroEll>(rep), x);
    case Format::kBroCoo:
      return sim_spmv_bro_coo(dev, as<core::BroCoo>(rep), x);
    case Format::kBroHyb:
      return sim_spmv_bro_hyb(dev, as<core::BroHyb>(rep), x);
    case Format::kBroCsr:
      return sim_spmv_bro_csr(dev, as<core::BroCsr>(rep), x);
    case Format::kBroAns:
      return sim_spmv_bro_ans(dev, as<core::BroAns>(rep), x);
    case Format::kBroBcsr:
      return sim_spmv_bro_bcsr(dev, as<core::BroBcsr>(rep), x);
  }
  BRO_CHECK_MSG(false, "format " << static_cast<int>(format)
                                 << " has no simulator kernel");
}

} // namespace bro::engine
