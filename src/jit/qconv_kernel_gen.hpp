// Runtime generator for the int16 forward-convolution microkernel (paper
// Section II-K: "All of the techniques presented above have been included in
// kernels which leverage these type of instructions").
//
// Same blocking as the fp32 kernel, with:
//   * vpdpwssd with an EVEX embedded-broadcast memory operand — one
//     instruction per 32 int16 MACs (the KNM 4VNNIW throughput property),
//   * per-pixel int32 accumulators flushed into fp32 accumulators every
//     `flush_interval` channel-pair steps (the restricted accumulation
//     chain), via vcvtdq2ps + vfmadd231ps against a broadcast scale.
//
// ABI (reuses the 6-pointer conv_fn shape): arguments are reinterpreted as
//   (const int16_t* in, const int16_t* wt, float* out,
//    const float* scale_ptr /*pf_in slot*/, unused, unused).
// The scale is read at runtime so quantization scales may change every
// training iteration without re-JIT-ing.
#pragma once

#include <memory>

#include "jit/code_buffer.hpp"
#include "platform/cpu.hpp"
#include "quant/qconv_kernels.hpp"

namespace xconv::jit {

using qconv_fn = void (*)(const std::int16_t* in, const std::int16_t* wt,
                          float* out, const float* scale);

class QConvKernel {
 public:
  QConvKernel(quant::QKernelDesc desc, CodeBuffer buf);

  void operator()(const std::int16_t* in, const std::int16_t* wt, float* out,
                  float scale) const {
    fn_(in, wt, out, &scale);
  }
  qconv_fn fn() const { return fn_; }
  const quant::QKernelDesc& desc() const { return desc_; }
  std::size_t code_size() const { return buf_.size(); }
  const std::uint8_t* code() const { return buf_.data(); }

 private:
  quant::QKernelDesc desc_;
  CodeBuffer buf_;
  qconv_fn fn_;
};

/// Emit and finalize an int16 forward microkernel. Requires AVX512-VNNI on
/// the host (kernels::KernelRegistry::qconv generates only for a
/// desc.isa of avx512_vnni the host supports). Throws
/// std::invalid_argument for unsupported descriptors (vlen != 16, rbq > 13).
std::unique_ptr<QConvKernel> generate_qconv_kernel(
    const quant::QKernelDesc& desc);

}  // namespace xconv::jit
