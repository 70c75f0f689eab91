// Int16 convolution block kernel (paper Section II-K): int16 x int16
// products accumulated into int32 lanes (vpdpwssd semantics), flushed into an
// fp32 accumulator every `flush_interval` channel-pair steps (the restricted
// accumulation chain). It resolves through kernels::KernelRegistry: JIT'ed
// (jit/qconv_kernel_gen.cpp) when the descriptor's ISA is avx512_vnni and
// the host has it, else qconv_block_scalar, whose integer arithmetic is
// bit-identical, so tests can require exact equality between the two.
// QConvLayer runs all three passes through it (the update with pixels and
// channels swapped).
#pragma once

#include <cstdint>
#include <string>

#include "platform/cpu.hpp"

namespace xconv::quant {

struct QKernelDesc {
  /// JIT only on avx512_vnni (the generator emits vpdpwssd); any other ISA
  /// resolves the scalar block.
  platform::Isa isa = platform::Isa::avx512_vnni;
  int vlen = 16;           ///< output lanes (16 for AVX-512)
  int rbq = 1;             ///< output pixels accumulated in registers
  int r = 1, s = 1;
  int stride_w = 1, stride_h = 1;
  int in_row_stride = 0;   ///< int16 elements between input rows
  int out_col_stride = 0;  ///< fp32 elements between output pixels; 0 = vlen
                           ///< (dense). > vlen scatters (strided 1x1 bwd).
  int c2_iters = 8;        ///< channel-pair steps per (r, s) tap (= vlen/2)
  int c_blocks = 1;        ///< input feature blocks reduced in-kernel
  std::int64_t in_cb_stride = 0;
  std::int64_t wt_cb_stride = 0;
  int flush_interval = 64;  ///< int32->fp32 flush period, in pair-steps
                           ///< (restricted chain; 64 is overflow-safe
                           ///< at kQMax=1024: 64*2*2^20 < 2^31)
  bool beta0 = true;       ///< overwrite out (single-shot kernels)

  /// Registry cache key (jit/qconv_kernel_gen.cpp).
  std::string key() const;
};

/// out[q][k] (+)= scale * sum int16 products, for q in [0, rbq).
/// `out` points at the first pixel's fp32 vector (dense, vlen stride).
void qconv_block_scalar(const QKernelDesc& d, const std::int16_t* in,
                        const std::int16_t* wt, float* out, float scale);

}  // namespace xconv::quant
