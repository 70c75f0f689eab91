// AVX512-VNNI int16 weight-update kernel: vpdpwssd accumulates two int16
// products per int32 lane per instruction — the AVX-512 analogue of Knights
// Mill's 4VNNIW the paper evaluates (Section II-K). The int16 forward is JIT'ed
// (jit/qconv_kernel_gen.cpp). Runtime-gated by cpuid; this TU is compiled with
// -mavx512vnni and only reached when the host supports it.
#include "quant/qconv_kernels.hpp"

#if defined(__AVX512VNNI__)
#include <immintrin.h>

#include "platform/cpu.hpp"

namespace xconv::quant {

namespace {

void qupd_block_vnni_impl(const QUpdKernelDesc& d, const std::int16_t* in,
                          const std::int16_t* dov, float* dw, float scale) {
  // 16 int32 accumulators (one per input channel row of the dW block);
  // flushes convert into the fp32 dW block.
  __m512i iacc[16];
  __m512 facc[16];
  const __m512 vs = _mm512_set1_ps(scale);
  for (int c = 0; c < 16; ++c) {
    iacc[c] = _mm512_setzero_si512();
    facc[c] = d.beta0 ? _mm512_setzero_ps() : _mm512_loadu_ps(dw + c * 16);
  }
  int chain = 0;
  auto flush = [&]() {
    for (int c = 0; c < 16; ++c) {
      // The all-ones mask form converts the same 16 lanes; the unmasked
      // intrinsic's _mm512_undefined_ps() source makes GCC warn.
      facc[c] = _mm512_fmadd_ps(_mm512_maskz_cvtepi32_ps(0xFFFF, iacc[c]), vs,
                                facc[c]);
      iacc[c] = _mm512_setzero_si512();
    }
    chain = 0;
  };

  for (int q2 = 0; q2 < d.bq2; ++q2) {
    const __m512i gv = _mm512_loadu_si512(dov + q2 * 32);
    const std::int16_t* px0 =
        in + static_cast<std::int64_t>(2 * q2) * d.stride_w * 16;
    const std::int16_t* px1 =
        in + static_cast<std::int64_t>(2 * q2 + 1) * d.stride_w * 16;
    for (int c = 0; c < 16; ++c) {
      const std::int32_t pair =
          (static_cast<std::int32_t>(static_cast<std::uint16_t>(px1[c]))
           << 16) |
          static_cast<std::uint16_t>(px0[c]);
      const __m512i bv = _mm512_set1_epi32(pair);
      iacc[c] = _mm512_dpwssd_epi32(iacc[c], gv, bv);
    }
    if (++chain == d.flush_interval) flush();
  }
  flush();
  for (int c = 0; c < 16; ++c) _mm512_storeu_ps(dw + c * 16, facc[c]);
}

}  // namespace

qupd_block_fn qupd_block_vnni() {
  if (platform::max_isa() != platform::Isa::avx512_vnni) return nullptr;
  return &qupd_block_vnni_impl;
}

}  // namespace xconv::quant

#else  // !__AVX512VNNI__

namespace xconv::quant {
qupd_block_fn qupd_block_vnni() { return nullptr; }
}  // namespace xconv::quant

#endif
