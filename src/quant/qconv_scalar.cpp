// Scalar reference for the int16 kernel: integer arithmetic identical to the
// JIT'ed VNNI kernel (int32 pair-dot accumulate, periodic fp32 flush), so the
// two implementations agree bit-for-bit.
#include "quant/qconv_kernels.hpp"

#include <cmath>

namespace xconv::quant {

void qconv_block_scalar(const QKernelDesc& d, const std::int16_t* in,
                        const std::int16_t* wt, float* out, float scale) {
  const int v = d.vlen;
  const int ocs = d.out_col_stride > 0 ? d.out_col_stride : v;
  for (int q = 0; q < d.rbq; ++q) {
    float* o = out + static_cast<std::int64_t>(q) * ocs;
    for (int k = 0; k < v; ++k) {
      float facc = d.beta0 ? 0.0f : o[k];
      std::int32_t iacc = 0;
      int chain = 0;
      for (int cb = 0; cb < d.c_blocks; ++cb) {
        const std::int16_t* in_b = in + cb * d.in_cb_stride;
        const std::int16_t* wt_b = wt + cb * d.wt_cb_stride;
        for (int r = 0; r < d.r; ++r) {
          for (int s = 0; s < d.s; ++s) {
            const std::int16_t* irow =
                in_b + static_cast<std::int64_t>(r) * d.in_row_stride +
                static_cast<std::int64_t>(q * d.stride_w + s) * v;
            const std::int16_t* wrs =
                wt_b + (static_cast<std::int64_t>(r) * d.s + s) * v * v;
            for (int c2 = 0; c2 < d.c2_iters; ++c2) {
              const std::int32_t a0 = irow[c2 * 2 + 0];
              const std::int32_t a1 = irow[c2 * 2 + 1];
              const std::int32_t w0 =
                  wrs[(static_cast<std::int64_t>(c2) * v + k) * 2 + 0];
              const std::int32_t w1 =
                  wrs[(static_cast<std::int64_t>(c2) * v + k) * 2 + 1];
              iacc += a0 * w0 + a1 * w1;
              if (++chain == d.flush_interval) {
                // fmaf: single rounding, matching the JIT's vfmadd231ps
                // so the two backends agree bit-for-bit.
                facc = std::fmaf(static_cast<float>(iacc), scale, facc);
                iacc = 0;
                chain = 0;
              }
            }
          }
        }
      }
      facc = std::fmaf(static_cast<float>(iacc), scale, facc);
      o[k] = facc;
    }
  }
}

}  // namespace xconv::quant
