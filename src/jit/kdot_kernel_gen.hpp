// Runtime generator for the k-dot backward microkernel: backward propagation
// for layers with fewer input channels than SIMD lanes (C < VLEN, e.g.
// ResNet-50 conv1 with C = 3).
//
// The duality backward paths vectorize over dI channels, so with
// C < VLEN most of every FMA multiplies padding. This kernel vectorizes over
// the K channels of dO instead, which are full lanes:
//
//   for kb in [0, Kb):                       // GPR loop
//     for (r, s) in the phase's tap list:    // unrolled
//       w[c] = Wp[kb][r][s][c][0:VLEN]      // C weight registers
//       for j in [0, rb):
//         d = dO[kb][oj(r)][oi(s) + j][0:VLEN]
//         acc[j][c] += w[c] * d             // rb * C accumulators
//   dI[j][0:VLEN] = {hsum(acc[j][0]), .., hsum(acc[j][C-1]), 0, .., 0}
//
// One call covers `rb` dI pixels of one dI row that share a column phase
// (they sit `stride_w` apart, so their dO pixels are contiguous). Rows and
// columns of one phase meet the same taps: r = r0, r0 + sh, ... < R and
// s = s0, s0 + sw, ... < S. Taps that fall outside dO read its zero halo
// (R-1-pad rows/cols, the contract the stride-1 duality already relies
// on), so no boundary variants exist.
//
// The horizontal sums run as one shuffle tree per pixel: two vshufps levels
// fold within 128-bit lanes, then vshuff32x4 (AVX-512) or vperm2f128 (AVX2)
// levels fold across them. The tree is arranged so its result holds the sum
// of accumulator c in lane c; the padding lanes [C, VLEN) come out as zeros,
// and each dI pixel is written as one full vector.
//
// Operands: dO points at the phase's top-left tap for pixel 0 (the last r
// and s tap of the list, so every offset is non-negative), Wp at the packed
// k-vector weights [Kb][R][S][C][VLEN] and dI at pixel 0.
#pragma once

#include <memory>
#include <string>

#include "jit/code_buffer.hpp"
#include "jit/kernel_abi.hpp"
#include "platform/cpu.hpp"

namespace xconv::jit {

struct KdotKernelDesc {
  platform::Isa isa = platform::Isa::avx512;
  int vlen = 16;
  int c = 1;            ///< real dI channels, in [1, vlen)
  int rb = 1;           ///< dI pixels per call
  int kb = 1;           ///< dO channel blocks reduced inside the kernel
  int r = 1, s = 1;     ///< filter extent (packed-weight layout)
  int stride_h = 1, stride_w = 1;
  int r0 = 0, s0 = 0;   ///< first tap of the phase (taps step by the stride)
  int do_row_stride = 0;  ///< dO elements between rows
  int do_kb_stride = 0;   ///< dO elements between channel blocks
  int di_px_stride = 0;   ///< dI elements between the call's pixels

  /// Taps of the phase along r / s (0 when the phase has none: the kernel
  /// then stores zero pixels).
  int taps_r() const { return r0 < r ? (r - 1 - r0) / stride_h + 1 : 0; }
  int taps_s() const { return s0 < s ? (s - 1 - s0) / stride_w + 1 : 0; }

  std::string key() const;
  /// Register budget, channel and stride checks; throws std::invalid_argument.
  void validate() const;
  /// Largest rb whose rb*C accumulators, C weight registers and one dO
  /// register fit the ISA's vector file, leaving three registers for the
  /// shuffle tree (0 when none fits).
  static int max_rb(platform::Isa isa, int c);
};

class KdotKernel {
 public:
  KdotKernel(KdotKernelDesc desc, CodeBuffer buf);

  void operator()(const float* dout, const float* wp, float* din) const {
    fn_(dout, wp, din);
  }
  const KdotKernelDesc& desc() const { return desc_; }
  std::size_t code_size() const { return buf_.size(); }
  const std::uint8_t* code() const { return buf_.data(); }

 private:
  KdotKernelDesc desc_;
  CodeBuffer buf_;
  kdot_fn fn_;
};

std::unique_ptr<KdotKernel> generate_kdot_kernel(const KdotKernelDesc& desc);

}  // namespace xconv::jit
