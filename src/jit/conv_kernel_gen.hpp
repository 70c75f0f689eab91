// Runtime generator for the forward-convolution microkernel
// (paper Sections II-B, II-D, II-E).
//
// One generated kernel computes an RBP x RBQ x VLEN output block for one
// (n, kb, cb, spatial-block) iteration of Algorithm 3:
//
//   for r, s:                      // filter taps (innermost GPR loop over r
//     for c in [0, VLEN):          //  when the fully unrolled body would
//       w = W[r][s][c][0:VLEN]     //  exceed the unroll budget)
//       for p in [0,RBP), q in [0,RBQ):
//         acc[p][q] += broadcast(I[(p*sh+r)][(q*sw+s)][c]) * w
//
// The RBP*RBQ accumulators stay in vector registers for the whole kernel
// (register blocking: independent FMA chains hide the FMA latency, II-B);
// output loads/stores are hoisted outside the R,S loops (II-D optimization
// (a)); RBP > 1 covers the "Q smaller than FMA latency" case (II-D (b)).
// On AVX-512 the input broadcast is folded into the FMA as an EVEX embedded-
// broadcast memory operand; on AVX2 a vbroadcastss to a scratch register is
// emitted. Every tensor offset is a JIT-time constant.
//
// Variants (selected by the driver / kernel streams, Section II-H):
//   * beta0      — first Cb iteration: accumulators start at zero, no O load.
//   * fuse_relu  — last Cb iteration with fused ReLU: vmaxps(acc, 0) on store.
//   * edge       — remainder register blocking RB' at the P/Q boundaries is
//                  expressed as a second kernel with different rbp/rbq.
#pragma once

#include <memory>
#include <string>

#include "jit/code_buffer.hpp"
#include "jit/kernel_abi.hpp"
#include "platform/cpu.hpp"

namespace xconv::jit {

struct ConvKernelDesc {
  platform::Isa isa = platform::Isa::avx512;
  int vlen = 16;        ///< SIMD width (8 = AVX2, 16 = AVX-512)
  int rbp = 1;          ///< register-blocking rows (output pixels in P)
  int rbq = 1;          ///< register-blocking cols (output pixels in Q)
  int r = 1, s = 1;     ///< filter extent covered inside the kernel
  int stride_h = 1, stride_w = 1;
  int in_row_stride = 0;   ///< elements between input rows  (Wp * vlen)
  int out_row_stride = 0;  ///< elements between output rows (Q  * vlen)
  int out_col_stride = 0;  ///< elements between output pixels in a row; 0 =
                           ///< dense (vlen). Values > vlen implement the
                           ///< scattered writes of the strided backward
                           ///< duality (Section II-I scenario 2): with
                           ///< beta0 = false, one 1x1 call per filter tap
                           ///< accumulates into a zeroed dI row.
  int c_iters = 0;      ///< input-channel lanes to reduce (normally vlen)
  int c_blocks = 1;     ///< input feature-map *blocks* reduced inside the
                        ///< kernel. For R = S = 1 layers, pulling the Cb loop
                        ///< into the kernel multiplies output-register reuse
                        ///< by Cb (Section II-C); requires r == s == 1.
  int in_cb_stride = 0;   ///< elements between input feature blocks (Hp*Wp*v)
  int wt_cb_stride = 0;   ///< elements between weight feature blocks (R*S*v*v)
  bool beta0 = false;   ///< zero accumulators instead of loading O
  bool fuse_relu = false;
  bool prefetch = true;

  /// Cache key (all fields participate).
  std::string key() const;
  /// Check register-budget and ISA constraints; throws std::invalid_argument.
  void validate() const;
  /// Max accumulators for the ISA (28 for AVX-512, 12 for AVX2).
  static int max_accumulators(platform::Isa isa);
};

/// A finalized, executable forward microkernel.
class ConvKernel {
 public:
  ConvKernel(ConvKernelDesc desc, CodeBuffer buf);

  void operator()(const float* in, const float* wt, float* out,
                  const float* pf_in, const float* pf_wt,
                  const float* pf_out) const {
    fn_(in, wt, out, pf_in, pf_wt, pf_out);
  }
  conv_fn fn() const { return fn_; }
  const ConvKernelDesc& desc() const { return desc_; }
  std::size_t code_size() const { return buf_.size(); }
  const std::uint8_t* code() const { return buf_.data(); }

 private:
  ConvKernelDesc desc_;
  CodeBuffer buf_;
  conv_fn fn_;
};

/// Emit and finalize a forward microkernel for `desc`.
std::unique_ptr<ConvKernel> generate_conv_kernel(const ConvKernelDesc& desc);

}  // namespace xconv::jit
