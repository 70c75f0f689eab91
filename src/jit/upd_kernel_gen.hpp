// Runtime generator for the weight-gradient-update microkernel
// (paper Section II-J, Algorithm 9).
//
// One invocation accumulates a VLEN x VLEN block of dW over a BP x BQ patch
// of output pixels at a fixed filter tap (r, s):
//
//   for p in [0,BP):            // GPR loop (pointer advance per row)
//     for q in [0,BQ):          // unrolled
//       dO_vec = dO[p][q][0:VLEN]                  // one vector load
//       for c in [0,VLEN):
//         acc[c] += broadcast(I[p*sh][q*sw][c]) * dO_vec
//
// The VLEN accumulators (one per input-channel row of the dW block) give
// VLEN independent FMA chains — the paper's "register blocking up to a factor
// of VLEN". The (r, s) tap and (n, blocked-pixel) loops live in the driver,
// which also picks BP/BQ so the streamed I and dO sub-tensors stay in cache.
//
// ABI: conv_fn with (in = I at (ij+r, ii+s), wt = dO at (oj, oi),
// out = dW block base); beta0 zeroes the accumulators for the first
// contribution to a dW block.
#pragma once

#include <memory>
#include <string>

#include "jit/code_buffer.hpp"
#include "jit/kernel_abi.hpp"
#include "platform/cpu.hpp"

namespace xconv::jit {

struct UpdKernelDesc {
  platform::Isa isa = platform::Isa::avx512;
  int vlen = 16;
  int bp = 1;              ///< pixel rows covered per invocation
  int bq = 1;              ///< pixel cols covered per invocation (unrolled)
  int stride_h = 1, stride_w = 1;
  int in_row_stride = 0;   ///< input elements between rows (Wp * vlen)
  int out_row_stride = 0;  ///< dO elements between rows (Q * vlen)
  /// Real input-channel rows in the dW block (0 = all vlen). The channel-
  /// remainder edge variant for C % vlen != 0: FMA work drops to cmin rows.
  /// Pad lanes of the blocked input are zero, so skipping their +0
  /// contributions is bitwise-identical to accumulating them; beta0 still
  /// zeroes all vlen rows of the stored block, beta1 leaves them untouched.
  int cmin = 0;
  bool beta0 = false;
  bool prefetch = true;

  std::string key() const;
  void validate() const;
};

class UpdKernel {
 public:
  UpdKernel(UpdKernelDesc desc, CodeBuffer buf);

  void operator()(const float* in, const float* dout, float* dw,
                  const float* pf_in, const float* pf_dout,
                  const float* pf_dw) const {
    fn_(in, dout, dw, pf_in, pf_dout, pf_dw);
  }
  conv_fn fn() const { return fn_; }
  const UpdKernelDesc& desc() const { return desc_; }
  std::size_t code_size() const { return buf_.size(); }
  const std::uint8_t* code() const { return buf_.data(); }

 private:
  UpdKernelDesc desc_;
  CodeBuffer buf_;
  conv_fn fn_;
};

std::unique_ptr<UpdKernel> generate_upd_kernel(const UpdKernelDesc& desc);

/// Descriptor for the dW-privatization reduce epilogue kernel: one linear
/// sweep that sums `copies` private dW copies, laid out `copy_stride`
/// elements apart, into the destination. The per-element addition order is
/// copy 0, 1, ..., copies-1 — identical to the scalar reduce kernel
/// (kernels/scalar_kernels.cpp), so the generated kernel is bitwise-equal by
/// construction (vaddps lanes are independent scalar adds).
struct ReduceKernelDesc {
  platform::Isa isa = platform::Isa::avx512;
  int vlen = 16;
  int copies = 2;                ///< private copies summed (>= 2)
  std::int64_t copy_stride = 0;  ///< elements between consecutive copies
  int unroll = 4;                ///< vectors per generated loop iteration

  /// Farthest byte one generated iteration reads past its src pointer: every
  /// copy's lane is addressed as [src + disp32], so the generator needs this
  /// to stay <= INT32_MAX (the registry runs the scalar kernel otherwise).
  std::int64_t span_bytes() const;
  std::string key() const;
  void validate() const;
};

class ReduceKernel {
 public:
  ReduceKernel(ReduceKernelDesc desc, CodeBuffer buf);

  void operator()(const float* src, float* dst, std::int64_t iters) const {
    fn_(src, dst, iters);
  }
  reduce_fn fn() const { return fn_; }
  const ReduceKernelDesc& desc() const { return desc_; }
  std::size_t code_size() const { return buf_.size(); }
  const std::uint8_t* code() const { return buf_.data(); }

 private:
  ReduceKernelDesc desc_;
  CodeBuffer buf_;
  reduce_fn fn_;
};

std::unique_ptr<ReduceKernel> generate_reduce_kernel(
    const ReduceKernelDesc& desc);

}  // namespace xconv::jit
