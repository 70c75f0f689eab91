// Runtime generators for the gradient-compression codec hot loops
// (src/mlsl/codec.cpp): the error-feedback fold (optionally fused with the
// int16 amax scan), int16 scale/clamp quantize, bf16 round-to-nearest-even
// pack, and the top-k magnitude/compress-store passes, vectorized over 16
// fp32 lanes per iteration with AVX-512.
//
// Every generated kernel is *bitwise-equal* to the scalar reference loop
// `kernels::codec_scalar_span`, proven per-op:
//   * fold_amax: the fold is fold_add's vaddps; the running max is
//     `vmaxps acc, |res|, acc`, which returns its second source (acc) when
//     |res| is NaN — exactly `acc = std::max(acc, |res|)`, the scan of
//     quant::compute_scale — and max is exact, so the 16 lane maxima reduce
//     to the serial scan's value in any order. ±Inf is kept (Inf scale).
//   * int16_quant: vdivps == scalar x/s; clamp-then-vcvtps2dq(RNE) equals the
//     scalar nearbyint-then-clamp for every finite input (both orders yield
//     the same integer in [-1024, 1024]); the residual uses the same
//     single-rounded multiply and subtract in the same operand order.
//   * bf16_pack: the same bit algorithm as quant::bf16_round — the
//     +0x7fff+lsb wrap-around add, Inf passthrough, and NaN quieting are
//     reproduced with unsigned compares and merge-masked moves.
//   * top-k: mag = min(bits & 0x7fffffff, 0x7f800000) maps NaN to the +Inf
//     key (matching the scalar NaN-to-inf comparator) and unsigned integer
//     order on these keys equals the float magnitude order; the compress
//     pass keeps strictly-greater-than-threshold indices in ascending order,
//     exactly like a scalar scan.
//
// ABI: jit::codec_fn — three operand pointers (per-op meaning below), the
// full-vector iteration count, and a caller-built params array:
//
//   op                 a (in)        b             c          params
//   fold_add           src f32       res f32 rw    -          -
//   fold_amax          src f32       res f32 rw    max f32    u32 {7fffffff}
//   int16_quant        res f32 rw    wire i16 out  -          f32 {scale, +1024, -1024}
//   int16_dequant      wire i16      dst f32 out   -          f32 {scale}
//   int16_dequant_acc  wire i16      dst f32 +=    -          f32 {scale}
//   bf16_pack          src f32       res f32 rw    wire u16   u32 {7fffffff, 7f800000, 1, 7fff, 400000, ffff0000}
//   bf16_unpack        wire u16      dst f32 out   -          -
//   bf16_unpack_acc    wire u16      dst f32 +=    -          -
//   topk_mag           src f32       mag u32 out   -          u32 {7fffffff, 7f800000}
//   topk_compress      mag u32       idx u32 out   -          u32 {threshold, iota[16], 16}
//
// topk_compress returns the number of indices written; all other ops
// return 0. fold_amax stores its 16 lane maxima of |res| (running maxima
// over every iteration, seeded at +0) to the 16 floats at `c` after the
// loop. `a` for int16_quant is written through despite the const-void ABI
// type.
#pragma once

#include <memory>
#include <string>

#include "jit/code_buffer.hpp"
#include "jit/kernel_abi.hpp"
#include "platform/cpu.hpp"

namespace xconv::jit {

enum class CodecOp {
  fold_add,
  fold_amax,
  int16_quant,
  int16_dequant,
  int16_dequant_acc,
  bf16_pack,
  bf16_unpack,
  bf16_unpack_acc,
  topk_mag,
  topk_compress,
};

const char* codec_op_name(CodecOp op);

struct CodecKernelDesc {
  CodecOp op = CodecOp::fold_add;
  platform::Isa isa = platform::Isa::avx512;
  int vlen = 16;

  std::string key() const;
  void validate() const;
};

class CodecKernel {
 public:
  CodecKernel(CodecKernelDesc desc, CodeBuffer buf);

  std::int64_t operator()(const void* a, void* b, void* c, std::int64_t iters,
                          const void* params) const {
    return fn_(a, b, c, iters, params);
  }
  codec_fn fn() const { return fn_; }
  const CodecKernelDesc& desc() const { return desc_; }
  std::size_t code_size() const { return buf_.size(); }
  const std::uint8_t* code() const { return buf_.data(); }

 private:
  CodecKernelDesc desc_;
  CodeBuffer buf_;
  codec_fn fn_;
};

std::unique_ptr<CodecKernel> generate_codec_kernel(const CodecKernelDesc& desc);

}  // namespace xconv::jit
