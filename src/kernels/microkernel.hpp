// Backend-neutral microkernel handles. The convolution drivers in src/core
// call microkernels through this interface so the same driver runs:
//   * the runtime-JIT'ed kernels (the paper's contribution), and
//   * scalar kernels (correctness oracle, any vlen).
// Every handle derives from `Microkernel`, so the registry keeps all
// families in one cache.
#pragma once

#include <memory>
#include <string>

#include "jit/codec_kernel_gen.hpp"
#include "jit/conv_kernel_gen.hpp"
#include "jit/kdot_kernel_gen.hpp"
#include "jit/qconv_kernel_gen.hpp"
#include "jit/upd_kernel_gen.hpp"

namespace xconv::kernels {

/// Which implementation family backs a microkernel.
enum class Backend { jit, scalar };

const char* backend_name(Backend b);

/// Common base of every microkernel handle: the registry owns kernels of all
/// families through it.
class Microkernel {
 public:
  virtual ~Microkernel() = default;
  Microkernel(const Microkernel&) = delete;
  Microkernel& operator=(const Microkernel&) = delete;
  virtual Backend backend() const = 0;

 protected:
  Microkernel() = default;
};

/// A handle with the conv ABI (jit/kernel_abi.hpp): three operands plus
/// the next call's three as prefetch hints. A conv KernelStream replays any
/// of them.
class StreamMicrokernel : public Microkernel {
 public:
  virtual void run(const float* in, const float* wt, float* out,
                   const float* pf_in, const float* pf_wt,
                   const float* pf_out) const = 0;
};

/// Forward-convolution microkernel handle (see jit/conv_kernel_gen.hpp for
/// the computation one invocation performs).
class ConvMicrokernel : public StreamMicrokernel {
 public:
  const jit::ConvKernelDesc& desc() const { return desc_; }

 protected:
  explicit ConvMicrokernel(const jit::ConvKernelDesc& d) : desc_(d) {}
  jit::ConvKernelDesc desc_;
};

/// Weight-update microkernel handle (see jit/upd_kernel_gen.hpp).
class UpdMicrokernel : public Microkernel {
 public:
  virtual void run(const float* in, const float* dout, float* dw,
                   const float* pf_in, const float* pf_dout,
                   const float* pf_dw) const = 0;
  const jit::UpdKernelDesc& desc() const { return desc_; }

 protected:
  explicit UpdMicrokernel(const jit::UpdKernelDesc& d) : desc_(d) {}
  jit::UpdKernelDesc desc_;
};

/// k-dot backward handle for C < VLEN layers (see jit/kdot_kernel_gen.hpp):
/// desc().rb dI pixels of one row and column phase from dO (`in`) and the
/// packed k-vector weights (`wt`) into dI (`out`). It ignores the prefetch
/// operands.
class KdotMicrokernel : public StreamMicrokernel {
 public:
  const jit::KdotKernelDesc& desc() const { return desc_; }

 protected:
  explicit KdotMicrokernel(const jit::KdotKernelDesc& d) : desc_(d) {}
  jit::KdotKernelDesc desc_;
};

/// dW-privatization reduce-epilogue handle: sums desc().copies private dW
/// copies into dst over `n` elements, linear per-element copy order (bitwise
/// equal across backends). `src`/`dst` point at the first element of the
/// range; copies sit desc().copy_stride elements apart from `src`. The JIT
/// backend runs full unroll*vlen chunks through generated code and finishes
/// the tail with the scalar loop.
class ReduceMicrokernel : public Microkernel {
 public:
  virtual void run(const float* src, float* dst, std::int64_t n) const = 0;
  const jit::ReduceKernelDesc& desc() const { return desc_; }

 protected:
  explicit ReduceMicrokernel(const jit::ReduceKernelDesc& d) : desc_(d) {}
  jit::ReduceKernelDesc desc_;
};

/// Int16 forward-convolution handle (see jit/qconv_kernel_gen.hpp):
/// desc().rbq output pixels of one row, int32 accumulation flushed into fp32
/// scaled by `scale`. The scalar backend is quant::qconv_block_scalar.
class QConvMicrokernel : public Microkernel {
 public:
  virtual void run(const std::int16_t* in, const std::int16_t* wt, float* out,
                   float scale) const = 0;
  const quant::QKernelDesc& desc() const { return desc_; }

 protected:
  explicit QConvMicrokernel(const quant::QKernelDesc& d) : desc_(d) {}
  quant::QKernelDesc desc_;
};

/// One codec kernel invocation: operand pointers for the op in desc().op
/// (see jit/codec_kernel_gen.hpp for the per-op mapping), plus the scalar
/// parameters the op consumes. Unused fields stay at their defaults.
struct CodecCall {
  const float* f_in = nullptr;         ///< float input (src)
  float* f_io = nullptr;               ///< float in/out (residual or dst)
  const std::uint8_t* w_in = nullptr;  ///< wire input (i16/u16 stream)
  std::uint8_t* w_out = nullptr;       ///< wire output
  const std::uint32_t* u_in = nullptr; ///< u32 input (mag for compress)
  std::uint32_t* u_out = nullptr;      ///< u32 output (mag / indices)
  float* amax = nullptr;               ///< fold_amax running max|res| (in/out)
  float scale = 1.0f;                  ///< int16 quantization scale
  std::uint32_t threshold = 0;         ///< top-k compress magnitude pivot
  std::int64_t n = 0;                  ///< element count
};

/// Gradient-codec hot-loop handle. run() returns the compress-store element
/// count for topk_compress and 0 for every other op. Backends are
/// bitwise-identical by construction (the JIT tail reuses the scalar span).
class CodecMicrokernel : public Microkernel {
 public:
  virtual std::int64_t run(const CodecCall& call) const = 0;
  const jit::CodecKernelDesc& desc() const { return desc_; }

 protected:
  explicit CodecMicrokernel(const jit::CodecKernelDesc& d) : desc_(d) {}
  jit::CodecKernelDesc desc_;
};

/// Scalar reference span for a codec op over elements [i0, i1): the bitwise
/// ground truth every backend matches. `out_pos` is the compress-output
/// write position on entry; returns the updated position (0 for other ops).
/// The scalar backend runs the whole range through this; the JIT backend
/// uses it for sub-vector tails.
std::int64_t codec_scalar_span(const jit::CodecKernelDesc& desc,
                               const CodecCall& call, std::int64_t i0,
                               std::int64_t i1, std::int64_t out_pos);

}  // namespace xconv::kernels
