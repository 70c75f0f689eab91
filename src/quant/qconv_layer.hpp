// Int16 convolution layer (paper Section II-K): forward, backward (duality)
// and weight update with int16 inputs, int32 on-chip accumulation and fp32
// results. Mirrors ConvLayer's structure with a simpler driver (no kernel
// streams — the paper evaluates the reduced-precision kernels standalone).
//
// Supported shapes match what Figure 8 benchmarks (ResNet-50 layers 2-20):
// stride 1 (any R, S) and 1x1 stride > 1. The backward pass uses the same
// duality transforms as fp32; update pre-interleaves dO pixel pairs — the
// "transpose upfront" overhead the paper cites for KNM's 4FMA/4VNNIW.
#pragma once

#include "core/conv_params.hpp"
#include "platform/cpu.hpp"
#include "quant/qconv_kernels.hpp"
#include "quant/quantize.hpp"
#include "tensor/layout.hpp"

namespace xconv::quant {

class QConvLayer {
 public:
  /// `isa` picks the kernels, as ConvOptions::isa does for ConvLayer: the
  /// JIT'ed forward block and the VNNI update on avx512_vnni (when the host
  /// has it), the scalar blocks otherwise.
  explicit QConvLayer(const core::ConvParams& p, int threads = 0,
                      platform::Isa isa = platform::effective_isa(),
                      int flush_interval = 64);

  const core::ConvParams& params() const { return p_; }

  /// out (fp32 blocked, same geometry as ConvLayer::make_output) =
  /// conv(qin, qwt) * qin.scale * qwt.scale.
  void forward(const QActTensor& qin, const QWtTensor& qwt,
               tensor::ActTensor& out);

  /// grad_in (fp32) from quantized grad_out and *backward-dual* quantized
  /// weights (quantize_wt_bwd). Throws for unsupported strided non-1x1.
  void backward(const QActTensor& qgrad_out, const QWtTensor& qwt_bwd,
                tensor::ActTensor& grad_in);

  /// grad_wt (fp32 forward-form) from quantized input and grad_out.
  void update(const QActTensor& qin, const QActTensor& qgrad_out,
              tensor::WtTensor& grad_wt);

 private:
  core::ConvParams p_;
  platform::Isa isa_ = platform::Isa::scalar;
  int threads_ = 1;
  int vlen_ = 16;
  int cb_ = 1, kb_ = 1;
  int flush_ = 8;
  qupd_block_fn vnni_upd_ = nullptr;

  void forward_generic(const QActTensor& qin, const QWtTensor& qwt,
                       tensor::ActTensor& out, const core::ConvParams& p,
                       bool scatter_strided);
};

}  // namespace xconv::quant
