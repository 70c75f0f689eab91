// Scalar reference microkernels: plain loops with exactly the semantics the
// JIT emits, for any vlen. These are the correctness oracle for every other
// backend and the only backend available on non-x86 hosts.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/kernel_registry.hpp"
#include "quant/bfloat16.hpp"
#include "quant/quantize.hpp"

namespace xconv::kernels {

namespace {

class ScalarConvKernel final : public ConvMicrokernel {
 public:
  explicit ScalarConvKernel(const jit::ConvKernelDesc& d) : ConvMicrokernel(d) {}

  void run(const float* in, const float* wt, float* out, const float*,
           const float*, const float*) const override {
    const auto& d = desc_;
    const int v = d.vlen;
    const int ocs = d.out_col_stride > 0 ? d.out_col_stride : v;
    for (int p = 0; p < d.rbp; ++p) {
      for (int q = 0; q < d.rbq; ++q) {
        float* o = out + (static_cast<std::size_t>(p) * d.out_row_stride +
                          static_cast<std::size_t>(q) * ocs);
        if (d.beta0)
          for (int k = 0; k < v; ++k) o[k] = 0.0f;
        for (int cb = 0; cb < d.c_blocks; ++cb) {
          const float* in_cb = in + static_cast<std::size_t>(cb) * d.in_cb_stride;
          const float* wt_cb = wt + static_cast<std::size_t>(cb) * d.wt_cb_stride;
          for (int r = 0; r < d.r; ++r) {
            for (int s = 0; s < d.s; ++s) {
              const float* irow =
                  in_cb + (static_cast<std::size_t>(p * d.stride_h + r) *
                               d.in_row_stride +
                           static_cast<std::size_t>(q * d.stride_w + s) * v);
              const float* wrs =
                  wt_cb + (static_cast<std::size_t>(r) * d.s + s) * v * v;
              for (int c = 0; c < d.c_iters; ++c) {
                const float x = irow[c];
                const float* wv = wrs + static_cast<std::size_t>(c) * v;
                for (int k = 0; k < v; ++k) o[k] += x * wv[k];
              }
            }
          }
        }
        if (d.fuse_relu)
          for (int k = 0; k < v; ++k) o[k] = o[k] > 0.0f ? o[k] : 0.0f;
      }
    }
  }

  Backend backend() const override { return Backend::scalar; }
};

class ScalarUpdKernel final : public UpdMicrokernel {
 public:
  explicit ScalarUpdKernel(const jit::UpdKernelDesc& d) : UpdMicrokernel(d) {}

  void run(const float* in, const float* dout, float* dw, const float*,
           const float*, const float*) const override {
    const auto& d = desc_;
    const int v = d.vlen;
    // Channel-remainder variant (cmin > 0): only the first cmin rows carry
    // real channels; beta0 still zeroes every row so pad rows stay +0.
    const int cm = d.cmin > 0 ? d.cmin : v;
    if (d.beta0)
      for (int i = 0; i < v * v; ++i) dw[i] = 0.0f;
    for (int p = 0; p < d.bp; ++p) {
      for (int q = 0; q < d.bq; ++q) {
        const float* irow =
            in + (static_cast<std::size_t>(p * d.stride_h) * d.in_row_stride +
                  static_cast<std::size_t>(q * d.stride_w) * v);
        const float* dov = dout + (static_cast<std::size_t>(p) *
                                       d.out_row_stride +
                                   static_cast<std::size_t>(q) * v);
        for (int c = 0; c < cm; ++c) {
          float* dwrow = dw + static_cast<std::size_t>(c) * v;
          const float x = irow[c];
          for (int k = 0; k < v; ++k) dwrow[k] += x * dov[k];
        }
      }
    }
  }

  Backend backend() const override { return Backend::scalar; }
};

class ScalarReduceKernel final : public ReduceMicrokernel {
 public:
  explicit ScalarReduceKernel(const jit::ReduceKernelDesc& d)
      : ReduceMicrokernel(d) {}

  void run(const float* src, float* dst, std::int64_t n) const override {
    // Copy 0 seeds, the rest add in ascending copy index — the bitwise
    // contract every backend keeps.
    const auto& d = desc_;
    for (std::int64_t e = 0; e < n; ++e) {
      float acc = src[e];
      for (int c = 1; c < d.copies; ++c) acc += src[d.copy_stride * c + e];
      dst[e] = acc;
    }
  }

  Backend backend() const override { return Backend::scalar; }
};

class ScalarKdotKernel final : public KdotMicrokernel {
 public:
  explicit ScalarKdotKernel(const jit::KdotKernelDesc& d)
      : KdotMicrokernel(d) {}

  // Bitwise the JIT's order: each lane k accumulates its fused products over
  // (kb, r, s) with one rounding per step (std::fma = vfmadd231ps), then the
  // shuffle tree sums lanes pairwise — adjacent pairs, then adjacent pairs of
  // those — which is a balanced tree over the lanes in index order.
  void run(const float* dout, const float* wp, float* din) const override {
    const auto& d = desc_;
    const int v = d.vlen, nt = d.taps_r(), nu = d.taps_s();
    std::vector<float> lanes(v);
    for (int j = 0; j < d.rb; ++j) {
      float* px = din + static_cast<std::size_t>(j) * d.di_px_stride;
      for (int c = 0; c < v; ++c) px[c] = 0.0f;
      for (int c = 0; c < d.c; ++c) {
        std::fill(lanes.begin(), lanes.end(), 0.0f);
        for (int kb = 0; kb < d.kb; ++kb)
          for (int t = 0; t < nt; ++t)
            for (int u = 0; u < nu; ++u) {
              const int r = d.r0 + t * d.stride_h, s = d.s0 + u * d.stride_w;
              const float* w =
                  wp + ((static_cast<std::size_t>(kb * d.r + r) * d.s + s) *
                            d.c +
                        c) *
                           v;
              const float* o =
                  dout + static_cast<std::size_t>(kb) * d.do_kb_stride +
                  static_cast<std::size_t>(nt - 1 - t) * d.do_row_stride +
                  static_cast<std::size_t>(nu - 1 - u + j) * v;
              for (int k = 0; k < v; ++k)
                lanes[k] = std::fma(w[k], o[k], lanes[k]);
            }
        for (int width = v / 2; width >= 1; width /= 2)
          for (int k = 0; k < width; ++k)
            lanes[k] = lanes[2 * k] + lanes[2 * k + 1];
        px[c] = lanes[0];
      }
    }
  }

  Backend backend() const override { return Backend::scalar; }
};

class ScalarCodecKernel final : public CodecMicrokernel {
 public:
  explicit ScalarCodecKernel(const jit::CodecKernelDesc& d)
      : CodecMicrokernel(d) {}

  std::int64_t run(const CodecCall& call) const override {
    return codec_scalar_span(desc_, call, 0, call.n, 0);
  }

  Backend backend() const override { return Backend::scalar; }
};

class ScalarQConvKernel final : public QConvMicrokernel {
 public:
  explicit ScalarQConvKernel(const quant::QKernelDesc& d)
      : QConvMicrokernel(d) {}

  void run(const std::int16_t* in, const std::int16_t* wt, float* out,
           float scale) const override {
    quant::qconv_block_scalar(desc_, in, wt, out, scale);
  }
  Backend backend() const override { return Backend::scalar; }
};

}  // namespace

// Bitwise ground truth for the codec ops: the scalar backend runs them for
// the whole payload and the JIT backend for sub-vector tails, so wire bytes
// and residuals match exactly across backends, NaN behavior included.
std::int64_t codec_scalar_span(const jit::CodecKernelDesc& desc,
                               const CodecCall& call, std::int64_t i0,
                               std::int64_t i1, std::int64_t out_pos) {
  switch (desc.op) {
    case jit::CodecOp::fold_add:
      for (std::int64_t i = i0; i < i1; ++i) call.f_io[i] += call.f_in[i];
      return 0;
    case jit::CodecOp::fold_amax: {
      // quant::compute_scale's scan fused into the fold: a NaN |res| never
      // wins std::max(amax, |res|).
      float m = *call.amax;
      for (std::int64_t i = i0; i < i1; ++i) {
        call.f_io[i] += call.f_in[i];
        m = std::max(m, std::abs(call.f_io[i]));
      }
      *call.amax = m;
      return 0;
    }
    case jit::CodecOp::int16_quant:
      for (std::int64_t i = i0; i < i1; ++i) {
        const float t = call.f_io[i];
        const std::int16_t q = quant::quantize_one(t, call.scale);
        call.f_io[i] = t - static_cast<float>(q) * call.scale;
        std::memcpy(call.w_out + i * sizeof(std::int16_t), &q, sizeof(q));
      }
      return 0;
    case jit::CodecOp::int16_dequant:
    case jit::CodecOp::int16_dequant_acc:
      for (std::int64_t i = i0; i < i1; ++i) {
        std::int16_t q;
        std::memcpy(&q, call.w_in + i * sizeof(std::int16_t), sizeof(q));
        const float lane = static_cast<float>(q) * call.scale;
        if (desc.op == jit::CodecOp::int16_dequant_acc)
          call.f_io[i] += lane;
        else
          call.f_io[i] = lane;
      }
      return 0;
    case jit::CodecOp::bf16_pack:
      for (std::int64_t i = i0; i < i1; ++i) {
        const float t = call.f_in[i] + call.f_io[i];
        const float d = quant::bf16_round(t);
        call.f_io[i] = t - d;
        std::uint32_t u;
        std::memcpy(&u, &d, sizeof(u));
        const auto h = static_cast<std::uint16_t>(u >> 16);
        std::memcpy(call.w_out + i * sizeof(std::uint16_t), &h, sizeof(h));
      }
      return 0;
    case jit::CodecOp::bf16_unpack:
    case jit::CodecOp::bf16_unpack_acc:
      for (std::int64_t i = i0; i < i1; ++i) {
        std::uint16_t h;
        std::memcpy(&h, call.w_in + i * sizeof(std::uint16_t), sizeof(h));
        const std::uint32_t u = static_cast<std::uint32_t>(h) << 16;
        float lane;
        std::memcpy(&lane, &u, sizeof(lane));
        if (desc.op == jit::CodecOp::bf16_unpack_acc)
          call.f_io[i] += lane;
        else
          call.f_io[i] = lane;
      }
      return 0;
    case jit::CodecOp::topk_mag:
      for (std::int64_t i = i0; i < i1; ++i) {
        std::uint32_t u;
        std::memcpy(&u, call.f_in + i, sizeof(u));
        call.u_out[i] = std::min(u & 0x7fffffffu, 0x7f800000u);
      }
      return 0;
    case jit::CodecOp::topk_compress:
      for (std::int64_t i = i0; i < i1; ++i)
        if (call.u_in[i] > call.threshold)
          call.u_out[out_pos++] = static_cast<std::uint32_t>(i);
      return out_pos;
  }
  return 0;
}

std::unique_ptr<ConvMicrokernel> make_conv_scalar(
    const jit::ConvKernelDesc& d) {
  return std::make_unique<ScalarConvKernel>(d);
}

std::unique_ptr<UpdMicrokernel> make_upd_scalar(const jit::UpdKernelDesc& d) {
  return std::make_unique<ScalarUpdKernel>(d);
}

std::unique_ptr<ReduceMicrokernel> make_reduce_scalar(
    const jit::ReduceKernelDesc& d) {
  return std::make_unique<ScalarReduceKernel>(d);
}

std::unique_ptr<KdotMicrokernel> make_kdot_scalar(
    const jit::KdotKernelDesc& d) {
  return std::make_unique<ScalarKdotKernel>(d);
}

std::unique_ptr<CodecMicrokernel> make_codec_scalar(
    const jit::CodecKernelDesc& d) {
  return std::make_unique<ScalarCodecKernel>(d);
}

std::unique_ptr<QConvMicrokernel> make_qconv_scalar(
    const quant::QKernelDesc& d) {
  return std::make_unique<ScalarQConvKernel>(d);
}

}  // namespace xconv::kernels
