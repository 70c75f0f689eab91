#include "quant/qconv_layer.hpp"

#include <omp.h>

#include <algorithm>
#include <stdexcept>

#include "core/plan.hpp"
#include "kernels/kernel_registry.hpp"

namespace xconv::quant {

QConvLayer::QConvLayer(const core::ConvParams& p, int threads,
                       platform::Isa isa, int flush_interval)
    : p_(p), isa_(isa), flush_(flush_interval) {
  p_.validate();
  if (p_.C % 2 != 0 && p_.C > 16)
    throw std::invalid_argument("QConvLayer: odd channel counts unsupported");
  cb_ = tensor::ceil_div(p_.C, vlen_);
  kb_ = tensor::ceil_div(p_.K, vlen_);
  threads_ = threads > 0 ? threads : omp_get_max_threads();
}

void QConvLayer::forward_generic(const QActTensor& qin, const QWtTensor& qwt,
                                 tensor::ActTensor& out,
                                 const core::ConvParams& p,
                                 bool scatter_strided) {
  const int v = vlen_;
  const int P = p.P(), Q = p.Q();
  const int in_cb = tensor::ceil_div(p.C, v);
  const int out_kb = tensor::ceil_div(p.K, v);
  const int rbq = core::pick_block_extent(Q, 13, 2);  // 13 = JIT registers
  const int q_full = Q / rbq, q_rem = Q % rbq;
  const int n_qb = q_full + (q_rem > 0 ? 1 : 0);
  const float scale = qin.scale * qwt.scale;

  QKernelDesc d;
  d.isa = isa_;
  d.vlen = v;
  d.r = p.R;
  d.s = p.S;
  d.stride_w = p.stride_w;
  d.stride_h = p.stride_h;
  d.in_row_stride = static_cast<int>(qin.stride_h());
  d.c2_iters = v / 2;
  d.c_blocks = in_cb;
  d.in_cb_stride = qin.stride_cb();
  d.wt_cb_stride = qwt.stride_cb();
  d.flush_interval = flush_;
  d.beta0 = true;
  // When scattering (strided 1x1 backward), output pixels/rows stride by the
  // original layer's stride; otherwise dense rows of `out`.
  const int out_col = scatter_strided ? p_.stride_w * v : v;
  d.out_col_stride = out_col;

  // Resolve the kernel variants outside the parallel region.
  auto& reg = kernels::KernelRegistry::instance();
  d.rbq = rbq;
  const kernels::QConvMicrokernel* k_main = reg.qconv(d);
  const kernels::QConvMicrokernel* k_edge = nullptr;
  if (q_rem > 0) {
    d.rbq = q_rem;
    k_edge = reg.qconv(d);
  }

  const std::int64_t total =
      static_cast<std::int64_t>(p.N) * out_kb * P * n_qb;
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (std::int64_t it = 0; it < total; ++it) {
    std::int64_t rest = it;
    const int qb = static_cast<int>(rest % n_qb);
    rest /= n_qb;
    const int oj = static_cast<int>(rest % P);
    rest /= P;
    const int kbi = static_cast<int>(rest % out_kb);
    const int n = static_cast<int>(rest / out_kb);

    const bool q_edge = (q_rem > 0 && qb == q_full);
    const int oi0 = std::min(qb, q_full) * rbq;

    const std::int16_t* inp =
        qin.at_padded(n, 0, oj * p.stride_h, oi0 * p.stride_w);
    const std::int16_t* wtp = qwt.at(kbi, 0, 0, 0);
    float* o = scatter_strided
                   ? out.at_padded(n, kbi, oj * p_.stride_h,
                                   oi0 * p_.stride_w)
                   : out.at(n, kbi, oj, oi0);
    (q_edge ? k_edge : k_main)->run(inp, wtp, o, scale);
  }
}

void QConvLayer::forward(const QActTensor& qin, const QWtTensor& qwt,
                         tensor::ActTensor& out) {
  if (qin.v != vlen_ || qwt.v != vlen_ || qin.cb != cb_ || qwt.kb != kb_ ||
      qwt.cb != cb_)
    throw std::invalid_argument("QConvLayer::forward: geometry mismatch");
  forward_generic(qin, qwt, out, p_, /*scatter_strided=*/false);
}

void QConvLayer::backward(const QActTensor& qgrad_out,
                          const QWtTensor& qwt_bwd,
                          tensor::ActTensor& grad_in) {
  if (qwt_bwd.kb != cb_ || qwt_bwd.cb != kb_)
    throw std::invalid_argument(
        "QConvLayer::backward: expected backward-dual weights "
        "(quantize_wt_bwd)");
  if (p_.stride_h == 1 && p_.stride_w == 1) {
    // Duality scenario 1: forward convolution of dO with the dual weights.
    core::ConvParams dual;
    dual.N = p_.N;
    dual.C = p_.K;
    dual.K = p_.C;
    dual.H = p_.P();
    dual.W = p_.Q();
    dual.R = p_.R;
    dual.S = p_.S;
    dual.stride_h = dual.stride_w = 1;
    dual.pad_h = p_.R - 1 - p_.pad_h;
    dual.pad_w = p_.S - 1 - p_.pad_w;
    forward_generic(qgrad_out, qwt_bwd, grad_in, dual,
                    /*scatter_strided=*/false);
    return;
  }
  if (p_.R == 1 && p_.S == 1 && p_.pad_h == 0 && p_.pad_w == 0) {
    // Duality scenario 2: dense 1x1 conv over dO scattered into dI.
    grad_in.zero();
    core::ConvParams dual;
    dual.N = p_.N;
    dual.C = p_.K;
    dual.K = p_.C;
    dual.H = p_.P();
    dual.W = p_.Q();
    dual.R = dual.S = 1;
    dual.stride_h = dual.stride_w = 1;
    dual.pad_h = dual.pad_w = 0;
    forward_generic(qgrad_out, qwt_bwd, grad_in, dual,
                    /*scatter_strided=*/true);
    return;
  }
  throw std::invalid_argument(
      "QConvLayer::backward: strided non-1x1 layers unsupported in int16");
}

// The update is the int16 forward kernel with the roles swapped: its output
// pixels are the dW block's input channels (two calls of v/2), its channel
// pairs the row's pixel pairs and its weights the pair-interleaved dO row.
void QConvLayer::update(const QActTensor& qin, const QActTensor& qgrad_out,
                        tensor::WtTensor& grad_wt) {
  const int v = vlen_, half = v / 2;
  const int P = p_.P(), Q = p_.Q();
  const float scale = qin.scale * qgrad_out.scale;
  const int q2 = Q / 2;       // full pixel pairs per row
  const int q_tail = Q % 2;   // trailing odd pixel handled scalar

  // "Transpose upfront", once per call and in one threaded pass:
  //  * dO rows (n, kb, oj) pair-interleaved into [q2][k][2] — the
  //    memory-bound transformation the paper charges against the update;
  //  * input rows (n, cb, padded row y, tap s) into X[c][q2][2], one channel
  //    row per forward output pixel. Each channel row's pitch rounds up to
  //    whole vectors, so it is the kernel's stride_w * v. Rows no (oj, r)
  //    reads stay unwritten.
  const int rows = (P - 1) * p_.stride_h + p_.R;
  const int xs = std::max(1, tensor::ceil_div(2 * q2, v));
  const std::int64_t x_pitch = static_cast<std::int64_t>(xs) * v;
  const std::int64_t x_block = x_pitch * v;  // one (n, cb, y, s)
  const std::int64_t row_pairs = static_cast<std::int64_t>(q2) * v * 2;
  const std::int64_t do_items = static_cast<std::int64_t>(p_.N) * kb_ * P;
  const std::int64_t x_items =
      q2 > 0 ? static_cast<std::int64_t>(p_.N) * cb_ * rows * p_.S : 0;
  // Sized by the shape alone: allocated on the first call, then reused.
  upd_dov_.resize(static_cast<std::size_t>(
      std::max<std::int64_t>(1, do_items * row_pairs)));
  upd_x_.resize(static_cast<std::size_t>(
      std::max<std::int64_t>(1, x_items * x_block)));
  std::int16_t* const dov = upd_dov_.data();
  std::int16_t* const xq = upd_x_.data();
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (std::int64_t it = 0; it < do_items + x_items; ++it) {
    if (it < do_items) {
      const int oj = static_cast<int>(it % P);
      const int kbi = static_cast<int>(it / P % kb_);
      const int n = static_cast<int>(it / P / kb_);
      const std::int16_t* src = qgrad_out.at(n, kbi, oj, 0);
      std::int16_t* dst = dov + it * row_pairs;
      for (int qq = 0; qq < q2; ++qq)
        for (int k = 0; k < v; ++k) {
          dst[(static_cast<std::int64_t>(qq) * v + k) * 2 + 0] =
              src[(2 * qq) * v + k];
          dst[(static_cast<std::int64_t>(qq) * v + k) * 2 + 1] =
              src[(2 * qq + 1) * v + k];
        }
      continue;
    }
    const std::int64_t xi = it - do_items;
    const int s = static_cast<int>(xi % p_.S);
    const int y = static_cast<int>(xi / p_.S % rows);
    const int cbi = static_cast<int>(xi / p_.S / rows % cb_);
    const int n = static_cast<int>(xi / p_.S / rows / cb_);
    bool read = false;  // does some (oj, r) read padded row y?
    for (int r = 0; r < p_.R && r <= y && !read; ++r)
      read = (y - r) % p_.stride_h == 0 && (y - r) / p_.stride_h < P;
    if (!read) continue;
    const std::int16_t* src = qin.at_padded(n, cbi, y, s);
    std::int16_t* dst = xq + xi * x_block;
    for (int px = 0; px < 2 * q2; ++px) {
      const std::int16_t* xpx =
          src + static_cast<std::int64_t>(px) * p_.stride_w * v;
      for (int c = 0; c < v; ++c) dst[c * x_pitch + px] = xpx[c];
    }
  }

  QKernelDesc d;
  d.isa = isa_;
  d.vlen = v;
  d.rbq = half;
  d.stride_w = xs;
  d.in_row_stride = static_cast<int>(x_pitch);  // r = 1: never stepped
  d.out_col_stride = v;
  d.c2_iters = q2;
  d.flush_interval = flush_;
  const kernels::QConvMicrokernel* k_first = nullptr;
  const kernels::QConvMicrokernel* k_acc = nullptr;
  if (q2 > 0) {
    auto& reg = kernels::KernelRegistry::instance();
    k_first = reg.qconv(d);
    d.beta0 = false;
    k_acc = reg.qconv(d);
  }

  const std::int64_t tasks =
      static_cast<std::int64_t>(kb_) * cb_ * p_.R * p_.S;
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (std::int64_t t = 0; t < tasks; ++t) {
    std::int64_t rest = t;
    const int s = static_cast<int>(rest % p_.S);
    rest /= p_.S;
    const int r = static_cast<int>(rest % p_.R);
    rest /= p_.R;
    const int cbi = static_cast<int>(rest % cb_);
    const int kbi = static_cast<int>(rest / cb_);

    float* dw = grad_wt.at(kbi, cbi, r, s);
    bool first = true;
    for (int n = 0; n < p_.N; ++n) {
      for (int oj = 0; oj < P; ++oj) {
        const int y = oj * p_.stride_h + r;
        if (q2 > 0) {
          const std::int16_t* xrow =
              xq + (((static_cast<std::int64_t>(n) * cb_ + cbi) * rows + y) *
                   p_.S +
               s) *
                  x_block;
          const std::int16_t* grow =
              dov + ((static_cast<std::int64_t>(n) * kb_ + kbi) * P + oj) *
                        row_pairs;
          const kernels::QConvMicrokernel* k = first ? k_first : k_acc;
          k->run(xrow, grow, dw, scale);
          k->run(xrow + half * x_pitch, grow, dw + half * v, scale);
          first = false;
        }
        if (q_tail > 0) {
          // Scalar tail for the odd final pixel.
          const int oi = Q - 1;
          const std::int16_t* px =
              qin.at_padded(n, cbi, y, s) +
              static_cast<std::int64_t>(oi) * p_.stride_w * v;
          const std::int16_t* g = qgrad_out.at(n, kbi, oj, oi);
          if (first) {
            for (int e = 0; e < v * v; ++e) dw[e] = 0.0f;
            first = false;
          }
          for (int c = 0; c < v; ++c)
            for (int k = 0; k < v; ++k)
              dw[static_cast<std::int64_t>(c) * v + k] +=
                  static_cast<float>(static_cast<std::int32_t>(px[c]) *
                                     static_cast<std::int32_t>(g[k])) *
                  scale;
        }
      }
    }
  }
}

}  // namespace xconv::quant
