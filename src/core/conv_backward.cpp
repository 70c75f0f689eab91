// Backward propagation (paper Section II-I).
//
// Three paths, selected at setup by the layer shape (bwd_algo_for):
//   1. C < VLEN         — k-dot (jit/kdot_kernel_gen.hpp): the other paths
//      vectorize over dI channels, which a single padded input block mostly
//      wastes (conv1: 3 of 16 lanes). This one vectorizes over dO's K
//      channels, reduces each dI channel to one lane with a shuffle tree,
//      and covers any stride and filter from weights packed per call into
//      k-vectors Wp[Kb][R][S][C][VLEN].
//   2. stride == 1      — duality: transform the weights (transpose channel
//      blocks, flip taps) and run the *forward* machinery of a dual layer
//      whose input is dO (with the R-1-pad halo make_output() provides) and
//      whose output is dI. This literally reuses the forward code generator,
//      streams, fusion and parallelization ("duality for backward propagation
//      to reduce number of code generators").
//   3. stride > 1       — duality with a fractional stride: per filter tap
//      (r, s), a dense 1x1 forward convolution over one dO row scattered
//      into dI with out_col_stride = stride*VLEN (Section II-I scenario 2).
//      Algorithm 7's small GEMMs (M = K = VLEN, N = a Q-chunk) are exactly
//      these 1x1 calls, so the forward generator covers them too: each call
//      reduces all Kb blocks in-kernel and accumulates into a zeroed dI row.
//
// All three run from weights already in backward-dual form (backward_dual);
// backward() only adds the threaded duality transform in front (k-dot packs
// straight from the forward form instead). Each path writes every dI
// element, zeroing inside its own thread partition. Paths 2 and 3 replay
// kernel streams recorded at setup; path 1 calls kernels that take no
// prefetch operands straight from its loop nest.
#include <omp.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/conv_layer.hpp"
#include "tensor/transform.hpp"

namespace xconv::core {

namespace {
// Mirror of forward's check_geometry (conv_forward.cpp): a wrong-shape
// tensor must fail loudly instead of silently corrupting memory.
void check_bwd_geometry(const core::ConvLayer& l,
                        const tensor::ActTensor& grad_out,
                        const tensor::ActTensor& grad_in) {
  if (l.options().fwd_only)
    throw std::logic_error("ConvLayer::backward: layer was built fwd_only");
  const core::ConvParams& p = l.params();
  if (grad_out.n() != p.N || grad_out.channels() != p.K ||
      grad_out.h() != p.P() || grad_out.w() != p.Q() ||
      grad_out.pad_h() != l.out_halo_h() ||
      grad_out.pad_w() != l.out_halo_w() || grad_out.vlen() != l.vlen())
    throw std::invalid_argument(
        "ConvLayer::backward: grad_out geometry mismatch (use make_output)");
  if (grad_in.n() != p.N || grad_in.channels() != p.C || grad_in.h() != p.H ||
      grad_in.w() != p.W || grad_in.pad_h() != l.in_halo_h() ||
      grad_in.pad_w() != l.in_halo_w() || grad_in.vlen() != l.vlen())
    throw std::invalid_argument(
        "ConvLayer::backward: grad_in geometry mismatch (use make_input)");
}

/// `outer`/`inner` are (kb, cb) for the forward form, (cb, kb) for the
/// backward-dual form.
void check_wt_geometry(const core::ConvLayer& l, const tensor::WtTensor& wt,
                       int outer, int inner, const char* what) {
  const core::ConvParams& p = l.params();
  if (wt.outer() != outer || wt.inner() != inner || wt.r() != p.R ||
      wt.s() != p.S || wt.vlen() != l.vlen())
    throw std::invalid_argument(std::string(what) +
                                ": weight geometry mismatch");
}

/// The dI columns of one column phase b: ii = first, first + stride_w, ...
/// (count of them), exactly those with (ii + pad_w) % stride_w == b.
struct KdotPhase {
  int first, count;
};
KdotPhase kdot_phase(const core::ConvParams& p, int b) {
  const int sw = p.stride_w;
  KdotPhase ph{((b - p.pad_w) % sw + sw) % sw, 0};
  if (ph.first < p.W) ph.count = (p.W - 1 - ph.first) / sw + 1;
  return ph;
}
}  // namespace

void ConvLayer::setup_backward() {
  const ConvParams& p = params_;
  auto& reg = kernels::KernelRegistry::instance();

  // The algorithm choice (shape-forced, Section II-I) and its blocking
  // extents come from the resolved plan.
  bwd_algo_ = plan_.bwd_algo;

  if (bwd_algo_ == BwdAlgo::kdot) {
    const int rb = plan_.bwd_kdot_rb;
    const int sh = p.stride_h, sw = p.stride_w;
    kdot_wp_.resize(static_cast<std::size_t>(kb_) * p.R * p.S * p.C * vlen_);
    kdot_variants_.assign(static_cast<std::size_t>(sh) * sw * 2, nullptr);
    for (int a = 0; a < sh; ++a) {
      for (int b = 0; b < sw; ++b) {
        const KdotPhase ph = kdot_phase(p, b);
        for (int rem = 0; rem < 2; ++rem) {
          const int width = rem ? ph.count % rb : (ph.count >= rb ? rb : 0);
          if (width == 0) continue;
          jit::KdotKernelDesc d;
          d.isa = opt_.isa;
          d.vlen = vlen_;
          d.c = p.C;
          d.rb = width;
          d.kb = kb_;
          d.r = p.R;
          d.s = p.S;
          d.stride_h = sh;
          d.stride_w = sw;
          d.r0 = a;
          d.s0 = b;
          d.do_row_stride = out_row_stride_;
          d.do_kb_stride = static_cast<int>(out_kb_stride_);
          d.di_px_stride = sw * vlen_;
          kdot_variants_[(a * sw + b) * 2 + rem] = reg.kdot(d);
        }
      }
    }
    return;
  }

  if (bwd_algo_ == BwdAlgo::duality_stride1) {
    ConvParams dual;
    dual.N = p.N;
    dual.C = p.K;
    dual.K = p.C;
    dual.H = p.P();
    dual.W = p.Q();
    dual.R = p.R;
    dual.S = p.S;
    dual.stride_h = dual.stride_w = 1;
    dual.pad_h = p.R - 1 - p.pad_h;
    dual.pad_w = p.S - 1 - p.pad_w;
    if (dual.pad_h < 0 || dual.pad_w < 0)
      throw std::invalid_argument(
          "ConvLayer: pad > R-1 unsupported by the duality transform");
    ConvOptions dopt = opt_;
    dopt.fuse = FusedOp::none;
    // Re-plan for the dual shape: the parent's explicit plan describes
    // *this* layer's geometry, not the dual's.
    dopt.plan.reset();
    dopt.threads = threads_;
    dopt.fwd_only = true;
    // The dual layer's input is this layer's output tensor and its output is
    // this layer's input tensor: inherit their physical halos.
    dopt.in_halo_h = out_pad_h_;
    dopt.in_halo_w = out_pad_w_;
    dopt.out_halo_h = in_halo_h_;
    dopt.out_halo_w = in_halo_w_;
    bwd_layer_ = std::make_unique<ConvLayer>(dual, dopt);
    return;
  }

  // duality_strided: one accumulating 1x1 kernel per q-block width. The
  // input is a dO row (Kb loop in-kernel), the output a dI row scattered by
  // the stride; the weights of one tap step by R*S*VLEN^2 per Kb block of the
  // backward form [Cb][Kb][R][S][k][c].
  const int rbq = plan_.bwd_strided_rbq;
  bwd_strided_variants_.clear();
  for (const int width : {rbq, p.Q() % rbq}) {
    if (width == 0) continue;
    jit::ConvKernelDesc d;
    d.isa = opt_.isa;
    d.vlen = vlen_;
    d.rbp = 1;
    d.rbq = width;
    d.r = d.s = 1;
    d.stride_h = d.stride_w = 1;       // dense read over dO
    d.in_row_stride = out_row_stride_;  // dO geometry
    // int32 byte count checked in choose_blocking.
    d.out_row_stride = p.stride_h * in_row_stride_;
    d.out_col_stride = p.stride_w * vlen_;
    d.c_iters = vlen_;
    if (kb_ > 1) {
      d.c_blocks = kb_;
      d.in_cb_stride = static_cast<int>(out_kb_stride_);
      d.wt_cb_stride = static_cast<int>(wt_cb_stride_);
    }
    bwd_strided_variants_.push_back(reg.conv(d));
  }
}

void ConvLayer::backward(const tensor::ActTensor& grad_out,
                         const tensor::WtTensor& wt,
                         tensor::ActTensor& grad_in) {
  check_bwd_geometry(*this, grad_out, grad_in);
  check_wt_geometry(*this, wt, kb_, cb_, "ConvLayer::backward");
  if (bwd_algo_ == BwdAlgo::kdot) {
    backward_kdot(grad_out, wt.data(), /*fwd_form=*/true, grad_in);
    return;
  }
  if (bwd_wt_.size() == 0)
    bwd_wt_ = tensor::WtTensor(cb_, kb_, params_.R, params_.S, vlen_);
  tensor::blocked_fwd_to_bwd(wt, bwd_wt_, threads_);
  backward_dual(grad_out, bwd_wt_, grad_in);
}

void ConvLayer::backward_dual(const tensor::ActTensor& grad_out,
                              const tensor::WtTensor& bwd_wt,
                              tensor::ActTensor& grad_in) {
  check_bwd_geometry(*this, grad_out, grad_in);
  check_wt_geometry(*this, bwd_wt, cb_, kb_, "ConvLayer::backward_dual");

  switch (bwd_algo_) {
    case BwdAlgo::kdot:
      backward_kdot(grad_out, bwd_wt.data(), /*fwd_form=*/false, grad_in);
      return;
    case BwdAlgo::duality_stride1: {
      // The dual forward writes the whole interior; only the halo is left.
      bwd_layer_->forward(grad_out, bwd_wt, grad_in);
      const int planes = params_.N * cb_;
#pragma omp parallel for num_threads(threads_) schedule(static)
      for (int i = 0; i < planes; ++i) grad_in.zero_halo(i / cb_, i % cb_);
      return;
    }
    case BwdAlgo::duality_strided:
      parallel_exact("ConvLayer::backward", [&](int tid) {
        bwd_strided_streams_[tid].replay(bwd_strided_variants_,
                                         grad_out.data(), bwd_wt.data(),
                                         grad_in.data(), {});
      });
      return;
  }
}

// Work items are (n, dI row); each writes its whole padded row (kernels for
// the interior, zeros for the halo columns), and the first and last rows of
// an image also clear the halo rows above and below, so every dI element is
// written exactly once with no serial zero pass.
void ConvLayer::backward_kdot(const tensor::ActTensor& grad_out,
                              const float* wt, bool fwd_form,
                              tensor::ActTensor& grad_in) {
  const ConvParams& p = params_;
  const int C = p.C, R = p.R, S = p.S, v = vlen_;
  const int sh = p.stride_h, sw = p.stride_w;
  const int rb = plan_.bwd_kdot_rb;
  const std::int64_t taps = static_cast<std::int64_t>(kb_) * R * S;
  const std::int64_t items = static_cast<std::int64_t>(p.N) * p.H;
  const std::size_t px_bytes = static_cast<std::size_t>(v) * sizeof(float);
  float* wp = kdot_wp_.data();
  const float* dout = grad_out.data();
  float* din = grad_in.data();

  parallel_exact("ConvLayer::backward", [&](int tid) {
    // Pack Wp[kb][r][s][c][:] = W[kb][c][r][s][:]: the first C rows of the
    // forward form's (c, k) block, or column c of the backward form's
    // flipped (k, c) block.
    const Range pr = thread_chunk(taps, tid, threads_);
    for (std::int64_t i = pr.begin; i < pr.end; ++i) {
      float* dst = wp + i * C * v;
      if (fwd_form) {
        std::memcpy(dst, wt + i * v * v, C * px_bytes);
        continue;
      }
      const int kbi = static_cast<int>(i / (R * S));
      const int r = static_cast<int>(i / S % R), s = static_cast<int>(i % S);
      const float* src =
          wt + ((static_cast<std::int64_t>(kbi) * R + (R - 1 - r)) * S +
                (S - 1 - s)) *
                   v * v;
      for (int c = 0; c < C; ++c)
        for (int k = 0; k < v; ++k) dst[c * v + k] = src[k * v + c];
    }
#pragma omp barrier
    const Range rg = thread_chunk(items, tid, threads_);
    for (std::int64_t it = rg.begin; it < rg.end; ++it) {
      const int n = static_cast<int>(it / p.H), ij = static_cast<int>(it % p.H);
      const int a = (ij + p.pad_h) % sh;
      const int nt = a < R ? (R - 1 - a) / sh + 1 : 0;
      const int oj_lo = (ij + p.pad_h - a) / sh - (nt - 1);
      float* img = din + n * in_n_stride_;  // cb_ == 1: one plane
      float* row = img + static_cast<std::int64_t>(ij + in_halo_h_) *
                             in_row_stride_;
      std::memset(row, 0, in_halo_w_ * px_bytes);
      std::memset(row + static_cast<std::int64_t>(p.W + in_halo_w_) * v, 0,
                  in_halo_w_ * px_bytes);
      for (int b = 0; b < sw; ++b) {
        const KdotPhase ph = kdot_phase(p, b);
        const int nu = b < S ? (S - 1 - b) / sw + 1 : 0;
        for (int g = 0; g < ph.count; g += rb) {
          const bool rem = ph.count - g < rb;
          const int ii0 = ph.first + g * sw;
          // dO at the phase's last tap (smallest oj, oi); a phase with no
          // taps reads nothing.
          const float* d = dout;
          if (nt > 0 && nu > 0) {
            const int oi_lo = (ii0 + p.pad_w - b) / sw - (nu - 1);
            d += n * out_n_stride_ +
                 static_cast<std::int64_t>(oj_lo + out_pad_h_) *
                     out_row_stride_ +
                 static_cast<std::int64_t>(oi_lo + out_pad_w_) * v;
          }
          kdot_variants_[(a * sw + b) * 2 + (rem ? 1 : 0)]->run(
              d, wp, row + static_cast<std::int64_t>(ii0 + in_halo_w_) * v);
        }
      }
      if (ij == 0)
        std::memset(img, 0, in_halo_h_ * in_row_stride_ * sizeof(float));
      if (ij == p.H - 1)
        std::memset(img + static_cast<std::int64_t>(p.H + in_halo_h_) *
                              in_row_stride_,
                    0, in_halo_h_ * in_row_stride_ * sizeof(float));
    }
  });
}

// The stride-1 duality path needs no recording here: its dual layer owns
// forward streams of its own. The k-dot path has no stream form (its
// kernels take no prefetch operands) and calls its kernels straight from
// its loop nest.
//
// One work item per dI row (n, cb, ij), which it owns: a ZERO of the row
// (the first row of a plane also clears the halo rows above it, the last the
// ones below), then one accumulating CONV call per contributing tap (r, s)
// and q-block, then, when pad_w > 0, a ZERO of the halo columns the taps
// spill into. Every dI element is written by exactly one item in a fixed
// order, so the thread partition never affects the result.
void ConvLayer::record_backward_strided() {
  if (bwd_algo_ != BwdAlgo::duality_strided) return;
  const ConvParams& p = params_;
  const int P = p.P(), rbq = plan_.bwd_strided_rbq;
  const int q_full = p.Q() / rbq, n_qb = tensor::ceil_div(p.Q(), rbq);
  const int hp = p.H + 2 * in_halo_h_;
  const std::int64_t total = static_cast<std::int64_t>(p.N) * cb_ * p.H;
  // The backward form is [Cb][Kb][R][S][k][c]: one outer block spans Kb.
  const std::int64_t wt_outer = wt_cb_stride_ * kb_;
  const std::int64_t tap_elems = static_cast<std::int64_t>(vlen_) * vlen_;

  bwd_strided_streams_.assign(threads_, KernelStream{});
  parallel_exact("ConvLayer::backward", [&](int tid) {
    KernelStream& stream = bwd_strided_streams_[tid];
    const Range rg = thread_chunk(total, tid, threads_);
    for (std::int64_t it = rg.begin; it < rg.end; ++it) {
      const int ij = static_cast<int>(it % p.H);
      const int cbi = static_cast<int>(it / p.H % cb_);
      const int n = static_cast<int>(it / p.H / cb_);
      const std::int64_t plane = n * in_n_stride_ + cbi * in_cb_stride_;
      const std::int64_t row =
          plane + static_cast<std::int64_t>(ij + in_halo_h_) * in_row_stride_;
      const int y0 = ij == 0 ? 0 : ij + in_halo_h_;
      const int y1 = ij == p.H - 1 ? hp : ij + in_halo_h_ + 1;
      stream.record_zero(plane + static_cast<std::int64_t>(y0) * in_row_stride_,
                         static_cast<std::int64_t>(y1 - y0) * in_row_stride_);
      for (int r = 0; r < p.R; ++r) {
        const int t = ij + p.pad_h - r;  // = oj * stride_h for a tap
        if (t < 0 || t % p.stride_h != 0 || t / p.stride_h >= P) continue;
        const int oj = t / p.stride_h;
        for (int s = 0; s < p.S; ++s) {
          // Forward tap (r, s) sits at the flipped tap of the backward form.
          const std::int64_t wt_off =
              cbi * wt_outer +
              ((p.R - 1 - r) * p.S + (p.S - 1 - s)) * tap_elems;
          for (int qb = 0; qb < n_qb; ++qb) {
            const int oi0 = qb * rbq;
            const std::int64_t dout_off =
                n * out_n_stride_ +
                static_cast<std::int64_t>(oj + out_pad_h_) * out_row_stride_ +
                static_cast<std::int64_t>(oi0 + out_pad_w_) * vlen_;
            // dI column oi * stride_w + s - pad_w, in the padded frame.
            const std::int64_t din_off =
                row + static_cast<std::int64_t>(oi0 * p.stride_w + s -
                                                p.pad_w + in_halo_w_) *
                          vlen_;
            stream.record_conv(qb == q_full ? 1 : 0, dout_off, wt_off,
                               din_off);
          }
        }
      }
      if (p.pad_w > 0) {
        // Taps at s < pad_w (and the last ones right of W) land in the
        // pad_w halo columns on either side: gradients of the padding.
        const std::int64_t px = vlen_;
        stream.record_zero(row + (in_halo_w_ - p.pad_w) * px, p.pad_w * px);
        stream.record_zero(row + (p.W + in_halo_w_) * px, p.pad_w * px);
      }
    }
  });
  for (auto& s : bwd_strided_streams_) s.finish();
}
}  // namespace xconv::core
