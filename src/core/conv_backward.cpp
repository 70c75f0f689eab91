// Backward propagation (paper Section II-I).
//
// Four paths, selected at setup:
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
//   3. R == S == 1, stride > 1, pad == 0 — duality with a fractional stride:
//      a dense 1x1 forward convolution over dO scattered into dI with
//      out_col_stride = stride*VLEN (Section II-I scenario 2).
//   4. everything else  — Algorithm 7: small GEMMs
//      GEMM(W'[cb][kb][R-1-r][S-1-s], dO[n][kb][oj][:], dI[n][cb][ij+r][ii+s])
//      with M = K = VLEN and N = Q, accumulating into a zeroed dI.
//
// All four run from weights already in backward-dual form (backward_dual);
// backward() only adds the threaded duality transform in front (k-dot packs
// straight from the forward form instead). Each path writes every dI
// element, zeroing inside its own thread partition. Paths 2 and 3 replay
// kernel streams recorded at setup; paths 1 and 4 call kernels that take
// no prefetch operands straight from their loop nests.
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

/// One 1x1-strided work item: image n, dI block cbi, dO row oj, q-block qb.
struct Item1x1 {
  int n, cbi, oj, qb;
};
Item1x1 decode_1x1(std::int64_t it, int n_qb, int P, int cb) {
  Item1x1 w{};
  w.qb = static_cast<int>(it % n_qb);
  it /= n_qb;
  w.oj = static_cast<int>(it % P);
  it /= P;
  w.cbi = static_cast<int>(it % cb);
  w.n = static_cast<int>(it / cb);
  return w;
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

  if (bwd_algo_ == BwdAlgo::duality_1x1_strided) {
    bwd1x1_rbq_ = plan_.bwd1x1_rbq;
    bwd1x1_qfull_ = p.Q() / bwd1x1_rbq_;
    bwd1x1_qrem_ = p.Q() % bwd1x1_rbq_;
    bwd1x1_variants_.clear();
    for (int qe = 0; qe < 2; ++qe) {
      if (qe == 1 && bwd1x1_qrem_ == 0) continue;
      jit::ConvKernelDesc d;
      d.isa = opt_.isa;
      d.vlen = vlen_;
      d.rbp = 1;
      d.rbq = qe ? bwd1x1_qrem_ : bwd1x1_rbq_;
      d.r = d.s = 1;
      d.stride_h = d.stride_w = 1;       // dense read over dO
      d.in_row_stride = out_row_stride_;  // dO geometry
      d.out_row_stride = params_.stride_h * in_row_stride_;  // scatter rows
      d.out_col_stride = params_.stride_w * vlen_;           // scatter cols
      d.c_iters = vlen_;
      if (kb_ > 1) {
        d.c_blocks = kb_;
        d.in_cb_stride = static_cast<int>(out_kb_stride_);
        d.wt_cb_stride = vlen_ * vlen_;
      }
      d.beta0 = true;
      bwd1x1_variants_.push_back(reg.conv(d));
    }
    return;
  }

  bwd_gemm_qc_ = plan_.bwd_gemm_qc;
  bwd_gemm_qrem_ = p.Q() % bwd_gemm_qc_;
  jit::GemmKernelDesc g;
  g.isa = opt_.isa;
  g.vlen = vlen_;
  g.k = vlen_;
  g.lda = vlen_;
  g.ldb = vlen_;
  g.ldc = p.stride_w * vlen_;
  g.beta0 = false;
  g.n = bwd_gemm_qc_;
  bwd_gemm_kernels_[0] = reg.gemm(g);
  if (bwd_gemm_qrem_ > 0) {
    g.n = bwd_gemm_qrem_;
    bwd_gemm_kernels_[1] = reg.gemm(g);
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
    case BwdAlgo::duality_1x1_strided:
      backward_1x1_strided(grad_out, bwd_wt, grad_in);
      return;
    case BwdAlgo::gemm_fallback:
      backward_gemm(grad_out, bwd_wt, grad_in);
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

void ConvLayer::backward_1x1_strided(const tensor::ActTensor& grad_out,
                                     const tensor::WtTensor& bwd_wt,
                                     tensor::ActTensor& grad_in) {
  parallel_exact("ConvLayer::backward", [&](int tid) {
    zero_1x1_uncovered(grad_in.data(), tid);
    bwd1x1_streams_[tid].replay(bwd1x1_variants_, grad_out.data(),
                                bwd_wt.data(), grad_in.data(), {});
  });
}

// Each work item owns a tile of its dI plane in the padded frame: rows from
// its covered row up to the next item's (the first row also takes the top
// halo, the last everything below), and likewise for the columns of its
// q-block. The tiles cover the plane exactly once. The beta0 kernels
// overwrite the covered pixels (multiples of the stride); this zeroes the
// rest of the tile, so dI needs no serial full-tensor zero pass.
void ConvLayer::zero_1x1_uncovered(float* din, int tid) const {
  const ConvParams& p = params_;
  const int P = p.P();
  const int n_qb = bwd1x1_qfull_ + (bwd1x1_qrem_ > 0 ? 1 : 0);
  const std::int64_t total = static_cast<std::int64_t>(p.N) * cb_ * P * n_qb;
  const int hp = p.H + 2 * in_halo_h_, wp = p.W + 2 * in_halo_w_;
  const std::size_t px_bytes = static_cast<std::size_t>(vlen_) * sizeof(float);
  const Range rg = thread_chunk(total, tid, threads_);
  for (std::int64_t it = rg.begin; it < rg.end; ++it) {
    const Item1x1 w = decode_1x1(it, n_qb, P, cb_);
    const int cols = (bwd1x1_qrem_ > 0 && w.qb == bwd1x1_qfull_)
                         ? bwd1x1_qrem_
                         : bwd1x1_rbq_;
    const int oi0 = std::min(w.qb, bwd1x1_qfull_) * bwd1x1_rbq_;
    const int y_cov = w.oj * p.stride_h + in_halo_h_;
    const int y0 = w.oj == 0 ? 0 : y_cov;
    const int y1 = w.oj == P - 1 ? hp : y_cov + p.stride_h;
    const int x_cov = oi0 * p.stride_w + in_halo_w_;
    const int x0 = w.qb == 0 ? 0 : x_cov;
    const int x1 = w.qb == n_qb - 1 ? wp : x_cov + cols * p.stride_w;
    float* plane = din + w.n * in_n_stride_ + w.cbi * in_cb_stride_;
    for (int y = y0; y < y1; ++y) {
      float* row = plane + static_cast<std::int64_t>(y) * in_row_stride_;
      int x = x0;  // first pixel of the row not yet handled
      if (y == y_cov) {
        for (int j = 0; j < cols; ++j) {
          const int xc = x_cov + j * p.stride_w;  // the kernel writes this
          std::memset(row + x * vlen_, 0, (xc - x) * px_bytes);
          x = xc + 1;
        }
      }
      std::memset(row + x * vlen_, 0, (x1 - x) * px_bytes);
    }
  }
}

// The stride-1 duality path needs no recording here: its dual layer owns
// forward streams of its own. The k-dot and GEMM-fallback paths have no
// stream form (their kernels take no prefetch operands) and call their
// kernels straight from their loop nests.
void ConvLayer::record_backward_1x1() {
  if (bwd_algo_ != BwdAlgo::duality_1x1_strided) return;
  const ConvParams& p = params_;
  const int n_qb = bwd1x1_qfull_ + (bwd1x1_qrem_ > 0 ? 1 : 0);
  // One work item per (n, cb, oj, q-block); every item writes disjoint dI
  // pixels (rbp = 1, distinct rows/columns), so the thread partition never
  // affects the result.
  const std::int64_t total =
      static_cast<std::int64_t>(p.N) * cb_ * p.P() * n_qb;
  // The backward form is [Cb][Kb][1][1][k][c]: one outer block spans Kb.
  const std::int64_t wt_cb_stride = wt_cb_stride_ * kb_;

  bwd1x1_streams_.assign(threads_, KernelStream{});
  parallel_exact("ConvLayer::backward", [&](int tid) {
    KernelStream& stream = bwd1x1_streams_[tid];
    const Range rg = thread_chunk(total, tid, threads_);
    for (std::int64_t it = rg.begin; it < rg.end; ++it) {
      const Item1x1 w = decode_1x1(it, n_qb, p.P(), cb_);
      const bool q_edge = (bwd1x1_qrem_ > 0 && w.qb == bwd1x1_qfull_);
      const int oi0 = std::min(w.qb, bwd1x1_qfull_) * bwd1x1_rbq_;
      const std::int64_t dout_off =
          w.n * out_n_stride_ +
          static_cast<std::int64_t>(w.oj + out_pad_h_) * out_row_stride_ +
          static_cast<std::int64_t>(oi0 + out_pad_w_) * vlen_;
      const std::int64_t wt_off = w.cbi * wt_cb_stride;
      // 1x1 layers have pad == 0; the physical halo (if any consumer raised
      // it) shifts the scatter frame — same formula ActTensor::offset() uses.
      const std::int64_t din_off =
          w.n * in_n_stride_ + w.cbi * in_cb_stride_ +
          static_cast<std::int64_t>(w.oj * p.stride_h + in_halo_h_) *
              in_row_stride_ +
          static_cast<std::int64_t>(oi0 * p.stride_w + in_halo_w_) * vlen_;
      stream.record_conv(q_edge ? 1 : 0, dout_off, wt_off, din_off);
    }
  });
  for (auto& s : bwd1x1_streams_) s.finish();
}

void ConvLayer::backward_gemm(const tensor::ActTensor& grad_out,
                              const tensor::WtTensor& bwd_wt,
                              tensor::ActTensor& grad_in) {
  const ConvParams& p = params_;
  const int n_chunks = p.Q() / bwd_gemm_qc_ + (bwd_gemm_qrem_ > 0 ? 1 : 0);

  // dI rows overlap across oj when stride < R, so parallelism stays at
  // (n, cb) granularity: each item owns a full dI feature-map plane, which
  // it zeroes, accumulates into, and then clears the halo of.
  const std::int64_t total = static_cast<std::int64_t>(p.N) * cb_;
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (std::int64_t it = 0; it < total; ++it) {
    const int cbi = static_cast<int>(it % cb_);
    const int n = static_cast<int>(it / cb_);
    std::memset(grad_in.at_padded(n, cbi, 0, 0), 0,
                grad_in.stride_cb() * sizeof(float));
    for (int kbi = 0; kbi < kb_; ++kbi) {
      for (int oj = 0; oj < p.P(); ++oj) {
        const int ij = oj * p.stride_h;
        for (int r = 0; r < p.R; ++r) {
          for (int s = 0; s < p.S; ++s) {
            const float* a = bwd_wt.at(cbi, kbi, p.R - 1 - r, p.S - 1 - s);
            for (int ch = 0; ch < n_chunks; ++ch) {
              const int oi0 = ch * bwd_gemm_qc_;
              const bool is_rem = bwd_gemm_qrem_ > 0 && ch == n_chunks - 1;
              const float* b = grad_out.at(n, kbi, oj, oi0);
              float* c = grad_in.at_padded(
                  n, cbi, ij + r + in_shift_h_,
                  oi0 * p.stride_w + s + in_shift_w_);
              bwd_gemm_kernels_[is_rem ? 1 : 0]->run(b, a, c);
            }
          }
        }
      }
    }
    // Gradients that fell into the padding halo are discarded.
    grad_in.zero_halo(n, cbi);
  }
}
}  // namespace xconv::core
