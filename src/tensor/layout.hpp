// Blocked tensor layouts (paper Section II-B).
//
// Activations are stored as A[N][Cb][Hp][Wp][v]: the feature-map dimension is
// split into Cb = ceil(C / v) blocks of the SIMD width v, and the block index
// becomes the innermost, unit-stride dimension so that a vector register holds
// v consecutive feature maps of one pixel. The spatial dims carry a physical
// zero halo (Hp = H + 2*pad_h) so the convolution microkernels never branch at
// image borders.
//
// Forward weights are W[Kb][Cb][R][S][vc][vk] (input-channel-major within the
// block, output channels innermost): the microkernel loads one vk-vector per
// (r, s, c) and FMAs it against a broadcast input element.
//
// Backward weights use the paper's duality transform (Section II-I):
// W'[Cb][Kb][R'][S'][vk][vc] with flipped taps (r' = R-1-r, s' = S-1-s) and
// transposed channel blocks, so backward runs the forward kernel unchanged.
#pragma once

#include <cstddef>
#include <cstring>

#include "core/conv_params.hpp"
#include "tensor/buffer.hpp"

namespace xconv::tensor {

/// Blocked activation tensor: [N][Cb][Hp][Wp][v] with a physical zero halo.
class ActTensor {
 public:
  ActTensor() = default;
  /// `channels` is the logical feature-map count (padded up to v internally);
  /// `h`/`w` are logical spatial dims; `pad_*` the halo.
  ActTensor(int n, int channels, int h, int w, int pad_h, int pad_w, int v);

  int n() const { return n_; }
  int channels() const { return c_; }
  int blocks() const { return cb_; }
  int h() const { return h_; }
  int w() const { return w_; }
  int pad_h() const { return pad_h_; }
  int pad_w() const { return pad_w_; }
  int hp() const { return h_ + 2 * pad_h_; }
  int wp() const { return w_ + 2 * pad_w_; }
  int vlen() const { return v_; }

  std::size_t size() const { return stride_n() * n_; }
  float* data() { return view_ != nullptr ? view_ : buf_.data(); }
  const float* data() const {
    return view_ != nullptr ? view_ : buf_.data();
  }

  /// A non-owning tensor with this one's geometry over this one's storage
  /// (gxm Split tops alias their bottom this way). It is valid while this
  /// tensor's storage lives; copies of a view are views.
  ActTensor view() {
    ActTensor v;
    v.n_ = n_;
    v.c_ = c_;
    v.cb_ = cb_;
    v.h_ = h_;
    v.w_ = w_;
    v.pad_h_ = pad_h_;
    v.pad_w_ = pad_w_;
    v.v_ = v_;
    v.view_ = data();
    return v;
  }

  /// Strides in elements. The innermost v dimension has stride 1.
  std::size_t stride_w() const { return v_; }
  std::size_t stride_h() const { return static_cast<std::size_t>(wp()) * v_; }
  std::size_t stride_cb() const { return stride_h() * hp(); }
  std::size_t stride_n() const { return stride_cb() * cb_; }

  /// Offset of the v-vector at logical (n, cb, y, x) where (y, x) index the
  /// *logical* image; the halo shift is applied internally.
  std::size_t offset(int n, int cb, int y, int x) const {
    return n * stride_n() + cb * stride_cb() +
           (y + pad_h_) * stride_h() + (x + pad_w_) * stride_w();
  }
  float* at(int n, int cb, int y, int x) { return data() + offset(n, cb, y, x); }
  const float* at(int n, int cb, int y, int x) const {
    return data() + offset(n, cb, y, x);
  }

  /// Offset in the *padded* frame (Y in [0, hp), X in [0, wp)) — what the
  /// convolution drivers use: an output pixel oj with tap r reads padded row
  /// oj*stride + r directly.
  std::size_t offset_padded(int n, int cb, int Y, int X) const {
    return n * stride_n() + cb * stride_cb() + Y * stride_h() +
           X * stride_w();
  }
  float* at_padded(int n, int cb, int Y, int X) {
    return data() + offset_padded(n, cb, Y, X);
  }
  const float* at_padded(int n, int cb, int Y, int X) const {
    return data() + offset_padded(n, cb, Y, X);
  }

  /// Scalar accessor over logical channel index c (= cb*v + lane).
  float& el(int n, int c, int y, int x) {
    return *(at(n, c / v_, y, x) + c % v_);
  }
  float el(int n, int c, int y, int x) const {
    return *(at(n, c / v_, y, x) + c % v_);
  }

  void zero() {
    if (size() > 0) std::memset(data(), 0, size() * sizeof(float));
  }
  /// Re-zero only the halo region (needed after in-place writes touch it).
  void zero_halo();
  /// zero_halo() restricted to the (n, cb) feature-map plane, so threads
  /// that own disjoint planes can clear their halos in parallel.
  void zero_halo(int n, int cb);

 private:
  AlignedBuffer<float> buf_;  ///< empty for a view
  float* view_ = nullptr;     ///< the viewed storage; null when owning
  int n_ = 0, c_ = 0, cb_ = 0, h_ = 0, w_ = 0;
  int pad_h_ = 0, pad_w_ = 0, v_ = 1;
};

/// Blocked weight tensor: [Kb][Cb][R][S][vc][vk] (forward form) or
/// [Cb][Kb][R][S][vk][vc] (backward-dual form; same shape class, the two
/// outer/inner block orders are tracked by the owner, not by this class).
class WtTensor {
 public:
  WtTensor() = default;
  WtTensor(int outer_blocks, int inner_blocks, int r, int s, int v);

  int outer() const { return ob_; }
  int inner() const { return ib_; }
  int r() const { return r_; }
  int s() const { return s_; }
  int vlen() const { return v_; }

  std::size_t size() const { return buf_.size(); }
  float* data() { return buf_.data(); }
  const float* data() const { return buf_.data(); }

  std::size_t stride_vrow() const { return v_; }
  std::size_t stride_s() const { return static_cast<std::size_t>(v_) * v_; }
  std::size_t stride_r() const { return stride_s() * s_; }
  std::size_t stride_inner() const { return stride_r() * r_; }
  std::size_t stride_outer() const { return stride_inner() * ib_; }

  std::size_t offset(int ob, int ib, int r, int s) const {
    return ob * stride_outer() + ib * stride_inner() + r * stride_r() +
           s * stride_s();
  }
  float* at(int ob, int ib, int r, int s) { return data() + offset(ob, ib, r, s); }
  const float* at(int ob, int ib, int r, int s) const {
    return data() + offset(ob, ib, r, s);
  }
  /// Element (row, lane) within the v x v block at (ob, ib, r, s).
  float& el(int ob, int ib, int r, int s, int row, int lane) {
    return *(at(ob, ib, r, s) + static_cast<std::size_t>(row) * v_ + lane);
  }
  float el(int ob, int ib, int r, int s, int row, int lane) const {
    return *(at(ob, ib, r, s) + static_cast<std::size_t>(row) * v_ + lane);
  }

  void zero() { buf_.zero(); }

 private:
  AlignedBuffer<float> buf_;
  int ob_ = 0, ib_ = 0, r_ = 0, s_ = 0, v_ = 1;
};

/// ceil-division helper used for block counts everywhere.
constexpr int ceil_div(int a, int b) { return (a + b - 1) / b; }

}  // namespace xconv::tensor
