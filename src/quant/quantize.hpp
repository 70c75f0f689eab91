// Reduced-precision (int16) support (paper Section II-K).
//
// Tensors are quantized symmetrically per-tensor: q = clamp(round(x/scale)),
// with the scale chosen so the absolute maximum maps near the top of a
// *headroom-limited* range. Products accumulate into int32 ("4VNNIW"
// semantics: two int16 x int16 products summed per lane per instruction) and
// are flushed to an fp32 accumulator every `flush_interval` channel-pair
// steps — the paper's "restricted length of the FMA accumulation chain ...
// to avoid overflows in the output registers", which is one of the two
// effects capping the speedup below 2x.
//
// Layouts:
//   * int16 activations: the same blocked [N][Cb][H][W][v] as fp32, int16
//     elements — adjacent channel pairs are already contiguous, so a 32-bit
//     broadcast feeds vpdpwssd's B operand directly.
//   * int16 weights: [Kb][Cb][R][S][v/2][v][2] — channel-pair-interleaved
//     per output lane, so one 512-bit load is vpdpwssd's A operand.
#pragma once

#include <cstdint>

#include "core/conv_params.hpp"
#include "tensor/buffer.hpp"
#include "tensor/layout.hpp"

namespace xconv::quant {

/// Headroom-limited quantization range: 2^10 keeps |q| <= 1024 so dozens of
/// accumulation steps fit int32 without saturation (paper ref [18] uses
/// dynamic fixed point with similar effective precision).
constexpr int kQMax = 1024;

/// Scale such that max|x| maps to kQMax (returns 1.0 for all-zero data).
/// NaN elements are ignored; an infinite element yields an infinite scale.
float compute_scale(const float* x, std::size_t n);

/// compute_scale's scale for an already-scanned max|x| (>= +0).
float scale_for_amax(float amax);

std::int16_t quantize_one(float x, float scale);

/// Quantized activation tensor in the blocked int16 layout.
struct QActTensor {
  tensor::AlignedBuffer<std::int16_t> buf;
  int n = 0, cb = 0, hp = 0, wp = 0, v = 0;
  int pad_h = 0, pad_w = 0;
  float scale = 1.0f;

  std::int64_t stride_w() const { return v; }
  std::int64_t stride_h() const { return static_cast<std::int64_t>(wp) * v; }
  std::int64_t stride_cb() const { return stride_h() * hp; }
  std::int64_t stride_n() const { return stride_cb() * cb; }
  /// Padded-frame accessor (Y in [0, hp)).
  const std::int16_t* at_padded(int n_, int cb_, int y, int x) const {
    return buf.data() + n_ * stride_n() + cb_ * stride_cb() +
           y * stride_h() + x * stride_w();
  }
  /// Logical accessor (y in [0, hp - 2*pad_h)).
  const std::int16_t* at(int n_, int cb_, int y, int x) const {
    return at_padded(n_, cb_, y + pad_h, x + pad_w);
  }
};

/// Quantized weight tensor, channel-pair interleaved (see header comment).
struct QWtTensor {
  tensor::AlignedBuffer<std::int16_t> buf;
  int kb = 0, cb = 0, r = 0, s = 0, v = 0;
  float scale = 1.0f;

  // Block of one (kb, cb, r, s): v/2 pair-rows of v*2 int16 each = v*v elems.
  std::int64_t stride_s() const { return static_cast<std::int64_t>(v) * v; }
  std::int64_t stride_r() const { return stride_s() * s; }
  std::int64_t stride_cb() const { return stride_r() * r; }
  std::int64_t stride_kb() const { return stride_cb() * cb; }
  const std::int16_t* at(int kb_, int cb_, int r_, int s_) const {
    return buf.data() + kb_ * stride_kb() + cb_ * stride_cb() +
           r_ * stride_r() + s_ * stride_s();
  }
  /// Element accessor: pair-row c2, output lane k, pair member j (0/1).
  std::int16_t& el(int kb_, int cb_, int r_, int s_, int c2, int k, int j) {
    return buf[kb_ * stride_kb() + cb_ * stride_cb() + r_ * stride_r() +
               s_ * stride_s() + (static_cast<std::int64_t>(c2) * v + k) * 2 +
               j];
  }
};

/// Quantize a blocked fp32 activation tensor (halo included, so kernels can
/// read the zero padding as int16 zeros).
QActTensor quantize_act(const tensor::ActTensor& src);

/// Quantize forward-form blocked weights into the pair-interleaved layout.
QWtTensor quantize_wt(const tensor::WtTensor& src);

/// Quantize the *backward-dual* form (flip taps, swap channel roles) directly
/// from forward-form fp32 weights — the int16 analogue of
/// tensor::blocked_fwd_to_bwd.
QWtTensor quantize_wt_bwd(const tensor::WtTensor& src_fwd);

}  // namespace xconv::quant
