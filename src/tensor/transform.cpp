#include "tensor/transform.hpp"

#include <omp.h>

#include <cstdint>
#include <stdexcept>

namespace xconv::tensor {

void nchw_to_blocked(const float* src, ActTensor& dst) {
  const int N = dst.n(), C = dst.channels(), H = dst.h(), W = dst.w();
  dst.zero();  // clears halo and channel-padding lanes
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c) {
      const float* s = src + (static_cast<std::size_t>(n) * C + c) * H * W;
      for (int y = 0; y < H; ++y)
        for (int x = 0; x < W; ++x) dst.el(n, c, y, x) = s[y * W + x];
    }
}

void blocked_to_nchw(const ActTensor& src, float* dst) {
  const int N = src.n(), C = src.channels(), H = src.h(), W = src.w();
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c) {
      float* d = dst + (static_cast<std::size_t>(n) * C + c) * H * W;
      for (int y = 0; y < H; ++y)
        for (int x = 0; x < W; ++x) d[y * W + x] = src.el(n, c, y, x);
    }
}

void kcrs_to_blocked_fwd(const float* src, int K, int C, WtTensor& dst) {
  const int R = dst.r(), S = dst.s(), v = dst.vlen();
  dst.zero();
  for (int k = 0; k < K; ++k)
    for (int c = 0; c < C; ++c)
      for (int r = 0; r < R; ++r)
        for (int s = 0; s < S; ++s) {
          const float w =
              src[((static_cast<std::size_t>(k) * C + c) * R + r) * S + s];
          dst.el(k / v, c / v, r, s, c % v, k % v) = w;
        }
}

void blocked_fwd_to_kcrs(const WtTensor& src, int K, int C, float* dst) {
  const int R = src.r(), S = src.s(), v = src.vlen();
  for (int k = 0; k < K; ++k)
    for (int c = 0; c < C; ++c)
      for (int r = 0; r < R; ++r)
        for (int s = 0; s < S; ++s)
          dst[((static_cast<std::size_t>(k) * C + c) * R + r) * S + s] =
              src.el(k / v, c / v, r, s, c % v, k % v);
}

void kcrs_to_blocked_bwd(const float* src, int K, int C, WtTensor& dst) {
  const int R = dst.r(), S = dst.s(), v = dst.vlen();
  dst.zero();
  for (int k = 0; k < K; ++k)
    for (int c = 0; c < C; ++c)
      for (int r = 0; r < R; ++r)
        for (int s = 0; s < S; ++s) {
          const float w =
              src[((static_cast<std::size_t>(k) * C + c) * R + r) * S + s];
          // Outer block = Cb, inner = Kb, taps flipped, channel roles swapped:
          // in the dual convolution the "input" is dO (k channels) and the
          // "output" is dI (c channels), so rows index k and lanes index c.
          dst.el(c / v, k / v, R - 1 - r, S - 1 - s, k % v, c % v) = w;
        }
}

void for_each_dual_block(
    const WtTensor& fwd, int threads,
    const std::function<void(std::size_t f, std::size_t b)>& body) {
  const int Kb = fwd.outer(), Cb = fwd.inner(), R = fwd.r(), S = fwd.s();
  const std::size_t vv = fwd.stride_s();
  // Backward-form strides: [Cb][Kb][R][S] blocks of v x v.
  const std::size_t b_inner = vv * R * S;
  const std::size_t b_outer = b_inner * Kb;
  const std::int64_t blocks = static_cast<std::int64_t>(Kb) * Cb * R * S;
  if (threads <= 0) threads = omp_get_max_threads();
  // Blocks are visited in forward-form order, so `f` is simply i * v * v.
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t i = 0; i < blocks; ++i) {
    std::int64_t rest = i;
    const int s = static_cast<int>(rest % S);
    rest /= S;
    const int r = static_cast<int>(rest % R);
    rest /= R;
    const int cb = static_cast<int>(rest % Cb);
    const int kb = static_cast<int>(rest / Cb);
    body(static_cast<std::size_t>(i) * vv,
         cb * b_outer + kb * b_inner +
             ((R - 1 - r) * static_cast<std::size_t>(S) + (S - 1 - s)) * vv);
  }
}

void blocked_fwd_to_bwd(const WtTensor& fwd, WtTensor& bwd, int threads) {
  if (bwd.outer() != fwd.inner() || bwd.inner() != fwd.outer() ||
      bwd.r() != fwd.r() || bwd.s() != fwd.s() || bwd.vlen() != fwd.vlen())
    throw std::invalid_argument(
        "blocked_fwd_to_bwd: backward tensor must be [Cb][Kb][R][S] of the "
        "forward tensor's shape");
  const float* src = fwd.data();
  float* dst = bwd.data();
  const int v = fwd.vlen();
  const auto copy_block = [=](std::size_t f, std::size_t b) {
    transpose_block(src + f, dst + b, v);
  };
  for_each_dual_block(fwd, threads, copy_block);
}

}  // namespace xconv::tensor
