#include "quant/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace xconv::quant {

float scale_for_amax(float amax) {
  return amax > 0.0f ? amax / static_cast<float>(kQMax) : 1.0f;
}

float compute_scale(const float* x, std::size_t n) {
  float amax = 0.0f;
  // Large tensors use an OpenMP max-reduction. fp32 max is associative and
  // commutative (no rounding), so the result is bit-identical to the serial
  // scan for any thread count. Small inputs stay serial: team startup costs
  // more than the scan. The gradient codec does not call this: its int16
  // encode fuses the same scan into the error-feedback fold (the fold_amax
  // codec op), so the allreduce comm threads never start an OpenMP team.
  constexpr std::size_t kParallelMin = std::size_t{1} << 16;
  if (n >= kParallelMin) {
    const std::int64_t ni = static_cast<std::int64_t>(n);
#pragma omp parallel for reduction(max : amax) schedule(static)
    for (std::int64_t i = 0; i < ni; ++i)
      amax = std::max(amax, std::abs(x[i]));
  } else {
    for (std::size_t i = 0; i < n; ++i) amax = std::max(amax, std::abs(x[i]));
  }
  return scale_for_amax(amax);
}

std::int16_t quantize_one(float x, float scale) {
  const float q = std::nearbyint(x / scale);
  // Clamp to the headroom-limited range ±kQMax, not int16's full range: an
  // external/calibrated scale can map |x| past kQMax, and any |q| > kQMax
  // voids the int32 accumulation-chain overflow guarantee (Section II-K).
  const float c = std::clamp(q, -static_cast<float>(kQMax),
                             static_cast<float>(kQMax));
  return static_cast<std::int16_t>(c);
}

QActTensor quantize_act(const tensor::ActTensor& src) {
  QActTensor q;
  q.n = src.n();
  q.cb = src.blocks();
  q.hp = src.hp();
  q.wp = src.wp();
  q.v = src.vlen();
  q.pad_h = src.pad_h();
  q.pad_w = src.pad_w();
  q.scale = compute_scale(src.data(), src.size());
  q.buf.resize(src.size());
  const float* s = src.data();
  for (std::size_t i = 0; i < src.size(); ++i)
    q.buf[i] = quantize_one(s[i], q.scale);
  return q;
}

QWtTensor quantize_wt(const tensor::WtTensor& src) {
  QWtTensor q;
  q.kb = src.outer();
  q.cb = src.inner();
  q.r = src.r();
  q.s = src.s();
  q.v = src.vlen();
  q.scale = compute_scale(src.data(), src.size());
  q.buf.resize(src.size());
  const int v = q.v;
  for (int kb = 0; kb < q.kb; ++kb)
    for (int cb = 0; cb < q.cb; ++cb)
      for (int r = 0; r < q.r; ++r)
        for (int s = 0; s < q.s; ++s)
          for (int c = 0; c < v; ++c)
            for (int k = 0; k < v; ++k)
              q.el(kb, cb, r, s, c / 2, k, c % 2) =
                  quantize_one(src.el(kb, cb, r, s, c, k), q.scale);
  return q;
}

QWtTensor quantize_wt_bwd(const tensor::WtTensor& f) {
  QWtTensor q;
  q.kb = f.inner();  // dual: outer blocks index C
  q.cb = f.outer();
  q.r = f.r();
  q.s = f.s();
  q.v = f.vlen();
  q.scale = compute_scale(f.data(), f.size());
  q.buf.resize(f.size());
  const int v = q.v, R = q.r, S = q.s;
  // Dual entry (cb_out=c-block, kb_in=k-block, flipped taps, rows k, lanes c).
  for (int kb = 0; kb < f.outer(); ++kb)
    for (int cb = 0; cb < f.inner(); ++cb)
      for (int r = 0; r < R; ++r)
        for (int s = 0; s < S; ++s)
          for (int c = 0; c < v; ++c)
            for (int k = 0; k < v; ++k)
              q.el(cb, kb, R - 1 - r, S - 1 - s, k / 2, c, k % 2) =
                  quantize_one(f.el(kb, cb, r, s, c, k), q.scale);
  return q;
}

}  // namespace xconv::quant
