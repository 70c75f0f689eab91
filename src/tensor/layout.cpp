#include "tensor/layout.hpp"

#include <cstring>

namespace xconv::tensor {

ActTensor::ActTensor(int n, int channels, int h, int w, int pad_h, int pad_w,
                     int v)
    : n_(n),
      c_(channels),
      cb_(ceil_div(channels, v)),
      h_(h),
      w_(w),
      pad_h_(pad_h),
      pad_w_(pad_w),
      v_(v) {
  buf_.resize(static_cast<std::size_t>(n_) * cb_ * hp() * wp() * v_);
  buf_.zero();
}

void ActTensor::zero_halo() {
  for (int n = 0; n < n_; ++n)
    for (int cb = 0; cb < cb_; ++cb) zero_halo(n, cb);
}

void ActTensor::zero_halo(int n, int cb) {
  if (pad_h_ == 0 && pad_w_ == 0) return;
  float* base = data() + n * stride_n() + cb * stride_cb();
  // Top and bottom halo rows.
  const std::size_t row_bytes = stride_h() * sizeof(float);
  for (int y = 0; y < pad_h_; ++y) {
    std::memset(base + y * stride_h(), 0, row_bytes);
    std::memset(base + (hp() - 1 - y) * stride_h(), 0, row_bytes);
  }
  // Left/right halo columns of interior rows.
  if (pad_w_ > 0) {
    const std::size_t col_bytes =
        static_cast<std::size_t>(pad_w_) * v_ * sizeof(float);
    for (int y = pad_h_; y < hp() - pad_h_; ++y) {
      float* row = base + y * stride_h();
      std::memset(row, 0, col_bytes);
      std::memset(row + (wp() - pad_w_) * static_cast<std::size_t>(v_), 0,
                  col_bytes);
    }
  }
}

WtTensor::WtTensor(int outer_blocks, int inner_blocks, int r, int s, int v)
    : ob_(outer_blocks), ib_(inner_blocks), r_(r), s_(s), v_(v) {
  buf_.resize(static_cast<std::size_t>(ob_) * ib_ * r_ * s_ * v_ * v_);
  buf_.zero();
}

}  // namespace xconv::tensor
