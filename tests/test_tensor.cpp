#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "tensor/buffer.hpp"
#include "tensor/layout.hpp"
#include "tensor/norms.hpp"
#include "tensor/transform.hpp"
#include "test_helpers.hpp"

using namespace xconv;
using xconv::testing::random_vec;

TEST(Buffer, AlignmentAndSize) {
  tensor::AlignedBuffer<float> b(1000);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 64, 0u);
  b.fill(3.0f);
  EXPECT_EQ(b[999], 3.0f);
  b.zero();
  EXPECT_EQ(b[0], 0.0f);
}

TEST(Buffer, CopyAndMove) {
  tensor::AlignedBuffer<float> a(16);
  a.fill(2.5f);
  tensor::AlignedBuffer<float> b = a;  // copy
  EXPECT_EQ(b.size(), 16u);
  EXPECT_EQ(b[7], 2.5f);
  b[7] = 9.0f;
  EXPECT_EQ(a[7], 2.5f);  // deep copy
  tensor::AlignedBuffer<float> c = std::move(b);
  EXPECT_EQ(c[7], 9.0f);
  EXPECT_TRUE(b.empty());
}

TEST(Buffer, ZeroSized) {
  tensor::AlignedBuffer<float> b;
  EXPECT_TRUE(b.empty());
  b.resize(0);
  EXPECT_EQ(b.data(), nullptr);
}

TEST(ActTensor, StridesAndHalo) {
  tensor::ActTensor t(2, 20, 8, 10, 1, 2, 16);
  EXPECT_EQ(t.blocks(), 2);  // ceil(20/16)
  EXPECT_EQ(t.hp(), 10);
  EXPECT_EQ(t.wp(), 14);
  EXPECT_EQ(t.stride_w(), 16u);
  EXPECT_EQ(t.stride_h(), 14u * 16);
  EXPECT_EQ(t.stride_cb(), 14u * 16 * 10);
  EXPECT_EQ(t.size(), 2u * 2 * 10 * 14 * 16);
  // at() is the halo-shifted interior.
  EXPECT_EQ(t.at(0, 0, 0, 0), t.data() + 1 * t.stride_h() + 2 * 16);
  EXPECT_EQ(t.at_padded(0, 0, 1, 2), t.at(0, 0, 0, 0));
}

TEST(ActTensor, ElAccessorMapsLanes) {
  tensor::ActTensor t(1, 20, 2, 2, 0, 0, 16);
  t.el(0, 17, 1, 1) = 5.0f;  // channel 17 = block 1 lane 1
  EXPECT_EQ(*(t.at(0, 1, 1, 1) + 1), 5.0f);
}

TEST(ActTensor, ZeroHaloClearsOnlyHalo) {
  tensor::ActTensor t(1, 16, 4, 4, 2, 1, 16);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = 1.0f;
  t.zero_halo();
  // Interior intact:
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) EXPECT_EQ(t.el(0, 0, y, x), 1.0f);
  // Halo cleared:
  EXPECT_EQ(*t.at_padded(0, 0, 0, 0), 0.0f);
  EXPECT_EQ(*t.at_padded(0, 0, t.hp() - 1, t.wp() - 1), 0.0f);
  EXPECT_EQ(*t.at_padded(0, 0, 3, 0), 0.0f);  // left halo column
}

TEST(WtTensor, StridesAndBlockLayout) {
  tensor::WtTensor w(4, 2, 3, 3, 16);
  EXPECT_EQ(w.stride_s(), 256u);
  EXPECT_EQ(w.stride_r(), 256u * 3);
  EXPECT_EQ(w.stride_inner(), 256u * 9);
  EXPECT_EQ(w.stride_outer(), 256u * 9 * 2);
  EXPECT_EQ(w.size(), 4u * 2 * 9 * 256);
  w.el(3, 1, 2, 2, 15, 15) = 7.0f;
  EXPECT_EQ(*(w.at(3, 1, 2, 2) + 15 * 16 + 15), 7.0f);
}

struct TransformCase {
  int n, c, h, w, pad, vlen;
};

class TransformRoundTrip : public ::testing::TestWithParam<TransformCase> {};

TEST_P(TransformRoundTrip, ActivationRoundTrips) {
  const auto tc = GetParam();
  const auto src = random_vec(1ull * tc.n * tc.c * tc.h * tc.w, 11);
  tensor::ActTensor blk(tc.n, tc.c, tc.h, tc.w, tc.pad, tc.pad, tc.vlen);
  tensor::nchw_to_blocked(src.data(), blk);
  std::vector<float> back(src.size());
  tensor::blocked_to_nchw(blk, back.data());
  EXPECT_EQ(src, back);
  // Padding lanes of the last channel block must be zero.
  if (tc.c % tc.vlen != 0) {
    EXPECT_EQ(*(blk.at(0, blk.blocks() - 1, 0, 0) + tc.c % tc.vlen), 0.0f);
  }
}

TEST_P(TransformRoundTrip, WeightRoundTrips) {
  const auto tc = GetParam();
  const int K = tc.c + tc.vlen;  // some other channel count
  const auto src = random_vec(1ull * K * tc.c * 3 * 3, 12);
  tensor::WtTensor blk(tensor::ceil_div(K, tc.vlen),
                       tensor::ceil_div(tc.c, tc.vlen), 3, 3, tc.vlen);
  tensor::kcrs_to_blocked_fwd(src.data(), K, tc.c, blk);
  std::vector<float> back(src.size());
  tensor::blocked_fwd_to_kcrs(blk, K, tc.c, back.data());
  EXPECT_EQ(src, back);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransformRoundTrip,
    ::testing::Values(TransformCase{1, 16, 4, 4, 0, 16},
                      TransformCase{2, 3, 7, 5, 1, 16},
                      TransformCase{1, 20, 3, 3, 2, 16},
                      TransformCase{3, 8, 6, 6, 1, 8},
                      TransformCase{1, 33, 2, 9, 0, 8},
                      TransformCase{2, 64, 5, 5, 3, 16}));

TEST(Transform, BwdDualityIsChannelTransposeAndFlip) {
  const int K = 32, C = 16, R = 3, S = 3, v = 16;
  const auto src = random_vec(1ull * K * C * R * S, 5);
  tensor::WtTensor fwd(2, 1, R, S, v), bwd(1, 2, R, S, v);
  tensor::kcrs_to_blocked_fwd(src.data(), K, C, fwd);
  tensor::kcrs_to_blocked_bwd(src.data(), K, C, bwd);
  // Spot-check the defining identity W'[c][k][R-1-r][S-1-s] = W[k][c][r][s].
  for (int k : {0, 5, 17, 31})
    for (int c : {0, 3, 15})
      for (int r = 0; r < R; ++r)
        for (int s = 0; s < S; ++s) {
          const float orig =
              src[((static_cast<std::size_t>(k) * C + c) * R + r) * S + s];
          EXPECT_EQ(bwd.el(c / v, k / v, R - 1 - r, S - 1 - s, k % v, c % v),
                    orig);
        }
}

TEST(Transform, BlockedFwdToBwdMatchesDirectTransform) {
  const int K = 32, C = 48, R = 3, S = 1, v = 16;
  const auto src = random_vec(1ull * K * C * R * S, 6);
  tensor::WtTensor fwd(2, 3, R, S, v);
  tensor::kcrs_to_blocked_fwd(src.data(), K, C, fwd);
  tensor::WtTensor bwd_a(3, 2, R, S, v), bwd_b(3, 2, R, S, v);
  tensor::kcrs_to_blocked_bwd(src.data(), K, C, bwd_a);
  tensor::blocked_fwd_to_bwd(fwd, bwd_b);
  ASSERT_EQ(bwd_a.size(), bwd_b.size());
  for (std::size_t i = 0; i < bwd_a.size(); ++i)
    ASSERT_EQ(bwd_a.data()[i], bwd_b.data()[i]) << i;
}

struct DualCase {
  int vlen, r, s;
};

class ThreadedFwdToBwd : public ::testing::TestWithParam<DualCase> {};

// The threaded blocked transform against the direct dense -> backward-form
// transform, bit for bit, with K and C off the vector width (padding lanes)
// and a NaN-poisoned destination: every element must be written, since the
// transform no longer zeroes its output first.
TEST_P(ThreadedFwdToBwd, BitwiseEqualToDirectTransform) {
  const auto [v, R, S] = GetParam();
  const int K = 2 * v + 3, C = v + 5;
  const int Kb = tensor::ceil_div(K, v), Cb = tensor::ceil_div(C, v);
  const auto src = random_vec(1ull * K * C * R * S, 100 + v + R * 10 + S);
  tensor::WtTensor fwd(Kb, Cb, R, S, v), want(Cb, Kb, R, S, v);
  tensor::kcrs_to_blocked_fwd(src.data(), K, C, fwd);
  tensor::kcrs_to_blocked_bwd(src.data(), K, C, want);
  for (int threads = 1; threads <= 4; ++threads) {
    tensor::WtTensor got(Cb, Kb, R, S, v);
    std::fill(got.data(), got.data() + got.size(),
              std::numeric_limits<float>::quiet_NaN());
    tensor::blocked_fwd_to_bwd(fwd, got, threads);
    ASSERT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
              0)
        << "vlen " << v << " R " << R << " S " << S << " threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ThreadedFwdToBwd,
    ::testing::Values(DualCase{8, 1, 1}, DualCase{8, 3, 3}, DualCase{8, 7, 7},
                      DualCase{8, 1, 7}, DualCase{16, 1, 1},
                      DualCase{16, 3, 3}, DualCase{16, 7, 7},
                      DualCase{16, 3, 1}));

TEST(Transform, FwdToBwdRejectsMismatchedShape) {
  tensor::WtTensor fwd(2, 3, 3, 3, 16), bad(2, 3, 3, 3, 16);
  EXPECT_THROW(tensor::blocked_fwd_to_bwd(fwd, bad), std::invalid_argument);
}

TEST(Transform, DoubleDualIsIdentity) {
  // Applying the duality transform twice returns the forward tensor.
  const int K = 32, C = 32, R = 3, S = 3, v = 16;
  const auto src = random_vec(1ull * K * C * R * S, 7);
  tensor::WtTensor fwd(2, 2, R, S, v), bwd(2, 2, R, S, v), twice(2, 2, R, S, v);
  tensor::kcrs_to_blocked_fwd(src.data(), K, C, fwd);
  tensor::blocked_fwd_to_bwd(fwd, bwd);
  tensor::blocked_fwd_to_bwd(bwd, twice);
  for (std::size_t i = 0; i < fwd.size(); ++i)
    ASSERT_EQ(fwd.data()[i], twice.data()[i]) << i;
}

TEST(Norms, ExactMatchIsZero) {
  const auto v = random_vec(100, 3);
  const auto e = tensor::compare(v.data(), v.data(), v.size());
  EXPECT_EQ(e.linf_abs, 0);
  EXPECT_EQ(e.l2_abs, 0);
  EXPECT_EQ(e.linf_rel, 0);
}

TEST(Norms, DetectsSingleError) {
  auto a = random_vec(100, 3, 1.0f, 2.0f);
  auto b = a;
  b[42] += 0.5f;
  const auto e = tensor::compare(a.data(), b.data(), a.size());
  EXPECT_NEAR(e.linf_abs, 0.5, 1e-6);
  EXPECT_GT(e.linf_rel, 0.2);
  EXPECT_NEAR(e.l2_abs, 0.5, 1e-6);
}

TEST(Norms, ToStringContainsAllFour) {
  const auto v = random_vec(10, 1);
  const auto e = tensor::compare(v.data(), v.data(), v.size());
  const std::string s = e.to_string();
  EXPECT_NE(s.find("Linf_abs"), std::string::npos);
  EXPECT_NE(s.find("L2_rel"), std::string::npos);
}
