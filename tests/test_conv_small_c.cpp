// Property tests for layers with fewer input channels than SIMD lanes
// (C < vlen, e.g. ResNet-50 conv1 with C = 3). Forward reduces only the real
// channels and backward runs the k-dot kernels; both must match the naive
// reference within the reduction-length bound, backward must write every dI
// element (halo and channel-padding lanes as 0) and forward must never read
// the input's channel-padding lanes. Runs on whatever ISA the environment
// selects (native, XCONV_ISA=avx2, XCONV_ISA=scalar).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
using xconv::testing::ConvProblem;
using xconv::testing::expect_within_reduction_bound;

namespace {

int layer_vlen() {
  return core::ConvLayer(core::make_conv(1, 1, 1, 1, 1, 1, 1, 1, 0)).vlen();
}

/// Forward with NaN in every channel-padding lane of the input, and backward
/// into a NaN-poisoned dI, both against the naive reference.
void check_small_c(const core::ConvParams& p, int threads, unsigned seed) {
  SCOPED_TRACE(p.to_string() + " threads " + std::to_string(threads));
  core::ConvOptions o;
  o.threads = threads;
  core::ConvLayer layer(p, o);
  ASSERT_LT(p.C, layer.vlen());
  ASSERT_EQ(layer.bwd_algo(), core::BwdAlgo::kdot);
  ConvProblem pr(p, seed);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const int v = layer.vlen();

  auto in = layer.make_input();
  tensor::nchw_to_blocked(pr.in.data(), in);
  for (int n = 0; n < in.n(); ++n)
    for (int y = 0; y < in.hp(); ++y)
      for (int x = 0; x < in.wp(); ++x)
        for (int lane = p.C; lane < v; ++lane)
          *(in.at_padded(n, 0, y, x) + lane) = nan;
  auto wt = layer.make_weights();
  tensor::kcrs_to_blocked_fwd(pr.wt.data(), p.K, p.C, wt);
  auto out = layer.make_output();
  layer.forward(in, wt, out);
  std::vector<float> got_fwd(p.output_elems());
  tensor::blocked_to_nchw(out, got_fwd.data());
  for (float f : got_fwd) ASSERT_TRUE(std::isfinite(f)) << "padding NaN leaked";
  expect_within_reduction_bound(xconv::testing::naive_fwd(pr), got_fwd,
                                static_cast<double>(p.C) * p.R * p.S, "fwd");

  auto dout = layer.make_output();
  tensor::nchw_to_blocked(pr.dout.data(), dout);
  auto din = layer.make_input();
  std::fill(din.data(), din.data() + din.size(), nan);
  layer.backward(dout, wt, din);
  std::vector<float> got_bwd(p.input_elems());
  tensor::blocked_to_nchw(din, got_bwd.data());
  expect_within_reduction_bound(xconv::testing::naive_bwd(pr), got_bwd,
                                static_cast<double>(p.K) * p.R * p.S, "bwd");
  const int hh = din.pad_h(), hw = din.pad_w();
  for (int n = 0; n < din.n(); ++n)
    for (int y = 0; y < din.hp(); ++y)
      for (int x = 0; x < din.wp(); ++x)
        for (int lane = 0; lane < v; ++lane) {
          const bool interior = y >= hh && y < hh + p.H && x >= hw &&
                                x < hw + p.W && lane < p.C;
          if (!interior) {
            ASSERT_EQ(*(din.at_padded(n, 0, y, x) + lane), 0.0f)
                << "n " << n << " y " << y << " x " << x << " lane " << lane;
          }
        }
}

}  // namespace

TEST(SmallC, ChannelsStridesFiltersPads) {
  const int v = layer_vlen();
  std::vector<int> channels = {1, 2, 3, 5, 7, v - 1};
  std::sort(channels.begin(), channels.end());
  channels.erase(std::unique(channels.begin(), channels.end()),
                 channels.end());
  unsigned seed = 1;
  for (int c : channels)
    for (int stride : {1, 2})
      for (int r : {1, 3, 7}) {
        const std::vector<int> pads =
            r == 1 ? std::vector<int>{0} : std::vector<int>{0, (r - 1) / 2};
        for (int pad : pads) {
          // K = 20: a partly padded last dO block; odd H and W.
          check_small_c(core::make_conv(2, c, 20, 9, 11, r, r, stride, pad),
                        seed % 2 == 0 ? 1 : 3, seed);
          ++seed;
        }
      }
}

TEST(SmallC, ResNet50Conv1) {
  check_small_c(topo::table1_params(topo::resnet50_table1()[0], 1), 4, 77);
}
