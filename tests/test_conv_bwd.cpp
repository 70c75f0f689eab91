// ConvLayer backward vs Algorithm 6, covering all three implementation paths
// (k-dot for C < vlen, stride-1 duality, strided duality with one scattered
// 1x1 kernel call per filter tap).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "jit/conv_kernel_gen.hpp"
#include "jit/kdot_kernel_gen.hpp"
#include "test_helpers.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
using xconv::testing::ConvProblem;
using xconv::testing::expect_close;
using BwdAlgo = core::ConvLayer::BwdAlgo;

namespace {
core::ConvParams small_table1(int idx, int n = 1) {
  auto l = topo::resnet50_table1()[idx];
  l.H = std::max(l.H / 4, l.R);
  l.W = std::max(l.W / 4, l.S);
  return topo::table1_params(l, n);
}
}  // namespace

class BwdTable1 : public ::testing::TestWithParam<int> {};

TEST_P(BwdTable1, MatchesNaive) {
  const auto p = small_table1(GetParam());
  ConvProblem pr(p);
  core::ConvLayer layer(p);
  expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3,
               p.to_string().c_str());
}

INSTANTIATE_TEST_SUITE_P(AllLayers, BwdTable1, ::testing::Range(0, 20));

TEST(Bwd, AlgoSelectionFollowsPaperScenarios) {
  // Section II-I scenario 1: stride == 1 -> duality.
  core::ConvLayer s1(core::make_conv(1, 16, 16, 8, 8, 3, 3, 1));
  EXPECT_EQ(s1.bwd_algo(), BwdAlgo::duality_stride1);
  // Scenario 2: R = S = 1, stride 2 -> scattered duality.
  core::ConvLayer s2(core::make_conv(1, 16, 16, 8, 8, 1, 1, 2, 0));
  EXPECT_EQ(s2.bwd_algo(), BwdAlgo::duality_strided);
  // 3x3 stride 2 (Algorithm 7's case): the same scattered duality, one 1x1
  // call per filter tap.
  core::ConvLayer s3(core::make_conv(1, 16, 16, 9, 9, 3, 3, 2));
  EXPECT_EQ(s3.bwd_algo(), BwdAlgo::duality_strided);
}

TEST(Bwd, Stride1DualityPerRSCombos) {
  for (int r : {1, 3, 5}) {
    const auto p = core::make_conv(1, 16, 32, 11, 13, r, r, 1);
    ConvProblem pr(p, 100 + r);
    core::ConvLayer layer(p);
    EXPECT_EQ(layer.bwd_algo(), BwdAlgo::duality_stride1);
    expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3,
                 p.to_string().c_str());
  }
}

TEST(Bwd, Strided1x1VariousStrides) {
  for (int s : {2, 3, 4}) {
    const auto p = core::make_conv(1, 32, 16, 12, 12, 1, 1, s, 0);
    ConvProblem pr(p, 200 + s);
    core::ConvLayer layer(p);
    EXPECT_EQ(layer.bwd_algo(), BwdAlgo::duality_strided);
    expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3,
                 p.to_string().c_str());
  }
}

TEST(Bwd, StridedOddShapes) {
  // Uneven stride coverage (floor-semantics output) + padding.
  const auto p = core::make_conv(2, 16, 16, 15, 13, 3, 3, 2);
  ConvProblem pr(p, 7);
  core::ConvLayer layer(p);
  EXPECT_EQ(layer.bwd_algo(), BwdAlgo::duality_strided);
  expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3,
               "odd strided");
}

TEST(Bwd, StridedScalarIsa) {
  const auto p = core::make_conv(1, 16, 16, 9, 9, 3, 3, 2);
  ConvProblem pr(p, 8);
  core::ConvOptions o;
  o.isa = platform::Isa::scalar;
  core::ConvLayer layer(p, o);
  expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3,
               "scalar strided");
}

TEST(Bwd, KdotAvx2Conv1) {
  // ResNet-50 conv1 (C = 3, 7x7/2, 224 input) on the AVX2 JIT runs the
  // k-dot kernels, whose rb must fit AVX2's 16 vector registers.
  if (static_cast<int>(platform::max_isa()) <
      static_cast<int>(platform::Isa::avx2))
    GTEST_SKIP() << "host lacks AVX2";
  const auto p = topo::table1_params(topo::resnet50_table1()[0], 1);
  ConvProblem pr(p, 11);
  core::ConvOptions o;
  o.isa = platform::Isa::avx2;
  core::ConvLayer layer(p, o);
  EXPECT_EQ(layer.bwd_algo(), BwdAlgo::kdot);
  EXPECT_EQ(layer.vlen(), 8);
  EXPECT_GE(layer.plan().bwd_kdot_rb, 1);
  EXPECT_LE(layer.plan().bwd_kdot_rb,
            jit::KdotKernelDesc::max_rb(platform::Isa::avx2, p.C));
  expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3, "avx2 conv1");
}

TEST(Bwd, StridedAvx2SevenBySevenStride2) {
  // A 7x7/2 layer with a full channel block (C = 16 >= vlen 8) runs the
  // strided duality on AVX2: each call's q-block must fit AVX2's 12
  // accumulators, not AVX-512's 28 (Q = 56 here).
  if (static_cast<int>(platform::max_isa()) <
      static_cast<int>(platform::Isa::avx2))
    GTEST_SKIP() << "host lacks AVX2";
  const auto p = core::make_conv(1, 16, 16, 112, 112, 7, 7, 2, 3);
  ConvProblem pr(p, 11);
  core::ConvOptions o;
  o.isa = platform::Isa::avx2;
  core::ConvLayer layer(p, o);
  EXPECT_EQ(layer.bwd_algo(), BwdAlgo::duality_strided);
  EXPECT_EQ(layer.vlen(), 8);
  EXPECT_LE(layer.plan().bwd_strided_rbq,
            jit::ConvKernelDesc::max_accumulators(platform::Isa::avx2));
  expect_close(naive_bwd(pr), layer_backward(layer, pr), 2e-3, "avx2 7x7/2");
}

TEST(Bwd, DualLayerReusesForwardMachinery) {
  // The dual layer's stream replay is what runs backward: its stream conv
  // count is nonzero and backward matches the naive reference.
  const auto p = core::make_conv(1, 32, 32, 10, 10, 3, 3, 1);
  ConvProblem pr(p, 9);
  core::ConvLayer layer(p);
  EXPECT_EQ(layer.bwd_algo(), BwdAlgo::duality_stride1);
  EXPECT_GT(layer.bwd_stream_convs(), 0u);
  xconv::testing::expect_within_reduction_bound(
      naive_bwd(pr), layer_backward(layer, pr), double(p.K) * p.R * p.S,
      "bwd replay-vs-naive");
}

TEST(Bwd, ThreadInvariance) {
  // Strided duality: each dI row is owned by one work item.
  const auto p = core::make_conv(4, 16, 32, 9, 9, 3, 3, 2);
  ConvProblem pr(p, 10);
  core::ConvOptions o1, o4;
  o1.threads = 1;
  o4.threads = 4;
  core::ConvLayer a(p, o1), b(p, o4);
  xconv::testing::expect_bitwise(layer_backward(a, pr),
                                 layer_backward(b, pr), "bwd threads");
}

TEST(Bwd, GradOutGeometryEnforced) {
  const auto p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  core::ConvLayer layer(p);
  auto wt = layer.make_weights();
  auto din = layer.make_input();
  tensor::ActTensor bad(1, 16, 8, 8, 0, 0, 16);  // no bwd halo
  EXPECT_THROW(layer.backward(bad, wt, din), std::invalid_argument);
}

TEST(Bwd, FwdOnlyLayerHasNoBackward) {
  const auto p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  core::ConvOptions o;
  o.fwd_only = true;
  core::ConvLayer layer(p, o);
  ConvProblem pr(p);
  // Forward still fine:
  expect_close(xconv::testing::naive_fwd(pr), layer_forward(layer, pr), 2e-3,
               "fwd_only fwd");
  // ... and backward fails loudly instead of running an unbuilt path.
  auto dout = layer.make_output();
  auto din = layer.make_input();
  EXPECT_THROW(layer.backward(dout, layer.make_weights(), din),
               std::logic_error);
}

namespace {
// dI starts as NaN everywhere: backward must write every element. The
// interior must match the naive reference, the halo and the channel-padding
// lanes must be exactly 0, and backward (transform inside) must equal
// backward_dual (weights handed over in backward form) bit for bit.
void check_poisoned_dI(const core::ConvParams& p, int halo, BwdAlgo algo) {
  for (int threads : {1, 3, 4}) {
    SCOPED_TRACE(p.to_string() + " halo " + std::to_string(halo) +
                 " threads " + std::to_string(threads));
    core::ConvOptions o;
    o.threads = threads;
    o.in_halo_h = o.in_halo_w = halo;
    core::ConvLayer layer(p, o);
    ASSERT_EQ(layer.bwd_algo(), algo);
    ConvProblem pr(p, 31);
    auto dout = layer.make_output();
    tensor::nchw_to_blocked(pr.dout.data(), dout);
    auto wt = layer.make_weights();
    tensor::kcrs_to_blocked_fwd(pr.wt.data(), p.K, p.C, wt);
    tensor::WtTensor bwd_wt(layer.cb(), layer.kb(), p.R, p.S, layer.vlen());
    tensor::kcrs_to_blocked_bwd(pr.wt.data(), p.K, p.C, bwd_wt);

    const float nan = std::numeric_limits<float>::quiet_NaN();
    auto din = layer.make_input(), din_dual = layer.make_input();
    std::fill(din.data(), din.data() + din.size(), nan);
    std::fill(din_dual.data(), din_dual.data() + din_dual.size(), nan);
    layer.backward(dout, wt, din);
    layer.backward_dual(dout, bwd_wt, din_dual);
    ASSERT_EQ(std::memcmp(din.data(), din_dual.data(),
                          din.size() * sizeof(float)),
              0);

    std::vector<float> got(p.input_elems());
    tensor::blocked_to_nchw(din, got.data());
    expect_close(naive_bwd(pr), got, 2e-3, "poisoned dI interior");

    const int v = din.vlen();
    std::size_t outside = 0;
    for (int n = 0; n < din.n(); ++n)
      for (int cb = 0; cb < din.blocks(); ++cb)
        for (int y = 0; y < din.hp(); ++y)
          for (int x = 0; x < din.wp(); ++x)
            for (int lane = 0; lane < v; ++lane) {
              const bool interior = y >= halo && y < halo + p.H &&
                                    x >= halo && x < halo + p.W &&
                                    cb * v + lane < p.C;
              if (interior) continue;
              ++outside;
              ASSERT_EQ(*(din.at_padded(n, cb, y, x) + lane), 0.0f)
                  << "n " << n << " cb " << cb << " y " << y << " x " << x
                  << " lane " << lane;
            }
    EXPECT_GT(outside, 0u);  // the case really has halo / padding lanes
  }
}
}  // namespace

TEST(Bwd, PoisonedDIStride1Duality) {
  // Odd C/K and a halo one wider than the padding.
  check_poisoned_dI(core::make_conv(2, 19, 21, 9, 7, 3, 3, 1), 2,
                    BwdAlgo::duality_stride1);
  check_poisoned_dI(core::make_conv(1, 19, 16, 6, 6, 1, 1, 1, 0), 0,
                    BwdAlgo::duality_stride1);
}

TEST(Bwd, PoisonedDIStrided) {
  // 1x1: odd spatial extents leave uncovered trailing rows and columns;
  // Q = 15 gives the q-edge kernel a turn; stride 3 leaves rows and columns
  // no tap reaches.
  check_poisoned_dI(core::make_conv(2, 19, 24, 11, 29, 1, 1, 2, 0), 1,
                    BwdAlgo::duality_strided);
  check_poisoned_dI(core::make_conv(1, 35, 16, 10, 10, 1, 1, 3, 0), 0,
                    BwdAlgo::duality_strided);
  // R > stride with padding: taps spill into the halo columns, which must
  // end up 0, with the halo raised above the padding.
  check_poisoned_dI(core::make_conv(2, 19, 21, 15, 13, 3, 3, 2), 2,
                    BwdAlgo::duality_strided);
  check_poisoned_dI(core::make_conv(1, 16, 16, 17, 17, 7, 7, 2), 4,
                    BwdAlgo::duality_strided);
  // 3x3/2 without padding; 2x2/3, whose every third row and column gets no
  // tap; C = 24, a partial last channel block.
  check_poisoned_dI(core::make_conv(1, 16, 32, 9, 11, 3, 3, 2, 0), 1,
                    BwdAlgo::duality_strided);
  check_poisoned_dI(core::make_conv(1, 16, 16, 11, 10, 2, 2, 3, 0), 1,
                    BwdAlgo::duality_strided);
  check_poisoned_dI(core::make_conv(2, 24, 40, 9, 9, 3, 3, 2, 1), 3,
                    BwdAlgo::duality_strided);
}

TEST(Bwd, PoisonedDIKdot) {
  // C < vlen: conv1-like 7x7/2 with a halo wider than the padding, a
  // stride-1 3x3 and a strided 1x1 (whose odd rows and columns meet no tap).
  check_poisoned_dI(core::make_conv(2, 3, 20, 17, 15, 7, 7, 2, 3), 4,
                    BwdAlgo::kdot);
  check_poisoned_dI(core::make_conv(1, 5, 16, 9, 11, 3, 3, 1), 1,
                    BwdAlgo::kdot);
  check_poisoned_dI(core::make_conv(1, 7, 24, 9, 9, 1, 1, 2, 0), 1,
                    BwdAlgo::kdot);
}

TEST(Bwd, StridedReadsOnlyRealDOPixels) {
  // With 3x3/2, no padding and an even height, the r = 0 tap of the last dI
  // row would need dO row P, which lies in dO's halo: the strided duality
  // must skip it. A NaN halo therefore must not reach dI.
  const auto p = core::make_conv(1, 16, 16, 10, 10, 3, 3, 2, 0);
  ConvProblem pr(p, 12);
  core::ConvLayer layer(p);
  ASSERT_EQ(layer.bwd_algo(), BwdAlgo::duality_strided);
  auto dout = layer.make_output();
  tensor::nchw_to_blocked(pr.dout.data(), dout);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int n = 0; n < dout.n(); ++n)
    for (int kb = 0; kb < dout.blocks(); ++kb)
      for (int y = 0; y < dout.hp(); ++y)
        for (int x = 0; x < dout.wp(); ++x) {
          const bool interior = y >= dout.pad_h() && y < dout.pad_h() + p.P() &&
                                x >= dout.pad_w() && x < dout.pad_w() + p.Q();
          if (!interior)
            std::fill_n(dout.at_padded(n, kb, y, x), dout.vlen(), nan);
        }
  auto wt = layer.make_weights();
  tensor::kcrs_to_blocked_fwd(pr.wt.data(), p.K, p.C, wt);
  auto din = layer.make_input();
  layer.backward(dout, wt, din);
  std::vector<float> got(p.input_elems());
  tensor::blocked_to_nchw(din, got.data());
  expect_close(naive_bwd(pr), got, 2e-3, "NaN dO halo");
}

TEST(Bwd, BackwardDualRejectsForwardFormWeights) {
  const auto p = core::make_conv(1, 16, 32, 8, 8, 3, 3, 1);
  core::ConvLayer layer(p);
  auto dout = layer.make_output();
  auto din = layer.make_input();
  auto fwd_form = layer.make_weights();  // [Kb=2][Cb=1]: not [Cb][Kb]
  EXPECT_THROW(layer.backward_dual(dout, fwd_form, din),
               std::invalid_argument);
}

TEST(Bwd, GradientsOfPaddingAreDiscarded) {
  // Property: sum over dI equals sum over the naive dI (no halo leakage).
  const auto p = core::make_conv(1, 16, 16, 9, 9, 3, 3, 2);  // strided
  ConvProblem pr(p, 11);
  core::ConvLayer layer(p);
  const auto got = layer_backward(layer, pr);
  const auto want = xconv::testing::naive_bwd(pr);
  double sg = 0, sw = 0;
  for (float v : got) sg += v;
  for (float v : want) sw += v;
  EXPECT_NEAR(sg, sw, 1e-2 * std::max(1.0, std::abs(sw)));
}
