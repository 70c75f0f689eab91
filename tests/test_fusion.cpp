// Layer fusion (Section II-G): each fused operator vs a separate pass, both
// at the ApplyRecord level and end-to-end through a fused ConvLayer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "core/fusion.hpp"
#include "test_helpers.hpp"

using namespace xconv;
using core::ApplyRecord;
using core::FusedOp;
using core::FusionArgs;
using xconv::testing::ConvProblem;
using xconv::testing::expect_close;
using xconv::testing::random_vec;

namespace {
ApplyRecord block_record(FusedOp op, int rows, int cols, int row_stride,
                         int kb, int vlen) {
  ApplyRecord r;
  r.op = op;
  r.rows = rows;
  r.cols = cols;
  r.row_stride = row_stride;
  r.kb = kb;
  r.vlen = vlen;
  return r;
}
}  // namespace

TEST(FusionOps, Relu) {
  auto data = random_vec(64, 1);
  auto want = data;
  for (auto& v : want) v = v > 0 ? v : 0;
  apply_fused_op(block_record(FusedOp::relu, 2, 2, 32, 0, 16), data.data(),
                 {});
  expect_close(want, data, 1e-7, "relu");
}

TEST(FusionOps, BiasAndBiasRelu) {
  const auto bias = random_vec(32, 2);
  FusionArgs args;
  args.bias = bias.data();
  auto data = random_vec(32, 3);
  auto want = data;
  // kb=1 block: lanes map to channels 16..31.
  for (int q = 0; q < 2; ++q)
    for (int k = 0; k < 16; ++k) want[q * 16 + k] += bias[16 + k];
  apply_fused_op(block_record(FusedOp::bias, 1, 2, 32, 1, 16), data.data(),
                 args);
  expect_close(want, data, 1e-6, "bias");

  auto data2 = random_vec(32, 4);
  auto want2 = data2;
  for (int q = 0; q < 2; ++q)
    for (int k = 0; k < 16; ++k) {
      want2[q * 16 + k] += bias[16 + k];
      want2[q * 16 + k] = std::max(0.0f, want2[q * 16 + k]);
    }
  apply_fused_op(block_record(FusedOp::bias_relu, 1, 2, 32, 1, 16),
                 data2.data(), args);
  expect_close(want2, data2, 1e-6, "bias_relu");
}

TEST(FusionOps, BatchNormApply) {
  // BatchNorm's own operands and inference expression, at both vlens; the
  // ReLU form maps v < 0 to 0 and passes NaN and -0 through, as the
  // BatchNorm node does.
  for (int vlen : {8, 16}) {
    SCOPED_TRACE("vlen=" + std::to_string(vlen));
    const auto gamma = random_vec(2 * vlen, 5, 0.5f, 1.5f);
    const auto beta = random_vec(2 * vlen, 6);
    const auto mean = random_vec(2 * vlen, 7);
    const auto invstd = random_vec(2 * vlen, 8, 0.5f, 2.0f);
    FusionArgs args;
    args.gamma = gamma.data();
    args.beta = beta.data();
    args.mean = mean.data();
    args.invstd = invstd.data();
    for (bool relu : {false, true}) {
      auto data = random_vec(3 * vlen, 9);
      data[0] = std::nanf("");
      data[1] = -0.0f;
      std::vector<float> want = data;
      for (int q = 0; q < 3; ++q)
        for (int k = 0; k < vlen; ++k) {
          float& v = want[q * vlen + k];
          v = core::bn_infer(v, gamma[vlen + k], mean[vlen + k],
                             invstd[vlen + k], beta[vlen + k]);
          if (relu && v < 0.0f) v = 0.0f;
        }
      apply_fused_op(block_record(relu ? FusedOp::batchnorm_relu
                                       : FusedOp::batchnorm,
                                  1, 3, 3 * vlen, 1, vlen),
                     data.data(), args);
      EXPECT_EQ(std::memcmp(want.data(), data.data(),
                            want.size() * sizeof(float)),
                0)
          << "relu=" << relu;
    }
  }
}

TEST(FusionOps, EltwiseAddRelu) {
  const auto res = random_vec(64, 8);
  FusionArgs args;
  args.residual = res.data();
  auto data = random_vec(64, 9);
  auto want = data;
  for (int i = 0; i < 64; ++i) want[i] = std::max(0.0f, want[i] + res[i]);
  apply_fused_op(block_record(FusedOp::eltwise_add_relu, 2, 2, 32, 0, 16),
                 data.data(), args);
  expect_close(want, data, 1e-6, "eltwise_add_relu");
}

TEST(FusionOps, MissingOperandsThrow) {
  auto data = random_vec(16, 1);
  EXPECT_THROW(apply_fused_op(block_record(FusedOp::bias, 1, 1, 16, 0, 16),
                              data.data(), {}),
               std::invalid_argument);
  EXPECT_THROW(apply_fused_op(
                   block_record(FusedOp::batchnorm, 1, 1, 16, 0, 16),
                   data.data(), {}),
               std::invalid_argument);
  EXPECT_THROW(apply_fused_op(
                   block_record(FusedOp::eltwise_add, 1, 1, 16, 0, 16),
                   data.data(), {}),
               std::invalid_argument);
}

TEST(FusionOps, NeedsApplyClassification) {
  EXPECT_FALSE(core::needs_apply(FusedOp::none));
  EXPECT_FALSE(core::needs_apply(FusedOp::relu));  // folds into the kernel
  EXPECT_TRUE(core::needs_apply(FusedOp::bias));
  EXPECT_TRUE(core::needs_apply(FusedOp::eltwise_add_relu));
}

// ---- end-to-end: fused ConvLayer == unfused + separate pass ---------------

namespace {
std::vector<float> fused_layer_forward(FusedOp op, const ConvProblem& pr,
                                       const FusionArgs& args) {
  core::ConvOptions o;
  o.fuse = op;
  core::ConvLayer layer(pr.p, o);
  auto bin = layer.make_input();
  tensor::nchw_to_blocked(pr.in.data(), bin);
  auto bwt = layer.make_weights();
  tensor::kcrs_to_blocked_fwd(pr.wt.data(), pr.p.K, pr.p.C, bwt);
  auto bout = layer.make_output();
  layer.forward(bin, bwt, bout, args);
  std::vector<float> out(pr.p.output_elems());
  tensor::blocked_to_nchw(bout, out.data());
  return out;
}
}  // namespace

TEST(FusedLayer, InKernelReluMatchesSeparate) {
  const auto p = core::make_conv(2, 32, 32, 9, 9, 3, 3, 1);
  ConvProblem pr(p, 11);
  auto want = xconv::testing::naive_fwd(pr);
  for (auto& v : want) v = v > 0 ? v : 0;
  expect_close(want, fused_layer_forward(FusedOp::relu, pr, {}), 2e-3,
               "fused relu");
}

TEST(FusedLayer, ApplyBiasReluMatchesSeparate) {
  const auto p = core::make_conv(1, 32, 48, 9, 9, 3, 3, 1);
  ConvProblem pr(p, 12);
  const auto bias = random_vec(48, 13);
  std::vector<float> bias_padded(3 * 16, 0.0f);
  std::copy(bias.begin(), bias.end(), bias_padded.begin());
  FusionArgs args;
  args.bias = bias_padded.data();

  auto want = xconv::testing::naive_fwd(pr);
  const int PQ = p.P() * p.Q();
  for (int n = 0; n < p.N; ++n)
    for (int k = 0; k < p.K; ++k)
      for (int i = 0; i < PQ; ++i) {
        float& v = want[(static_cast<std::size_t>(n) * p.K + k) * PQ + i];
        v = std::max(0.0f, v + bias[k]);
      }
  expect_close(want, fused_layer_forward(FusedOp::bias_relu, pr, args), 2e-3,
               "fused bias_relu");
}

TEST(FusedLayer, EltwiseAddResidualMatchesSeparate) {
  const auto p = core::make_conv(1, 16, 16, 8, 8, 1, 1, 1, 0);
  ConvProblem pr(p, 14);
  core::ConvOptions o;
  o.fuse = FusedOp::eltwise_add;
  core::ConvLayer layer(p, o);

  auto bin = layer.make_input();
  tensor::nchw_to_blocked(pr.in.data(), bin);
  auto bwt = layer.make_weights();
  tensor::kcrs_to_blocked_fwd(pr.wt.data(), pr.p.K, pr.p.C, bwt);
  auto bout = layer.make_output();
  auto bres = layer.make_output();
  const auto res = random_vec(p.output_elems(), 15);
  tensor::nchw_to_blocked(res.data(), bres);
  FusionArgs args;
  args.residual = bres.data();
  layer.forward(bin, bwt, bout, args);

  auto want = xconv::testing::naive_fwd(pr);
  for (std::size_t i = 0; i < want.size(); ++i) want[i] += res[i];
  std::vector<float> got(p.output_elems());
  tensor::blocked_to_nchw(bout, got.data());
  expect_close(want, got, 2e-3, "fused eltwise");
}

TEST(FusedLayer, FusionNamesComplete) {
  for (auto op : {FusedOp::none, FusedOp::relu, FusedOp::bias,
                  FusedOp::bias_relu, FusedOp::batchnorm,
                  FusedOp::batchnorm_relu, FusedOp::eltwise_add,
                  FusedOp::eltwise_add_relu}) {
    EXPECT_STRNE(core::fused_op_name(op), "unknown");
  }
}
