// Randomized parameter fuzzing: all three passes vs the naive oracle over a
// reproducible sample of the convolution parameter space (channel counts
// that are not vector multiples, rectangular filters/images, every stride /
// padding combination the layer supports). Execution is fuzzed too: thread
// counts, update strategies, fused operators and explicit plans whose
// register/pixel blockings force edge-block (p_rem_/q_rem_ > 0) kernels into
// the replayed streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "test_helpers.hpp"

using namespace xconv;
using xconv::testing::ConvProblem;
using xconv::testing::expect_close;
using xconv::testing::expect_within_reduction_bound;

namespace {

core::ConvParams random_params(unsigned seed) {
  std::mt19937 rng(seed);
  auto pick = [&](std::initializer_list<int> opts) {
    std::uniform_int_distribution<int> d(0, static_cast<int>(opts.size()) - 1);
    return *(opts.begin() + d(rng));
  };
  core::ConvParams p;
  for (int attempt = 0; attempt < 100; ++attempt) {
    p.N = pick({1, 2, 3});
    p.C = pick({3, 8, 16, 24, 32, 48});
    p.K = pick({8, 16, 20, 32, 64});
    p.H = pick({5, 7, 9, 12, 14, 17});
    p.W = pick({5, 7, 9, 12, 14, 17});
    p.R = pick({1, 3, 5, 7});
    p.S = pick({1, 3, 5, 7});
    p.stride_h = p.stride_w = pick({1, 1, 1, 2, 3});
    if (p.R == 1 && p.S != 1) p.S = 1;  // keep 1x1 pairs consistent
    // 1x1 kernels use zero padding (the duality constraint real CNNs obey);
    // otherwise "same"-ish padding.
    p.pad_h = p.R == 1 ? 0 : (p.R - 1) / 2;
    p.pad_w = p.S == 1 ? 0 : (p.S - 1) / 2;
    if (p.H + 2 * p.pad_h < p.R || p.W + 2 * p.pad_w < p.S) continue;
    if (p.P() < 1 || p.Q() < 1) continue;
    p.validate();
    return p;
  }
  return core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
}

// Randomized execution: thread count, update strategy, and occasional
// blockings that force edge kernels, all as edits of the default plan. The
// first draw is discarded so each seed keeps the options it has always
// drawn; a drawn hybrid strategy applies only where the layer can form two
// thread groups (the plan rejects it elsewhere), and drawn pixel blocks are
// clamped to the layer's output extent.
core::ConvOptions random_options(const core::ConvParams& p, unsigned seed) {
  std::mt19937 rng(seed * 7919u + 13u);
  core::ConvOptions o;
  rng();
  o.threads = 1 + static_cast<int>(rng() % 3);
  core::ConvPlan plan = core::plan_default(core::plan_key(p, o));
  switch (rng() % 4) {
    case 0: plan.upd_strategy = core::UpdStrategy::task; break;
    case 1: plan.upd_strategy = core::UpdStrategy::minibatch; break;
    case 2:
      if (core::upd_hybrid_groups(p, plan.vlen, o.threads) >= 2)
        plan.upd_strategy = core::UpdStrategy::hybrid;
      break;
    default: break;  // the default plan's strategy
  }
  if (rng() % 3 == 0) {
    plan.rbq = 3 + static_cast<int>(rng() % 3);
    plan.rbp = 1;
  }
  if (rng() % 3 == 0) {
    plan.upd_bp = std::min(p.P(), 2 + static_cast<int>(rng() % 2));
    plan.upd_bq = std::min(p.Q(), 3 + static_cast<int>(rng() % 3));
  }
  o.plan = plan;
  return o;
}

}  // namespace

class ConvFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConvFuzz, ForwardMatchesNaive) {
  const auto p = random_params(GetParam());
  const auto o = random_options(p, GetParam());
  SCOPED_TRACE(p.to_string());
  ConvProblem pr(p, GetParam());
  core::ConvLayer layer(p, o);
  expect_close(naive_fwd(pr), layer_forward(layer, pr), 3e-3, "fuzz fwd");
}

TEST_P(ConvFuzz, BackwardMatchesNaive) {
  const auto p = random_params(GetParam());
  const auto o = random_options(p, GetParam() + 500);
  SCOPED_TRACE(p.to_string());
  ConvProblem pr(p, GetParam() + 1000);
  core::ConvLayer layer(p, o);
  expect_close(naive_bwd(pr), layer_backward(layer, pr), 3e-3, "fuzz bwd");
}

TEST_P(ConvFuzz, UpdateMatchesNaive) {
  const auto p = random_params(GetParam());
  const auto o = random_options(p, GetParam() + 600);
  SCOPED_TRACE(p.to_string());
  ConvProblem pr(p, GetParam() + 2000);
  core::ConvLayer layer(p, o);
  expect_close(naive_upd(pr), layer_update(layer, pr), 4e-3, "fuzz upd");
}

TEST_P(ConvFuzz, AdjointPropertyHolds) {
  // <conv(x; W), y> == <x, conv_bwd(y; W)> through the optimized layer.
  const auto p = random_params(GetParam());
  const auto o = random_options(p, GetParam() + 700);
  SCOPED_TRACE(p.to_string());
  ConvProblem pr(p, GetParam() + 3000);
  core::ConvLayer layer(p, o);
  const auto out = layer_forward(layer, pr);
  const auto din = layer_backward(layer, pr);
  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    lhs += static_cast<double>(out[i]) * pr.dout[i];
  for (std::size_t i = 0; i < din.size(); ++i)
    rhs += static_cast<double>(din[i]) * pr.in[i];
  EXPECT_NEAR(lhs, rhs, 2e-3 * std::max(1.0, std::abs(lhs)));
}

TEST_P(ConvFuzz, StreamReplayMatchesNaiveOnPoisonedOutputs) {
  // Replay of the recorded kernel streams (every pass but the k-dot and
  // GEMM-fallback backwards) against the naive oracle within the
  // reduction-length bound, over random shapes, thread counts, update
  // strategies, plan-edited blockings and the in-kernel fused ReLU. The layer
  // helpers poison out/dI/dW with NaN first, so a dropped call fails.
  const auto p = random_params(GetParam());
  auto o = random_options(p, GetParam() + 800);
  std::mt19937 rng(GetParam() * 31u + 7u);
  const bool relu = rng() % 2 == 0;
  o.fuse = relu ? core::FusedOp::relu : core::FusedOp::none;
  SCOPED_TRACE(p.to_string());
  ConvProblem pr(p, GetParam() + 4000);
  core::ConvLayer layer(p, o);

  auto ref = naive_fwd(pr);
  if (relu)
    for (float& v : ref) v = v > 0.0f ? v : 0.0f;
  expect_within_reduction_bound(ref, layer_forward(layer, pr),
                                double(p.C) * p.R * p.S, "fwd replay");
  expect_within_reduction_bound(naive_bwd(pr), layer_backward(layer, pr),
                                double(p.K) * p.R * p.S, "bwd replay");
  expect_within_reduction_bound(naive_upd(pr), layer_update(layer, pr),
                                double(p.N) * p.P() * p.Q(), "upd replay");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvFuzz, ::testing::Range(0u, 24u));
