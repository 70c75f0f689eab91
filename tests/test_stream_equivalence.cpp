// Stream replay vs the naive reference (Section II-H). Replay is how
// ConvLayer runs the forward, every backward and the weight update:
// the loop nests run once at setup as recorders. The layer helpers poison
// every output, dI and dW buffer with NaN before the call, so a kernel call
// the recorder drops fails the reduction bound. Where the thread partition
// cannot change any element's accumulation order (forward, every backward,
// the task-strategy update), replay is also bitwise-invariant in
// the thread count.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "test_helpers.hpp"

using namespace xconv;
using core::ConvOptions;
using core::ConvParams;
using core::FusedOp;
using core::UpdStrategy;
using xconv::testing::ConvProblem;
using xconv::testing::expect_bitwise;
using xconv::testing::expect_within_reduction_bound;
using xconv::testing::with_plan;

namespace {

using BwdAlgo = core::ConvLayer::BwdAlgo;

double fwd_len(const ConvParams& p) { return double(p.C) * p.R * p.S; }
double bwd_len(const ConvParams& p) { return double(p.K) * p.R * p.S; }
double upd_len(const ConvParams& p) { return double(p.N) * p.P() * p.Q(); }

/// Options on `threads` threads steered by the default plan with its
/// forward register blocking set to 1 x `rbq`.
ConvOptions fwd_plan(const ConvParams& p, int threads, int rbq) {
  ConvOptions o;
  o.threads = threads;
  return with_plan(p, o, [&](core::ConvPlan& plan) {
    plan.rbp = 1;
    plan.rbq = rbq;
  });
}

/// Options on `threads` threads steered by the default plan with the given
/// update strategy and a 2 x 4 pixel blocking, which forces
/// upd_pb_rem_/upd_qb_rem_ > 0 on 9 x 9 outputs so the edge update kernels
/// appear in the streams.
ConvOptions upd_plan(const ConvParams& p, int threads, UpdStrategy strategy) {
  ConvOptions o;
  o.threads = threads;
  return with_plan(p, o, [&](core::ConvPlan& plan) {
    plan.upd_strategy = strategy;
    plan.upd_bp = 2;
    plan.upd_bq = 4;
  });
}

/// Forward replay on threads 1..4 at a 1 x `rbq` register blocking: within
/// the bound of the naive reference, and bitwise equal across the thread
/// counts.
void expect_fwd_replay(const ConvParams& p, int rbq, unsigned seed,
                       const char* what) {
  ConvProblem pr(p, seed);
  const auto ref = xconv::testing::naive_fwd(pr);
  std::vector<float> first;
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE(std::string(what) + " threads " + std::to_string(threads));
    core::ConvLayer layer(p, fwd_plan(p, threads, rbq));
    EXPECT_GT(layer.fwd_stream_convs(), 0u);
    const auto got = layer_forward(layer, pr);
    expect_within_reduction_bound(ref, got, fwd_len(p), what);
    if (first.empty())
      first = got;
    else
      expect_bitwise(first, got, "fwd thread invariance");
  }
}

/// Backward on threads 1..4 within the bound of the naive reference;
/// bitwise equal across thread counts. `halo` >= 0 raises
/// the input halo to that many pixels.
void expect_bwd_replay(const ConvParams& p, BwdAlgo algo, unsigned seed,
                       const char* what, int halo = -1) {
  ConvProblem pr(p, seed);
  const auto ref = xconv::testing::naive_bwd(pr);
  std::vector<float> first;
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE(std::string(what) + " threads " + std::to_string(threads));
    ConvOptions o;
    o.threads = threads;
    o.in_halo_h = o.in_halo_w = halo;
    core::ConvLayer layer(p, o);
    ASSERT_EQ(layer.bwd_algo(), algo);
    EXPECT_GT(layer.bwd_stream_convs(), 0u);
    const auto got = layer_backward(layer, pr);
    expect_within_reduction_bound(ref, got, bwd_len(p), what);
    if (first.empty())
      first = got;
    else
      expect_bitwise(first, got, "bwd thread invariance");
  }
}

std::vector<float> expect_upd_replay(const ConvParams& p, const ConvOptions& o,
                                     unsigned seed, const char* what) {
  ConvProblem pr(p, seed);
  core::ConvLayer layer(p, o);
  EXPECT_GT(layer.upd_stream_calls(), 0u) << what;
  auto got = layer_update(layer, pr);
  expect_within_reduction_bound(xconv::testing::naive_upd(pr), got,
                                upd_len(p), what);
  return got;
}

}  // namespace

TEST(StreamReplay, ForwardWithEdgeBlocks) {
  // RBQ = 4 on Q = 9 forces q_rem > 0 edge kernels into the stream.
  expect_fwd_replay(core::make_conv(2, 16, 32, 9, 9, 3, 3, 1), 4, 11,
                    "fwd 3x3 edge blocks");
}

TEST(StreamReplay, BackwardDualityStride1) {
  expect_bwd_replay(core::make_conv(2, 16, 32, 9, 9, 3, 3, 1),
                    BwdAlgo::duality_stride1, 12,
                    "bwd duality stride-1");
}

TEST(StreamReplay, Backward1x1Strided) {
  // R=S=1, stride 2, pad 0: the strided-scatter dual path — the stream
  // records the 1x1 kernel sequence, including the Q-remainder edge kernel
  // (Q = 29 is prime, so no register-block divides it).
  expect_bwd_replay(core::make_conv(1, 16, 16, 5, 57, 1, 1, 2, 0),
                    BwdAlgo::duality_strided, 13,
                    "bwd 1x1 strided");
}

TEST(StreamReplay, BackwardStridedReplaysEveryTap) {
  // R > 1 with stride > 1 (Algorithm 7's case): one accumulating 1x1 call
  // per contributing tap, each dI row owned by one work item.
  expect_bwd_replay(core::make_conv(1, 16, 16, 9, 9, 3, 3, 2),
                    BwdAlgo::duality_strided, 14,
                    "bwd strided 3x3");
}

// The strided duality across the shapes that stress its recorder: taps
// overlapping rows (R > stride), no padding, rows and columns no tap reaches
// (2x2/3, 1x1/3), a halo raised above the padding and a partial last
// channel block. The layer helpers poison dI with NaN.
struct StridedCase {
  ConvParams p;
  int halo;
  const char* what;
};

class StreamStridedReplay : public ::testing::TestWithParam<StridedCase> {};

TEST_P(StreamStridedReplay, MatchesNaiveAndIsThreadInvariant) {
  const StridedCase& c = GetParam();
  expect_bwd_replay(c.p, BwdAlgo::duality_strided, 16, c.what, c.halo);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StreamStridedReplay,
    ::testing::Values(
        StridedCase{core::make_conv(2, 16, 32, 9, 9, 3, 3, 2, 1), -1,
                    "3x3/2 pad 1"},
        StridedCase{core::make_conv(1, 32, 16, 9, 11, 3, 3, 2, 0), -1,
                    "3x3/2 pad 0"},
        StridedCase{core::make_conv(2, 16, 16, 7, 59, 1, 1, 2, 0), -1,
                    "1x1/2 prime Q"},
        StridedCase{core::make_conv(1, 32, 16, 10, 11, 1, 1, 3, 0), -1,
                    "1x1/3"},
        StridedCase{core::make_conv(1, 16, 32, 11, 10, 2, 2, 3, 0), -1,
                    "2x2/3"},
        StridedCase{core::make_conv(1, 16, 16, 9, 9, 3, 3, 2, 1), 3,
                    "3x3/2 halo 3"},
        StridedCase{core::make_conv(2, 24, 40, 9, 9, 3, 3, 2, 1), -1,
                    "C 24"}));

TEST(StreamReplay, BackwardKdot) {
  // C < vlen: one k-dot call per (dI row, column phase, rb group), each dI
  // row owned by one work item.
  expect_bwd_replay(core::make_conv(2, 3, 32, 15, 15, 7, 7, 2, 3),
                    BwdAlgo::kdot, 15, "bwd k-dot");
}

class StreamUpdReplay
    : public ::testing::TestWithParam<std::tuple<UpdStrategy, int>> {};

TEST_P(StreamUpdReplay, MatchesNaiveAcrossStrategiesAndThreads) {
  const auto [strategy, threads] = GetParam();
  const auto p = core::make_conv(4, 16, 32, 9, 9, 3, 3, 1);
  if (strategy == UpdStrategy::hybrid && threads < 2) {
    // One thread cannot form two hybrid groups: the plan is rejected.
    EXPECT_THROW(core::ConvLayer(p, upd_plan(p, threads, strategy)),
                 std::invalid_argument);
    return;
  }
  expect_upd_replay(p, upd_plan(p, threads, strategy), 20 + threads,
                    core::upd_strategy_name(strategy));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StreamUpdReplay,
    ::testing::Combine(::testing::Values(UpdStrategy::task,
                                         UpdStrategy::minibatch,
                                         UpdStrategy::hybrid),
                       ::testing::Values(1, 2, 4)));

TEST(StreamReplay, UpdateTaskStrategyIsThreadInvariant) {
  // Task parallelism gives each dW block to one thread, which accumulates
  // its pixel blocks in (n, pjb, qib) order whatever the thread count.
  const auto p = core::make_conv(4, 16, 32, 9, 9, 3, 3, 1);
  std::vector<float> first;
  for (const int threads : {1, 3, 4}) {
    const auto got = expect_upd_replay(
        p, upd_plan(p, threads, UpdStrategy::task), 25, "task threads");
    if (first.empty())
      first = got;
    else
      expect_bitwise(first, got, "upd task thread invariance");
  }
}

// The plan's loop order is bitwise-neutral: both orders accumulate each dW
// block in the identical (n, pjb, qib) sequence. So is the reduce unroll:
// every generated chunk shape keeps the copy-0-seeds-then-ascending-adds
// contract of the scalar reduce kernel.
class StreamUpdPlanAxes
    : public ::testing::TestWithParam<std::tuple<UpdStrategy, int>> {};

TEST_P(StreamUpdPlanAxes, LoopOrderAndReduceUnrollAreBitwiseNeutral) {
  const auto [strategy, threads] = GetParam();
  const auto p = core::make_conv(4, 16, 32, 9, 9, 3, 3, 1);
  const ConvOptions o = upd_plan(p, threads, strategy);
  const auto want = expect_upd_replay(p, o, 50 + threads, "default plan");
  ConvProblem pr(p, 50 + threads);

  for (const auto order :
       {core::UpdLoopOrder::task_outer, core::UpdLoopOrder::pixel_outer}) {
    for (const int unroll : {core::kUpdReduceUnrollDefault, 2}) {
      core::ConvPlan plan = *o.plan;
      plan.upd_loop_order = order;
      plan.upd_reduce_unroll = unroll;
      ConvOptions oo = o;
      oo.plan = plan;
      core::ConvLayer layer(p, oo);
      const std::string what =
          std::string(core::upd_strategy_name(strategy)) + "/" +
          core::upd_loop_order_name(order) + "/unroll" +
          std::to_string(unroll);
      expect_bitwise(want, layer_update(layer, pr), what.c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StreamUpdPlanAxes,
    ::testing::Combine(::testing::Values(UpdStrategy::task,
                                         UpdStrategy::minibatch),
                       ::testing::Values(1, 2, 4)));

// Hybrid needs two thread groups, so at least two threads.
INSTANTIATE_TEST_SUITE_P(
    Hybrid, StreamUpdPlanAxes,
    ::testing::Combine(::testing::Values(UpdStrategy::hybrid),
                       ::testing::Values(2, 4)));

TEST(StreamReplay, UpdateMinibatchWithIdleThreads) {
  // threads > N: idle threads record ZERO records for their private copies,
  // which the reduction then reads.
  const auto p = core::make_conv(2, 16, 16, 6, 6, 3, 3, 1);
  ConvOptions o;
  o.threads = 5;
  o = with_plan(p, o, [](core::ConvPlan& plan) {
    plan.upd_strategy = UpdStrategy::minibatch;
  });
  expect_upd_replay(p, o, 31, "minibatch idle threads");
}

TEST(StreamReplay, UpdateHybridThatCannotFormTwoGroupsIsRejected) {
  // N = 1 cannot form two minibatch groups, so an explicit hybrid plan is
  // rejected instead of running under the hybrid name as something else.
  const auto p = core::make_conv(1, 16, 16, 6, 6, 3, 3, 1);
  ConvOptions o;
  o.threads = 4;
  o = with_plan(p, o, [](core::ConvPlan& plan) {
    plan.upd_strategy = UpdStrategy::hybrid;
  });
  ASSERT_EQ(core::upd_hybrid_groups(p, o.plan->vlen, o.threads), 1);
  EXPECT_THROW(core::ConvLayer(p, o), std::invalid_argument);
}

TEST(StreamReplay, ForwardFusedOps) {
  // Fused operators ride the stream as the in-kernel ReLU or APPLY records;
  // the reference applies the same operator to the naive output. A replay
  // without operands skips the APPLY records: it writes the plain conv.
  const auto p = core::make_conv(2, 16, 32, 7, 7, 3, 3, 1);
  ConvProblem pr(p, 40);
  const auto conv = xconv::testing::naive_fwd(pr);
  const auto resid = xconv::testing::random_vec(conv.size(), 44);
  const int plane = p.P() * p.Q();
  for (const FusedOp op :
       {FusedOp::relu, FusedOp::bias, FusedOp::batchnorm,
        FusedOp::batchnorm_relu, FusedOp::eltwise_add}) {
    SCOPED_TRACE(core::fused_op_name(op));
    ConvOptions o;
    o.fuse = op;
    o.threads = 2;
    core::ConvLayer layer(p, o);

    const int kch = layer.kb() * layer.vlen();
    const auto bias = xconv::testing::random_vec(kch, 41);
    const auto gamma = xconv::testing::random_vec(kch, 42, 0.5f, 1.5f);
    const auto beta = xconv::testing::random_vec(kch, 43);
    const auto mean = xconv::testing::random_vec(kch, 45);
    const auto invstd = xconv::testing::random_vec(kch, 46, 0.5f, 2.0f);
    std::vector<float> ref = conv;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const int k = static_cast<int>(i / plane) % p.K;
      float& v = ref[i];
      switch (op) {
        case FusedOp::relu: v = v > 0.0f ? v : 0.0f; break;
        case FusedOp::bias: v += bias[k]; break;
        case FusedOp::batchnorm:
        case FusedOp::batchnorm_relu:
          v = core::bn_infer(v, gamma[k], mean[k], invstd[k], beta[k]);
          if (op == FusedOp::batchnorm_relu && v < 0.0f) v = 0.0f;
          break;
        case FusedOp::eltwise_add: v += resid[i]; break;
        default: FAIL() << "no reference for this op";
      }
    }

    auto bin = layer.make_input();
    tensor::nchw_to_blocked(pr.in.data(), bin);
    auto bwt = layer.make_weights();
    tensor::kcrs_to_blocked_fwd(pr.wt.data(), p.K, p.C, bwt);
    auto bresid = layer.make_output();
    tensor::nchw_to_blocked(resid.data(), bresid);
    auto bout = layer.make_output();
    xconv::testing::poison(bout);
    core::FusionArgs fargs;
    fargs.bias = bias.data();
    fargs.gamma = gamma.data();
    fargs.beta = beta.data();
    fargs.mean = mean.data();
    fargs.invstd = invstd.data();
    fargs.residual = bresid.data();
    layer.forward(bin, bwt, bout, fargs);
    std::vector<float> got(p.output_elems());
    tensor::blocked_to_nchw(bout, got.data());
    expect_within_reduction_bound(ref, got, fwd_len(p),
                                  core::fused_op_name(op));

    if (op != FusedOp::batchnorm) continue;
    // No operands: the same stream replays as the plain layer, bit for bit.
    ConvOptions plain_opt;
    plain_opt.threads = 2;
    core::ConvLayer plain(p, plain_opt);
    auto want = plain.make_output();
    plain.forward(bin, bwt, want);
    xconv::testing::poison(bout);  // interior NaN, halo zero as in `want`
    bout.zero_halo();
    layer.forward(bin, bwt, bout);
    ASSERT_EQ(want.size(), bout.size());
    EXPECT_EQ(std::memcmp(want.data(), bout.data(),
                          want.size() * sizeof(float)),
              0);
    // With operands: the plain output through the BatchNorm expression.
    layer.forward(bin, bwt, bout, fargs);
    float* w = want.data();
    for (int n = 0; n < p.N; ++n)
      for (int kb = 0; kb < layer.kb(); ++kb)
        for (int y = 0; y < p.P(); ++y)
          for (int x = 0; x < p.Q(); ++x)
            for (int l = 0; l < layer.vlen(); ++l) {
              const int k = kb * layer.vlen() + l;
              float& v = w[want.offset(n, kb, y, x) + l];
              v = core::bn_infer(v, gamma[k], mean[k], invstd[k], beta[k]);
            }
    EXPECT_EQ(std::memcmp(want.data(), bout.data(),
                          want.size() * sizeof(float)),
              0);
  }
}
