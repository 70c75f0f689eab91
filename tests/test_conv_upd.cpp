// Weight-gradient update vs Algorithm 8, covering the three parallelization
// strategies of Section II-J and the pixel-blocking space.
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
using core::UpdStrategy;
using xconv::testing::ConvProblem;
using xconv::testing::expect_close;
using xconv::testing::with_plan;

namespace {
core::ConvParams small_table1(int idx, int n = 1) {
  auto l = topo::resnet50_table1()[idx];
  l.H = std::max(l.H / 4, l.R);
  l.W = std::max(l.W / 4, l.S);
  return topo::table1_params(l, n);
}
}  // namespace

class UpdTable1 : public ::testing::TestWithParam<int> {};

TEST_P(UpdTable1, MatchesNaive) {
  const auto p = small_table1(GetParam());
  ConvProblem pr(p);
  core::ConvLayer layer(p);
  expect_close(naive_upd(pr), layer_update(layer, pr), 3e-3,
               p.to_string().c_str());
}

INSTANTIATE_TEST_SUITE_P(AllLayers, UpdTable1, ::testing::Range(0, 20));

class UpdStrategies
    : public ::testing::TestWithParam<std::tuple<UpdStrategy, int>> {};

TEST_P(UpdStrategies, AllStrategiesMatchNaive) {
  const auto [strategy, threads] = GetParam();
  const auto p = core::make_conv(4, 32, 32, 12, 12, 3, 3, 1);
  ConvProblem pr(p, 77);
  core::ConvOptions o;
  o.threads = threads;
  o = with_plan(p, o, [&](core::ConvPlan& plan) {
    plan.upd_strategy = strategy;
  });
  if (strategy == UpdStrategy::hybrid && threads < 2) {
    // One thread cannot form two hybrid groups: the plan is rejected.
    EXPECT_THROW(core::ConvLayer(p, o), std::invalid_argument);
    return;
  }
  core::ConvLayer layer(p, o);
  EXPECT_EQ(layer.upd_strategy_used(), strategy);
  expect_close(naive_upd(pr), layer_update(layer, pr), 3e-3,
               core::upd_strategy_name(strategy));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, UpdStrategies,
    ::testing::Combine(::testing::Values(UpdStrategy::task,
                                         UpdStrategy::minibatch,
                                         UpdStrategy::hybrid),
                       ::testing::Values(1, 2, 4, 7)));

TEST(Upd, StrategiesProduceIdenticalResultsUpToFp) {
  const auto p = core::make_conv(4, 16, 32, 9, 9, 3, 3, 2);
  ConvProblem pr(p, 5);
  std::vector<std::vector<float>> results;
  for (auto s :
       {UpdStrategy::task, UpdStrategy::minibatch, UpdStrategy::hybrid}) {
    core::ConvOptions o;
    o.threads = 4;
    core::ConvLayer layer(
        p, with_plan(p, o, [&](core::ConvPlan& plan) {
          plan.upd_strategy = s;
        }));
    results.push_back(layer_update(layer, pr));
  }
  expect_close(results[0], results[1], 1e-4, "task-vs-minibatch");
  expect_close(results[0], results[2], 1e-4, "task-vs-hybrid");
}

TEST(Upd, BlockingFromExplicitPlan) {
  const auto p = core::make_conv(1, 16, 16, 12, 12, 3, 3, 1);
  ConvProblem pr(p, 6);
  for (auto [bp, bq] : {std::pair{1, 12}, {12, 12}, {3, 4}, {5, 7}}) {
    core::ConvLayer layer(p, with_plan(p, {}, [&](core::ConvPlan& plan) {
                            plan.upd_bp = bp;
                            plan.upd_bq = bq;
                          }));
    EXPECT_EQ(layer.upd_bp(), bp);
    EXPECT_EQ(layer.upd_bq(), bq);
    expect_close(naive_upd(pr), layer_update(layer, pr), 3e-3, "upd blocking");
  }
}

TEST(Upd, MaxReusePixelBlockEqualsWholeImage) {
  // BP = P, BQ = Q: the Section II-J maximal-register-reuse extreme.
  const auto p = core::make_conv(1, 16, 16, 7, 7, 3, 3, 1);
  ConvProblem pr(p, 8);
  core::ConvLayer layer(p, with_plan(p, {}, [&](core::ConvPlan& plan) {
                          plan.upd_bp = p.P();
                          plan.upd_bq = p.Q();
                        }));
  expect_close(naive_upd(pr), layer_update(layer, pr), 3e-3, "BP=P BQ=Q");
}

TEST(Upd, StrategyPickerUnit) {
  using core::pick_upd_strategy;
  // Single thread: always task.
  EXPECT_EQ(pick_upd_strategy(32, 4, 4, 3, 3, 1 << 20, 1 << 16, 1),
            UpdStrategy::task);
  // Few tasks, plenty of minibatch: minibatch parallelism.
  EXPECT_EQ(pick_upd_strategy(64, 1, 1, 1, 1, 1 << 22, 256, 8),
            UpdStrategy::minibatch);
  // Few tasks AND tiny minibatch: stuck with tasks.
  EXPECT_EQ(pick_upd_strategy(1, 1, 1, 1, 1, 1 << 22, 256, 8),
            UpdStrategy::task);
  // Huge weight tensor vs small activations: task (copies too expensive).
  EXPECT_EQ(pick_upd_strategy(4, 128, 128, 3, 3, 1 << 16, 64 << 20, 8),
            UpdStrategy::task);
}

TEST(Upd, GradWtGeometryEnforced) {
  const auto p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  core::ConvLayer layer(p);
  auto in = layer.make_input();
  auto dout = layer.make_output();
  tensor::WtTensor bad(1, 1, 1, 1, 16);
  EXPECT_THROW(layer.update(in, dout, bad), std::invalid_argument);
}

TEST(Upd, RepeatedCallsOverwriteNotAccumulate) {
  const auto p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  ConvProblem pr(p, 9);
  core::ConvLayer layer(p);
  const auto once = layer_update(layer, pr);
  const auto twice = layer_update(layer, pr);
  expect_close(once, twice, 1e-7, "idempotent update");
}
