#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/partition.hpp"

using namespace xconv::core;

using ChunkCase = std::tuple<std::int64_t, int>;  // total, nthreads

class ThreadChunkSweep : public ::testing::TestWithParam<ChunkCase> {};

TEST_P(ThreadChunkSweep, CoversDisjointAndBalanced) {
  const auto [total, nthreads] = GetParam();
  std::int64_t covered = 0;
  std::int64_t prev_end = 0;
  std::int64_t min_sz = total + 1, max_sz = -1;
  for (int t = 0; t < nthreads; ++t) {
    const Range r = thread_chunk(total, t, nthreads);
    EXPECT_EQ(r.begin, prev_end);  // contiguous, disjoint
    EXPECT_LE(r.begin, r.end);
    prev_end = r.end;
    covered += r.size();
    min_sz = std::min(min_sz, r.size());
    max_sz = std::max(max_sz, r.size());
  }
  EXPECT_EQ(prev_end, total);  // full coverage
  EXPECT_EQ(covered, total);
  EXPECT_LE(max_sz - min_sz, 1);  // near-equal
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ThreadChunkSweep,
    ::testing::Values(ChunkCase{0, 4}, ChunkCase{1, 4}, ChunkCase{4, 4},
                      ChunkCase{5, 4}, ChunkCase{100, 7}, ChunkCase{1000, 1},
                      ChunkCase{3, 8}, ChunkCase{1 << 20, 56}));

TEST(ThreadChunk, ZeroThreadsClamped) {
  const Range r = thread_chunk(10, 0, 0);
  EXPECT_EQ(r.begin, 0);
  EXPECT_EQ(r.end, 10);
}

TEST(UpdStrategyNames, AllNamed) {
  EXPECT_STREQ(upd_strategy_name(UpdStrategy::task), "task");
  EXPECT_STREQ(upd_strategy_name(UpdStrategy::minibatch), "minibatch");
  EXPECT_STREQ(upd_strategy_name(UpdStrategy::hybrid), "hybrid");
}

TEST(UpdStrategyPicker, SingleThreadAlwaysTask) {
  EXPECT_EQ(pick_upd_strategy(64, 8, 8, 3, 3, 1 << 24, 1 << 18, 1),
            UpdStrategy::task);
}

TEST(UpdStrategyPicker, InsufficientTasksForcesMinibatch) {
  // 1x1 layer with one channel block: 1 task, 16 threads, minibatch 64.
  EXPECT_EQ(pick_upd_strategy(64, 1, 1, 1, 1, 1 << 24, 256, 16),
            UpdStrategy::minibatch);
}

TEST(UpdStrategyPicker, NoMinibatchNoChoice) {
  EXPECT_EQ(pick_upd_strategy(1, 1, 1, 1, 1, 1 << 24, 256, 16),
            UpdStrategy::task);
}

TEST(UpdStrategyPicker, CopiesWinWhenTaskSpaceIsNarrow) {
  // Few feature blocks (kb = cb = 1, 3x3 -> 9 tasks) with 8 threads: the
  // task scheme re-reads the activations ~8x while per-thread dW copies are
  // tiny -> minibatch or hybrid wins (Section II-J's bandwidth trade).
  const auto s = pick_upd_strategy(32, 1, 1, 3, 3, 1 << 26, 9 * 256, 8);
  EXPECT_TRUE(s == UpdStrategy::hybrid || s == UpdStrategy::minibatch);
}
