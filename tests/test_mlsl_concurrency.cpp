// Concurrency stress for the overlapped bucket API: interleaved trainer
// threads hammer overlap_begin/post_bucket/wait_bucket/wait_all at fuzzed
// bucket partitions while concurrently reading CommStats, across comm-thread
// pool sizes and reduction schedules. The assertions are the two contracts
// the locking protects:
//   1. bit-exactness — every round's result equals the canonical rank-order
//      serial sum regardless of post order, pool size, or schedule, and
//   2. the counter invariant — every CommStats snapshot, including ones
//      taken mid-reduction from racing trainer threads, satisfies
//      intra + inter == wire (the multi-word invariant stats_mu_ encodes).
// Run under TSan (XCONV_SANITIZE=thread) this doubles as the race detector
// for the rank farm, the comm pool, and the counter block.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "mlsl/allreduce.hpp"
#include "mlsl_test_helpers.hpp"
#include "test_helpers.hpp"

using namespace xconv;
using xconv::testing::canonical_sum;
using xconv::testing::random_vec;

namespace {

/// Cut [0, n) into 1..max_buckets contiguous buckets at random boundaries.
std::vector<mlsl::GradBucket> fuzzed_partition(std::size_t n, int max_buckets,
                                               std::mt19937& rng) {
  const int k = std::uniform_int_distribution<int>(1, max_buckets)(rng);
  std::vector<std::size_t> cuts = {0, n};
  std::uniform_int_distribution<std::size_t> pos(1, n - 1);
  for (int i = 1; i < k; ++i) cuts.push_back(pos(rng));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<mlsl::GradBucket> out;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    mlsl::GradBucket b;
    b.segments.push_back({cuts[i], cuts[i + 1] - cuts[i]});
    b.elems = cuts[i + 1] - cuts[i];
    out.push_back(std::move(b));
  }
  return out;
}

/// fuzzed_partition's pieces, shuffled and dealt round-robin onto at most
/// `k` buckets: each bucket holds non-adjacent slices in no address order,
/// the layout a backward-ordered trainer bucket has.
std::vector<mlsl::GradBucket> scattered_partition(std::size_t n,
                                                  int max_pieces, int k,
                                                  std::mt19937& rng) {
  auto pieces = fuzzed_partition(n, max_pieces, rng);
  std::shuffle(pieces.begin(), pieces.end(), rng);
  std::vector<mlsl::GradBucket> out(
      std::min<std::size_t>(static_cast<std::size_t>(k), pieces.size()));
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    mlsl::GradBucket& b = out[i % out.size()];
    b.segments.push_back(pieces[i].segments[0]);
    b.elems += pieces[i].elems;
  }
  return out;
}

void expect_counters_consistent(const mlsl::CommStats& st) {
  EXPECT_EQ(st.intra_wire_bytes_per_rank + st.inter_wire_bytes_per_rank,
            st.wire_bytes_per_rank);
}

/// One fuzzed overlap round on `comm`. Ranks post in index order — the API
/// contract: the comm pool claims buckets strictly in index order, so
/// posting out of order and then waiting deadlocks by design — but each
/// rank advances at its own random pace, waits on random already-posted
/// buckets mid-round, and hammers stats() in between. Deadlock-freedom of
/// the randomized waits: a rank only ever blocks on a bucket index <= its
/// own posting progress, so the minimal blocked-on index has been posted by
/// every blocked rank, and every still-running rank posts it before it can
/// block on anything later.
void stress_round(mlsl::Communicator& comm,
                  std::vector<std::vector<float>>& data, unsigned seed) {
  const std::size_t nb = comm.bucket_count();
  comm.parallel([&](int rank) {
    std::mt19937 rng(seed * 131u + static_cast<unsigned>(rank));
    std::uniform_int_distribution<int> coin(0, 3);
    comm.overlap_begin(rank, data[rank].data());
    for (std::size_t i = 0; i < nb; ++i) {
      comm.post_bucket(rank, i);
      if (coin(rng) == 0) expect_counters_consistent(comm.stats());
      if (coin(rng) == 0) {
        const std::size_t j =
            std::uniform_int_distribution<std::size_t>(0, i)(rng);
        comm.wait_bucket(rank, j);
      }
    }
    expect_counters_consistent(comm.stats());
    comm.wait_all(rank);
  });
}

}  // namespace

TEST(MlslConcurrencyStress, InterleavedPostersStayBitwiseExact) {
  const int R = 4;
  const std::size_t n = 4096;
  mlsl::CommConfig cfg;
  cfg.comm_threads = 2;
  mlsl::Communicator comm(R, cfg);
  std::mt19937 rng(20260808);
  for (unsigned round = 0; round < 12; ++round) {
    comm.set_buckets(fuzzed_partition(n, 12, rng));
    std::vector<std::vector<float>> data(R);
    for (int r = 0; r < R; ++r)
      data[r] = random_vec(n, 100 * round + static_cast<unsigned>(r));
    const auto want = canonical_sum(data);
    stress_round(comm, data, round);
    for (int r = 0; r < R; ++r)
      ASSERT_EQ(0,
                std::memcmp(want.data(), data[r].data(), n * sizeof(float)))
          << "round " << round << " rank " << r;
    expect_counters_consistent(comm.stats());
  }
}

TEST(MlslConcurrencyStress, HierarchicalFarmUnderInterleavedPosting) {
  // Same stress over the two-level schedule on an 8-rank 2x4 machine: the
  // rank farm, hierarchical gather/scatter, and the comm pool all interleave.
  const int R = 8;
  const std::size_t n = 2048;
  mlsl::CommConfig cfg;
  cfg.comm_threads = 2;
  cfg.algorithm = mlsl::ReduceAlgorithm::kHierarchical;
  cfg.topo.ranks_per_node = 4;
  mlsl::Communicator comm(R, cfg);
  std::mt19937 rng(77);
  for (unsigned round = 0; round < 6; ++round) {
    comm.set_buckets(fuzzed_partition(n, 8, rng));
    std::vector<std::vector<float>> data(R);
    for (int r = 0; r < R; ++r)
      data[r] = random_vec(n, 900 + 50 * round + static_cast<unsigned>(r));
    const auto want = canonical_sum(data);
    stress_round(comm, data, 1000 + round);
    for (int r = 0; r < R; ++r)
      ASSERT_EQ(0,
                std::memcmp(want.data(), data[r].data(), n * sizeof(float)))
          << "round " << round << " rank " << r;
  }
}

TEST(MlslConcurrencyStress, CompressedCodecRoundsComplete) {
  // int16 + error feedback is not bitwise-comparable to the serial sum; the
  // contract under stress is completion, replica agreement (every rank sees
  // the identical reduced bytes), and counter consistency.
  const int R = 4;
  const std::size_t n = 1536;
  mlsl::CommConfig cfg;
  cfg.comm_threads = 2;
  cfg.codec = mlsl::Codec::kInt16;
  mlsl::Communicator comm(R, cfg);
  std::mt19937 rng(5150);
  for (unsigned round = 0; round < 6; ++round) {
    comm.set_buckets(fuzzed_partition(n, 6, rng));
    std::vector<std::vector<float>> data(R);
    for (int r = 0; r < R; ++r)
      data[r] = random_vec(n, 40 * round + static_cast<unsigned>(r));
    stress_round(comm, data, 2000 + round);
    for (int r = 1; r < R; ++r)
      ASSERT_EQ(0,
                std::memcmp(data[0].data(), data[r].data(), n * sizeof(float)))
          << "round " << round << " rank " << r;
    const auto st = comm.stats();
    expect_counters_consistent(st);
    EXPECT_LT(st.wire_bytes_per_rank, st.overlap_logical_bytes_per_rank);
  }
}

TEST(MlslConcurrencyStress, HierarchicalInt16InPlaceWithRacingStatsReader) {
  // Compressed codecs reduce in place: the comm threads encode straight from
  // the rank buffers and write the decoded sum back into every rank's
  // slices. On a 2x2 machine with two comm threads reducing disjoint
  // scattered buckets concurrently, interleaved posters and an outside
  // thread polling stats() nonstop must see completion, identical replicas
  // and untorn counters — and under TSan, no race on the rank buffers.
  const int R = 4;
  const std::size_t n = 3000;
  mlsl::CommConfig cfg;
  cfg.comm_threads = 2;
  cfg.codec = mlsl::Codec::kInt16;
  cfg.algorithm = mlsl::ReduceAlgorithm::kHierarchical;
  cfg.topo.ranks_per_node = 2;
  mlsl::Communicator comm(R, cfg);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed))
      expect_counters_consistent(comm.stats());
  });
  std::mt19937 rng(4242);
  for (unsigned round = 0; round < 8; ++round) {
    comm.set_buckets(scattered_partition(n, 24, 6, rng));
    std::vector<std::vector<float>> data(R);
    for (int r = 0; r < R; ++r)
      data[r] = random_vec(n, 300 + 10 * round + static_cast<unsigned>(r));
    stress_round(comm, data, 3000 + round);
    for (int r = 1; r < R; ++r)
      ASSERT_EQ(0,
                std::memcmp(data[0].data(), data[r].data(), n * sizeof(float)))
          << "round " << round << " rank " << r;
    const auto st = comm.stats();
    EXPECT_GT(st.inter_wire_bytes_per_rank, 0u);
    EXPECT_LT(st.wire_bytes_per_rank, st.overlap_logical_bytes_per_rank);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
}

TEST(MlslConcurrencyStress, OneBucketRoundsWithConcurrentStatsReaders) {
  // One bucket over the whole vector (the bulk-synchronous layout) with
  // every rank polling stats() right after its round, while other ranks
  // are still leaving it: snapshots must never tear (intra + inter == wire
  // in every observation).
  const int R = 6;
  const std::size_t n = 3000;
  mlsl::Communicator comm(R);
  xconv::testing::set_one_bucket(comm, n);
  std::vector<std::vector<float>> data(R);
  for (unsigned round = 0; round < 8; ++round) {
    for (int r = 0; r < R; ++r)
      data[r] = random_vec(n, 7 * round + static_cast<unsigned>(r));
    const auto want = canonical_sum(data);
    comm.parallel([&](int rank) {
      xconv::testing::rank_round(comm, rank, data[rank].data());
      expect_counters_consistent(comm.stats());
    });
    for (int r = 0; r < R; ++r)
      ASSERT_EQ(0,
                std::memcmp(want.data(), data[r].data(), n * sizeof(float)))
          << "round " << round << " rank " << r;
  }
}
