// Overlapped bucketized gradient allreduce (paper: "the allreduce of the
// gradient weights in the backward pass is completely overlapped"): async
// bucket API correctness, the set_buckets re-install contract, the
// backward-order bucket layout, and the multi-node replica-sync invariant —
// after k iterations all rank weights are bitwise identical, and training
// matches the one-bucket (bulk-synchronous) layout bit for bit under fuzzed
// bucket-size caps.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "gxm/trainer.hpp"
#include "mlsl/allreduce.hpp"
#include "mlsl/scaling.hpp"
#include "mlsl_test_helpers.hpp"
#include "test_helpers.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
using xconv::testing::all_params;
using xconv::testing::canonical_sum;
using xconv::testing::kOneBucketCap;
using xconv::testing::make_buckets;
using xconv::testing::mini_opt;
using xconv::testing::one_bucket_round;
using xconv::testing::overlap_round;
using xconv::testing::random_vec;

TEST(OverlapAllreduce, BucketSumsMatchCanonicalOrderBitwise) {
  const int R = 4;
  const std::size_t n = 1000;
  mlsl::Communicator comm(R);
  comm.set_buckets(make_buckets({{0, 300}, {300, 500}, {800, 200}}));
  std::vector<std::vector<float>> data(R);
  for (int r = 0; r < R; ++r) data[r] = random_vec(n, 40 + r);
  const auto want = canonical_sum(data);
  const auto got = overlap_round(comm, data);
  for (int r = 0; r < R; ++r)
    ASSERT_EQ(0, std::memcmp(want.data(), got[r].data(), n * sizeof(float)))
        << "rank " << r;
}

TEST(OverlapAllreduce, MatchesOneBucketRoundBitwise) {
  // The whole point of the canonical reduction order: a three-bucket round
  // and a one-bucket round over the same inputs agree bit for bit.
  const int R = 3;
  const std::size_t n = 1537;
  std::vector<std::vector<float>> data(R);
  for (int r = 0; r < R; ++r) data[r] = random_vec(n, 7 + r);

  mlsl::Communicator one(R);
  const auto a = one_bucket_round(one, data);

  mlsl::Communicator over(R);
  over.set_buckets(make_buckets({{0, 512}, {512, 512}, {1024, 513}}));
  const auto b = overlap_round(over, data);
  for (int r = 0; r < R; ++r)
    ASSERT_EQ(0, std::memcmp(a[r].data(), b[r].data(), n * sizeof(float)))
        << "rank " << r;
}

TEST(OverlapAllreduce, SetBucketsReinstallsBetweenRoundsAndThrowsMidRound) {
  // set_buckets may be called again outside `parallel`. Calling it inside
  // a round breaks that contract; the calls below exist only to show that
  // the violation throws (leaving the installed layout alone) while any
  // bucket is outstanding.
  const int R = 2;
  const std::size_t n = 96;
  mlsl::Communicator comm(R);
  comm.set_buckets(make_buckets({{0, 32}, {32, 64}}));
  std::vector<std::vector<float>> data(R, std::vector<float>(n, 1.0f));
  int throws = 0;
  comm.parallel([&](int rank) {
    comm.overlap_begin(rank, data[rank].data());
    // overlap_begin ends in a barrier after the round's reset, so no
    // bucket is reduced yet: every done flag is still 0.
    if (rank == 0) {
      EXPECT_THROW(comm.set_buckets(make_buckets({{0, n}})), std::logic_error);
      ++throws;
    }
    comm.post_bucket(rank, 0);
    comm.wait_bucket(rank, 0);
    // Bucket 1 is still outstanding.
    if (rank == 0) {
      EXPECT_THROW(comm.set_buckets(make_buckets({{0, n}})), std::logic_error);
      ++throws;
    }
    comm.post_bucket(rank, 1);
    comm.wait_all(rank);
  });
  EXPECT_EQ(throws, 2);
  EXPECT_EQ(comm.bucket_count(), 2u);  // the throws left the layout alone
  for (int r = 0; r < R; ++r)
    EXPECT_EQ(data[r], std::vector<float>(n, 2.0f)) << "rank " << r;
  // Outside `parallel`: a new layout installs and runs.
  const auto got = one_bucket_round(comm, data);
  EXPECT_EQ(comm.bucket_count(), 1u);
  for (int r = 0; r < R; ++r)
    EXPECT_EQ(got[r], std::vector<float>(n, 4.0f)) << "rank " << r;
}

TEST(OverlapAllreduce, PerBucketWaitAndReuseAcrossRounds) {
  const int R = 2;
  const std::size_t n = 128;
  mlsl::Communicator comm(R);
  comm.set_buckets(make_buckets({{0, 64}, {64, 64}}));
  std::vector<std::vector<float>> data(R);
  for (int rounds = 0; rounds < 5; ++rounds) {
    for (int r = 0; r < R; ++r)
      data[r].assign(n, static_cast<float>(r + 1 + rounds));
    comm.parallel([&](int rank) {
      comm.overlap_begin(rank, data[rank].data());
      comm.post_bucket(rank, 0);
      comm.wait_bucket(rank, 0);  // bucket 0 complete before 1 is posted
      EXPECT_FLOAT_EQ(data[rank][0], static_cast<float>(3 + 2 * rounds));
      comm.post_bucket(rank, 1);
      comm.wait_all(rank);
      EXPECT_FLOAT_EQ(data[rank][n - 1], static_cast<float>(3 + 2 * rounds));
    });
  }
}

TEST(OverlapAllreduce, SingleRankCompletesImmediately) {
  mlsl::Communicator comm(1);
  comm.set_buckets(make_buckets({{0, 16}}));
  std::vector<float> v = random_vec(16, 3);
  const std::vector<float> orig = v;
  comm.overlap_begin(0, v.data());
  comm.post_bucket(0, 0);
  comm.wait_all(0);
  EXPECT_EQ(0, std::memcmp(orig.data(), v.data(), v.size() * sizeof(float)));
}

TEST(MultiNodeOverlap, BucketLayoutRespectsCapAndBackwardOrder) {
  const auto nl = gxm::parse_topology(topo::resnet_mini_topology(4, 32, 4));
  mlsl::MultiNodeOptions mn;
  mn.bucket_cap_bytes = 16 << 10;
  mlsl::MultiNodeTrainer mt(nl, 2, mini_opt(), mn);

  const auto& segs = mt.rank_graph(0).bwd_param_segments();
  ASSERT_FALSE(segs.empty());
  const auto& buckets = mt.buckets();
  ASSERT_GT(buckets.size(), 1u);
  std::size_t total = 0, seg_idx = 0;
  for (const auto& b : buckets) {
    ASSERT_FALSE(b.segments.empty());
    // Cap respected unless the bucket holds a single oversized layer.
    if (b.segments.size() > 1) {
      EXPECT_LE((b.elems - b.segments.back().elems) * sizeof(float),
                mn.bucket_cap_bytes);
    }
    for (const auto& s : b.segments) {
      // Buckets cover bwd_param_segments in order, with matching slices.
      ASSERT_LT(seg_idx, segs.size());
      EXPECT_EQ(s.offset, segs[seg_idx].offset);
      EXPECT_EQ(s.elems, segs[seg_idx].elems);
      ++seg_idx;
    }
    total += b.elems;
  }
  EXPECT_EQ(seg_idx, segs.size());
  EXPECT_EQ(total, mt.rank_graph(0).grad_elems());
  // Backward order: the first bucket carries the deepest (loss-side) layer,
  // i.e. NOT the first segment of the flat (network-list) layout.
  EXPECT_NE(buckets.front().segments.front().offset, 0u);
}

TEST(MultiNodeOverlap, ReplicasStayBitwiseInSyncForOneAndManyBuckets) {
  const auto nl = gxm::parse_topology(topo::resnet_mini_topology(4, 32, 4));
  gxm::Solver s;
  s.lr = 0.01f;
  for (const std::size_t cap : {kOneBucketCap, std::size_t{32} << 10}) {
    mlsl::MultiNodeOptions mn;
    mn.bucket_cap_bytes = cap;
    mlsl::MultiNodeTrainer mt(nl, 3, mini_opt(), mn);
    mt.train(3, s);
    const auto w0 = all_params(mt.rank_graph(0));
    for (int r = 1; r < 3; ++r) {
      const auto wr = all_params(mt.rank_graph(r));
      ASSERT_EQ(0,
                std::memcmp(w0.data(), wr.data(), w0.size() * sizeof(float)))
          << "cap " << cap << " rank " << r;
    }
  }
}

TEST(MultiNodeOverlap, MatchesOneBucketBitwiseUnderFuzzedBucketCaps) {
  // The equivalence the canonical reduction order buys: a cap of the
  // gradient size builds exactly one bucket (the bulk-synchronous
  // baseline), and every step's loss and every rank's final weights match
  // it bit for bit on the same seeds, regardless of how the gradient
  // vector is cut into buckets.
  const auto nl = gxm::parse_topology(topo::resnet_mini_topology(4, 32, 4));
  gxm::Solver s;
  s.lr = 0.01f;
  const int iters = 3;
  const std::size_t grad_bytes =
      gxm::Graph(nl, mini_opt(11)).grad_elems() * sizeof(float);

  std::mt19937 rng(2026);
  std::uniform_int_distribution<std::size_t> cap_dist(64, 96 << 10);
  std::vector<std::size_t> caps = {64, 4 << 10, 1 << 30};  // 1-per, mid, all
  for (int f = 0; f < 3; ++f) caps.push_back(cap_dist(rng));

  for (const int R : {2, 4}) {
    mlsl::MultiNodeOptions one;
    one.bucket_cap_bytes = grad_bytes;
    mlsl::MultiNodeTrainer bulk(nl, R, mini_opt(11), one);
    ASSERT_EQ(bulk.buckets().size(), 1u) << "R=" << R;
    std::vector<float> bulk_losses;
    for (int i = 0; i < iters; ++i)
      bulk_losses.push_back(bulk.train(1, s).last_loss);

    for (const std::size_t cap : caps) {
      mlsl::MultiNodeOptions mn;
      mn.bucket_cap_bytes = cap;
      mlsl::MultiNodeTrainer over(nl, R, mini_opt(11), mn);
      for (int i = 0; i < iters; ++i) {
        const auto st = over.train(1, s);
        ASSERT_EQ(bulk_losses[i], st.last_loss)
            << "R=" << R << " cap=" << cap << " iter=" << i;
      }
      for (int r = 0; r < R; ++r) {
        const auto bulk_w = all_params(bulk.rank_graph(r));
        const auto over_w = all_params(over.rank_graph(r));
        ASSERT_EQ(0, std::memcmp(bulk_w.data(), over_w.data(),
                                 bulk_w.size() * sizeof(float)))
            << "R=" << R << " cap=" << cap << " rank " << r;
      }
    }
  }
}

TEST(MultiNodeOverlap, StatsReportBucketsAndExposedComm) {
  const auto nl = gxm::parse_topology(topo::resnet_mini_topology(4, 32, 4));
  gxm::Solver s;
  s.lr = 0.01f;
  mlsl::MultiNodeOptions mn;
  mn.bucket_cap_bytes = 8 << 10;
  mlsl::MultiNodeTrainer mt(nl, 2, mini_opt(), mn);
  const auto st = mt.train(2, s);
  EXPECT_EQ(st.bucket_count, mt.buckets().size());
  EXPECT_GT(st.bucket_count, 1u);
  // bucket_bytes is the largest bucket's payload; gradient_bytes is the
  // whole flat gradient.
  std::size_t largest = 0;
  for (const auto& bk : mt.buckets())
    largest = std::max(largest, bk.bytes());
  EXPECT_EQ(st.bucket_bytes, largest);
  EXPECT_EQ(st.gradient_bytes,
            mt.rank_graph(0).grad_elems() * sizeof(float));
  EXPECT_GE(st.exposed_comm_seconds, 0.0);
  EXPECT_GT(st.allreduce_bytes_per_rank, 0u);

  mlsl::MultiNodeOptions one = mn;
  one.bucket_cap_bytes = kOneBucketCap;
  mlsl::MultiNodeTrainer bk(nl, 2, mini_opt(), one);
  const auto bst = bk.train(2, s);
  EXPECT_EQ(bst.bucket_count, 1u);
  EXPECT_EQ(bst.bucket_bytes, bst.gradient_bytes);  // the whole gradient
  EXPECT_EQ(bst.gradient_bytes, st.gradient_bytes);  // same payload
  EXPECT_GT(bst.exposed_comm_seconds, 0.0);
}

TEST(MultiNodeOverlap, NonPositiveItersThrows) {
  const auto nl = gxm::parse_topology(topo::resnet_mini_topology(4, 32, 4));
  mlsl::MultiNodeTrainer mt(nl, 1, mini_opt());
  gxm::Solver s;
  EXPECT_THROW(mt.train(0, s), std::invalid_argument);
  EXPECT_THROW(mt.train(-2, s), std::invalid_argument);
}

TEST(MultiNodeOptions, EnvOverrides) {
  mlsl::MultiNodeOptions defaults;
  ::setenv("XCONV_MN_BUCKET_KB", "64", 1);
  const auto o = mlsl::MultiNodeOptions::from_env(defaults);
  EXPECT_EQ(o.bucket_cap_bytes, std::size_t{64} << 10);
  ::setenv("XCONV_MN_BUCKET_KB", "0", 1);
  EXPECT_THROW(mlsl::MultiNodeOptions::from_env(defaults),
               std::invalid_argument);
  ::setenv("XCONV_MN_BUCKET_KB", "1e3", 1);  // trailing garbage, not 1 KiB
  EXPECT_THROW(mlsl::MultiNodeOptions::from_env(defaults),
               std::invalid_argument);
  ::unsetenv("XCONV_MN_BUCKET_KB");
}
