// Topology-aware communicator (ROADMAP: rank farm + two-level hierarchical
// allreduce): Topology validation and resolution against the rank count, the
// two-point NetworkModel calibration that separates bandwidth from
// per-message latency, the hierarchical schedule's invariants — fp32 is
// bitwise identical to the flat ring for one bucket and for many,
// compressed replicas never diverge even at 64 ranks — the per-level wire
// byte split, per-bucket schedule overrides, the topology environment knobs,
// and the histogram-driven scaling projection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "mlsl/allreduce.hpp"
#include "mlsl/netmodel.hpp"
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

namespace {

std::vector<std::vector<float>> rank_data(int ranks, std::size_t n) {
  std::vector<std::vector<float>> data;
  for (int r = 0; r < ranks; ++r)
    data.push_back(random_vec(n, 100 + static_cast<unsigned>(r)));
  return data;
}

}  // namespace

TEST(Topology, ValidateRejectsBadShapesAndWireModels) {
  mlsl::Topology t;
  EXPECT_NO_THROW(t.validate());  // defaults are a legal flat topology
  t.ranks_per_node = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = mlsl::Topology{};
  t.nodes = -1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = mlsl::Topology{};
  t.intra.link_bandwidth_gbs = -0.5;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = mlsl::Topology{};
  t.inter.latency_us = -1.0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = mlsl::Topology{};
  t.intra.chunk_messages = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(Topology, FlatHelperLeavesWireOff) {
  const mlsl::Topology t = mlsl::Topology::flat(8);
  EXPECT_EQ(t.ranks_per_node, 1);
  EXPECT_EQ(t.nodes, 8);
  EXPECT_EQ(t.ranks(), 8);
  // `{}` for a NetworkModel member would mean the Omni-Path defaults; flat()
  // must keep the simulated wire off at both levels.
  EXPECT_EQ(t.intra.link_bandwidth_gbs, 0.0);
  EXPECT_EQ(t.inter.link_bandwidth_gbs, 0.0);
}

TEST(Topology, CommunicatorResolvesNodesAndRejectsMismatches) {
  {  // default topology: one rank per node, nodes derived
    mlsl::Communicator comm(4);
    EXPECT_EQ(comm.topology().ranks_per_node, 1);
    EXPECT_EQ(comm.topology().nodes, 4);
  }
  {  // derived node count from ranks_per_node
    mlsl::CommConfig cc;
    cc.topo.ranks_per_node = 8;
    mlsl::Communicator comm(64, cc);
    EXPECT_EQ(comm.topology().nodes, 8);
    EXPECT_EQ(comm.topology().ranks(), 64);
  }
  {  // explicit node count must match the rank count exactly
    mlsl::CommConfig cc;
    cc.topo.ranks_per_node = 2;
    cc.topo.nodes = 4;
    EXPECT_NO_THROW(mlsl::Communicator(8, cc));
    cc.topo.nodes = 3;
    EXPECT_THROW(mlsl::Communicator(8, cc), std::invalid_argument);
  }
  {  // non-divisible rank count cannot derive a node grid
    mlsl::CommConfig cc;
    cc.topo.ranks_per_node = 3;
    EXPECT_THROW(mlsl::Communicator(8, cc), std::invalid_argument);
  }
  {  // invalid topology is rejected at construction
    mlsl::CommConfig cc;
    cc.topo.ranks_per_node = -2;
    EXPECT_THROW(mlsl::Communicator(8, cc), std::invalid_argument);
  }
}

TEST(ReduceAlgorithm, NamesAndParsing) {
  EXPECT_STREQ(mlsl::reduce_algorithm_name(mlsl::ReduceAlgorithm::kFlatRing),
               "flat");
  EXPECT_STREQ(
      mlsl::reduce_algorithm_name(mlsl::ReduceAlgorithm::kHierarchical),
      "hierarchical");
  EXPECT_EQ(mlsl::reduce_algorithm_from_name("flat"),
            mlsl::ReduceAlgorithm::kFlatRing);
  EXPECT_EQ(mlsl::reduce_algorithm_from_name("hier"),
            mlsl::ReduceAlgorithm::kHierarchical);
  EXPECT_EQ(mlsl::reduce_algorithm_from_name("hierarchical"),
            mlsl::ReduceAlgorithm::kHierarchical);
  EXPECT_THROW(mlsl::reduce_algorithm_from_name("ring"),
               std::invalid_argument);
  EXPECT_THROW(mlsl::reduce_algorithm_from_name(""), std::invalid_argument);
}

// The regression the two-point overload exists for: the one-point
// calibration folds per-message latency into bandwidth, so on a
// latency-bearing link it recovers the wrong bandwidth and extrapolates
// wrongly across payload sizes. The two-point fit recovers both parameters.
TEST(NetModelCalibration, TwoPointSeparatesBandwidthFromLatency) {
  mlsl::NetworkModel ref;
  ref.link_bandwidth_gbs = 5.0;
  ref.latency_us = 20.0;
  const int k = 16;
  const std::size_t small = 64 << 10, large = 4 << 20;
  const double t_small = ref.allreduce_seconds(small, k);
  const double t_large = ref.allreduce_seconds(large, k);

  const mlsl::NetworkModel two =
      mlsl::NetworkModel::from_measured(small, t_small, large, t_large, k);
  EXPECT_NEAR(two.link_bandwidth_gbs, 5.0, 1e-6);
  EXPECT_NEAR(two.latency_us, 20.0, 1e-6);
  // The fit reproduces both anchors and interpolates the model exactly.
  EXPECT_NEAR(two.allreduce_seconds(small, k), t_small, 1e-12);
  EXPECT_NEAR(two.allreduce_seconds(large, k), t_large, 1e-12);
  EXPECT_NEAR(two.allreduce_seconds(1 << 20, k),
              ref.allreduce_seconds(1 << 20, k), 1e-12);

  // Sample order must not matter.
  const mlsl::NetworkModel swapped =
      mlsl::NetworkModel::from_measured(large, t_large, small, t_small, k);
  EXPECT_NEAR(swapped.link_bandwidth_gbs, 5.0, 1e-6);
  EXPECT_NEAR(swapped.latency_us, 20.0, 1e-6);

  // The one-point fold reproduces its anchor but mis-extrapolates on a
  // latency-bearing link: latency folded into bandwidth over-charges larger
  // payloads.
  const mlsl::NetworkModel one =
      mlsl::NetworkModel::from_measured(small, k, t_small);
  EXPECT_EQ(one.latency_us, 0.0);
  EXPECT_NEAR(one.allreduce_seconds(small, k), t_small, 1e-12);
  EXPECT_GT(one.allreduce_seconds(large, k), t_large * 1.5);

  // Degenerate pairs fall back to the one-point fold on the larger sample.
  const mlsl::NetworkModel same =
      mlsl::NetworkModel::from_measured(large, t_large, large, t_large, k);
  EXPECT_EQ(same.latency_us, 0.0);
  EXPECT_NEAR(same.allreduce_seconds(large, k), t_large, 1e-12);
  const mlsl::NetworkModel nonmono =
      mlsl::NetworkModel::from_measured(small, t_large, large, t_small, k);
  EXPECT_EQ(nonmono.latency_us, 0.0);
}

TEST(HierarchicalAllreduce, Fp32OneBucketBitwiseMatchesFlatAt64Ranks) {
  const int R = 64;
  const std::size_t n = 4099;  // not divisible by R
  const auto data = rank_data(R, n);
  const std::vector<float> want = canonical_sum(data);

  mlsl::CommConfig flat_cc;
  flat_cc.topo.ranks_per_node = 8;
  mlsl::Communicator flat_comm(R, flat_cc);
  const auto flat = one_bucket_round(flat_comm, data);

  mlsl::CommConfig hier_cc = flat_cc;
  hier_cc.algorithm = mlsl::ReduceAlgorithm::kHierarchical;
  mlsl::Communicator hier_comm(R, hier_cc);
  const auto hier = one_bucket_round(hier_comm, data);

  for (int r = 0; r < R; ++r)
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(flat[r][i], want[i]) << "flat rank " << r << " elem " << i;
      ASSERT_EQ(hier[r][i], want[i]) << "hier rank " << r << " elem " << i;
    }
}

TEST(HierarchicalAllreduce, Fp32OverlapBitwiseMatchesFlatAt64Ranks) {
  const int R = 64;
  const std::size_t n = 3000;
  const auto data = rank_data(R, n);
  const std::vector<float> want = canonical_sum(data);
  const auto buckets = make_buckets({{0, 1000}, {1000, 1700}, {2700, 300}});

  std::vector<std::vector<std::vector<float>>> results;
  for (const mlsl::ReduceAlgorithm algo :
       {mlsl::ReduceAlgorithm::kFlatRing,
        mlsl::ReduceAlgorithm::kHierarchical}) {
    mlsl::CommConfig cc;
    cc.comm_threads = 2;
    cc.algorithm = algo;
    cc.topo.ranks_per_node = 8;
    mlsl::Communicator comm(R, cc);
    comm.set_buckets(buckets);
    results.push_back(overlap_round(comm, data));
  }
  for (int r = 0; r < R; ++r)
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(results[0][r][i], want[i]) << "flat r" << r << " i" << i;
      ASSERT_EQ(results[1][r][i], want[i]) << "hier r" << r << " i" << i;
    }
}

// Compressed hierarchical reductions re-quantize per-node partial sums (a
// third compression point), so they legitimately differ from the flat ring —
// but replicas must never diverge from *each other*: every rank decodes the
// same final sum payload. 64 ranks, one bucket and two, every compressed
// codec.
TEST(HierarchicalAllreduce, CompressedReplicasStayInSyncAt64Ranks) {
  const int R = 64;
  const std::size_t n = 2048;
  const auto data = rank_data(R, n);
  for (const mlsl::Codec codec :
       {mlsl::Codec::kInt16, mlsl::Codec::kBf16, mlsl::Codec::kTopK}) {
    mlsl::CommConfig cc;
    cc.codec = codec;
    cc.comm_threads = 2;
    cc.algorithm = mlsl::ReduceAlgorithm::kHierarchical;
    cc.topo.ranks_per_node = 8;
    {
      mlsl::Communicator comm(R, cc);
      const auto out = one_bucket_round(comm, data);
      for (int r = 1; r < R; ++r)
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(out[r][i], out[0][i])
              << mlsl::codec_name(codec) << " one-bucket rank " << r;
      const mlsl::CommStats cs = comm.stats();
      EXPECT_GT(cs.intra_wire_bytes_per_rank, 0u);
      EXPECT_GT(cs.inter_wire_bytes_per_rank, 0u);
      EXPECT_EQ(cs.intra_wire_bytes_per_rank + cs.inter_wire_bytes_per_rank,
                cs.wire_bytes_per_rank);
    }
    {
      mlsl::Communicator comm(R, cc);
      comm.set_buckets(make_buckets({{0, 1024}, {1024, 1024}}));
      const auto out = overlap_round(comm, data);
      for (int r = 1; r < R; ++r)
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(out[r][i], out[0][i])
              << mlsl::codec_name(codec) << " overlap rank " << r;
    }
  }
}

// Exact per-level wire accounting, checked against the schedule formulas
// (fp32, whose payload sizes are deterministic). The flat ring on a
// multi-node topology burdens only the inter level — and its wire bytes
// equal the logical ring bytes; the hierarchical schedule splits
// intra/inter per the two-level formulas, moving strictly fewer inter bytes.
TEST(HierarchicalAllreduce, WireCountersSplitByLevel) {
  const int R = 8, p = 4, N = 2;
  const std::size_t n = 4096, n4 = n * sizeof(float);
  const auto data = rank_data(R, n);
  mlsl::CommConfig cc;
  cc.topo.ranks_per_node = p;

  mlsl::Communicator flat_comm(R, cc);
  one_bucket_round(flat_comm, data);
  const mlsl::CommStats fs = flat_comm.stats();
  // Flat: (R-1)*(contrib_mean + sum)/R with fp32 payloads = 2(R-1)n4/R.
  EXPECT_EQ(fs.inter_wire_bytes_per_rank, 2 * (R - 1) * n4 / R);
  EXPECT_EQ(fs.intra_wire_bytes_per_rank, 0u);
  EXPECT_EQ(fs.wire_bytes_per_rank, fs.overlap_logical_bytes_per_rank);

  mlsl::CommConfig hc = cc;
  hc.algorithm = mlsl::ReduceAlgorithm::kHierarchical;
  mlsl::Communicator hier_comm(R, hc);
  one_bucket_round(hier_comm, data);
  const mlsl::CommStats hs = hier_comm.stats();
  EXPECT_EQ(hs.intra_wire_bytes_per_rank, (p - 1) * (n4 + n4) / p);
  EXPECT_EQ(hs.inter_wire_bytes_per_rank, (N - 1) * (n4 + n4) / N);
  EXPECT_EQ(hs.wire_bytes_per_rank,
            hs.intra_wire_bytes_per_rank + hs.inter_wire_bytes_per_rank);
  EXPECT_LT(hs.inter_wire_bytes_per_rank, fs.inter_wire_bytes_per_rank);
  // Logical bytes are schedule-independent.
  EXPECT_EQ(hs.overlap_logical_bytes_per_rank,
            fs.overlap_logical_bytes_per_rank);

  // A hierarchical request degenerates to the flat ring when the topology
  // cannot support it (single node, or one rank per node) — including in
  // the byte accounting.
  mlsl::CommConfig dc;
  dc.algorithm = mlsl::ReduceAlgorithm::kHierarchical;  // rpn = 1
  mlsl::Communicator degen(R, dc);
  one_bucket_round(degen, data);
  EXPECT_EQ(degen.stats().inter_wire_bytes_per_rank, 2 * (R - 1) * n4 / R);
  EXPECT_EQ(degen.stats().intra_wire_bytes_per_rank, 0u);
}

// Trainer-level tentpole invariant: under fp32 the hierarchical schedule
// produces bit-identical *training trajectories* to the flat ring — one
// bucket and fuzzed bucket caps (ragged layouts), comm-thread pool >= 2.
TEST(MultiNodeHierarchical, TrainerFp32FlatVsHierBitwise) {
  const auto nl = gxm::parse_topology(topo::resnet_mini_topology(2, 32, 4));
  gxm::Solver solver;
  solver.lr = 0.01f;
  for (const std::size_t cap : {std::size_t{1} << 10, std::size_t{3} << 10,
                                std::size_t{17} << 10, kOneBucketCap}) {
    std::vector<std::vector<float>> params;
    std::vector<float> losses;
    for (const mlsl::ReduceAlgorithm algo :
         {mlsl::ReduceAlgorithm::kFlatRing,
          mlsl::ReduceAlgorithm::kHierarchical}) {
      mlsl::MultiNodeOptions mn;
      mn.bucket_cap_bytes = cap;
      mn.comm.comm_threads = 2;
      mn.comm.algorithm = algo;
      mn.comm.topo.ranks_per_node = 2;
      mlsl::MultiNodeTrainer trainer(nl, 8, mini_opt(), mn);
      const auto st = trainer.train(2, solver);
      losses.push_back(st.last_loss);
      params.push_back(all_params(trainer.rank_graph(0)));
      // Replicas stay bitwise in sync under either schedule.
      const auto p0 = all_params(trainer.rank_graph(0));
      for (int r = 1; r < 8; ++r) {
        const auto pr = all_params(trainer.rank_graph(r));
        ASSERT_EQ(pr, p0) << "replica divergence, rank " << r;
      }
    }
    ASSERT_EQ(losses[0], losses[1]) << "cap " << cap;
    ASSERT_EQ(params[0], params[1]) << "cap " << cap;
  }
}

TEST(MultiNodeHierarchical, StatsReportScheduleAndTopology) {
  const auto nl = gxm::parse_topology(topo::resnet_mini_topology(2, 32, 4));
  mlsl::MultiNodeOptions mn;
  mn.bucket_cap_bytes = 8 << 10;
  mn.comm.algorithm = mlsl::ReduceAlgorithm::kHierarchical;
  mn.comm.topo.ranks_per_node = 2;
  mlsl::MultiNodeTrainer trainer(nl, 4, mini_opt(), mn);
  gxm::Solver solver;
  solver.lr = 0.01f;
  const auto st = trainer.train(1, solver);
  EXPECT_STREQ(st.algorithm, "hierarchical");
  EXPECT_EQ(st.ranks_per_node, 2);
  EXPECT_EQ(st.topo_nodes, 2);
  EXPECT_EQ(st.intra_wire_bytes_per_rank + st.inter_wire_bytes_per_rank,
            st.wire_bytes_per_rank);
  EXPECT_GT(st.intra_wire_bytes_per_rank, 0u);
  EXPECT_GT(st.inter_wire_bytes_per_rank, 0u);
  // The measured overlap profile is complete: one payload size per bucket.
  EXPECT_EQ(st.bucket_payload_bytes.size(), st.bucket_count);
  EXPECT_EQ(st.bucket_wait_seconds.size(), st.bucket_count);
}

TEST(CommConfigEnv, TopologyKnobs) {
  ::setenv("XCONV_MN_ALGO", "hier", 1);
  ::setenv("XCONV_MN_RANKS_PER_NODE", "4", 1);
  ::setenv("XCONV_MN_INTRA_GBS", "5.5", 1);
  ::setenv("XCONV_MN_INTER_GBS", "1.25", 1);
  ::setenv("XCONV_MN_INTRA_LAT_US", "2", 1);
  ::setenv("XCONV_MN_INTER_LAT_US", "40", 1);
  const mlsl::CommConfig c = mlsl::CommConfig::from_env();
  EXPECT_EQ(c.algorithm, mlsl::ReduceAlgorithm::kHierarchical);
  EXPECT_EQ(c.topo.ranks_per_node, 4);
  EXPECT_DOUBLE_EQ(c.topo.intra.link_bandwidth_gbs, 5.5);
  EXPECT_DOUBLE_EQ(c.topo.inter.link_bandwidth_gbs, 1.25);
  EXPECT_DOUBLE_EQ(c.topo.intra.latency_us, 2.0);
  EXPECT_DOUBLE_EQ(c.topo.inter.latency_us, 40.0);
  // MultiNodeOptions::from_env delegates every communicator knob here.
  const mlsl::MultiNodeOptions o = mlsl::MultiNodeOptions::from_env();
  EXPECT_EQ(o.comm.algorithm, mlsl::ReduceAlgorithm::kHierarchical);
  EXPECT_EQ(o.comm.topo.ranks_per_node, 4);

  ::setenv("XCONV_MN_ALGO", "ring", 1);
  EXPECT_THROW(mlsl::CommConfig::from_env(), std::invalid_argument);
  ::setenv("XCONV_MN_ALGO", "hier", 1);
  for (const char* bad : {"0", "-2", "abc", ""}) {
    ::setenv("XCONV_MN_RANKS_PER_NODE", bad, 1);
    EXPECT_THROW(mlsl::CommConfig::from_env(), std::invalid_argument)
        << "RANKS_PER_NODE=" << bad;
  }
  ::unsetenv("XCONV_MN_RANKS_PER_NODE");
  for (const char* bad : {"-1", "nan", "junk"}) {
    ::setenv("XCONV_MN_INTRA_GBS", bad, 1);
    EXPECT_THROW(mlsl::CommConfig::from_env(), std::invalid_argument)
        << "INTRA_GBS=" << bad;
  }
  ::unsetenv("XCONV_MN_INTRA_GBS");
  ::setenv("XCONV_MN_INTER_LAT_US", "-5", 1);
  EXPECT_THROW(mlsl::CommConfig::from_env(), std::invalid_argument);
  ::unsetenv("XCONV_MN_ALGO");
  ::unsetenv("XCONV_MN_INTER_GBS");
  ::unsetenv("XCONV_MN_INTRA_LAT_US");
  ::unsetenv("XCONV_MN_INTER_LAT_US");
}

// Histogram-driven projection: per-bucket windows derived from measured
// waits replace the scalar backward-fraction window.
TEST(ScalingProjection, HistogramProfileDrivesExposedComm) {
  mlsl::ScalingConfig cfg;
  cfg.single_node_img_s = 100;
  cfg.local_minibatch = 16;
  cfg.gradient_bytes = 2 << 20;
  cfg.sync_overhead_frac = 0.0;
  cfg.net.link_bandwidth_gbs = 1.0;
  cfg.net.latency_us = 0.0;
  const int measured = 4;

  // Bucket 0 was fully hidden (wait 0), bucket 1 fully exposed (wait ==
  // its whole ring time at measurement scale).
  const std::size_t b4 = 1 << 20;
  const double t_meas = cfg.net.allreduce_seconds(b4, measured);
  cfg.measured_nodes = measured;
  cfg.bucket_bytes = {b4, b4};
  cfg.bucket_wait_seconds = {0.0, t_meas};

  // At measurement scale the projection reproduces the measurement: only
  // bucket 1's wait is exposed.
  const auto at_meas = mlsl::project_scaling(cfg, measured);
  EXPECT_NEAR(at_meas.exposed_comm_ms, t_meas * 1e3, 1e-9);

  // Scaling out, the hidden bucket absorbs growth only up to its window;
  // the exposed bucket exposes its full ring time.
  const int k = 16;
  const double t_k = cfg.net.allreduce_seconds(b4, k);
  const auto at_k = mlsl::project_scaling(cfg, k);
  EXPECT_NEAR(at_k.exposed_comm_ms, ((t_k - t_meas) + t_k) * 1e3, 1e-9);
  EXPECT_GT(at_k.exposed_comm_ms, at_meas.exposed_comm_ms);

  // Empty or inconsistent profiles fall back to the scalar window.
  mlsl::ScalingConfig legacy = cfg;
  legacy.bucket_bytes.clear();
  legacy.bucket_wait_seconds.clear();
  legacy.measured_nodes = 0;
  const auto fb = mlsl::project_scaling(legacy, k);
  mlsl::ScalingConfig bad = cfg;
  bad.bucket_wait_seconds.pop_back();  // size mismatch
  const auto fb2 = mlsl::project_scaling(bad, k);
  EXPECT_DOUBLE_EQ(fb.exposed_comm_ms, fb2.exposed_comm_ms);
  EXPECT_DOUBLE_EQ(fb.images_per_second, fb2.images_per_second);
}
