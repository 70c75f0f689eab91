// Simulated multi-node data-parallel training (paper Section III-C /
// Figure 9): N node replicas train synchronously with weight gradients
// averaged through the overlapped bucketized allreduce (the in-process MLSL
// substitute), then the analytic Omni-Path model projects strong scaling on
// the paper's 16-node clusters.
//
// Usage: ./examples/multinode_training [ranks] [iters]
// Environment: XCONV_MN_BUCKET_KB caps the bucket payload (size-capped
// buckets are posted during backward — the paper's overlapped allreduce —
// and each bucket's update is applied as it completes; a cap of at least the
// gradient size, e.g. 1048576, gives one bucket: the bulk-synchronous
// baseline),
// XCONV_MN_CODEC=fp32|int16|bf16|topk picks the wire codec (fixed-rate
// compressed codecs halve wire bytes; the sparsified top-k payload keeps
// only the XCONV_MN_TOPK fraction of each bucket's coordinates — all with
// error feedback), XCONV_MN_COMM_THREADS sizes the comm-thread pool, and
// XCONV_MN_WIRE_GBS enables the simulated-wire delay model. Topology knobs:
// XCONV_MN_ALGO=flat|hier picks the reduction schedule,
// XCONV_MN_RANKS_PER_NODE shapes the two-level topology, and
// XCONV_MN_INTRA_GBS / XCONV_MN_INTER_GBS / XCONV_MN_INTRA_LAT_US /
// XCONV_MN_INTER_LAT_US set the heterogeneous per-level wire models.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "mlsl/netmodel.hpp"
#include "mlsl/scaling.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;

int main(int argc, char** argv) {
  int ranks = 2, iters = 20;
  if (argc > 1) ranks = std::atoi(argv[1]);
  if (argc > 2) iters = std::atoi(argv[2]);
  if (ranks < 1 || iters < 1) {
    std::fprintf(stderr, "usage: %s [ranks >= 1] [iters >= 1]\n", argv[0]);
    return 2;
  }

  const auto nl = gxm::parse_topology(topo::resnet_mini_topology(8, 32, 4));
  gxm::GraphOptions opt;
  const auto mn = mlsl::MultiNodeOptions::from_env();
  mlsl::MultiNodeTrainer trainer(nl, ranks, opt, mn);
  gxm::Solver solver;
  solver.lr = 0.01f;

  const mlsl::Topology& topo = trainer.comm().topology();
  std::printf("synchronous SGD on %d simulated nodes (ResNet-mini, distinct "
              "data shards, allreduce on %zu gradient elements in %zu "
              "bucket%s, %s wire payload, %s schedule over %dx%d topology, "
              "%d comm thread%s)\n",
              ranks, trainer.rank_graph(0).grad_elems(),
              trainer.buckets().size(),
              trainer.buckets().size() == 1 ? "" : "s",
              mlsl::codec_name(mn.comm.codec),
              mlsl::reduce_algorithm_name(mn.comm.algorithm),
              topo.ranks_per_node, topo.nodes, mn.comm.comm_threads,
              mn.comm.comm_threads == 1 ? "" : "s");

  // Report in chunks of up to 5 iterations; the final chunk carries the
  // remainder (a `iters / 5` loop used to drop `iters % 5` iterations and
  // run nothing at all for iters < 5).
  for (int done = 0; done < iters;) {
    const int step = std::min(5, iters - done);
    const auto st = trainer.train(step, solver);
    std::printf("  iters %3d-%3d: loss %.4f, %.1f aggregate img/s, "
                "allreduce %zu wire B/rank (%.2gx), exposed comm %.2f ms\n",
                done, done + step - 1, st.last_loss, st.images_per_second,
                st.wire_bytes_per_rank, st.compression_ratio,
                1e3 * st.exposed_comm_seconds);
    done += step;
  }

  std::printf("\nprojected strong scaling on the paper's clusters "
              "(ResNet-50, allreduce overlapped with backprop):\n");
  mlsl::ScalingConfig cfg;
  cfg.single_node_img_s = 192;  // KNM, paper Figure 9
  cfg.local_minibatch = 70;
  cfg.gradient_bytes = 25557032ull * 4;
  cfg.comm_core_penalty = 62.0 / 70.0;
  for (int k : {1, 2, 4, 8, 16}) {
    const auto pt = mlsl::project_scaling(cfg, k);
    std::printf("  KNM x%2d: %7.1f img/s (parallel efficiency %.1f%%)\n", k,
                pt.images_per_second, 100 * pt.parallel_efficiency);
  }
  std::printf("  paper: 2430 img/s at 16 KNM nodes (~90%% efficiency)\n");
  return 0;
}
