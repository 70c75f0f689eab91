// Multi-node data-parallel training harness: N simulated nodes (ranks), each
// with its own Graph replica, training synchronously with gradient averaging
// through the bucketized allreduce — the execution structure behind
// Figure 9.
//
// Gradients are packed into size-capped buckets in backward completion order
// and posted to the background comm-thread pool as soon as their last
// layer's dW is ready; the epilogue then imports and applies each bucket as
// it completes, so ranks only ever block on the next unfinished bucket — and
// the optimizer step of bucket b overlaps the reduction of bucket b+1. This
// is the paper's "allreduce ... completely overlapped" with the backward
// pass (Figure 9, ~90% parallel efficiency at 16 nodes). The bulk-synchronous
// baseline is the same path with bucket_cap_bytes >= the gradient size: one
// bucket, posted after backward, whose whole reduction is exposed.
//
// The wire payload runs through a pluggable variable-rate codec (fp32 |
// int16 | bf16 | topk, see mlsl/codec.hpp): weights stay fp32 masters on
// every rank; compressed codecs shrink wire bytes (2x fixed-rate for
// int16/bf16, sparsity-scaled for the top-k index+value payload) and carry
// error-feedback residuals so compressed trajectories stay within a bounded
// loss gap of fp32. Under the fp32 codec trajectories are bit-for-bit
// identical for every bucket cap.
#pragma once

#include <memory>
#include <vector>

#include "gxm/graph.hpp"
#include "gxm/parser.hpp"
#include "mlsl/allreduce.hpp"

namespace xconv::mlsl {

/// The trainer has one gradient-sync path; see MultiNodeOptions::mode.
enum class SyncMode { kOverlap };

struct MultiNodeOptions {
  /// Read by nothing. It exists only because benchsuite/bench_suite.cpp
  /// still assigns it; drop that assignment, then this field and SyncMode.
  SyncMode mode = SyncMode::kOverlap;
  /// Bucket payload cap. Buckets hold at least one layer; a layer larger
  /// than the cap gets a bucket of its own. A cap of at least the gradient
  /// size gives one bucket: the bulk-synchronous baseline. The 256 KiB
  /// default cuts even ResNet-mini's 787 KB gradient into several buckets,
  /// so the default run posts buckets during backward.
  std::size_t bucket_cap_bytes = std::size_t{256} << 10;
  /// Communication-substrate configuration, passed to the Communicator
  /// verbatim: codec, topk fraction, comm threads, wire models, topology
  /// and reduction algorithm all live here (they used to be duplicated as
  /// loose fields on this struct).
  CommConfig comm;

  /// Environment overrides on top of `defaults`. The trainer-level knob:
  ///   XCONV_MN_BUCKET_KB    = bucket cap in KiB (positive integer)
  /// plus every communicator knob of CommConfig::from_env (XCONV_MN_CODEC,
  /// _TOPK, _COMM_THREADS, _WIRE_GBS, _ALGO, _RANKS_PER_NODE, _INTRA_GBS,
  /// _INTER_GBS, _INTRA_LAT_US, _INTER_LAT_US), which this delegates to.
  /// Malformed values throw std::invalid_argument naming the variable.
  static MultiNodeOptions from_env(const MultiNodeOptions& defaults);
  static MultiNodeOptions from_env() { return from_env(MultiNodeOptions{}); }
};

struct MultiNodeStats {
  int nodes = 0;
  int iterations = 0;
  double seconds = 0;
  double images_per_second = 0;  ///< aggregate across nodes
  float last_loss = 0;           ///< rank-0 loss
  /// Logical fp32 ring bytes per rank per iteration (codec-independent;
  /// 0 on a single node — nothing moves).
  std::size_t allreduce_bytes_per_rank = 0;
  /// Measured wire bytes per rank per iteration under the configured codec
  /// (from the actual encoded payload sizes; 0 on a single node).
  std::size_t wire_bytes_per_rank = 0;
  /// Per-topology-level split of wire_bytes_per_rank (they always sum to
  /// it): bytes on the intra-node fabric vs the inter-node links.
  std::size_t intra_wire_bytes_per_rank = 0;
  std::size_t inter_wire_bytes_per_rank = 0;
  /// allreduce_bytes_per_rank / wire_bytes_per_rank (1.0 for fp32 and for
  /// single-node runs, where both byte counts are zero).
  double compression_ratio = 1.0;
  const char* codec = "fp32";
  /// Reduction schedule ("flat" | "hierarchical") and the resolved topology
  /// it ran over.
  const char* algorithm = "flat";
  int ranks_per_node = 1;
  int topo_nodes = 1;
  int comm_threads = 1;
  /// Rank-0 wall time blocked on gradient communication, summed over the
  /// run's iterations: the time inside each bucket's post and wait calls
  /// (the whole reduction with a single bucket). A post blocks when the
  /// comm thread it wakes takes the rank's core for the encode.
  double exposed_comm_seconds = 0;
  /// Rank-0 blocked post + wait time per bucket, summed over the run. Sums
  /// to exposed_comm_seconds.
  std::vector<double> bucket_wait_seconds;
  /// Per-bucket fp32 payload bytes — together with bucket_wait_seconds this
  /// is the measured overlap profile ScalingConfig consumes for
  /// histogram-based projection.
  std::vector<std::size_t> bucket_payload_bytes;
  /// Rank-0 error-feedback residual L2 norm after the run (0 for fp32).
  double residual_l2 = 0;
  std::size_t bucket_count = 0;  ///< buckets per iteration
  /// Largest bucket's fp32 payload bytes (gradient_bytes with one bucket).
  std::size_t bucket_bytes = 0;
  /// Whole flat gradient vector in fp32 bytes (bucket- and
  /// codec-independent).
  std::size_t gradient_bytes = 0;
};

class MultiNodeTrainer {
 public:
  /// Builds `nodes` graph replicas from the same topology (identical initial
  /// weights — node construction is deterministic) with per-rank data seeds.
  MultiNodeTrainer(const std::vector<gxm::NodeSpec>& topology, int nodes,
                   const gxm::GraphOptions& opt,
                   const MultiNodeOptions& mn = {});

  /// Synchronous data-parallel SGD: every iteration each rank runs
  /// fwd + bwd, gradients are allreduce-averaged bucket by bucket (through
  /// the configured codec), then every rank applies the same update —
  /// replicas stay bit-wise in sync. Throws std::invalid_argument for
  /// non-positive `iters`.
  MultiNodeStats train(int iters, const gxm::Solver& solver);

  gxm::Graph& rank_graph(int r) { return *graphs_[r]; }
  const MultiNodeOptions& options() const { return mn_; }
  const Communicator& comm() const { return comm_; }
  /// Bucket layout (backward order, cap-respecting).
  const std::vector<GradBucket>& buckets() const { return buckets_; }

 private:
  void build_buckets();

  int nodes_;
  MultiNodeOptions mn_;
  Communicator comm_;
  std::vector<std::unique_ptr<gxm::Graph>> graphs_;
  std::vector<std::vector<float>> grad_bufs_;
  std::vector<GradBucket> buckets_;
  /// Cumulative count of parameter-owning layers through bucket b: the walk
  /// posts bucket b right after hook #bucket_last_param_[b] fires.
  std::vector<std::size_t> bucket_last_param_;
};

}  // namespace xconv::mlsl
