// In-process data-parallel communication substrate standing in for Intel
// MLSL (DESIGN.md substitution; paper Section II-L / III-C). Ranks are
// threads sharing an address space, and the gradient reduction is the
// bucketized overlapped allreduce the paper describes ("the allreduce of the
// gradient weights in the backward pass is completely overlapped"):
// size-capped buckets are installed once (set_buckets), each rank opens a
// round (overlap_begin), posts buckets in backward order as their gradients
// become ready (post_bucket), and a pool of background communication threads
// — the stand-in for the paper's dedicated MLSL comm cores — reduces every
// fully posted bucket while the ranks keep computing (wait_bucket /
// wait_all). A bulk-synchronous allreduce is the degenerate layout: one
// bucket spanning the whole gradient, posted after backward.
//
// The data movement is an in-place canonical bucket sum: the comm thread
// that claims a bucket accumulates every rank's slices in rank order
// 0..R-1 (through the codec's wire payloads for compressed codecs) and
// writes the result back to all ranks. No ring moves data. The ring exists
// only in the byte accounting (split_wire / ring_bytes) and in the
// simulated wire delay, which charge each bucket what a ring over the
// Topology would put on the wire.
//
// The Communicator knows the *shape* of the machine it simulates: a
// Topology (mlsl/netmodel.hpp) groups `ranks_per_node` ranks onto each of
// `nodes` nodes with one NetworkModel per level, and a ReduceAlgorithm picks
// the reduction schedule — the flat ring over all R ranks, or the two-level
// hierarchical schedule (intra-node reduce -> inter-node ring over node
// leaders -> intra-node broadcast) that real MLSL deployments use once R
// outgrows a single ring. The algorithm is fixed per communicator.
//
// `parallel` runs ranks on a persistent rank-thread pool (the "rank farm"):
// R threads are spawned once on first use and re-dispatched per call, so a
// 64+-rank communicator costs R threads for its lifetime instead of R
// thread spawns per collective, and comm scratch stays bounded at one
// encoded bucket payload per comm thread regardless of R.
//
// Payloads run through a pluggable variable-rate codec (mlsl/codec.hpp):
// fp32 passthrough, fixed-rate compressed int16 / bf16 payloads, or the
// sparsified top-k index+value payload, with per-rank error-feedback
// residuals at both compression points (contribution and reduced-sum legs).
// Every compressed contribution is encoded into an explicit wire buffer
// whose byte count the codec reports per payload, and decoded contributions
// are accumulated in canonical rank order, so (a) every rank ends up with
// bit-identical reduced values and (b) with the fp32 codec (whose
// encode/decode are exact memcpys) training trajectories match bit for bit
// regardless of bucket layout — one bucket or many. Compressed payloads
// keep property (a) — replicas never diverge — while trading bit-exactness
// against fp32 for less wire traffic (2x fixed for int16/bf16,
// sparsity-dependent for top-k).
//
// Bitwise flat == hierarchical under fp32: the fp32 data plane performs the
// *same* canonical in-place accumulation for both algorithms (fp32 wire
// hops are exact memcpys, so a real two-level data movement would reproduce
// it bit for bit anyway); the hierarchy changes only the byte accounting
// and the simulated-wire delay. Compressed codecs run a genuine two-level
// pipeline — intra-node partial sums are re-encoded (with their own
// per-node error-feedback residual) before crossing the inter-node wire —
// so their hierarchical results differ from flat by one extra quantization,
// while replica synchrony is preserved: every rank still decodes the same
// final sum payload.
//
// The wire counters publish *measured* encoded bytes split by level. When a
// level's bandwidth is positive, every bucket reduction additionally waits
// out the transmission time of exactly the published byte count at that
// level's bandwidth plus its per-message latency for the schedule's step
// count, so compression and topology measurably shrink exposed
// communication and the delay can never drift from the counters. The
// legacy scalar CommConfig::wire_gbs seeds both levels (latency 0) when the
// Topology carries no bandwidths of its own, reproducing the old
// homogeneous wire.
#pragma once

#include <barrier>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mlsl/codec.hpp"
#include "mlsl/netmodel.hpp"
#include "platform/sync.hpp"
#include "platform/thread_annotations.hpp"

namespace xconv::mlsl {

/// Reduction schedule over the Topology.
enum class ReduceAlgorithm {
  kFlatRing,      ///< one ring over all R ranks (the classic schedule)
  kHierarchical,  ///< intra-node reduce -> leader ring -> intra broadcast
};

const char* reduce_algorithm_name(ReduceAlgorithm a);
/// Parse "flat" | "hier" | "hierarchical"; throws std::invalid_argument
/// otherwise.
ReduceAlgorithm reduce_algorithm_from_name(const std::string& s);

/// One allreduce bucket: disjoint [offset, offset+elems) slices of the flat
/// gradient vector that are reduced as a unit. Slices need not be contiguous
/// — buckets follow the backward completion order of the layers they carry,
/// while the flat vector keeps the network-list layout.
struct GradBucket {
  using Segment = PayloadSegment;
  std::vector<Segment> segments;
  std::size_t elems = 0;  ///< total across segments
  std::size_t bytes() const { return elems * sizeof(float); }
};

/// Communication-substrate configuration (fixed for the Communicator's
/// lifetime, like an MLSL environment).
struct CommConfig {
  /// Wire payload codec of every bucket reduction.
  Codec codec = Codec::kFp32;
  /// Background comm threads servicing the bucket queue — the stand-in for
  /// >1 dedicated MLSL comm cores. Must be >= 1.
  int comm_threads = 1;
  /// Legacy homogeneous simulated link bandwidth in GB/s: when > 0 and the
  /// topology below carries no bandwidths of its own, it seeds *both*
  /// topology levels (latency 0), reproducing the pre-topology behavior
  /// where every reduction waits out its ring transmission time. 0 leaves
  /// the topology in charge (shared memory is the wire if that is zero too).
  double wire_gbs = 0.0;
  /// Kept coordinate fraction for Codec::kTopK, in (0, 1] (ignored by the
  /// dense codecs; at least one coordinate per payload is always kept).
  double topk_fraction = 0.1;
  /// Reduction schedule of every bucket. kHierarchical degenerates to the
  /// flat ring whenever the topology has a single node or one rank per node.
  ReduceAlgorithm algorithm = ReduceAlgorithm::kFlatRing;
  /// Machine shape: ranks_per_node x nodes with per-level wire models.
  /// Topology::nodes == 0 (the default) derives the node count from the
  /// communicator's rank count; otherwise ranks_per_node * nodes must equal
  /// it exactly.
  Topology topo;

  /// Environment overrides on top of `defaults` (shared with
  /// MultiNodeOptions::from_env, which delegates here):
  ///   XCONV_MN_CODEC          = fp32 | int16 | bf16 | topk
  ///   XCONV_MN_TOPK           = top-k kept fraction, in (0, 1]
  ///   XCONV_MN_COMM_THREADS   = comm-thread pool size (positive integer)
  ///   XCONV_MN_WIRE_GBS       = legacy homogeneous bandwidth, GB/s (>= 0)
  ///   XCONV_MN_ALGO           = flat | hier | hierarchical
  ///   XCONV_MN_RANKS_PER_NODE = topology ranks per node (positive integer)
  ///   XCONV_MN_INTRA_GBS      = intra-node bandwidth, GB/s (>= 0; 0 off)
  ///   XCONV_MN_INTER_GBS      = inter-node bandwidth, GB/s (>= 0; 0 off)
  ///   XCONV_MN_INTRA_LAT_US   = intra-node per-message latency, us (>= 0)
  ///   XCONV_MN_INTER_LAT_US   = inter-node per-message latency, us (>= 0)
  /// Malformed values throw std::invalid_argument naming the variable.
  static CommConfig from_env(const CommConfig& defaults);
  static CommConfig from_env() { return from_env(CommConfig{}); }
};

/// One-stop traffic snapshot of the current/last round, returned by value
/// from Communicator::stats(). Naming is explicit about the long-standing
/// logical-vs-measured split: "logical" counts codec-independent fp32 ring
/// bytes (what an uncompressed flat ring would move — the numerator of the
/// compression ratio); "wire" counts measured encoded payload bytes (what
/// the simulated wire actually delays on), split by topology level.
/// Snapshots are internally consistent: all four counters are published
/// under one lock, so `intra + inter == wire` holds in every snapshot,
/// including mid-round.
struct CommStats {
  /// Logical fp32 ring bytes per rank accumulated over the current/last
  /// round.
  std::size_t overlap_logical_bytes_per_rank = 0;
  /// Measured (codec-encoded) wire bytes per rank — always equals
  /// intra + inter below.
  std::size_t wire_bytes_per_rank = 0;
  std::size_t intra_wire_bytes_per_rank = 0;  ///< intra-node level share
  std::size_t inter_wire_bytes_per_rank = 0;  ///< inter-node level share
};

class Communicator {
 public:
  explicit Communicator(int ranks, const CommConfig& cfg = {});
  ~Communicator();

  int ranks() const { return ranks_; }
  const CommConfig& config() const { return cfg_; }
  /// Resolved topology: nodes derived from the rank count when the config
  /// left it 0, per-level wire models seeded from the legacy wire_gbs when
  /// the config topology carried none.
  const Topology& topology() const { return topo_; }

  /// Run `fn(rank)` on all ranks concurrently. Dispatches onto the
  /// persistent rank-thread pool (spawned lazily on first use), so calling
  /// this per training iteration costs a broadcast + join, not R thread
  /// spawns. The first exception thrown by any rank is rethrown to the
  /// caller after all ranks finish the call.
  void parallel(const std::function<void(int)>& fn);

  /// Traffic counters as one value snapshot, taken under the counter lock —
  /// concurrent readers are well-defined and every snapshot satisfies
  /// `intra + inter == wire` (a mid-round read of the overlap counters still
  /// sees a partial round, but never a torn per-level split; see the
  /// counters_ member note).
  CommStats stats() const;

  // --- overlapped bucketized allreduce ------------------------------------

  /// Install the bucket layout (identical on every rank) and start the
  /// background comm-thread pool. Not a collective, and callable only
  /// outside `parallel`: before the first round, and again whenever the
  /// layout changes once every rank has returned from the last round's
  /// `wait_all`. A call from inside a round is a contract violation; while
  /// a bucket of the current round is still outstanding it is detected,
  /// best effort, by a std::logic_error that leaves the installed layout
  /// untouched.
  void set_buckets(std::vector<GradBucket> buckets);

  /// Begin an overlapped round (collective): registers this rank's flat
  /// gradient buffer and resets per-bucket completion state. The previous
  /// round must have been drained with `wait_all`.
  void overlap_begin(int rank, float* buf);

  /// Mark this rank's contribution to bucket `b` as ready. A comm thread
  /// claims bucket `b` (buckets are claimed in index order, but a pool may
  /// reduce several concurrently) once all ranks posted it. After posting,
  /// the rank must not touch the bucket's slices of its buffer until
  /// `wait_bucket(b)` / `wait_all` returns: the comm thread reads and writes
  /// every rank's slices in place (compressed codecs accumulate into a
  /// rank's own buffer).
  void post_bucket(int rank, std::size_t b);

  /// Block until bucket `b` holds the reduced sum in this rank's buffer.
  void wait_bucket(int rank, std::size_t b);

  /// Block until every bucket of the current round is reduced.
  void wait_all(int rank);

  std::size_t bucket_count() const;

  // --- error-feedback state (valid while no reduction is in flight) -------

  /// Rank `r`'s contribution-leg residual (empty for the fp32 codec).
  const std::vector<float>& residual(int r) const { return residual_[r]; }
  /// Shared reduced-sum-leg residual (empty for the fp32 codec).
  const std::vector<float>& sum_residual() const { return sum_residual_; }
  /// Node `g`'s partial-sum-leg residual, used by the hierarchical schedule
  /// under compressed codecs (empty for fp32 / flat-only topologies).
  const std::vector<float>& node_residual(int g) const {
    return node_residual_[g];
  }
  /// L2 norm of rank `r`'s contribution residual (0 for fp32).
  double residual_l2(int r) const;

 private:
  /// Per-comm-thread codec workspace: one encoded wire payload of the
  /// largest bucket. The codecs read and write the rank buffers in place
  /// through the bucket's segment list, so no float staging area exists —
  /// bounded per comm thread and independent of the rank count, which is
  /// what lets the farm scale.
  struct CommScratch {
    std::vector<std::uint8_t> wire;
    /// Codec selection workspace (top-k index/magnitude buffers), hoisted
    /// here so each comm thread allocates once and reuses across buckets.
    CodecWorkspace ws;
  };

  /// Per-reduction wire traffic split by topology level, plus the latency
  /// step count each level's schedule performs. The published per-level
  /// byte counters and the simulated delay both come from this one struct,
  /// so they stay in lockstep by construction.
  struct WireSplit {
    std::size_t intra_bytes = 0;
    std::size_t inter_bytes = 0;
    double intra_steps = 0;
    double inter_steps = 0;
    std::size_t total() const { return intra_bytes + inter_bytes; }
  };

  void rank_worker(int rank);
  /// Rank barrier (called from within `parallel` by every rank).
  void barrier();
  void comm_loop(int tid);
  /// Reduce one claimed bucket. `bufs` is a snapshot of overlap_bufs_ taken
  /// under mu_ by the claiming comm thread — reduce_bucket itself runs
  /// unlocked (the post -> claim handshake already ordered it after every
  /// rank's overlap_begin/post_bucket writes).
  void reduce_bucket(const GradBucket& bk, const std::vector<float*>& bufs,
                     CommScratch& scratch);
  void ensure_residuals(std::size_t n);
  /// True when `a` actually changes the schedule: a hierarchical request on
  /// a single-node or one-rank-per-node topology degenerates to the flat
  /// ring.
  bool hier_effective(ReduceAlgorithm a) const {
    return a == ReduceAlgorithm::kHierarchical && rpn_ > 1 && nnodes_ > 1;
  }
  /// Split one reduction's measured encoded bytes across topology levels
  /// for the given schedule. `contrib_total` sums all R contribution
  /// payloads, `partial_total` all N node-partial payloads (hierarchical
  /// only), `sum_bytes` the encoded reduced sum.
  WireSplit split_wire(bool hier, std::size_t contrib_total,
                       std::size_t partial_total,
                       std::size_t sum_bytes) const;
  double wire_seconds(const WireSplit& w) const;
  void wait_out_wire(double delay, double elapsed) const;
  std::size_t ring_bytes(std::size_t n, std::size_t elem_bytes) const {
    return 2 * (static_cast<std::size_t>(ranks_) - 1) * n * elem_bytes /
           static_cast<std::size_t>(ranks_);
  }
  /// Flat-ring per-rank wire bytes from measured encode() sizes: the ring
  /// ships (R-1)/R of the mean contribution payload and (R-1)/R of the
  /// encoded reduced sum.
  std::size_t ring_wire_bytes(std::size_t contrib_bytes_total,
                              std::size_t sum_bytes) const {
    const auto r = static_cast<std::size_t>(ranks_);
    return (r - 1) * (contrib_bytes_total / r + sum_bytes) / r;
  }

  // Fixed by the constructor and only read afterwards (std::barrier is
  // itself thread-safe), so shared by every thread without a lock.
  int ranks_;
  CommConfig cfg_;
  Topology topo_;  ///< resolved (nodes derived, legacy wire seeded)
  int rpn_ = 1;    ///< topo_.ranks_per_node
  int nnodes_ = 1; ///< topo_.nodes
  std::unique_ptr<const PayloadCodec> codec_;  ///< per cfg_.codec (+fraction)
  std::unique_ptr<std::barrier<>> barrier_;

  // Persistent rank-thread pool ("rank farm"): `parallel` bumps the
  // generation and workers run the installed fn once per generation. All
  // dispatch state is guarded by pool_mu_ (machine-checked via the
  // annotations below); the first exception of a generation wins and is
  // rethrown by the dispatching thread. rank_pool_ itself is unannotated on
  // purpose: it is only ever mutated by the dispatching thread (spawn on
  // first use under pool_mu_, join in the destructor where the lock must NOT
  // be held or the workers could never observe pool_stop_).
  std::vector<std::thread> rank_pool_;
  platform::Mutex pool_mu_;
  platform::CondVar pool_cv_, pool_done_cv_;
  const std::function<void(int)>* pool_fn_ XCONV_GUARDED_BY(pool_mu_) =
      nullptr;
  std::uint64_t pool_gen_ XCONV_GUARDED_BY(pool_mu_) = 0;
  int pool_remaining_ XCONV_GUARDED_BY(pool_mu_) = 0;
  bool pool_stop_ XCONV_GUARDED_BY(pool_mu_) = false;
  std::exception_ptr pool_err_ XCONV_GUARDED_BY(pool_mu_);

  // Error-feedback state (sized to the flat vector by set_buckets; empty
  // for exact codecs, i.e. fp32). node_residual_ is sized only on
  // hierarchical-capable topologies. Unannotated by single ownership, like
  // the rank buffers themselves: set_buckets resizes the vectors only
  // outside `parallel`, and during a round the comm thread that claimed
  // bucket b is the sole toucher of bucket b's slices (buckets are disjoint
  // and claimed once, under mu_). The const accessors above read them only
  // between rounds.
  std::vector<std::vector<float>> residual_;
  std::vector<float> sum_residual_;
  std::vector<std::vector<float>> node_residual_;

  // Overlap state, guarded by `mu_` (machine-checked): bucket payload data
  // is handed off through the mutex (post -> claim -> reduce -> wait), so
  // rank threads and comm threads never race on buffer slices, and two comm
  // threads never claim the same bucket. The comm threads snapshot
  // `overlap_bufs_`/`&buckets_[b]` under the lock before reducing unlocked.
  mutable platform::Mutex mu_;  // mutable: const readers (bucket_count) lock
  platform::CondVar cv_post_, cv_done_;
  std::vector<GradBucket> buckets_ XCONV_GUARDED_BY(mu_);
  std::vector<float*> overlap_bufs_ XCONV_GUARDED_BY(mu_);
  std::vector<int> posted_ XCONV_GUARDED_BY(mu_);
  std::vector<char> done_ XCONV_GUARDED_BY(mu_);
  std::size_t next_bucket_ XCONV_GUARDED_BY(mu_) = 0;
  bool stop_comm_ XCONV_GUARDED_BY(mu_) = false;
  // comm_pool_/comm_scratch_ are unannotated by contract: the pool vector is
  // mutated only by set_buckets (outside `parallel`), and comm thread `tid`
  // is the sole toucher of comm_scratch_[tid].
  std::vector<std::thread> comm_pool_;
  std::vector<CommScratch> comm_scratch_;  ///< per comm thread

  // Traffic counters. One lock guards all four so the per-level split can
  // never tear: the previous implementation used independent relaxed
  // atomics, which let a concurrent stats() reader observe
  // intra + inter != wire between two fetch_adds of the same reduction.
  // Relaxed ordering is fine for a monotonic counter but cannot express a
  // multi-word invariant — that is exactly what a mutex is for, and the
  // GUARDED_BY annotation makes the compiler enforce it.
  struct Counters {
    std::size_t overlap_logical = 0; ///< current/last round, fp32 ring bytes
    std::size_t wire = 0;            ///< measured encoded bytes (intra+inter)
    std::size_t intra = 0;
    std::size_t inter = 0;
  };
  mutable platform::Mutex stats_mu_;
  Counters counters_ XCONV_GUARDED_BY(stats_mu_);
};

}  // namespace xconv::mlsl
