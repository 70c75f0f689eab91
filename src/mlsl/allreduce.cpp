#include "mlsl/allreduce.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "platform/envparse.hpp"
#include "platform/timer.hpp"

namespace xconv::mlsl {

const char* reduce_algorithm_name(ReduceAlgorithm a) {
  return a == ReduceAlgorithm::kHierarchical ? "hierarchical" : "flat";
}

ReduceAlgorithm reduce_algorithm_from_name(const std::string& s) {
  if (s == "flat") return ReduceAlgorithm::kFlatRing;
  if (s == "hier" || s == "hierarchical") return ReduceAlgorithm::kHierarchical;
  throw std::invalid_argument(
      "reduce algorithm must be 'flat', 'hier' or 'hierarchical', got '" + s +
      "'");
}

CommConfig CommConfig::from_env(const CommConfig& defaults) {
  namespace env = platform::env;
  CommConfig c = defaults;
  if (const char* v = env::get("XCONV_MN_CODEC"))
    c.codec = codec_from_name(v);  // throws with the valid-name list
  if (const char* v = env::get("XCONV_MN_TOPK"))
    c.topk_fraction = env::fraction("XCONV_MN_TOPK", v);
  if (const char* v = env::get("XCONV_MN_COMM_THREADS"))
    c.comm_threads =
        static_cast<int>(env::positive_long("XCONV_MN_COMM_THREADS", v));
  if (const char* v = env::get("XCONV_MN_WIRE_GBS"))
    c.wire_gbs = env::nonneg_double("XCONV_MN_WIRE_GBS", v);
  if (const char* v = env::get("XCONV_MN_ALGO"))
    c.algorithm = reduce_algorithm_from_name(v);
  if (const char* v = env::get("XCONV_MN_RANKS_PER_NODE"))
    c.topo.ranks_per_node =
        static_cast<int>(env::positive_long("XCONV_MN_RANKS_PER_NODE", v));
  if (const char* v = env::get("XCONV_MN_INTRA_GBS"))
    c.topo.intra.link_bandwidth_gbs =
        env::nonneg_double("XCONV_MN_INTRA_GBS", v);
  if (const char* v = env::get("XCONV_MN_INTER_GBS"))
    c.topo.inter.link_bandwidth_gbs =
        env::nonneg_double("XCONV_MN_INTER_GBS", v);
  if (const char* v = env::get("XCONV_MN_INTRA_LAT_US"))
    c.topo.intra.latency_us = env::nonneg_double("XCONV_MN_INTRA_LAT_US", v);
  if (const char* v = env::get("XCONV_MN_INTER_LAT_US"))
    c.topo.inter.latency_us = env::nonneg_double("XCONV_MN_INTER_LAT_US", v);
  return c;
}

Communicator::Communicator(int ranks, const CommConfig& cfg)
    : ranks_(ranks), cfg_(cfg) {
  if (ranks < 1) throw std::invalid_argument("Communicator: ranks < 1");
  if (cfg.comm_threads < 1)
    throw std::invalid_argument("CommConfig: comm_threads must be >= 1");
  if (cfg.wire_gbs < 0.0)
    throw std::invalid_argument("CommConfig: wire_gbs must be >= 0");
  cfg_.topo.validate();
  // Resolve the topology against the actual rank count: derive the node
  // count when the config left it 0, otherwise insist on an exact match —
  // a silently truncated node grid would mis-route the hierarchy.
  topo_ = cfg_.topo;
  if (topo_.nodes == 0) {
    if (ranks % topo_.ranks_per_node != 0)
      throw std::invalid_argument(
          "Communicator: ranks not divisible by Topology::ranks_per_node");
    topo_.nodes = ranks / topo_.ranks_per_node;
  } else if (topo_.ranks() != ranks) {
    throw std::invalid_argument(
        "Communicator: Topology ranks (ranks_per_node * nodes) != "
        "communicator ranks");
  }
  // Legacy homogeneous wire: a scalar wire_gbs seeds both levels (latency 0)
  // when the topology carries no bandwidths of its own, so pre-topology
  // configurations keep their exact simulated-wire behavior.
  if (cfg.wire_gbs > 0.0 && topo_.intra.link_bandwidth_gbs == 0.0 &&
      topo_.inter.link_bandwidth_gbs == 0.0) {
    topo_.intra = NetworkModel{cfg.wire_gbs, 0.0};
    topo_.inter = NetworkModel{cfg.wire_gbs, 0.0};
  }
  rpn_ = topo_.ranks_per_node;
  nnodes_ = topo_.nodes;
  codec_ = make_codec(cfg.codec, cfg.topk_fraction);  // validates fraction
  barrier_ = std::make_unique<std::barrier<>>(ranks_);
  {
    // No other thread can exist yet; taken anyway so the guarded-member
    // write is analysis-clean without leaning on constructor exemptions.
    const platform::MutexLock lock(mu_);
    overlap_bufs_.assign(ranks_, nullptr);
  }
  residual_.resize(ranks_);
  node_residual_.resize(nnodes_);
}

Communicator::~Communicator() {
  {
    const platform::MutexLock lock(pool_mu_);
    pool_stop_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& t : rank_pool_)
    if (t.joinable()) t.join();
  {
    const platform::MutexLock lock(mu_);
    stop_comm_ = true;
  }
  cv_post_.notify_all();
  for (std::thread& t : comm_pool_)
    if (t.joinable()) t.join();
}

void Communicator::parallel(const std::function<void(int)>& fn) {
  if (ranks_ == 1) {
    fn(0);
    return;
  }
  platform::UniqueLock lk(pool_mu_);
  // Rank farm: spawn the R worker threads once, on first use, and
  // re-dispatch them per call via a generation counter — at 64+ ranks the
  // per-iteration cost is a broadcast + join instead of R thread spawns.
  if (rank_pool_.empty()) {
    rank_pool_.reserve(ranks_);
    for (int r = 0; r < ranks_; ++r)
      rank_pool_.emplace_back(&Communicator::rank_worker, this, r);
  }
  pool_fn_ = &fn;
  pool_err_ = nullptr;  // first exception of *this* generation wins
  pool_remaining_ = ranks_;
  ++pool_gen_;
  pool_cv_.notify_all();
  // Explicit wait loop (not a predicate lambda): the thread-safety analysis
  // treats a lambda as a separate unannotated function, so guarded-member
  // predicates must live in the annotated function body.
  while (pool_remaining_ != 0) pool_done_cv_.wait(lk);
  pool_fn_ = nullptr;
  std::exception_ptr err = pool_err_;
  pool_err_ = nullptr;
  lk.unlock();
  if (err) std::rethrow_exception(err);
}

void Communicator::rank_worker(int rank) {
  std::uint64_t seen = 0;
  platform::UniqueLock lk(pool_mu_);
  for (;;) {
    while (!(pool_stop_ || pool_gen_ != seen)) pool_cv_.wait(lk);
    if (pool_stop_) return;
    seen = pool_gen_;
    const std::function<void(int)>* fn = pool_fn_;
    lk.unlock();
    std::exception_ptr err;
    try {
      (*fn)(rank);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    // Publication is serialized by pool_mu_ (std::exception_ptr assignment
    // is not atomic, and two racing unsynchronized stores of a shared_ptr-
    // like type would be a real data race, not just a torn value); the
    // dispatcher rethrows after the last rank checks in. pool_remaining_
    // doubles as the release fence: the dispatcher only reads pool_err_
    // after observing pool_remaining_ == 0 under the same mutex.
    if (err && !pool_err_) pool_err_ = err;
    if (--pool_remaining_ == 0) pool_done_cv_.notify_all();
  }
}

void Communicator::barrier() {
  if (ranks_ > 1) barrier_->arrive_and_wait();
}

void Communicator::ensure_residuals(std::size_t n) {
  if (!codec_->uses_residual()) return;
  for (std::vector<float>& r : residual_)
    if (r.size() < n) r.resize(n, 0.0f);
  if (sum_residual_.size() < n) sum_residual_.resize(n, 0.0f);
  // The hierarchical schedule re-encodes per-node partial sums, which is a
  // third compression point with its own error-feedback state. Only sized
  // on hierarchical-capable topologies (p > 1 and N > 1).
  if (rpn_ > 1 && nnodes_ > 1)
    for (std::vector<float>& r : node_residual_)
      if (r.size() < n) r.resize(n, 0.0f);
}

double Communicator::residual_l2(int r) const {
  double s = 0.0;
  for (const float v : residual_[r]) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

CommStats Communicator::stats() const {
  const platform::MutexLock lock(stats_mu_);
  CommStats s;
  s.overlap_logical_bytes_per_rank = counters_.overlap_logical;
  s.wire_bytes_per_rank = counters_.wire;
  s.intra_wire_bytes_per_rank = counters_.intra;
  s.inter_wire_bytes_per_rank = counters_.inter;
  return s;
}

Communicator::WireSplit Communicator::split_wire(bool hier,
                                                 std::size_t contrib_total,
                                                 std::size_t partial_total,
                                                 std::size_t sum_bytes) const {
  WireSplit w;
  if (ranks_ <= 1) return w;
  if (!hier) {
    // Flat ring spans all R ranks: the traffic crosses the inter-node level
    // whenever the topology has more than one node (a single-node topology
    // keeps it on the intra fabric). 2*(R-1) latency-bearing ring steps.
    const std::size_t bytes = ring_wire_bytes(contrib_total, sum_bytes);
    const double steps = 2.0 * (ranks_ - 1);
    if (nnodes_ > 1) {
      w.inter_bytes = bytes;
      w.inter_steps = steps;
    } else {
      w.intra_bytes = bytes;
      w.intra_steps = steps;
    }
    return w;
  }
  // Hierarchical: intra-node reduce ships (p-1)/p of the mean contribution
  // payload per rank plus the (p-1)/p broadcast share of the reduced sum;
  // the leader ring ships (N-1)/N of the mean node-partial payload plus
  // (N-1)/N of the sum. Latency steps: 2(p-1) intra, 2(N-1) inter — the
  // step-count collapse (vs the flat ring's 2(R-1)) is where the
  // hierarchy's latency win comes from.
  const auto R = static_cast<std::size_t>(ranks_);
  const auto p = static_cast<std::size_t>(rpn_);
  const auto N = static_cast<std::size_t>(nnodes_);
  w.intra_bytes = (p - 1) * (contrib_total / R + sum_bytes) / p;
  w.inter_bytes = (N - 1) * (partial_total / N + sum_bytes) / N;
  w.intra_steps = 2.0 * static_cast<double>(p - 1);
  w.inter_steps = 2.0 * static_cast<double>(N - 1);
  return w;
}

double Communicator::wire_seconds(const WireSplit& w) const {
  if (ranks_ <= 1) return 0.0;
  // Per level: transmission of exactly the *published* byte count at the
  // level's bandwidth, plus the schedule's step count worth of per-message
  // latency. Zero bandwidth disables a level entirely (shared memory is the
  // wire), which also keeps legacy wire_gbs seeding latency-free.
  double t = 0.0;
  const NetworkModel& ia = topo_.intra;
  if (ia.link_bandwidth_gbs > 0.0)
    t += static_cast<double>(w.intra_bytes) / (ia.link_bandwidth_gbs * 1e9) +
         w.intra_steps * ia.chunk_messages * ia.latency_us * 1e-6;
  const NetworkModel& ie = topo_.inter;
  if (ie.link_bandwidth_gbs > 0.0)
    t += static_cast<double>(w.inter_bytes) / (ie.link_bandwidth_gbs * 1e9) +
         w.inter_steps * ie.chunk_messages * ie.latency_us * 1e-6;
  return t;
}

void Communicator::wait_out_wire(double delay, double elapsed) const {
  if (delay <= elapsed) return;
  // Sleep, don't spin: on an oversubscribed host a spinning comm thread
  // would steal the compute cycles the overlap is supposed to hide behind.
  std::this_thread::sleep_for(std::chrono::duration<double>(delay - elapsed));
}

// --- overlapped bucketized allreduce ---------------------------------------

void Communicator::set_buckets(std::vector<GradBucket> buckets) {
  // Size the error-feedback state to the flat-vector extent and the
  // per-thread wire scratch to the largest bucket — computed on the
  // argument before installing it, so no guarded state is read unlocked.
  std::size_t flat_elems = 0, max_bucket = 0;
  for (const GradBucket& bk : buckets) {
    max_bucket = std::max(max_bucket, bk.elems);
    for (const GradBucket::Segment& seg : bk.segments)
      flat_elems = std::max(flat_elems, seg.offset + seg.elems);
  }
  const std::size_t n_buckets = buckets.size();
  {
    const platform::MutexLock lock(mu_);
    // Best-effort diagnostic of a call from inside a round: while any of
    // its buckets is unreduced the comm pool may be reading buckets_ and
    // the residuals resized below. (It cannot see ranks still on their way
    // out of wait_all; the contract is "outside `parallel`".)
    for (const char d : done_)
      if (d == 0)
        throw std::logic_error(
            "Communicator::set_buckets: a round is in flight");
    buckets_ = std::move(buckets);
    posted_.assign(n_buckets, 0);
    // Nothing outstanding until overlap_begin opens a round.
    done_.assign(n_buckets, 1);
    next_bucket_ = n_buckets;
  }
  // The residual/scratch sizing below is safe outside the lock: set_buckets
  // runs outside `parallel`, so no rank is in a round and the comm pool is
  // idle and never touches this state while we resize it.
  ensure_residuals(flat_elems);
  comm_scratch_.resize(cfg_.comm_threads);
  if (cfg_.codec != Codec::kFp32) {  // the fp32 fast path sums in place
    // One wire payload of the largest bucket per comm thread — bounded
    // regardless of the rank count, so a 64+-rank farm does not scale
    // scratch with R. Codecs read and write the rank buffers in place.
    const std::size_t wire_need = codec_->max_encoded_bytes(max_bucket);
    for (CommScratch& s : comm_scratch_)
      if (s.wire.size() < wire_need) s.wire.resize(wire_need);
  }
  if (ranks_ > 1)
    while (static_cast<int>(comm_pool_.size()) < cfg_.comm_threads) {
      const int tid = static_cast<int>(comm_pool_.size());
      comm_pool_.emplace_back(&Communicator::comm_loop, this, tid);
    }
}

void Communicator::overlap_begin(int rank, float* buf) {
  // The previous round is fully drained (every rank passed wait_all), so the
  // comm pool is idle and the reset below cannot race with a reduction.
  barrier();
  {
    const platform::MutexLock lock(mu_);
    overlap_bufs_[rank] = buf;
    if (rank == 0) {
      std::fill(posted_.begin(), posted_.end(), 0);
      std::fill(done_.begin(), done_.end(), static_cast<char>(0));
      next_bucket_ = 0;
    }
  }
  if (rank == 0) {
    const platform::MutexLock lock(stats_mu_);
    counters_.overlap_logical = 0;
    counters_.wire = 0;
    counters_.intra = 0;
    counters_.inter = 0;
  }
  barrier();
}

std::size_t Communicator::bucket_count() const {
  const platform::MutexLock lock(mu_);
  return buckets_.size();
}

void Communicator::post_bucket(int rank, std::size_t b) {
  const platform::MutexLock lock(mu_);
  if (b >= buckets_.size())
    throw std::out_of_range("Communicator::post_bucket: bad bucket index");
  if (ranks_ == 1) {  // nothing to reduce; the bucket completes immediately
    done_[b] = 1;
    return;
  }
  (void)rank;
  ++posted_[b];
  // notify_all: with a comm-thread pool, every idle thread must get a chance
  // to claim (a notify_one could land on a thread already mid-reduction).
  cv_post_.notify_all();
}

void Communicator::wait_bucket(int rank, std::size_t b) {
  (void)rank;
  platform::UniqueLock lk(mu_);
  if (b >= buckets_.size())
    throw std::out_of_range("Communicator::wait_bucket: bad bucket index");
  while (done_[b] == 0) cv_done_.wait(lk);
}

void Communicator::wait_all(int /*rank*/) {
  platform::UniqueLock lk(mu_);
  // Bucket-by-bucket sweep instead of an all_of predicate: done_ flags only
  // transition 0 -> 1 within a round, so waiting them out in index order is
  // equivalent to waiting for all — and keeps every guarded access in this
  // annotated function body (no predicate lambda).
  for (std::size_t b = 0; b < done_.size(); ++b)
    while (done_[b] == 0) cv_done_.wait(lk);
}

void Communicator::comm_loop(int tid) {
  platform::UniqueLock lk(mu_);
  for (;;) {
    while (!(stop_comm_ || (next_bucket_ < buckets_.size() &&
                            posted_[next_bucket_] == ranks_)))
      cv_post_.wait(lk);
    if (stop_comm_) return;
    // Buckets are claimed strictly in index order; ranks post in the same
    // order, so a fully-posted bucket b implies 0..b-1 were fully posted
    // (and therefore already claimed) before it. With comm_threads > 1,
    // several claimed buckets are reduced concurrently — they are disjoint
    // flat-vector slices, so reductions never alias.
    while (next_bucket_ < buckets_.size() &&
           posted_[next_bucket_] == ranks_) {
      const std::size_t b = next_bucket_++;
      // Snapshot the handed-off state under the lock: the bucket layout is
      // immutable during a round (set_buckets contract) and the buffer
      // registrations were ordered before every post by mu_ itself.
      const GradBucket* bk = &buckets_[b];
      const std::vector<float*> bufs = overlap_bufs_;
      lk.unlock();
      reduce_bucket(*bk, bufs, comm_scratch_[tid]);
      lk.lock();
      done_[b] = 1;
      cv_done_.notify_all();
    }
  }
}

void Communicator::reduce_bucket(const GradBucket& bk,
                                 const std::vector<float*>& bufs,
                                 CommScratch& scratch) {
  const int R = ranks_;
  // The schedule is resolved per bucket: an explicit GradBucket::algorithm
  // wins, else the communicator default; hierarchical degenerates to flat
  // on non-hierarchical topologies.
  const bool hier = hier_effective(bk.algorithm.value_or(cfg_.algorithm));
  platform::Timer tx;
  const std::size_t n = bk.elems;
  std::size_t contrib_bytes = 0, partial_bytes = 0, sum_bytes = 0;
  if (cfg_.codec == Codec::kFp32) {
    // Exact-codec fast path: fp32's encode/decode are memcpys, so sum in
    // place across the rank buffers —
    // one fused pass, no scratch traffic on the comm threads whose
    // bandwidth the overlap is supposed to leave to backward compute. The
    // canonical rank order 0..R-1 matches the generic path bit for bit, and
    // serves both schedules — flat vs hierarchical differ only in the byte
    // split and delay below, keeping fp32 bitwise schedule-independent.
    for (const GradBucket::Segment& seg : bk.segments) {
      const std::size_t lo = seg.offset, hi = seg.offset + seg.elems;
      for (std::size_t i = lo; i < hi; ++i) {
        float acc = bufs[0][i];
        for (int r = 1; r < R; ++r) acc += bufs[r][i];
        for (int r = 0; r < R; ++r) bufs[r][i] = acc;
      }
    }
    // What the wire would have carried: one exact payload per leg.
    const std::size_t payload = codec_->max_encoded_bytes(n);
    contrib_bytes = static_cast<std::size_t>(R) * payload;
    partial_bytes = static_cast<std::size_t>(nnodes_) * payload;
    sum_bytes = payload;
  } else {
    // Generic variable-rate path, in place: every contribution is encoded
    // straight from its rank buffer's bucket segments with that rank's
    // residual, and the decoded contributions accumulate in canonical order
    // into the accumulating rank's own buffer. Between post and wait the
    // comm thread owns every rank's bucket slices (post_bucket contract),
    // and each buffer is encoded before it is overwritten, so the only
    // scratch is one wire payload.
    const bool ef = codec_->uses_residual();
    const PayloadSegments segs(bk.segments);
    std::uint8_t* wire = scratch.wire.data();
    // One hop: encode `src` with error feedback `res` onto the wire, then
    // reduce the payload into `acc` (overwrite for the first operand).
    const auto hop = [&](const float* src, std::vector<float>& res, float* acc,
                         bool first) {
      const std::size_t wb = codec_->encode(src, ef ? res.data() : nullptr,
                                            segs, wire, scratch.ws);
      if (first)
        codec_->decode(wire, wb, acc, segs);
      else
        codec_->decode_accumulate(wire, wb, acc, segs);
      return wb;
    };
    if (hier) {
      // Two-level pipeline: each node leader's buffer accumulates its
      // node's contributions (canonical rank order within the node); the
      // node-partial is re-encoded with the node's own error-feedback
      // residual — a genuine third compression point, what a real leader
      // ring would put on the inter-node wire — and the decoded partials
      // accumulate into rank 0's buffer in canonical node order 0..N-1.
      const int p = rpn_;
      for (int g = 0; g < nnodes_; ++g) {
        float* part = bufs[g * p];
        for (int j = 0; j < p; ++j)
          contrib_bytes += hop(bufs[g * p + j], residual_[g * p + j], part,
                               j == 0);
        partial_bytes += hop(part, node_residual_[g], bufs[0], g == 0);
      }
    } else {
      // Flat ring: the decoded contributions accumulate into rank 0's
      // buffer in canonical rank order 0..R-1.
      for (int r = 0; r < R; ++r)
        contrib_bytes += hop(bufs[r], residual_[r], bufs[0], r == 0);
    }
    // Sum re-encode for the allgather/broadcast leg with its own shared
    // residual; every rank decodes the same payload, so replicas stay in
    // sync under either schedule.
    sum_bytes = codec_->encode(bufs[0], ef ? sum_residual_.data() : nullptr,
                               segs, wire, scratch.ws);
    for (int r = 0; r < R; ++r) codec_->decode(wire, sum_bytes, bufs[r], segs);
  }

  const WireSplit ws = split_wire(hier, contrib_bytes, partial_bytes,
                                  sum_bytes);
  {
    // One locked update for all four counters: the old per-counter relaxed
    // fetch_adds let a concurrent stats() reader land between two of them
    // and observe intra + inter != wire. The lock makes the per-level sum
    // invariant hold in every snapshot (and is uncontended off the stats
    // path: one acquisition per bucket reduction).
    const platform::MutexLock lock(stats_mu_);
    counters_.overlap_logical += ring_bytes(bk.elems, sizeof(float));
    counters_.wire += ws.total();
    counters_.intra += ws.intra_bytes;
    counters_.inter += ws.inter_bytes;
  }
  // The simulated wire waits out exactly the byte split published above.
  wait_out_wire(wire_seconds(ws), tx.seconds());
}

}  // namespace xconv::mlsl
