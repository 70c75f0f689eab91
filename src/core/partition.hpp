// Work partitioning across threads (paper Section II-F).
//
// The forward/backward drivers flatten their independent work items in
// priority order minibatch -> output feature block -> spatial block (threads
// sharing the weight tensor from shared caches first), then hand each thread
// a contiguous chunk. The weight-update pass chooses between task-parallel
// (shared dW) and minibatch-parallel (per-thread dW copies + reduction)
// decompositions, or a hybrid (Section II-J).
#pragma once

#include <cstdint>
#include <string>

namespace xconv::core {

struct Range {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t size() const { return end - begin; }
  bool empty() const { return end <= begin; }
};

/// Contiguous near-equal chunk of [0, total) for thread `tid` of `nthreads`.
Range thread_chunk(std::int64_t total, int tid, int nthreads);

/// Weight-update parallelization strategy (Section II-J).
enum class UpdStrategy {
  task,        ///< parallelize over (kb, cb, r, s) blocks; one shared dW
  minibatch,   ///< parallelize over N; per-thread dW copies + tree reduction
  hybrid,      ///< thread groups: minibatch across groups, task within
};

const char* upd_strategy_name(UpdStrategy s);

/// Dryrun-time decision: pick the strategy whose modeled read/write traffic
/// is lowest for the given layer (Section II-J's bandwidth analysis).
UpdStrategy pick_upd_strategy(int n, int kb, int cb, int r, int s,
                              std::int64_t act_traffic_elems,
                              std::int64_t wt_elems, int nthreads);

}  // namespace xconv::core
