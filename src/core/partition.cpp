#include "core/partition.hpp"

#include <algorithm>

#include "core/plan.hpp"  // named traffic-model constants

namespace xconv::core {

Range thread_chunk(std::int64_t total, int tid, int nthreads) {
  if (nthreads < 1) nthreads = 1;
  const std::int64_t base = total / nthreads;
  const std::int64_t extra = total % nthreads;
  Range r;
  r.begin = tid * base + (tid < extra ? tid : extra);
  r.end = r.begin + base + (tid < extra ? 1 : 0);
  return r;
}

const char* upd_strategy_name(UpdStrategy s) {
  switch (s) {
    case UpdStrategy::task: return "task";
    case UpdStrategy::minibatch: return "minibatch";
    case UpdStrategy::hybrid: return "hybrid";
  }
  return "unknown";
}

UpdStrategy pick_upd_strategy(int n, int kb, int cb, int r, int s,
                              std::int64_t act_traffic_elems,
                              std::int64_t wt_elems, int nthreads) {
  if (nthreads <= 1) return UpdStrategy::task;
  const std::int64_t tasks = static_cast<std::int64_t>(kb) * cb * r * s;
  // Section II-J: with T threads over the task space each thread re-reads
  // the activations T/Tc (resp. T/Tk) times; with minibatch parallelism the
  // activations are read once per thread chunk but 2T extra dW volumes move.
  // Model both and take the cheaper; insufficient task parallelism forces
  // the minibatch scheme, insufficient minibatch parallelism forces tasks.
  if (tasks < nthreads) return (n >= nthreads) ? UpdStrategy::minibatch
                                               : UpdStrategy::task;
  if (n < kUpdMinMinibatch) return UpdStrategy::task;
  // Approximate per-thread traffic (elements). The crossover constants are
  // named and documented in core/plan.hpp; tests/test_plan.cpp pins the
  // decision boundaries they induce.
  const double kc_split = static_cast<double>(nthreads);
  const double task_traffic =
      static_cast<double>(act_traffic_elems) /
          (kc_split > 1.0 ? std::min<double>(kc_split, kb * 1.0 * cb) : 1.0) *
          nthreads +
      static_cast<double>(wt_elems);
  const double mb_traffic =
      static_cast<double>(act_traffic_elems) +
      kUpdCopyTrafficFactor * nthreads * static_cast<double>(wt_elems);
  if (mb_traffic < task_traffic) {
    // Large weight tensors make full per-thread copies wasteful; split the
    // difference with thread groups when both dimensions offer parallelism.
    if (tasks >= nthreads / kHybridTaskDivisor && n >= kUpdMinMinibatch &&
        nthreads >= kHybridMinThreads)
      return UpdStrategy::hybrid;
    return UpdStrategy::minibatch;
  }
  return UpdStrategy::task;
}

}  // namespace xconv::core
