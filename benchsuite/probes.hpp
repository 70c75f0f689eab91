// Host calibration probes: the compute peak every `pct_peak` metric is
// measured against, and the memory bandwidth that bounds the low-intensity
// layers. Both run on all of the run's threads at once, so they describe the
// same machine share the workloads use.
#pragma once

#include <cstddef>
#include <optional>

#include "jit/code_buffer.hpp"
#include "platform/timer.hpp"

namespace xconv::bench {

/// The best fp32 FMA rate seen on `threads` concurrent threads, in GFLOPS.
/// Each probe runs a JIT'd loop of independent register-only FMAs (no
/// memory operands), so no load can hold it below the FMA ports' rate; on a
/// host without AVX2 it falls back to the compiled probe. Other tenants of
/// a shared host lower single probes, so the meter keeps the maximum and
/// can be sampled between the steps of a timed loop.
class PeakMeter {
 public:
  explicit PeakMeter(int threads);

  /// Probe once (about 10 ms) and keep the best rate.
  void probe();
  /// Probe if at least half a second passed since the last probe.
  void sample();
  double best() const { return best_; }

 private:
  int threads_;
  int accumulators_ = 0;
  int vlen_ = 1;
  std::optional<jit::CodeBuffer> code_;  ///< empty: no JIT ISA on this host
  platform::Timer since_;
  double best_ = 0;
};

struct Triad {
  double gbs = 0;              ///< best a = b + s*c rate, 3 arrays counted
  std::size_t array_bytes = 0; ///< size of each of the three arrays
  std::size_t llc_bytes = 0;   ///< last-level cache size the arrays exceed 4x
};

/// STREAM-style triad on `threads` threads over arrays at least four times
/// the last-level cache, so every pass streams from memory.
Triad triad_gbs(int threads);

}  // namespace xconv::bench
