// Kernel streams (paper Section II-H, Figures 1-2, Algorithm 5).
//
// During the *dryrun* phase each thread records, instead of executing, its
// sequence of microkernel calls: a variant stream plus three offset streams,
// APPLY records for fused operators, ZERO records for the output ranges no
// kernel writes or the accumulating kernels start from (the backward's dI
// halos and strided rows, the update's dW copies) and, for the
// weight-update pass, REDUCE records covering the minibatch/hybrid dW
// privatization.
// Consecutive kernel invocations are run-length encoded as streak segments.
//
// During *replay* (Algorithm 5) the segment program is executed with no
// boundary logic; the prefetch arguments of call i are simply the
// offsets of call i+1 — the property Figure 1 derives (pi_off_i = i_off_{i+1}).
// Offsets (not pointers) are recorded so one stream replays against any
// tensor instances with the same geometry.
//
// The recorder is pass-agnostic: forward and backward streams hold CONV
// streaks (offsets are in/wt/out; any kernel with the conv ABI, the k-dot
// backward's included) plus APPLY and ZERO records (ZERO relative to the
// output base), update streams hold UPD streaks (offsets are
// in/dout/dw, dw relative to the replaying thread's private copy) plus
// ZERO/BARRIER/REDUCE records. A stream replays through exactly one of
// `replay` (conv) or `replay_upd` (update); mixing record families in one
// stream throws at replay time.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fusion.hpp"
#include "kernels/microkernel.hpp"

namespace xconv::core {

enum class SegmentType : std::uint8_t {
  conv_streak,  ///< `info` convolution microkernel calls
  apply,        ///< one fused-operator APPLY; info = index into applies()
  upd_streak,   ///< `info` weight-update microkernel calls
  zero,         ///< zero an output/dW range; info = index into zeros()
  reduce,       ///< sum private dW copies; info = index into reduces()
  barrier,      ///< OpenMP team barrier (privatized-accumulate -> reduce)
};

struct Segment {
  SegmentType type;
  std::int32_t info;
};

/// Zero `count` floats at `dst_off` into the replay's output base (conv
/// replay) or the replaying thread's dW base (update replay).
struct ZeroRecord {
  std::int64_t dst_off = 0;
  std::int64_t count = 0;
};

/// Sum the privatized dW copies over elements [begin, begin+count) through
/// the replay's reduce kernel, whose descriptor holds the copy count and
/// stride: dst[e] = sum over c in [0, copies) of src[c*copy_stride + e],
/// where src is the privatized-copy arena and dst the final dW tensor.
struct ReduceRecord {
  std::int64_t begin = 0;
  std::int64_t count = 0;
};

// Thread contract (phase-based, no locks): a KernelStream is owned by exactly
// one recording thread through the record_*() calls, sealed by finish(), and
// only then replayed — possibly by a *different* thread, or concurrently by
// the whole OpenMP team since replay()/replay_upd() are const and touch no
// stream state. The finish() handoff must be published by the surrounding
// runtime (the OpenMP barrier at the end of the dryrun parallel region); the
// class deliberately carries no mutex or atomics because the phases never
// overlap. This invariant is exercised under TSan by the mlsl suites (replay
// inside comm-thread callbacks) rather than expressed with lock annotations.
class KernelStream {
 public:
  /// Dryrun recording ------------------------------------------------------
  void record_conv(std::uint16_t variant, std::int64_t in_off,
                   std::int64_t wt_off, std::int64_t out_off);
  void record_apply(const ApplyRecord& rec);
  void record_upd(std::uint16_t variant, std::int64_t in_off,
                  std::int64_t dout_off, std::int64_t dw_off);
  void record_zero(std::int64_t dst_off, std::int64_t count);
  void record_reduce(const ReduceRecord& rec);
  void record_barrier();
  /// Seal the stream; replays are allowed afterwards.
  void finish();

  /// Replay (Algorithm 5) --------------------------------------------------
  /// Forward/backward replay: `variants[v]` resolves the kernel (a conv
  /// or k-dot handle) for variant stream value v; ZERO records clear ranges
  /// of `out_base`.
  /// APPLY records run only when `fargs` carries operands; with empty
  /// `fargs` they are skipped and the output is the plain convolution.
  /// Throws on update-family records (UPD streaks, REDUCE).
  void replay(const std::vector<const kernels::StreamMicrokernel*>& variants,
              const float* in_base, const float* wt_base, float* out_base,
              const FusionArgs& fargs) const;

  /// Weight-update replay. `dw_base` is the replaying thread's accumulation
  /// target (the shared dW for the task strategy, this thread's/group's
  /// private copy for minibatch/hybrid); `red_src`/`red_dst` are the
  /// privatized-copy arena and the final dW tensor for REDUCE records.
  /// BARRIER records bind to the innermost enclosing OpenMP parallel region
  /// (a no-op when replayed serially). REDUCE records run `reduce_kernel`;
  /// a REDUCE record with no kernel throws std::logic_error. Throws on
  /// conv-family records.
  void replay_upd(const std::vector<const kernels::UpdMicrokernel*>& variants,
                  const float* in_base, const float* dout_base, float* dw_base,
                  const float* red_src, float* red_dst,
                  const kernels::ReduceMicrokernel* reduce_kernel) const;

  /// Introspection ---------------------------------------------------------
  std::size_t n_calls() const { return var_.size(); }
  std::size_t n_convs() const { return var_.size(); }
  std::size_t n_segments() const { return segments_.size(); }
  const std::vector<Segment>& segments() const { return segments_; }
  const std::vector<ApplyRecord>& applies() const { return applies_; }
  const std::vector<ZeroRecord>& zeros() const { return zeros_; }
  const std::vector<ReduceRecord>& reduces() const { return reduces_; }
  const std::vector<std::uint16_t>& variants() const { return var_; }
  /// Offset streams; conv records hold (in, wt, out), upd records hold
  /// (in, dout, dw) in the same three arrays.
  const std::vector<std::int64_t>& in_offsets() const { return in_off_; }
  const std::vector<std::int64_t>& wt_offsets() const { return wt_off_; }
  const std::vector<std::int64_t>& out_offsets() const { return out_off_; }
  bool finished() const { return finished_; }
  void clear();

 private:
  void record_call(SegmentType streak, std::uint16_t variant,
                   std::int64_t off_a, std::int64_t off_b, std::int64_t off_c);

  std::vector<std::uint16_t> var_;
  std::vector<std::int64_t> in_off_, wt_off_, out_off_;
  std::vector<Segment> segments_;
  std::vector<ApplyRecord> applies_;
  std::vector<ZeroRecord> zeros_;
  std::vector<ReduceRecord> reduces_;
  bool finished_ = false;
};

}  // namespace xconv::core
