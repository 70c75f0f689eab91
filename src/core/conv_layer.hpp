// ConvLayer: the library's primary public API — one CNN convolution layer
// with the paper's high-performance forward, backward and weight-gradient
// passes (Sections II-A .. II-J).
//
// Construction performs the "setup" work the paper does once per layer:
//   * blocking selection (VLEN, RBP/RBQ register blocks, edge variants,
//     weight-update BP/BQ pixel blocks),
//   * JIT compilation of every needed microkernel variant (via the registry),
//   * the dryrun phase: per-thread kernel streams with prefetch-ready offset
//     sequences and fused-operator APPLY records (Section II-H),
//   * the weight-update parallelization-strategy decision (Section II-J).
//
// All planning *decisions* (blocking extents, backward algorithm, update
// strategy) come from one ConvPlan resolved at construction (core/plan.hpp):
// the explicit ConvOptions::plan when set, else a PlanCache hit (memory,
// disk, autotune or the default heuristics). The plan is the only way to
// steer a layer. Setup then only *executes* the plan — JIT, dryrun, scratch
// sizing — so a persisted plan makes steady-state construction decision-free.
//
// The per-iteration calls (`forward`, `backward`, `update`) then only replay
// the recorded streams (the loop nests run once, at setup, as recorders) —
// no compilation, no tuning, no boundary logic — on every backward path,
// k-dot (C < VLEN) included.
//
// The execution context is just the ISA and the thread count: SIMD ISAs
// run JIT'ed kernels, Isa::scalar runs the scalar reference kernels.
//
// Tensors use the blocked layouts of tensor/layout.hpp; use the make_*
// factories to get correctly-shaped/padded instances and
// tensor/transform.hpp to move data in and out of framework layouts.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/conv_params.hpp"
#include "core/fusion.hpp"
#include "core/partition.hpp"
#include "core/plan.hpp"
#include "core/streams.hpp"
#include "kernels/kernel_registry.hpp"
#include "platform/cpu.hpp"
#include "tensor/layout.hpp"

namespace xconv::core {

struct ConvOptions {
  /// Kernel ISA: JIT kernels for the SIMD ISAs, the scalar reference
  /// kernels for Isa::scalar. Default honors XCONV_ISA.
  platform::Isa isa = platform::effective_isa();
  FusedOp fuse = FusedOp::none;
  int threads = 0;           ///< 0 = omp_get_max_threads()

  /// Physical halo of the input/output tensors, in pixels (-1 = default).
  /// The input halo must be >= pad (the extra rim is skipped); the output
  /// halo must be >= max(0, R-1-pad) unless fwd_only (backward reads dO with
  /// that halo). Graph executors raise halos so one buffer satisfies both
  /// its producer's backward and its consumer's forward.
  int in_halo_h = -1, in_halo_w = -1;
  int out_halo_h = -1, out_halo_w = -1;

  /// Internal: set for the backward dual layer, which only ever runs its
  /// forward pass — skips its own backward/update setup (and prevents the
  /// dual-of-dual recursion).
  bool fwd_only = false;

  /// Explicit plan: when set, the layer executes exactly these decisions
  /// (validated against the shape and the isa/threads context above) and
  /// never consults the PlanCache. To steer a layer, edit a plan (e.g. one
  /// from plan_default) and pass it here. When unset, the PlanCache
  /// resolves it (disk, autotune or default).
  std::optional<ConvPlan> plan;
};

/// The plan identity a ConvLayer built from (params, opt) resolves: shape,
/// pass, ISA with its vlen, and the resolved thread count. To steer a layer,
/// edit plan_default(plan_key(params, opt)) and pass it as opt.plan.
PlanKey plan_key(const ConvParams& params, const ConvOptions& opt);

class ConvLayer {
 public:
  explicit ConvLayer(const ConvParams& params, const ConvOptions& opt = {});
  ConvLayer(const ConvLayer&) = delete;
  ConvLayer& operator=(const ConvLayer&) = delete;

  const ConvParams& params() const { return params_; }
  const ConvOptions& options() const { return opt_; }
  int vlen() const { return vlen_; }
  int cb() const { return cb_; }  ///< input feature blocks
  int kb() const { return kb_; }  ///< output feature blocks
  int threads() const { return threads_; }

  /// Correctly-shaped blocked tensors for this layer. The output tensor
  /// carries the halo backward propagation needs (pad' = R-1-pad), so the
  /// same activation buffer serves as fwd output and bwd input.
  tensor::ActTensor make_input() const;
  tensor::ActTensor make_output() const;
  tensor::WtTensor make_weights() const;  ///< forward form [Kb][Cb][R][S][c][k]

  /// Forward propagation (Algorithm 3 / 4 / 5). `fargs` supplies fused-op
  /// operands when options().fuse needs them. A call with empty `fargs`
  /// skips the APPLY records and writes the plain convolution, so one
  /// layer built with an APPLY op serves both a fused and an unfused pass
  /// (gxm::ConvNode: fused BatchNorm in inference, plain output in
  /// training). The in-kernel ReLU is not an APPLY and always runs.
  void forward(const tensor::ActTensor& in, const tensor::WtTensor& wt,
               tensor::ActTensor& out, const FusionArgs& fargs = {});

  /// Backward propagation (Section II-I): dI from dO and the *forward-form*
  /// weights. Nothing is cached across calls: every call runs the threaded
  /// duality transform (tensor::blocked_fwd_to_bwd) into a layer-owned
  /// scratch, allocated on the first call, and then runs backward_dual.
  /// Callers that keep the backward form themselves (gxm::ConvNode) call
  /// backward_dual directly and never allocate the scratch.
  void backward(const tensor::ActTensor& grad_out, const tensor::WtTensor& wt,
                tensor::ActTensor& grad_in);

  /// Backward propagation from weights already in backward-dual form
  /// [Cb][Kb][R][S][k][c] (tensor::blocked_fwd_to_bwd of the forward
  /// weights). Every element of `grad_in` is written: the interior with dI,
  /// the halo and the channel-padding lanes with 0 (the latter provided the
  /// weights' padding lanes are 0, as every transform here leaves them), so
  /// its prior contents never matter.
  void backward_dual(const tensor::ActTensor& grad_out,
                     const tensor::WtTensor& bwd_wt,
                     tensor::ActTensor& grad_in);

  /// Weight-gradient update (Section II-J, Algorithm 9): dW (+)= I * dO.
  /// dW is overwritten (the driver zero-initializes its accumulation).
  void update(const tensor::ActTensor& in, const tensor::ActTensor& grad_out,
              tensor::WtTensor& grad_wt);

  // --- introspection (used by benches/tests) ---
  std::string describe() const;
  int fwd_rbp() const { return rbp_; }
  int fwd_rbq() const { return rbq_; }
  int in_halo_h() const { return in_halo_h_; }
  int in_halo_w() const { return in_halo_w_; }
  int out_halo_h() const { return out_pad_h_; }
  int out_halo_w() const { return out_pad_w_; }
  int n_fwd_variants() const { return static_cast<int>(fwd_variants_.size()); }
  std::size_t fwd_stream_convs() const;
  /// Backward stream kernel calls: the dual layer's forward streams for the
  /// stride-1 duality path, the k-dot or strided-duality streams otherwise.
  std::size_t bwd_stream_convs() const;
  std::size_t upd_stream_calls() const;
  UpdStrategy upd_strategy_used() const { return upd_strategy_; }
  int upd_bp() const { return upd_bp_; }
  int upd_bq() const { return upd_bq_; }
  /// Which backward algorithm the layer selected (stride-1 duality,
  /// strided duality or k-dot; see bwd_algo_for).
  /// The enum itself now lives in plan.hpp; the alias keeps existing
  /// `ConvLayer::BwdAlgo` spellings working.
  using BwdAlgo = core::BwdAlgo;
  BwdAlgo bwd_algo() const { return bwd_algo_; }
  /// The resolved plan this layer executes (explicit, else the cache's).
  const ConvPlan& plan() const { return plan_; }

 private:
  friend struct ConvLayerTestPeer;

  // setup helpers (conv_layer.cpp)
  void choose_blocking();
  void build_fwd_variants();
  void setup_backward();
  void setup_update();

  // Dryrun recorders (Section II-H): each walks its pass's loop nest once
  // and records the per-thread kernel streams every call then replays.
  void record_forward();           ///< fwd_streams_
  void record_backward_kdot();     ///< bwd_streams_ (k-dot)
  void record_backward_strided();  ///< bwd_streams_ (strided duality)
  void record_update();            ///< upd_streams_ (all three strategies)

  /// Replays bwd_streams_ (k-dot and strided duality) from `wt`, the
  /// backward-dual form. k-dot first packs `wt` — the forward form when
  /// `fwd_form` — into kdot_wp_ in the same parallel region and replays
  /// against that.
  void replay_backward(const tensor::ActTensor& grad_out, const float* wt,
                       bool fwd_form, tensor::ActTensor& grad_in);
  /// Thread `tid`'s share of the k-dot weight pack into kdot_wp_.
  void pack_kdot_weights(const float* wt, bool fwd_form, int tid);
  float* upd_dw_base(int tid, float* dw);  ///< strategy-dependent target
  /// Run `body(tid)` on exactly the `threads_`-sized team every driver and
  /// stream was planned for. Work partitioning, per-thread streams and the
  /// minibatch/hybrid dW privatization are all keyed to that size, so a
  /// smaller delivered team (nested parallelism, OMP_DYNAMIC,
  /// OMP_THREAD_LIMIT) must fail loudly instead of silently skipping work:
  /// the body is not run and std::runtime_error is thrown.
  void parallel_exact(const char* what,
                      const std::function<void(int)>& body) const;

  ConvParams params_;
  ConvOptions opt_;
  ConvPlan plan_;  ///< resolved at construction; all setup consumes this
  int vlen_ = 16;
  int cb_ = 1, kb_ = 1;
  int threads_ = 1;

  // forward blocking
  int rbp_ = 1, rbq_ = 1;
  int q_full_ = 0, q_rem_ = 0;  ///< Q = q_full_*rbq_ + q_rem_
  int p_full_ = 0, p_rem_ = 0;
  bool cb_in_kernel_ = false;   ///< 1x1 path with the Cb loop inside kernels

  // geometry (element strides; set at setup)
  int in_row_stride_ = 0, out_row_stride_ = 0;
  std::int64_t in_n_stride_ = 0, in_cb_stride_ = 0;
  std::int64_t out_n_stride_ = 0, out_kb_stride_ = 0;
  std::int64_t wt_kb_stride_ = 0, wt_cb_stride_ = 0;
  int in_halo_h_ = 0, in_halo_w_ = 0;  ///< physical input halo (>= pad)
  int in_shift_h_ = 0, in_shift_w_ = 0;  ///< in_halo - pad (frame shift)
  int out_pad_h_ = 0, out_pad_w_ = 0;  ///< physical output halo

  std::vector<const kernels::StreamMicrokernel*> fwd_variants_;
  std::array<int, 16> fwd_vmap_{};  ///< (p_edge, q_edge, beta0, relu) -> idx
  static int vmap_index(int p_edge, int q_edge, int beta0, int relu) {
    return ((p_edge * 2 + q_edge) * 2 + beta0) * 2 + relu;
  }
  /// Resolve a variant index; throws if the combination was not built.
  int variant_for(bool p_edge, bool q_edge, bool beta0, bool relu) const;
  std::vector<KernelStream> fwd_streams_;  ///< one per thread

  // backward
  BwdAlgo bwd_algo_ = BwdAlgo::duality_stride1;
  std::unique_ptr<ConvLayer> bwd_layer_;   ///< dual layer (duality paths)
  /// backward()'s transform target; empty until its first call.
  tensor::WtTensor bwd_wt_;

  // update
  UpdStrategy upd_strategy_ = UpdStrategy::task;
  int upd_bp_ = 0, upd_bq_ = 0;
  std::vector<const kernels::UpdMicrokernel*> upd_variants_;
  /// (c_edge, p_edge, q_edge, beta0) -> variant. c_edge selects the
  /// channel-remainder kernels (C % vlen rows) for the last Cb block; those
  /// entries stay -1 when C divides vlen.
  std::array<int, 16> upd_vmap_{};
  static int upd_vmap_index(int c_edge, int p_edge, int q_edge, int beta0) {
    return ((c_edge * 2 + p_edge) * 2 + q_edge) * 2 + beta0;
  }
  int upd_c_rem_ = 0;  ///< C % vlen (0 when divisible: no c-edge variants)
  /// Reduce-epilogue kernel for the privatized-dW sum (null unless the
  /// strategy privatizes dW).
  const kernels::ReduceMicrokernel* upd_reduce_ = nullptr;
  int upd_pb_full_ = 0, upd_pb_rem_ = 0, upd_qb_full_ = 0, upd_qb_rem_ = 0;
  int upd_groups_ = 0;  ///< hybrid thread-group count (0 unless hybrid)
  std::size_t upd_dw_size_ = 0;               ///< elements of one dW copy
  tensor::AlignedBuffer<float> upd_scratch_;  ///< per-copy dW buffers
  std::vector<KernelStream> upd_streams_;     ///< one per thread

  // backward streams (k-dot and strided duality; empty for stride-1
  // duality, whose dual layer owns them). k-dot (C < vlen): one kernel per
  // (row phase, column phase, remainder width), index
  // (a * stride_w + b) * 2 + is_rem, null where a phase has no such call.
  // Strided duality: (q_edge) -> accumulating scatter kernel.
  std::vector<const kernels::StreamMicrokernel*> bwd_variants_;
  std::vector<KernelStream> bwd_streams_;  ///< one per thread
  tensor::AlignedBuffer<float> kdot_wp_;  ///< packed [Kb][R][S][C][vlen]
};

}  // namespace xconv::core
