// Weight-gradient update (paper Section II-J, Algorithm 9).
//
// The microkernel accumulates one VLEN x VLEN dW block over a BP x BQ pixel
// patch; the driver loops (n, kb, cb, r, s, pixel blocks) and chooses one of
// three parallelization strategies at setup:
//   * task      — parallelize over the R*S*Kb*Cb independent dW blocks; one
//                 shared dW tensor, every thread streams all N activations.
//   * minibatch — parallelize over N with per-thread dW copies, followed by
//                 a parallel sum-reduction of the copies.
//   * hybrid    — thread groups: minibatch across groups (one dW copy per
//                 group), task-parallel within a group.
// The dryrun-time decision models the bandwidth trade-off the paper derives
// (activation re-reads vs 2T extra dW volumes); see pick_upd_strategy().
//
// Like forward, the loop nest runs once at setup as the dryrun recorder, and
// every update call replays the per-thread kernel streams (Section II-H):
// UPD streaks with exact next-call prefetch offsets, plus ZERO / BARRIER /
// REDUCE records covering the dW privatization of the minibatch and hybrid
// strategies. The plan's strategy is exactly what runs, and every REDUCE
// record replays through the layer's one reduce kernel (the generated one,
// or the scalar one where the generator cannot address the copies).
#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "core/conv_layer.hpp"

namespace xconv::core {

namespace {
// Mirror of forward's check_geometry (conv_forward.cpp): a wrong-shape
// tensor must fail loudly instead of silently corrupting memory.
void check_upd_geometry(const ConvLayer& l, const tensor::ActTensor& in,
                        const tensor::ActTensor& grad_out,
                        const tensor::WtTensor& grad_wt) {
  const ConvParams& p = l.params();
  if (in.n() != p.N || in.channels() != p.C || in.h() != p.H ||
      in.w() != p.W || in.pad_h() != l.in_halo_h() ||
      in.pad_w() != l.in_halo_w() || in.vlen() != l.vlen())
    throw std::invalid_argument("ConvLayer::update: input geometry mismatch");
  if (grad_out.n() != p.N || grad_out.channels() != p.K ||
      grad_out.h() != p.P() || grad_out.w() != p.Q() ||
      grad_out.pad_h() != l.out_halo_h() ||
      grad_out.pad_w() != l.out_halo_w() || grad_out.vlen() != l.vlen())
    throw std::invalid_argument(
        "ConvLayer::update: grad_out geometry mismatch");
  if (grad_wt.outer() != l.kb() || grad_wt.inner() != l.cb() ||
      grad_wt.r() != p.R || grad_wt.s() != p.S || grad_wt.vlen() != l.vlen())
    throw std::invalid_argument(
        "ConvLayer::update: grad_wt geometry mismatch");
}
}  // namespace

void ConvLayer::setup_update() {
  const ConvParams& p = params_;
  // Pixel blocking (Section II-J) comes from the resolved plan: BP = P,
  // BQ = Q maximizes dW register reuse but may spill the cache for large
  // spatial dims, so plan_default caps the patch at kUpdBpCap x kUpdBqCap.
  upd_bq_ = plan_.upd_bq;
  upd_bp_ = plan_.upd_bp;
  upd_qb_full_ = p.Q() / upd_bq_;
  upd_qb_rem_ = p.Q() % upd_bq_;
  upd_pb_full_ = p.P() / upd_bp_;
  upd_pb_rem_ = p.P() % upd_bp_;

  auto& reg = kernels::KernelRegistry::instance();
  upd_variants_.clear();
  upd_vmap_.fill(-1);
  // Channel-remainder variants (ce = 1) accumulate only the C % vlen real
  // channel rows of the last Cb block — the padded rows are zero in the
  // blocked input, so skipping them is bitwise-identical and saves up to
  // vlen/(C % vlen)x FMA work (e.g. 16/3 on a C=3 first layer).
  upd_c_rem_ = p.C % vlen_;
  for (int ce = 0; ce < (upd_c_rem_ > 0 ? 2 : 1); ++ce) {
    for (int pe = 0; pe < 2; ++pe) {
      const int bp = pe ? upd_pb_rem_ : upd_bp_;
      if (bp == 0) continue;
      for (int qe = 0; qe < 2; ++qe) {
        const int bq = qe ? upd_qb_rem_ : upd_bq_;
        if (bq == 0) continue;
        for (int b0 = 0; b0 < 2; ++b0) {
          jit::UpdKernelDesc d;
          d.isa = opt_.isa;
          d.vlen = vlen_;
          d.bp = bp;
          d.bq = bq;
          d.stride_h = p.stride_h;
          d.stride_w = p.stride_w;
          d.in_row_stride = in_row_stride_;
          d.out_row_stride = out_row_stride_;
          d.beta0 = (b0 == 1);
          d.cmin = ce ? upd_c_rem_ : 0;
          upd_variants_.push_back(reg.upd(d));
          upd_vmap_[upd_vmap_index(ce, pe, qe, b0)] =
              static_cast<int>(upd_variants_.size() - 1);
        }
      }
    }
  }

  // The strategy decision (the paper's bandwidth model) happened at
  // planning time — see plan_default() / pick_upd_strategy(). The plan's
  // strategy is what runs: validate() only admits a hybrid plan that forms
  // at least two groups.
  upd_strategy_ = plan_.upd_strategy;

  // Privatization geometry is fully known at setup: size the per-copy dW
  // scratch arena here, before recording.
  upd_dw_size_ = static_cast<std::size_t>(wt_kb_stride_) * kb_;
  upd_groups_ = upd_strategy_ == UpdStrategy::hybrid
                    ? upd_hybrid_groups(p, vlen_, threads_)
                    : 0;
  const int red_copies =
      upd_strategy_ == UpdStrategy::minibatch ? threads_ : upd_groups_;
  upd_reduce_ = nullptr;
  if (red_copies == 0) return;
  upd_scratch_.resize(upd_dw_size_ * red_copies);

  // Reduce-epilogue kernel for the privatized-copy sum; the plan picks the
  // chunk unroll. The registry falls back to the scalar kernel where the
  // generated one cannot address the copies.
  jit::ReduceKernelDesc rd;
  rd.isa = opt_.isa;
  rd.vlen = vlen_;
  rd.copies = red_copies;
  rd.copy_stride = static_cast<std::int64_t>(upd_dw_size_);
  rd.unroll = plan_.upd_reduce_unroll;
  upd_reduce_ = reg.reduce(rd);
}

float* ConvLayer::upd_dw_base(int tid, float* dw) {
  if (upd_strategy_ == UpdStrategy::minibatch)
    return upd_scratch_.data() + upd_dw_size_ * tid;
  if (upd_strategy_ == UpdStrategy::hybrid)
    return upd_scratch_.data() + upd_dw_size_ * (tid % upd_groups_);
  return dw;  // task: the shared dW tensor
}

void ConvLayer::record_update() {
  const ConvParams& p = params_;
  const int n_pb = upd_pb_full_ + (upd_pb_rem_ > 0 ? 1 : 0);
  const int n_qb = upd_qb_full_ + (upd_qb_rem_ > 0 ? 1 : 0);
  const std::int64_t tasks = static_cast<std::int64_t>(kb_) * cb_ * p.R * p.S;
  const std::int64_t dw_size = static_cast<std::int64_t>(upd_dw_size_);

  auto task_coords = [&](std::int64_t t, int& kbi, int& cbi, int& r, int& s) {
    s = static_cast<int>(t % p.S);
    t /= p.S;
    r = static_cast<int>(t % p.R);
    t /= p.R;
    cbi = static_cast<int>(t % cb_);
    kbi = static_cast<int>(t / cb_);
  };
  auto dw_offset = [&](int kbi, int cbi, int r, int s) {
    return kbi * wt_kb_stride_ + cbi * wt_cb_stride_ +
           static_cast<std::int64_t>(r * p.S + s) * vlen_ * vlen_;
  };

  upd_streams_.assign(threads_, KernelStream{});
  parallel_exact("ConvLayer::update", [&](int tid) {
    KernelStream& stream = upd_streams_[tid];

    // One pixel block (n, pjb, qib) of minibatch contribution into the dW
    // block (kbi, cbi, r, s) at dw_off. `first` selects the beta0 kernel so
    // each covered block is fully overwritten; the c-edge variants cover the
    // channel-remainder rows of the last Cb block.
    auto emit_block = [&](std::int64_t dw_off, int kbi, int cbi, int r, int s,
                          int n, int pjb, int qib, bool first) {
      const bool p_edge = (upd_pb_rem_ > 0 && pjb == upd_pb_full_);
      const int oj0 = std::min(pjb, upd_pb_full_) * upd_bp_;
      const bool q_edge = (upd_qb_rem_ > 0 && qib == upd_qb_full_);
      const int oi0 = std::min(qib, upd_qb_full_) * upd_bq_;
      const std::int64_t in_off =
          n * in_n_stride_ + cbi * in_cb_stride_ +
          static_cast<std::int64_t>(oj0 * p.stride_h + r + in_shift_h_) *
              in_row_stride_ +
          static_cast<std::int64_t>(oi0 * p.stride_w + s + in_shift_w_) *
              vlen_;
      const std::int64_t do_off =
          n * out_n_stride_ + kbi * out_kb_stride_ +
          static_cast<std::int64_t>(oj0 + out_pad_h_) * out_row_stride_ +
          static_cast<std::int64_t>(oi0 + out_pad_w_) * vlen_;
      const bool c_edge = (upd_c_rem_ > 0 && cbi == cb_ - 1);
      const int v = upd_vmap_[upd_vmap_index(c_edge ? 1 : 0, p_edge ? 1 : 0,
                                             q_edge ? 1 : 0, first ? 1 : 0)];
      stream.record_upd(static_cast<std::uint16_t>(v), in_off, do_off, dw_off);
    };

    // Accumulate every pixel block of minibatch range [n0, n1) into one dW
    // block, pixel blocks in (n, pjb, qib) lexicographic order.
    auto accumulate = [&](std::int64_t dw_off, int kbi, int cbi, int r, int s,
                          int n0, int n1) {
      bool first = true;
      for (int n = n0; n < n1; ++n)
        for (int pjb = 0; pjb < n_pb; ++pjb)
          for (int qib = 0; qib < n_qb; ++qib) {
            emit_block(dw_off, kbi, cbi, r, s, n, pjb, qib, first);
            first = false;
          }
    };

    // Run task range [t0, t1) over minibatch range [n0, n1) in the plan's
    // loop order. Both orders walk each dW block's pixel contributions in
    // identical (n, pjb, qib) lexicographic sequence, so the accumulated
    // bits match; only the *interleaving across tasks* changes. pixel_outer
    // keeps the (n, pjb, qib) activation working set cache-resident across
    // the whole task sweep instead of re-streaming it per task.
    auto run_tasks = [&](std::int64_t t0, std::int64_t t1, int n0, int n1) {
      if (plan_.upd_loop_order == UpdLoopOrder::task_outer) {
        for (std::int64_t t = t0; t < t1; ++t) {
          int kbi, cbi, r, s;
          task_coords(t, kbi, cbi, r, s);
          accumulate(dw_offset(kbi, cbi, r, s), kbi, cbi, r, s, n0, n1);
        }
        return;
      }
      for (int n = n0; n < n1; ++n)
        for (int pjb = 0; pjb < n_pb; ++pjb)
          for (int qib = 0; qib < n_qb; ++qib) {
            const bool first = (n == n0 && pjb == 0 && qib == 0);
            for (std::int64_t t = t0; t < t1; ++t) {
              int kbi, cbi, r, s;
              task_coords(t, kbi, cbi, r, s);
              emit_block(dw_offset(kbi, cbi, r, s), kbi, cbi, r, s, n, pjb,
                         qib, first);
            }
          }
    };

    // Privatized copies: barrier, then each thread sums a contiguous slice
    // of the dW element space over all copies through the reduce kernel
    // (KernelStream::replay_upd).
    auto reduce_phase = [&] {
      stream.record_barrier();
      const Range er = thread_chunk(dw_size, tid, threads_);
      if (!er.empty()) stream.record_reduce({er.begin, er.size()});
    };

    if (upd_strategy_ == UpdStrategy::task) {
      const Range tr = thread_chunk(tasks, tid, threads_);
      run_tasks(tr.begin, tr.end, 0, p.N);
    } else if (upd_strategy_ == UpdStrategy::minibatch) {
      const Range nr = thread_chunk(p.N, tid, threads_);
      if (nr.empty()) {
        // More threads than minibatch: this thread's copy never receives a
        // beta0 write; blank it so the reduction reads zeros.
        stream.record_zero(0, dw_size);
      } else {
        run_tasks(0, tasks, static_cast<int>(nr.begin),
                  static_cast<int>(nr.end));
      }
      reduce_phase();
    } else {
      // Hybrid: G dW copies; group g covers a minibatch slice, its members
      // split the task space (Section II-J's "hybrid versions of these two
      // extremes"). Threads are distributed over groups round-robin.
      const int g = tid % upd_groups_;
      const int member = tid / upd_groups_;
      const int members =
          threads_ / upd_groups_ + (g < threads_ % upd_groups_ ? 1 : 0);
      const Range nr = thread_chunk(p.N, g, upd_groups_);
      const Range tr = thread_chunk(tasks, member, members);
      run_tasks(tr.begin, tr.end, static_cast<int>(nr.begin),
                static_cast<int>(nr.end));
      reduce_phase();
    }
  });
  for (auto& s : upd_streams_) s.finish();
}

void ConvLayer::update(const tensor::ActTensor& in,
                       const tensor::ActTensor& grad_out,
                       tensor::WtTensor& grad_wt) {
  check_upd_geometry(*this, in, grad_out, grad_wt);
  const float* in_b = in.data();
  const float* do_b = grad_out.data();
  float* dw = grad_wt.data();

  parallel_exact("ConvLayer::update", [&](int tid) {
    upd_streams_[tid].replay_upd(upd_variants_, in_b, do_b,
                                 upd_dw_base(tid, dw), upd_scratch_.data(),
                                 dw, upd_reduce_);
  });
}

}  // namespace xconv::core
