#include "core/conv_layer.hpp"

#include <omp.h>

#include <algorithm>
#include <climits>
#include <sstream>
#include <stdexcept>

namespace xconv::core {

PlanKey plan_key(const ConvParams& params, const ConvOptions& opt) {
  PlanKey key;
  key.params = params;
  key.pass = opt.fwd_only ? PlanPass::fwd : PlanPass::train;
  key.isa = opt.isa;
  key.vlen = resolved_vlen(opt.isa);
  key.threads = std::max(
      1, opt.threads > 0 ? opt.threads : omp_get_max_threads());
  return key;
}

ConvLayer::ConvLayer(const ConvParams& params, const ConvOptions& opt)
    : params_(params), opt_(opt) {
  params_.validate();
  // Resolve every planning decision up front (core/plan.hpp): the explicit
  // plan, else the PlanCache (disk/autotune/default).
  const PlanKey key = plan_key(params_, opt_);
  threads_ = key.threads;
  plan_ = resolve_plan(key, opt_.plan);

  vlen_ = plan_.vlen;
  cb_ = tensor::ceil_div(params_.C, vlen_);
  kb_ = tensor::ceil_div(params_.K, vlen_);

  choose_blocking();
  build_fwd_variants();
  record_forward();
  if (!opt_.fwd_only) {
    setup_backward();
    setup_update();
    record_backward_kdot();
    record_backward_strided();
    record_update();
  }
}

void ConvLayer::choose_blocking() {
  const ConvParams& p = params_;
  const int P = p.P(), Q = p.Q();

  // Register blocking (Section II-B) comes straight from the plan; the
  // derivation (and budget validation) happened in plan_default()/validate().
  rbq_ = plan_.rbq;
  rbp_ = plan_.rbp;
  q_full_ = Q / rbq_;
  q_rem_ = Q % rbq_;
  p_full_ = P / rbp_;
  p_rem_ = P % rbp_;

  // 1x1 Cb-loop-in-kernel transformation (Section II-C).
  cb_in_kernel_ = plan_.cb_in_kernel;

  // Physical halos: defaults are the minimum each side needs (input: the
  // zero padding; output: what backward-as-forward reads, Section II-I).
  // Callers may raise them so one buffer serves several layers.
  in_halo_h_ = opt_.in_halo_h >= 0 ? opt_.in_halo_h : p.pad_h;
  in_halo_w_ = opt_.in_halo_w >= 0 ? opt_.in_halo_w : p.pad_w;
  out_pad_h_ = opt_.out_halo_h >= 0 ? opt_.out_halo_h
                                    : std::max(0, p.R - 1 - p.pad_h);
  out_pad_w_ = opt_.out_halo_w >= 0 ? opt_.out_halo_w
                                    : std::max(0, p.S - 1 - p.pad_w);
  if (in_halo_h_ < p.pad_h || in_halo_w_ < p.pad_w)
    throw std::invalid_argument("ConvLayer: input halo smaller than padding");
  if (!opt_.fwd_only && (out_pad_h_ < std::max(0, p.R - 1 - p.pad_h) ||
                         out_pad_w_ < std::max(0, p.S - 1 - p.pad_w)))
    throw std::invalid_argument(
        "ConvLayer: output halo too small for backward duality");
  in_shift_h_ = in_halo_h_ - p.pad_h;
  in_shift_w_ = in_halo_w_ - p.pad_w;

  // Geometry (element strides) of the tensors make_input/make_output create.
  const std::int64_t hp = p.H + 2 * in_halo_h_, wp = p.W + 2 * in_halo_w_;
  const std::int64_t in_row = wp * vlen_;
  in_cb_stride_ = hp * in_row;
  in_n_stride_ = in_cb_stride_ * cb_;
  const std::int64_t php = P + 2 * out_pad_h_, qwp = Q + 2 * out_pad_w_;
  const std::int64_t out_row = qwp * vlen_;
  out_kb_stride_ = php * out_row;
  out_n_stride_ = out_kb_stride_ * kb_;
  wt_cb_stride_ = static_cast<std::int64_t>(p.R) * p.S * vlen_ * vlen_;
  wt_kb_stride_ = wt_cb_stride_ * cb_;

  // The row and feature-block strides a generated kernel steps by are int32
  // byte counts (every kernel's rows, the in-kernel Cb loop, the k-dot and
  // strided backward Kb loops and the strided backward's scattered dI
  // rows). Reject a geometry they cannot address here, before the int
  // narrowings and before any kernel or stream is built.
  auto check_kernel_stride = [&](std::int64_t elems, const char* what) {
    if (elems * 4 > INT32_MAX)
      throw std::invalid_argument(
          std::string("ConvLayer: ") + what +
          " stride exceeds a kernel's int32 byte displacement for " +
          p.to_string());
  };
  check_kernel_stride(in_row, "input row");
  check_kernel_stride(out_row, "output row");
  in_row_stride_ = static_cast<int>(in_row);
  out_row_stride_ = static_cast<int>(out_row);
  const bool strided_bwd =
      !opt_.fwd_only && plan_.bwd_algo == BwdAlgo::duality_strided;
  if (cb_in_kernel_) check_kernel_stride(in_cb_stride_, "input feature-block");
  if (cb_in_kernel_ || strided_bwd)
    check_kernel_stride(wt_cb_stride_, "weight feature-block");
  if (!opt_.fwd_only && plan_.bwd_algo != BwdAlgo::duality_stride1)
    check_kernel_stride(out_kb_stride_, "output feature-block");
  if (strided_bwd)
    check_kernel_stride(p.stride_h * in_row, "scattered input row");
}

tensor::ActTensor ConvLayer::make_input() const {
  return tensor::ActTensor(params_.N, params_.C, params_.H, params_.W,
                           in_halo_h_, in_halo_w_, vlen_);
}

tensor::ActTensor ConvLayer::make_output() const {
  return tensor::ActTensor(params_.N, params_.K, params_.P(), params_.Q(),
                           out_pad_h_, out_pad_w_, vlen_);
}

tensor::WtTensor ConvLayer::make_weights() const {
  return tensor::WtTensor(kb_, cb_, params_.R, params_.S, vlen_);
}

void ConvLayer::build_fwd_variants() {
  // Variant table indexed by (p_edge, q_edge, beta0, relu); -1 = not needed.
  fwd_variants_.clear();
  fwd_vmap_.fill(-1);
  auto& reg = kernels::KernelRegistry::instance();

  const bool want_relu_variant = (opt_.fuse == FusedOp::relu);
  for (int pe = 0; pe < 2; ++pe) {
    const int rbp = pe ? p_rem_ : rbp_;
    if (rbp == 0) continue;
    if (pe == 1 && p_rem_ == 0) continue;
    for (int qe = 0; qe < 2; ++qe) {
      const int rbq = qe ? q_rem_ : rbq_;
      if (rbq == 0) continue;
      if (qe == 1 && q_rem_ == 0) continue;
      for (int b0 = 0; b0 < 2; ++b0) {
        // With the Cb loop in-kernel there is exactly one (beta0) pass.
        if (cb_in_kernel_ && b0 == 0) continue;
        if (!cb_in_kernel_ && cb_ == 1 && b0 == 0) continue;
        for (int rl = 0; rl < 2; ++rl) {
          if (rl == 1 && !want_relu_variant) continue;
          // ReLU only folds into the last Cb iteration = beta1 kernel when
          // multiple passes exist, or the single beta0 kernel otherwise.
          const bool last_pass_kernel = cb_in_kernel_ || cb_ == 1 || b0 == 0;
          if (rl == 1 && !last_pass_kernel) continue;

          jit::ConvKernelDesc d;
          d.isa = opt_.isa;
          d.vlen = vlen_;
          d.rbp = rbp;
          d.rbq = rbq;
          d.r = params_.R;
          d.s = params_.S;
          d.stride_h = params_.stride_h;
          d.stride_w = params_.stride_w;
          d.in_row_stride = in_row_stride_;
          d.out_row_stride = out_row_stride_;
          // A single input block reduces only its real channels: the
          // padding lanes are never read (C < vlen, e.g. conv1's C = 3).
          d.c_iters = cb_ == 1 ? params_.C : vlen_;
          if (cb_in_kernel_) {
            d.c_blocks = cb_;
            d.in_cb_stride = static_cast<int>(in_cb_stride_);
            d.wt_cb_stride = static_cast<int>(wt_cb_stride_);
          }
          d.beta0 = (b0 == 1);
          d.fuse_relu = (rl == 1);

          fwd_variants_.push_back(reg.conv(d));
          fwd_vmap_[vmap_index(pe, qe, b0, rl)] =
              static_cast<int>(fwd_variants_.size() - 1);
        }
      }
    }
  }
}

int ConvLayer::variant_for(bool p_edge, bool q_edge, bool beta0,
                           bool relu) const {
  const int idx = fwd_vmap_[vmap_index(p_edge, q_edge, beta0, relu)];
  if (idx < 0)
    throw std::logic_error("ConvLayer: kernel variant not built for (" +
                           std::to_string(p_edge) + "," +
                           std::to_string(q_edge) + "," +
                           std::to_string(beta0) + "," + std::to_string(relu) +
                           ")");
  return idx;
}

void ConvLayer::parallel_exact(const char* what,
                               const std::function<void(int)>& body) const {
  int delivered = threads_;
#pragma omp parallel num_threads(threads_)
  {
    const int nthr = omp_get_num_threads();
#pragma omp master
    delivered = nthr;
    // Uniform across the team: either every member works or none does, so
    // barriers inside `body` (update's privatization) stay lined up.
    if (nthr == threads_) body(omp_get_thread_num());
  }
  if (delivered != threads_)
    throw std::runtime_error(
        std::string(what) + ": OpenMP delivered " +
        std::to_string(delivered) + " threads but the layer was set up for " +
        std::to_string(threads_) +
        " (nested parallel region, OMP_DYNAMIC or OMP_THREAD_LIMIT?)");
}

std::size_t ConvLayer::fwd_stream_convs() const {
  std::size_t n = 0;
  for (const auto& s : fwd_streams_) n += s.n_convs();
  return n;
}

std::size_t ConvLayer::bwd_stream_convs() const {
  if (bwd_layer_ != nullptr) return bwd_layer_->fwd_stream_convs();
  std::size_t n = 0;
  for (const auto& s : bwd_streams_) n += s.n_convs();
  return n;
}

std::size_t ConvLayer::upd_stream_calls() const {
  std::size_t n = 0;
  for (const auto& s : upd_streams_) n += s.n_calls();
  return n;
}

std::string ConvLayer::describe() const {
  std::ostringstream os;
  os << params_.to_string() << " isa=" << platform::isa_name(opt_.isa)
     << " vlen=" << vlen_ << " rb=" << rbp_ << "x" << rbq_
     << (cb_in_kernel_ ? " cb-in-kernel" : "")
     << " variants=" << fwd_variants_.size()
     << " stream_convs=" << fwd_stream_convs();
  if (!opt_.fwd_only)
    os << " bwd_stream_convs=" << bwd_stream_convs()
       << " upd_stream_calls=" << upd_stream_calls();
  os << " bwd=" << bwd_algo_name(bwd_algo_);
  if (bwd_algo_ == BwdAlgo::kdot) os << " kdot_rb=" << plan_.bwd_kdot_rb;
  os << " upd=" << upd_strategy_name(upd_strategy_) << " upd_b=" << upd_bp_
     << "x" << upd_bq_ << " threads=" << threads_
     << " plan=" << (plan_.tuned ? "tuned" : "default");
  return os.str();
}

}  // namespace xconv::core
