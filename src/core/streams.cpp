#include "core/streams.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace xconv::core {

namespace {
void run_zero(const ZeroRecord& z, float* base) {
  std::memset(base + z.dst_off, 0,
              static_cast<std::size_t>(z.count) * sizeof(float));
}
}  // namespace

void KernelStream::record_call(SegmentType streak, std::uint16_t variant,
                               std::int64_t off_a, std::int64_t off_b,
                               std::int64_t off_c) {
  if (finished_) throw std::logic_error("KernelStream: record after finish");
  var_.push_back(variant);
  in_off_.push_back(off_a);
  wt_off_.push_back(off_b);
  out_off_.push_back(off_c);
  // Run-length encode: extend the current streak or open a new one.
  if (!segments_.empty() && segments_.back().type == streak)
    ++segments_.back().info;
  else
    segments_.push_back({streak, 1});
}

void KernelStream::record_conv(std::uint16_t variant, std::int64_t in_off,
                               std::int64_t wt_off, std::int64_t out_off) {
  record_call(SegmentType::conv_streak, variant, in_off, wt_off, out_off);
}

void KernelStream::record_upd(std::uint16_t variant, std::int64_t in_off,
                              std::int64_t dout_off, std::int64_t dw_off) {
  record_call(SegmentType::upd_streak, variant, in_off, dout_off, dw_off);
}

void KernelStream::record_apply(const ApplyRecord& rec) {
  if (finished_) throw std::logic_error("KernelStream: record after finish");
  applies_.push_back(rec);
  segments_.push_back(
      {SegmentType::apply, static_cast<std::int32_t>(applies_.size() - 1)});
}

void KernelStream::record_zero(std::int64_t dst_off, std::int64_t count) {
  if (finished_) throw std::logic_error("KernelStream: record after finish");
  zeros_.push_back({dst_off, count});
  segments_.push_back(
      {SegmentType::zero, static_cast<std::int32_t>(zeros_.size() - 1)});
}

void KernelStream::record_reduce(const ReduceRecord& rec) {
  if (finished_) throw std::logic_error("KernelStream: record after finish");
  reduces_.push_back(rec);
  segments_.push_back(
      {SegmentType::reduce, static_cast<std::int32_t>(reduces_.size() - 1)});
}

void KernelStream::record_barrier() {
  if (finished_) throw std::logic_error("KernelStream: record after finish");
  segments_.push_back({SegmentType::barrier, 0});
}

void KernelStream::finish() { finished_ = true; }

void KernelStream::clear() {
  var_.clear();
  in_off_.clear();
  wt_off_.clear();
  out_off_.clear();
  segments_.clear();
  applies_.clear();
  zeros_.clear();
  reduces_.clear();
  finished_ = false;
}

void KernelStream::replay(
    const std::vector<const kernels::ConvMicrokernel*>& variants,
    const float* in_base, const float* wt_base, float* out_base,
    const FusionArgs& fargs) const {
  if (!finished_) throw std::logic_error("KernelStream: replay before finish");
  const std::size_t total = var_.size();
  std::size_t i = 0;
  for (const Segment& seg : segments_) {
    switch (seg.type) {
      case SegmentType::conv_streak:
        for (std::int32_t c = 0; c < seg.info; ++c, ++i) {
          // Prefetch args = the next call's sub-tensors (clamped at the
          // tail).
          const std::size_t j = (i + 1 < total) ? i + 1 : i;
          variants[var_[i]]->run(in_base + in_off_[i], wt_base + wt_off_[i],
                                 out_base + out_off_[i], in_base + in_off_[j],
                                 wt_base + wt_off_[j], out_base + out_off_[j]);
        }
        break;
      case SegmentType::apply:
        if (!fargs.empty()) apply_fused_op(applies_[seg.info], out_base, fargs);
        break;
      case SegmentType::zero:
        run_zero(zeros_[seg.info], out_base);
        break;
      case SegmentType::barrier: {
#pragma omp barrier
        break;
      }
      default:
        throw std::logic_error(
            "KernelStream: update-family record in conv replay");
    }
  }
}

void KernelStream::replay_upd(
    const std::vector<const kernels::UpdMicrokernel*>& variants,
    const float* in_base, const float* dout_base, float* dw_base,
    const float* red_src, float* red_dst,
    const kernels::ReduceMicrokernel* reduce_kernel) const {
  if (!finished_) throw std::logic_error("KernelStream: replay before finish");
  const std::size_t total = var_.size();
  std::size_t i = 0;
  for (const Segment& seg : segments_) {
    switch (seg.type) {
      case SegmentType::upd_streak:
        for (std::int32_t c = 0; c < seg.info; ++c, ++i) {
          const std::size_t j = (i + 1 < total) ? i + 1 : i;
          variants[var_[i]]->run(in_base + in_off_[i], dout_base + wt_off_[i],
                                 dw_base + out_off_[i], in_base + in_off_[j],
                                 dout_base + wt_off_[j],
                                 dw_base + out_off_[j]);
        }
        break;
      case SegmentType::zero:
        run_zero(zeros_[seg.info], dw_base);
        break;
      case SegmentType::reduce: {
        if (reduce_kernel == nullptr)
          throw std::logic_error(
              "KernelStream: REDUCE record replayed without a reduce kernel");
        const ReduceRecord& r = reduces_[seg.info];
        reduce_kernel->run(red_src + r.begin, red_dst + r.begin, r.count);
        break;
      }
      case SegmentType::barrier: {
        // Binds to the innermost enclosing parallel region; every thread's
        // stream records the same barrier sequence, so the team lines up.
#pragma omp barrier
        break;
      }
      default:
        throw std::logic_error(
            "KernelStream: conv-family record in update replay");
    }
  }
}

}  // namespace xconv::core
