// Kernel-streams framework (Section II-H): recording, run-length encoding
// into segments, replay semantics, and the defining prefetch property
// pf_off(i) == off(i+1).
#include <gtest/gtest.h>

#include <vector>

#include "core/streams.hpp"
#include "kernels/kernel_registry.hpp"
#include "test_helpers.hpp"

using namespace xconv;
using core::KernelStream;
using core::SegmentType;

namespace {

// Fake microkernel that records every call's arguments.
struct Call {
  const float *in, *wt, *pf_in, *pf_wt;
  float *out, *pf_out;
};

class RecordingKernel final : public kernels::ConvMicrokernel {
 public:
  RecordingKernel() : ConvMicrokernel(make_desc()) {}
  void run(const float* in, const float* wt, float* out, const float* pf_in,
           const float* pf_wt, const float* pf_out) const override {
    calls.push_back({in, wt, pf_in, pf_wt, out, const_cast<float*>(pf_out)});
  }
  kernels::Backend backend() const override {
    return kernels::Backend::scalar;
  }
  mutable std::vector<Call> calls;

 private:
  static jit::ConvKernelDesc make_desc() {
    jit::ConvKernelDesc d;
    d.isa = platform::Isa::avx512;
    d.vlen = 16;
    d.rbp = d.rbq = 1;
    d.r = d.s = 1;
    d.in_row_stride = 16;
    d.out_row_stride = 16;
    d.c_iters = 16;
    return d;
  }
};

// Fake weight-update microkernel recording every call's arguments.
struct UpdCall {
  const float *in, *dout, *pf_in, *pf_dout, *pf_dw;
  float* dw;
};

class RecordingUpdKernel final : public kernels::UpdMicrokernel {
 public:
  RecordingUpdKernel() : UpdMicrokernel(make_desc()) {}
  void run(const float* in, const float* dout, float* dw, const float* pf_in,
           const float* pf_dout, const float* pf_dw) const override {
    calls.push_back(
        {in, dout, pf_in, pf_dout, pf_dw, const_cast<float*>(dw)});
  }
  kernels::Backend backend() const override {
    return kernels::Backend::scalar;
  }
  mutable std::vector<UpdCall> calls;

 private:
  static jit::UpdKernelDesc make_desc() {
    jit::UpdKernelDesc d;
    d.vlen = 16;
    d.in_row_stride = 16;
    d.out_row_stride = 16;
    return d;
  }
};

}  // namespace

TEST(Streams, RleBuildsConvStreaks) {
  KernelStream s;
  s.record_conv(0, 0, 0, 0);
  s.record_conv(0, 1, 1, 1);
  s.record_conv(1, 2, 2, 2);
  core::ApplyRecord rec;
  rec.op = core::FusedOp::relu;
  rec.vlen = 16;
  rec.rows = rec.cols = 1;
  rec.row_stride = 16;
  s.record_apply(rec);
  s.record_conv(0, 3, 3, 3);
  s.finish();

  ASSERT_EQ(s.n_segments(), 3u);
  EXPECT_EQ(s.segments()[0].type, SegmentType::conv_streak);
  EXPECT_EQ(s.segments()[0].info, 3);
  EXPECT_EQ(s.segments()[1].type, SegmentType::apply);
  EXPECT_EQ(s.segments()[2].type, SegmentType::conv_streak);
  EXPECT_EQ(s.segments()[2].info, 1);
  EXPECT_EQ(s.n_convs(), 4u);
  EXPECT_EQ(s.applies().size(), 1u);
}

TEST(Streams, PrefetchArgsAreNextCallsOffsets) {
  // The Figure 1 property: pi_off_i = i_off_{i+1}, etc.
  KernelStream s;
  const int n = 9;
  for (int i = 0; i < n; ++i)
    s.record_conv(0, 10 * i, 100 * i, 1000 * i);
  s.finish();

  RecordingKernel k;
  std::vector<const kernels::ConvMicrokernel*> variants{&k};
  std::vector<float> in(1000), wt(1000);
  std::vector<float> out(10000);
  s.replay(variants, in.data(), wt.data(), out.data(), {});
  ASSERT_EQ(k.calls.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int j = std::min(i + 1, n - 1);  // clamped at the tail
    EXPECT_EQ(k.calls[i].in, in.data() + 10 * i);
    EXPECT_EQ(k.calls[i].pf_in, in.data() + 10 * j);
    EXPECT_EQ(k.calls[i].pf_wt, wt.data() + 100 * j);
    EXPECT_EQ(k.calls[i].pf_out, out.data() + 1000 * j);
  }
}

TEST(Streams, PrefetchCrossesApplyBoundaries) {
  // A conv followed by APPLY followed by conv still prefetches the *next
  // conv's* tensors, not the APPLY's.
  KernelStream s;
  s.record_conv(0, 0, 0, 0);
  core::ApplyRecord rec;
  rec.op = core::FusedOp::relu;
  rec.vlen = 1;
  rec.rows = rec.cols = 1;
  rec.row_stride = 1;
  s.record_apply(rec);
  s.record_conv(0, 5, 6, 7);
  s.finish();

  RecordingKernel k;
  std::vector<const kernels::ConvMicrokernel*> variants{&k};
  std::vector<float> in(64), wt(64), out(64);
  s.replay(variants, in.data(), wt.data(), out.data(), {});
  ASSERT_EQ(k.calls.size(), 2u);
  EXPECT_EQ(k.calls[0].pf_in, in.data() + 5);
  EXPECT_EQ(k.calls[0].pf_wt, wt.data() + 6);
}

TEST(Streams, VariantStreamSelectsKernels) {
  KernelStream s;
  s.record_conv(1, 0, 0, 0);
  s.record_conv(0, 0, 0, 16);
  s.finish();
  RecordingKernel k0, k1;
  std::vector<const kernels::ConvMicrokernel*> variants{&k0, &k1};
  std::vector<float> in(64), wt(64), out(64);
  s.replay(variants, in.data(), wt.data(), out.data(), {});
  EXPECT_EQ(k1.calls.size(), 1u);
  EXPECT_EQ(k0.calls.size(), 1u);
  EXPECT_EQ(k0.calls[0].out, out.data() + 16);
}

TEST(Streams, LifecycleEnforced) {
  KernelStream s;
  EXPECT_THROW(s.replay({}, nullptr, nullptr, nullptr, {}),
               std::logic_error);  // replay before finish
  s.record_conv(0, 0, 0, 0);
  s.finish();
  EXPECT_THROW(s.record_conv(0, 0, 0, 0), std::logic_error);
  s.clear();
  EXPECT_FALSE(s.finished());
  EXPECT_EQ(s.n_convs(), 0u);
}

TEST(Streams, ReplayIsDeterministic) {
  // Two replays against the same tensors produce identical results — the
  // "no recompilation / no tuning at runtime" property.
  KernelStream s;
  for (int i = 0; i < 5; ++i) s.record_conv(0, 0, 0, 16 * i);
  s.finish();
  RecordingKernel k;
  std::vector<const kernels::ConvMicrokernel*> variants{&k};
  std::vector<float> in(64), wt(64), out(256);
  s.replay(variants, in.data(), wt.data(), out.data(), {});
  const auto first = k.calls;
  k.calls.clear();
  s.replay(variants, in.data(), wt.data(), out.data(), {});
  ASSERT_EQ(k.calls.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(k.calls[i].in, first[i].in);
    EXPECT_EQ(k.calls[i].out, first[i].out);
  }
}

TEST(Streams, UpdStreaksRleAndPrefetch) {
  // The pass-agnostic recorder applies the same RLE and Figure-1 prefetch
  // property to weight-update streaks.
  KernelStream s;
  const int n = 6;
  for (int i = 0; i < n; ++i) s.record_upd(0, 7 * i, 70 * i, 700 * i);
  s.finish();
  ASSERT_EQ(s.n_segments(), 1u);
  EXPECT_EQ(s.segments()[0].type, SegmentType::upd_streak);
  EXPECT_EQ(s.segments()[0].info, n);

  RecordingUpdKernel k;
  std::vector<const kernels::UpdMicrokernel*> variants{&k};
  std::vector<float> in(100), dout(1000), dw(10000);
  s.replay_upd(variants, in.data(), dout.data(), dw.data(), nullptr,
               nullptr, nullptr);
  ASSERT_EQ(k.calls.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int j = std::min(i + 1, n - 1);  // clamped at the tail
    EXPECT_EQ(k.calls[i].in, in.data() + 7 * i);
    EXPECT_EQ(k.calls[i].dout, dout.data() + 70 * i);
    EXPECT_EQ(k.calls[i].dw, dw.data() + 700 * i);
    EXPECT_EQ(k.calls[i].pf_in, in.data() + 7 * j);
    EXPECT_EQ(k.calls[i].pf_dout, dout.data() + 70 * j);
    EXPECT_EQ(k.calls[i].pf_dw, dw.data() + 700 * j);
  }
}

TEST(Streams, ZeroAndReduceReplay) {
  // A minibatch-privatization stream: zero this thread's copy, (no
  // accumulation), then sum 3 copies into the destination through the
  // registry's scalar reduce kernel, whose descriptor holds the copies.
  KernelStream s;
  s.record_zero(2, 4);
  s.record_barrier();  // no-op when replayed serially
  core::ReduceRecord r;
  r.begin = 1;
  r.count = 3;
  s.record_reduce(r);
  s.finish();
  ASSERT_EQ(s.n_segments(), 3u);
  EXPECT_EQ(s.segments()[0].type, SegmentType::zero);
  EXPECT_EQ(s.segments()[1].type, SegmentType::barrier);
  EXPECT_EQ(s.segments()[2].type, SegmentType::reduce);

  jit::ReduceKernelDesc rd;
  rd.isa = platform::Isa::scalar;
  rd.copies = 3;
  rd.copy_stride = 8;
  const kernels::ReduceMicrokernel* red =
      kernels::KernelRegistry::instance().reduce(rd);
  ASSERT_EQ(red->backend(), kernels::Backend::scalar);

  std::vector<float> dw(8, 5.0f);          // the thread's private copy
  std::vector<float> arena(24);            // 3 copies of 8 elements
  for (std::size_t i = 0; i < arena.size(); ++i)
    arena[i] = static_cast<float>(i);
  std::vector<float> dst(8, -1.0f);
  s.replay_upd({}, nullptr, nullptr, dw.data(), arena.data(), dst.data(),
               red);
  // zero: dw[2..5] cleared, rest untouched.
  EXPECT_FLOAT_EQ(dw[1], 5.0f);
  EXPECT_FLOAT_EQ(dw[2], 0.0f);
  EXPECT_FLOAT_EQ(dw[5], 0.0f);
  EXPECT_FLOAT_EQ(dw[6], 5.0f);
  // reduce: dst[e] = arena[e] + arena[8+e] + arena[16+e] for e in [1, 4).
  EXPECT_FLOAT_EQ(dst[0], -1.0f);
  for (int e = 1; e < 4; ++e)
    EXPECT_FLOAT_EQ(dst[e], static_cast<float>(e + (8 + e) + (16 + e)));
  EXPECT_FLOAT_EQ(dst[4], -1.0f);

  // A REDUCE record has no loop of its own: replaying it without a kernel
  // is a logic error, not a silent skip.
  EXPECT_THROW(s.replay_upd({}, nullptr, nullptr, dw.data(), arena.data(),
                            dst.data(), nullptr),
               std::logic_error);
}

TEST(Streams, ZeroInConvReplayClearsOutput) {
  // The strided backward's streams: ZERO a range of the output, then CONV
  // calls accumulate into it. ZERO offsets are relative to out_base.
  KernelStream s;
  s.record_zero(2, 3);
  s.finish();
  std::vector<float> out(8, 5.0f);
  s.replay({}, nullptr, nullptr, out.data(), {});
  const std::vector<float> want = {5, 5, 0, 0, 0, 5, 5, 5};
  EXPECT_EQ(out, want);
}

TEST(Streams, MixedFamilyReplayThrows) {
  KernelStream conv_stream;
  conv_stream.record_conv(0, 0, 0, 0);
  conv_stream.finish();
  EXPECT_THROW(
      conv_stream.replay_upd({}, nullptr, nullptr, nullptr, nullptr, nullptr,
                             nullptr),
      std::logic_error);

  KernelStream upd_stream;
  upd_stream.record_upd(0, 0, 0, 0);
  upd_stream.finish();
  EXPECT_THROW(upd_stream.replay({}, nullptr, nullptr, nullptr, {}),
               std::logic_error);
}

TEST(Streams, ConvAndUpdStreaksDoNotMerge) {
  // RLE only merges records of the same family.
  KernelStream s;
  s.record_conv(0, 0, 0, 0);
  s.record_upd(0, 0, 0, 0);
  s.record_upd(0, 1, 1, 1);
  s.finish();
  ASSERT_EQ(s.n_segments(), 2u);
  EXPECT_EQ(s.segments()[0].type, SegmentType::conv_streak);
  EXPECT_EQ(s.segments()[0].info, 1);
  EXPECT_EQ(s.segments()[1].type, SegmentType::upd_streak);
  EXPECT_EQ(s.segments()[1].info, 2);
}

TEST(Streams, SegmentStructureOfRealLayer) {
  // An end-to-end check that a fused ConvLayer produces interleaved
  // CONV-STREAK / APPLY segments like Figure 2.
  const auto p = core::make_conv(1, 32, 32, 8, 8, 3, 3, 1);
  core::ConvOptions o;
  o.fuse = core::FusedOp::bias;
  o.threads = 1;
  core::ConvLayer layer(p, o);
  // cb = 2 passes; applies only in the last pass: streams exist and carry
  // both segment types.
  EXPECT_GT(layer.fwd_stream_convs(), 0u);
}
