// JIT microkernel generators vs the scalar oracle, across the blocking /
// variant space (register blocking, strides, beta, fused ReLU, r-loop,
// in-kernel Cb loop, scattered output columns).
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <vector>

#include "jit/conv_kernel_gen.hpp"
#include "jit/kdot_kernel_gen.hpp"
#include "jit/upd_kernel_gen.hpp"
#include "jit/verify/decoder.hpp"
#include "kernels/kernel_registry.hpp"
#include "platform/cpu.hpp"
#include "test_helpers.hpp"

using namespace xconv;
using xconv::testing::random_vec;

namespace {

bool host_has(platform::Isa isa) {
  return static_cast<int>(platform::max_isa()) >= static_cast<int>(isa);
}

struct ConvCase {
  platform::Isa isa;
  int rbp, rbq, r, s, stride;
  bool beta0, relu, prefetch;
  int c_blocks = 1;
  int ocs = 0;
};

void run_conv_case(const ConvCase& c) {
  if (!host_has(c.isa)) GTEST_SKIP() << "host lacks the ISA";
  jit::ConvKernelDesc d;
  d.isa = c.isa;
  d.vlen = platform::vlen_fp32(c.isa);
  d.rbp = c.rbp;
  d.rbq = c.rbq;
  d.r = c.r;
  d.s = c.s;
  d.stride_h = d.stride_w = c.stride;
  d.in_row_stride = (c.rbq * c.stride + c.s + 8) * d.vlen;
  d.out_row_stride = (c.rbq + 4) * (c.ocs > 0 ? c.ocs : d.vlen);
  d.out_col_stride = c.ocs;
  d.c_iters = d.vlen;
  d.c_blocks = c.c_blocks;
  if (c.c_blocks > 1) {
    d.in_cb_stride = (c.rbp * c.stride + c.r + 2) * d.in_row_stride;
    d.wt_cb_stride = c.r * c.s * d.vlen * d.vlen;
  }
  d.beta0 = c.beta0;
  d.fuse_relu = c.relu;
  d.prefetch = c.prefetch;

  const std::size_t in_sz =
      static_cast<std::size_t>(c.c_blocks) *
      (c.rbp * c.stride + c.r + 2) * d.in_row_stride;
  const std::size_t wt_sz = static_cast<std::size_t>(c.c_blocks) * c.r * c.s *
                            d.vlen * d.vlen;
  const std::size_t out_sz =
      static_cast<std::size_t>(c.rbp + 1) * d.out_row_stride;
  const auto in = random_vec(in_sz, 1);
  const auto wt = random_vec(wt_sz, 2);
  auto out_jit = random_vec(out_sz, 3);
  auto out_ref = out_jit;

  auto k = jit::generate_conv_kernel(d);
  (*k)(in.data(), wt.data(), out_jit.data(), in.data(), wt.data(),
       out_jit.data());
  auto sc = kernels::make_conv_scalar(d);
  sc->run(in.data(), wt.data(), out_ref.data(), nullptr, nullptr, nullptr);
  xconv::testing::expect_close(out_ref, out_jit, 1e-4, "conv kernel");
}

}  // namespace

class JitConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(JitConvSweep, MatchesScalar) { run_conv_case(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Avx512, JitConvSweep,
    ::testing::Values(
        ConvCase{platform::Isa::avx512, 1, 14, 3, 3, 1, false, false, true},
        ConvCase{platform::Isa::avx512, 2, 14, 3, 3, 1, true, false, true},
        ConvCase{platform::Isa::avx512, 4, 7, 3, 3, 1, false, true, false},
        ConvCase{platform::Isa::avx512, 1, 14, 1, 1, 1, true, false, true},
        ConvCase{platform::Isa::avx512, 1, 12, 1, 1, 2, true, false, true},
        ConvCase{platform::Isa::avx512, 1, 14, 7, 7, 2, true, true, true},
        ConvCase{platform::Isa::avx512, 1, 28, 1, 1, 1, false, false, false},
        ConvCase{platform::Isa::avx512, 1, 1, 3, 3, 1, false, false, true},
        // in-kernel Cb loop (1x1 layers)
        ConvCase{platform::Isa::avx512, 1, 14, 1, 1, 1, true, false, true, 4},
        ConvCase{platform::Isa::avx512, 2, 8, 1, 1, 1, true, true, true, 3},
        // scattered output columns (strided 1x1 backward duality)
        ConvCase{platform::Isa::avx512, 1, 10, 1, 1, 1, true, false, true, 2,
                 32}));

INSTANTIATE_TEST_SUITE_P(
    Avx2, JitConvSweep,
    ::testing::Values(
        ConvCase{platform::Isa::avx2, 1, 12, 3, 3, 1, false, false, true},
        ConvCase{platform::Isa::avx2, 2, 6, 3, 3, 1, true, true, true},
        ConvCase{platform::Isa::avx2, 1, 8, 1, 1, 2, true, false, false},
        ConvCase{platform::Isa::avx2, 1, 12, 1, 1, 1, true, false, true, 4},
        ConvCase{platform::Isa::avx2, 1, 12, 7, 7, 2, true, false, true}));

TEST(JitConv, DescValidation) {
  jit::ConvKernelDesc d;
  d.isa = platform::Isa::avx512;
  d.vlen = 16;
  d.rbp = 2;
  d.rbq = 15;  // 30 accumulators > 28
  d.r = d.s = 1;
  d.in_row_stride = 256;
  d.out_row_stride = 256;
  d.c_iters = 16;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.rbq = 14;
  EXPECT_NO_THROW(d.validate());
  d.vlen = 8;  // inconsistent with avx512
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.vlen = 16;
  d.c_blocks = 2;  // needs 1x1 + strides
  d.r = 3;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.r = 1;
  EXPECT_THROW(d.validate(), std::invalid_argument);  // missing cb strides
  d.in_cb_stride = 1024;
  d.wt_cb_stride = 256;
  EXPECT_NO_THROW(d.validate());
}

// Every displacement the generator emits is an int32 byte count. A 1x1
// layer with C = 32 (two blocks, Cb loop in the kernel) on a 5800 x 5800
// input steps 538,240,000 elements = 2,152,960,000 bytes per input block,
// past INT32_MAX: the descriptor is rejected, no tensor needed.
TEST(JitConv, ByteDisplacementPastInt32Rejected) {
  jit::ConvKernelDesc d;
  d.isa = platform::Isa::avx512;
  d.vlen = 16;
  d.rbq = 10;
  d.in_row_stride = d.out_row_stride = 5800 * 16;
  d.c_iters = 16;
  d.c_blocks = 2;
  d.in_cb_stride = 5800 * 5800 * 16;
  d.wt_cb_stride = 256;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  EXPECT_THROW(jit::generate_conv_kernel(d), std::invalid_argument);
  d.in_cb_stride = 2000 * 2000 * 16;  // 256 MB per block: addressable
  EXPECT_NO_THROW(d.validate());

  // Row strides reach past int32 through the rows a kernel spans
  // (rbp * stride_h + r - 1 = 6 input rows here).
  d.c_blocks = 1;
  d.in_cb_stride = d.wt_cb_stride = 0;
  d.rbp = 2;
  d.stride_h = 2;
  d.r = 3;
  d.in_row_stride = (INT32_MAX / 4) / 5 + 16;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.in_row_stride = (INT32_MAX / 4) / 8;
  EXPECT_NO_THROW(d.validate());
}

TEST(JitConv, KeyIsInjectiveOverVariants) {
  jit::ConvKernelDesc a;
  a.isa = platform::Isa::avx512;
  a.vlen = 16;
  a.rbp = 1;
  a.rbq = 14;
  a.r = a.s = 3;
  a.in_row_stride = 960;
  a.out_row_stride = 896;
  a.c_iters = 16;
  auto b = a;
  b.beta0 = true;
  auto c = a;
  c.fuse_relu = true;
  auto d2 = a;
  d2.rbq = 7;
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  EXPECT_NE(a.key(), d2.key());
  EXPECT_EQ(a.key(), jit::ConvKernelDesc(a).key());
}

TEST(JitConv, CbInKernelPrefetchCountPinned) {
  // A 1x1 kernel, 1x14 pixels: 14 input lines + 14 output lines + 16
  // weight lines = 44 queued prefetch slots. The scheduler spaces them by
  // the whole call's FMAs (14 * 16 * c_blocks) / 45, but an in-kernel Cb loop
  // emits its body once: with c_blocks = 4 the interval is 896 / 45 = 19 and
  // the 224-FMA body reaches only 224 / 19 = 11 slots. Spreading all 44 over
  // the body measured slower, so any change to these counts is deliberate.
  auto prefetches = [](int c_blocks) {
    jit::ConvKernelDesc d;
    d.isa = platform::Isa::avx512;
    d.vlen = 16;
    d.rbq = 14;
    d.in_row_stride = 14 * 16;
    d.out_row_stride = 14 * 16;
    d.c_iters = 16;
    d.c_blocks = c_blocks;
    if (c_blocks > 1) {
      d.in_cb_stride = 14 * 14 * 16;
      d.wt_cb_stride = 16 * 16;
    }
    d.beta0 = true;
    const auto k = jit::generate_conv_kernel(d);
    const auto r = jit::verify::decode(k->code(), k->code_size());
    EXPECT_TRUE(r.ok()) << r.error;
    int n = 0;
    for (const auto& in : r.insns) n += in.is_prefetch ? 1 : 0;
    return n;
  };
  EXPECT_EQ(prefetches(1), 44);  // every slot fits the straight-line body
  EXPECT_EQ(prefetches(4), 11);
}

TEST(JitConv, LargeFilterUsesLoopAndStaysSmall) {
  if (!host_has(platform::Isa::avx512)) GTEST_SKIP();
  jit::ConvKernelDesc d;
  d.isa = platform::Isa::avx512;
  d.vlen = 16;
  d.rbp = 1;
  d.rbq = 14;
  d.r = d.s = 7;
  d.stride_h = d.stride_w = 2;
  d.in_row_stride = 40 * 16;
  d.out_row_stride = 14 * 16;
  d.c_iters = 16;
  d.beta0 = true;
  auto k = jit::generate_conv_kernel(d);
  // A fully unrolled 7x7 would be ~(49*16*14) FMAs * ~8B = 85KB; the r-loop
  // caps generated code well below that.
  EXPECT_LT(k->code_size(), 40000u);
}

struct UpdCase {
  platform::Isa isa;
  int bp, bq, stride;
  bool beta0;
  int cmin = 0;
};

class JitUpdSweep : public ::testing::TestWithParam<UpdCase> {};

TEST_P(JitUpdSweep, MatchesScalar) {
  const auto c = GetParam();
  if (!host_has(c.isa)) GTEST_SKIP();
  jit::UpdKernelDesc d;
  d.isa = c.isa;
  d.vlen = platform::vlen_fp32(c.isa);
  d.bp = c.bp;
  d.bq = c.bq;
  d.stride_h = d.stride_w = c.stride;
  d.in_row_stride = (c.bq * c.stride + 4) * d.vlen;
  d.out_row_stride = (c.bq + 2) * d.vlen;
  d.cmin = c.cmin;
  d.beta0 = c.beta0;

  const std::size_t in_sz = static_cast<std::size_t>(c.bp * c.stride + 2) *
                            d.in_row_stride;
  const std::size_t do_sz =
      static_cast<std::size_t>(c.bp + 1) * d.out_row_stride;
  const auto in = random_vec(in_sz, 4);
  const auto dout = random_vec(do_sz, 5);
  auto dw_jit = random_vec(static_cast<std::size_t>(d.vlen) * d.vlen, 6);
  auto dw_ref = dw_jit;

  auto k = jit::generate_upd_kernel(d);
  (*k)(in.data(), dout.data(), dw_jit.data(), in.data(), dout.data(),
       dw_jit.data());
  auto sc = kernels::make_upd_scalar(d);
  sc->run(in.data(), dout.data(), dw_ref.data(), nullptr, nullptr, nullptr);
  xconv::testing::expect_close(dw_ref, dw_jit, 1e-4, "upd kernel");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JitUpdSweep,
    ::testing::Values(UpdCase{platform::Isa::avx512, 1, 14, 1, true},
                      UpdCase{platform::Isa::avx512, 4, 14, 1, false},
                      UpdCase{platform::Isa::avx512, 7, 7, 1, true},
                      UpdCase{platform::Isa::avx512, 2, 8, 2, false},
                      UpdCase{platform::Isa::avx512, 1, 1, 1, true},
                      UpdCase{platform::Isa::avx2, 2, 12, 1, true},
                      UpdCase{platform::Isa::avx2, 3, 5, 2, false},
                      // channel-remainder edge variants (C % vlen != 0)
                      UpdCase{platform::Isa::avx512, 2, 14, 1, true, 3},
                      UpdCase{platform::Isa::avx512, 3, 7, 1, false, 7},
                      UpdCase{platform::Isa::avx512, 2, 8, 2, true, 15},
                      UpdCase{platform::Isa::avx512, 1, 1, 1, false, 1},
                      UpdCase{platform::Isa::avx2, 2, 9, 1, true, 5}));

// With the pad lanes of the blocked input zeroed (as the layout code
// guarantees), the cmin edge variant must be bitwise-identical to the full
// kernel: skipped rows contribute exactly +0 per FMA, and beta0 still zeroes
// all vlen rows of the stored block.
TEST(JitUpd, CminSkipsPadRowsBitwise) {
  if (!host_has(platform::Isa::avx512)) GTEST_SKIP();
  for (const int cmin : {1, 7, 15}) {
    for (const bool beta0 : {true, false}) {
      jit::UpdKernelDesc d;
      d.isa = platform::Isa::avx512;
      d.vlen = 16;
      d.bp = 2;
      d.bq = 14;
      d.in_row_stride = (d.bq + 4) * d.vlen;
      d.out_row_stride = (d.bq + 2) * d.vlen;
      d.beta0 = beta0;

      const std::size_t in_sz =
          static_cast<std::size_t>(d.bp + 2) * d.in_row_stride;
      const std::size_t do_sz =
          static_cast<std::size_t>(d.bp + 1) * d.out_row_stride;
      auto in = random_vec(in_sz, 10);
      // Zero the pad channel lanes (c >= cmin) of every input vector.
      for (std::size_t i = 0; i < in_sz; ++i)
        if (static_cast<int>(i % d.vlen) >= cmin) in[i] = 0.0f;
      const auto dout = random_vec(do_sz, 11);
      auto dw_full = random_vec(static_cast<std::size_t>(d.vlen) * d.vlen, 12);
      auto dw_edge = dw_full;

      auto full = jit::generate_upd_kernel(d);
      (*full)(in.data(), dout.data(), dw_full.data(), in.data(), dout.data(),
              dw_full.data());
      d.cmin = cmin;
      auto edge = jit::generate_upd_kernel(d);
      (*edge)(in.data(), dout.data(), dw_edge.data(), in.data(), dout.data(),
              dw_edge.data());
      xconv::testing::expect_bitwise(dw_full, dw_edge, "cmin upd kernel");
    }
  }
}

TEST(JitUpd, DescValidation) {
  jit::UpdKernelDesc d;
  d.isa = platform::Isa::avx512;
  d.vlen = 16;
  d.bp = 1;
  d.bq = 200;  // over the unroll cap
  d.in_row_stride = 256;
  d.out_row_stride = 256;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.bq = 14;
  EXPECT_NO_THROW(d.validate());
}

// The reduce epilogue sums `copies` privatized dW copies. Scalar and JIT
// backends share one bitwise contract — copy 0 seeds, the rest add in
// ascending copy index — so results must match bit for bit, including the
// scalar tail the JIT kernel takes for n % (vlen * unroll).
struct ReduceCase {
  platform::Isa isa;
  int copies, unroll;
  std::int64_t n;
  std::int64_t pad = 0;  ///< extra elements between copies beyond n
};

class JitReduceSweep : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(JitReduceSweep, BitwiseMatchesScalar) {
  const auto c = GetParam();
  if (!host_has(c.isa)) GTEST_SKIP();
  jit::ReduceKernelDesc d;
  d.isa = c.isa;
  d.vlen = platform::vlen_fp32(c.isa);
  d.copies = c.copies;
  d.copy_stride = std::max<std::int64_t>(c.n + c.pad, d.vlen);
  d.unroll = c.unroll;

  const auto src = random_vec(
      static_cast<std::size_t>(d.copy_stride) * c.copies, 13, -4.0f, 4.0f);
  std::vector<float> dst_ref(static_cast<std::size_t>(c.n), -1.0f);
  auto dst_jit = dst_ref;

  auto sc = kernels::make_reduce_scalar(d);
  sc->run(src.data(), dst_ref.data(), c.n);
  auto k = kernels::make_reduce_jit(d);
  k->run(src.data(), dst_jit.data(), c.n);
  xconv::testing::expect_bitwise(dst_ref, dst_jit, "reduce epilogue");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JitReduceSweep,
    ::testing::Values(
        // full-vector counts across unrolls
        ReduceCase{platform::Isa::avx512, 2, 1, 256},
        ReduceCase{platform::Isa::avx512, 2, 4, 4096},
        ReduceCase{platform::Isa::avx512, 4, 4, 2304},
        ReduceCase{platform::Isa::avx512, 8, 2, 1152},
        ReduceCase{platform::Isa::avx512, 3, 8, 9 * 9 * 16},
        // scalar tails: n % (vlen * unroll) != 0
        ReduceCase{platform::Isa::avx512, 2, 4, 1},
        ReduceCase{platform::Isa::avx512, 2, 4, 15},
        ReduceCase{platform::Isa::avx512, 3, 2, 17},
        ReduceCase{platform::Isa::avx512, 4, 4, 100},
        ReduceCase{platform::Isa::avx512, 7, 1, 257},
        ReduceCase{platform::Isa::avx512, 5, 8, 4103},
        // padded copy strides (dW blocks laid out with slack)
        ReduceCase{platform::Isa::avx512, 4, 4, 2304, 64},
        ReduceCase{platform::Isa::avx512, 2, 2, 33, 31},
        // avx2 variant
        ReduceCase{platform::Isa::avx2, 4, 4, 1000},
        ReduceCase{platform::Isa::avx2, 3, 2, 23}));

TEST(JitReduce, RegistryResolvesAndCaches) {
  if (!host_has(platform::Isa::avx512)) GTEST_SKIP();
  jit::ReduceKernelDesc d;
  d.isa = platform::Isa::avx512;
  d.vlen = 16;
  d.copies = 4;
  d.copy_stride = 2304;
  d.unroll = 4;
  auto& reg = kernels::KernelRegistry::instance();
  const auto* a = reg.reduce(d);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, reg.reduce(d));  // cached
  auto sd = d;
  sd.isa = platform::Isa::scalar;
  const auto* s = reg.reduce(sd);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->backend(), kernels::Backend::scalar);
}

TEST(JitReduce, DescValidation) {
  jit::ReduceKernelDesc d;
  d.isa = platform::Isa::avx512;
  d.vlen = 16;
  d.copies = 1;  // needs >= 2
  d.copy_stride = 2304;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.copies = 2;
  EXPECT_NO_THROW(d.validate());
  d.unroll = 9;  // out of [1, 8]
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.unroll = 4;
  d.copy_stride = 8;  // < vlen
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

// k-dot backward kernels (C < vlen): the scalar reference replays the JIT's
// order — per-lane fused multiply-adds over (kb, r, s), then a pairwise lane
// tree — so the two agree bit for bit, padding lanes (+0) included.
struct KdotCase {
  platform::Isa isa;
  int c, rb, kb, r, stride, r0, s0;
};

class JitKdotSweep : public ::testing::TestWithParam<KdotCase> {};

TEST_P(JitKdotSweep, BitwiseMatchesScalar) {
  const auto c = GetParam();
  if (!host_has(c.isa)) GTEST_SKIP();
  jit::KdotKernelDesc d;
  d.isa = c.isa;
  d.vlen = platform::vlen_fp32(c.isa);
  d.c = c.c;
  d.rb = c.rb;
  d.kb = c.kb;
  d.r = d.s = c.r;
  d.stride_h = d.stride_w = c.stride;
  d.r0 = c.r0;
  d.s0 = c.s0;
  const int rows = d.taps_r() + 1, cols = d.taps_s() + c.rb + 2;
  d.do_row_stride = cols * d.vlen;
  d.do_kb_stride = rows * d.do_row_stride;
  d.di_px_stride = c.stride * d.vlen;

  const auto dout = random_vec(
      static_cast<std::size_t>(c.kb) * d.do_kb_stride, 21, -2.0f, 2.0f);
  const auto wp = random_vec(
      static_cast<std::size_t>(c.kb) * c.r * c.r * c.c * d.vlen, 22);
  std::vector<float> din_ref(
      static_cast<std::size_t>(c.rb) * d.di_px_stride, -7.0f);
  auto din_jit = din_ref;

  kernels::make_kdot_scalar(d)->run(dout.data(), wp.data(), din_ref.data());
  kernels::make_kdot_jit(d)->run(dout.data(), wp.data(), din_jit.data());
  xconv::testing::expect_bitwise(din_ref, din_jit, "kdot kernel");
  for (int j = 0; j < c.rb; ++j)
    for (int lane = c.c; lane < d.vlen; ++lane)
      ASSERT_EQ(din_jit[j * d.di_px_stride + lane], 0.0f) << j << " " << lane;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JitKdotSweep,
    ::testing::Values(
        // ResNet-50 conv1 phases (C = 3, 7x7/2, rb = 8, Kb = 4)
        KdotCase{platform::Isa::avx512, 3, 8, 4, 7, 2, 0, 0},
        KdotCase{platform::Isa::avx512, 3, 8, 4, 7, 2, 1, 0},
        KdotCase{platform::Isa::avx512, 3, 8, 4, 7, 2, 1, 1},
        KdotCase{platform::Isa::avx512, 3, 5, 4, 7, 2, 0, 1},  // remainder
        KdotCase{platform::Isa::avx512, 1, 29, 1, 3, 1, 0, 0},
        KdotCase{platform::Isa::avx512, 15, 1, 3, 3, 1, 0, 0},
        KdotCase{platform::Isa::avx512, 7, 3, 2, 1, 2, 1, 0},  // no r taps
        KdotCase{platform::Isa::avx512, 5, 5, 1, 1, 2, 0, 0},
        KdotCase{platform::Isa::avx2, 3, 3, 8, 7, 2, 0, 1},
        KdotCase{platform::Isa::avx2, 1, 13, 2, 3, 1, 0, 0},
        KdotCase{platform::Isa::avx2, 7, 1, 3, 3, 2, 1, 1},
        KdotCase{platform::Isa::avx2, 4, 2, 1, 5, 1, 0, 0}));

TEST(JitKdot, RegisterBudget) {
  using platform::Isa;
  // rb*C accumulators + C weights + one dO vector, three free for the tree.
  EXPECT_EQ(jit::KdotKernelDesc::max_rb(Isa::avx512, 3), 9);
  EXPECT_EQ(jit::KdotKernelDesc::max_rb(Isa::avx512, 1), 29);
  EXPECT_EQ(jit::KdotKernelDesc::max_rb(Isa::avx512, 15), 1);
  EXPECT_EQ(jit::KdotKernelDesc::max_rb(Isa::avx2, 3), 4);
  EXPECT_EQ(jit::KdotKernelDesc::max_rb(Isa::avx2, 7), 1);
  for (Isa isa : {Isa::avx2, Isa::avx512}) {
    const int v = platform::vlen_fp32(isa);
    for (int c = 1; c < v; ++c) {
      const int rb = jit::KdotKernelDesc::max_rb(isa, c);
      ASSERT_GE(rb, 1) << c;
      EXPECT_LE(rb * c + c + 1, isa == Isa::avx2 ? 16 : 32) << c;
    }
  }
}

TEST(JitKdot, DescValidation) {
  jit::KdotKernelDesc d;
  d.isa = platform::Isa::avx512;
  d.vlen = 16;
  d.c = 3;
  d.rb = 8;
  d.kb = 4;
  d.r = d.s = 7;
  d.stride_h = d.stride_w = 2;
  d.do_row_stride = 118 * 16;
  d.do_kb_stride = 118 * 118 * 16;
  d.di_px_stride = 32;
  EXPECT_NO_THROW(d.validate());
  d.rb = 10;  // 30 accumulators + 3 weights + dO > 32
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.rb = 8;
  d.c = 16;  // a full block is not a k-dot layer
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.c = 3;
  d.r0 = 2;  // phase must lie inside the stride
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.r0 = 0;
  d.vlen = 8;
  EXPECT_THROW(d.validate(), std::invalid_argument);
}
