// Descriptor-sweep driver for the static JIT verifier: every kernel the
// generators produce for the ResNet-50 Table I and Inception-v3 shape sets
// (via the real planner blockings), plus fuzzed descriptors, must pass
// verification — under both the AVX2 and AVX-512 ISA clamps. The scalar
// clamp generates no JIT kernels by construction (generators reject it),
// which the last test documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "jit/codec_kernel_gen.hpp"
#include "jit/conv_kernel_gen.hpp"
#include "jit/kdot_kernel_gen.hpp"
#include "jit/qconv_kernel_gen.hpp"
#include "jit/upd_kernel_gen.hpp"
#include "jit/verify/verifier.hpp"
#include "platform/cpu.hpp"
#include "quant/qconv_kernels.hpp"
#include "topo/inception_v3.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
namespace jv = xconv::jit::verify;

namespace {

constexpr platform::Isa kIsaClamps[] = {platform::Isa::avx2,
                                        platform::Isa::avx512};

int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// The planner's default training plan for `p` at `isa` on 4 threads.
core::ConvPlan default_plan(const core::ConvParams& p, platform::Isa isa) {
  core::PlanKey key;
  key.params = p;
  key.isa = isa;
  key.vlen = core::resolved_vlen(isa);
  key.threads = 4;
  return core::plan_default(key);
}

/// Verify one generated kernel against its descriptor contract; a rejection
/// is a test failure carrying the full diagnostic.
template <class Desc, class KernelPtr>
int expect_verified(const Desc& d, const KernelPtr& k,
                    const std::string& what) {
  try {
    jv::verify(jv::contract_for(d), k->code(), k->code_size(), what);
  } catch (const jv::VerifyError& e) {
    ADD_FAILURE() << e.what();
    return 0;
  }
  return 1;
}

int verify_conv(const jit::ConvKernelDesc& d) {
  try {
    return expect_verified(d, jit::generate_conv_kernel(d), d.key());
  } catch (const std::invalid_argument&) {
    return 0;  // descriptor outside the generator's envelope: nothing emitted
  }
}

int verify_upd(const jit::UpdKernelDesc& d) {
  try {
    return expect_verified(d, jit::generate_upd_kernel(d), d.key());
  } catch (const std::invalid_argument&) {
    return 0;
  }
}

/// Forward-conv descriptors for one layer shape under one ISA clamp, using
/// the real planner's register blocking (main + edge variants, beta0/ReLU,
/// in-kernel Cb loop), plus the strided backward's accumulate-scatter
/// kernels at the planner's bwd_strided_rbq.
int sweep_conv_shape(const core::ConvParams& p, platform::Isa isa) {
  const core::ConvPlan plan = default_plan(p, isa);
  const int vlen = platform::vlen_fp32(isa);
  const int P = p.P(), Q = p.Q();

  std::vector<int> rbps = {plan.rbp};
  if (plan.rbp > 0 && P % plan.rbp != 0) rbps.push_back(P % plan.rbp);
  std::vector<int> rbqs = {plan.rbq};
  if (plan.rbq > 0 && Q % plan.rbq != 0) rbqs.push_back(Q % plan.rbq);

  int verified = 0;
  for (int rbp : rbps) {
    for (int rbq : rbqs) {
      for (int variant = 0; variant < 3; ++variant) {
        jit::ConvKernelDesc d;
        d.isa = isa;
        d.vlen = vlen;
        d.rbp = rbp;
        d.rbq = rbq;
        d.r = p.R;
        d.s = p.S;
        d.stride_h = p.stride_h;
        d.stride_w = p.stride_w;
        d.in_row_stride = (p.W + 2 * p.pad_w) * vlen;
        d.out_row_stride = Q * vlen;
        d.c_iters = p.C < vlen ? p.C : vlen;  // single block: real lanes
        if (plan.cb_in_kernel) {
          d.c_blocks = ceil_div(p.C, vlen);
          d.in_cb_stride =
              (p.H + 2 * p.pad_h) * (p.W + 2 * p.pad_w) * vlen;
          d.wt_cb_stride = p.R * p.S * vlen * vlen;
        }
        d.beta0 = variant != 1;
        d.fuse_relu = variant == 2;
        verified += verify_conv(d);
      }
    }
  }
  if (plan.bwd_algo != core::BwdAlgo::duality_strided) return verified;
  // Strided backward duality: a dense 1x1 read over a dO row (Kb blocks in
  // the kernel), accumulated into a dI row scattered by the stride.
  const int kb = ceil_div(p.K, vlen);
  const int qwp = Q + 2 * std::max(0, p.S - 1 - p.pad_w);
  const int php = P + 2 * std::max(0, p.R - 1 - p.pad_h);
  for (const int rbq : {plan.bwd_strided_rbq, Q % plan.bwd_strided_rbq}) {
    if (rbq == 0) continue;
    jit::ConvKernelDesc d;
    d.isa = isa;
    d.vlen = vlen;
    d.rbq = rbq;
    d.in_row_stride = qwp * vlen;
    d.out_row_stride = p.stride_h * (p.W + 2 * p.pad_w) * vlen;
    d.out_col_stride = p.stride_w * vlen;
    d.c_iters = vlen;
    if (kb > 1) {
      d.c_blocks = kb;
      d.in_cb_stride = php * qwp * vlen;
      d.wt_cb_stride = p.R * p.S * vlen * vlen;
    }
    d.beta0 = false;
    verified += verify_conv(d);
  }
  return verified;
}

/// k-dot backward descriptors for one C < vlen layer shape: every (row
/// phase, column phase) at the planner's rb plus each phase's remainder.
int sweep_kdot_shape(const core::ConvParams& p, platform::Isa isa) {
  const core::ConvPlan plan = default_plan(p, isa);
  if (plan.bwd_algo != core::BwdAlgo::kdot) return 0;
  const int vlen = platform::vlen_fp32(isa);
  const int rb = plan.bwd_kdot_rb;
  const int Q = p.Q() + 2 * (p.S - 1 - p.pad_w);
  int verified = 0;
  for (int a = 0; a < p.stride_h; ++a)
    for (int b = 0; b < p.stride_w; ++b) {
      const int first = ((b - p.pad_w) % p.stride_w + p.stride_w) % p.stride_w;
      const int count = first < p.W ? (p.W - 1 - first) / p.stride_w + 1 : 0;
      for (int width : {std::min(rb, count), count % rb}) {
        if (width == 0) continue;
        jit::KdotKernelDesc d;
        d.isa = isa;
        d.vlen = vlen;
        d.c = p.C;
        d.rb = width;
        d.kb = ceil_div(p.K, vlen);
        d.r = p.R;
        d.s = p.S;
        d.stride_h = p.stride_h;
        d.stride_w = p.stride_w;
        d.r0 = a;
        d.s0 = b;
        d.do_row_stride = Q * vlen;
        d.do_kb_stride = (p.P() + 2 * (p.R - 1 - p.pad_h)) * Q * vlen;
        d.di_px_stride = p.stride_w * vlen;
        try {
          verified +=
              expect_verified(d, jit::generate_kdot_kernel(d), d.key());
        } catch (const std::invalid_argument& e) {
          ADD_FAILURE() << "planner produced an invalid k-dot desc: "
                        << e.what();
        }
      }
    }
  return verified;
}

/// Weight-update descriptors for one layer shape (planner pixel blocking,
/// edge and channel-remainder variants).
int sweep_upd_shape(const core::ConvParams& p, platform::Isa isa) {
  const core::ConvPlan plan = default_plan(p, isa);
  if (plan.upd_bp <= 0 || plan.upd_bq <= 0) return 0;
  const int vlen = platform::vlen_fp32(isa);
  const int P = p.P(), Q = p.Q();

  std::vector<int> bps = {plan.upd_bp};
  if (P % plan.upd_bp != 0) bps.push_back(P % plan.upd_bp);
  std::vector<int> bqs = {plan.upd_bq};
  if (Q % plan.upd_bq != 0) bqs.push_back(Q % plan.upd_bq);
  std::vector<int> cmins = {0};
  if (p.C % vlen != 0) cmins.push_back(p.C % vlen);

  int verified = 0;
  for (int bp : bps)
    for (int bq : bqs)
      for (int cmin : cmins)
        for (int b0 = 0; b0 < 2; ++b0) {
          jit::UpdKernelDesc d;
          d.isa = isa;
          d.vlen = vlen;
          d.bp = bp;
          d.bq = bq;
          d.stride_h = p.stride_h;
          d.stride_w = p.stride_w;
          d.in_row_stride = (p.W + 2 * p.pad_w) * vlen;
          d.out_row_stride = Q * vlen;
          d.cmin = cmin;
          d.beta0 = (b0 == 1);
          verified += verify_upd(d);
        }
  return verified;
}

}  // namespace

TEST(JitVerifySweep, ResNet50Table1ForwardKernels) {
  int verified = 0;
  for (platform::Isa isa : kIsaClamps)
    for (const topo::LayerSpec& l : topo::resnet50_table1())
      verified += sweep_conv_shape(topo::table1_params(l, 4), isa);
  EXPECT_GE(verified, 2 * 20 * 3) << "sweep unexpectedly thin";
}

TEST(JitVerifySweep, InceptionV3ForwardKernels) {
  int verified = 0;
  for (platform::Isa isa : kIsaClamps)
    for (const topo::InceptionConv& l : topo::inception_v3_convs())
      verified += sweep_conv_shape(topo::inception_params(l, 4), isa);
  EXPECT_GE(verified, 2 * 20 * 3);
}

TEST(JitVerifySweep, KdotBackwardKernels) {
  // ResNet-50 and Inception-v3 first layers (C = 3), plus every small-C
  // class the property suites cover.
  std::vector<core::ConvParams> shapes = {
      topo::table1_params(topo::resnet50_table1()[0], 4),
      topo::inception_params(topo::inception_v3_convs()[0], 4)};
  for (int c : {1, 2, 5, 7, 15})
    for (int stride : {1, 2})
      for (int r : {1, 3, 7})
        shapes.push_back(core::make_conv(2, c, 20, 11, 13, r, r, stride,
                                         (r - 1) / 2));
  int verified = 0;
  for (platform::Isa isa : kIsaClamps)
    for (const core::ConvParams& p : shapes)
      verified += sweep_kdot_shape(p, isa);
  EXPECT_GE(verified, 2 * 30) << "sweep unexpectedly thin";
}

TEST(JitVerifySweep, ResNet50UpdateKernels) {
  int verified = 0;
  for (platform::Isa isa : kIsaClamps)
    for (const topo::LayerSpec& l : topo::resnet50_table1())
      verified += sweep_upd_shape(topo::table1_params(l, 4), isa);
  EXPECT_GE(verified, 2 * 20 * 2);
}

TEST(JitVerifySweep, ReduceKernels) {
  int verified = 0;
  for (platform::Isa isa : kIsaClamps)
    for (int copies : {2, 3, 8})
      for (int unroll : {1, 2, 4, 8}) {
        jit::ReduceKernelDesc d;
        d.isa = isa;
        d.vlen = platform::vlen_fp32(isa);
        d.copies = copies;
        d.copy_stride = 1 << 20;
        d.unroll = unroll;
        try {
          verified +=
              expect_verified(d, jit::generate_reduce_kernel(d), d.key());
        } catch (const std::invalid_argument&) {
        }
      }
  EXPECT_GE(verified, 12);
}

TEST(JitVerifySweep, CodecKernelsAllOps) {
  int verified = 0;
  for (jit::CodecOp op :
       {jit::CodecOp::fold_add, jit::CodecOp::fold_amax,
        jit::CodecOp::int16_quant,
        jit::CodecOp::int16_dequant, jit::CodecOp::int16_dequant_acc,
        jit::CodecOp::bf16_pack, jit::CodecOp::bf16_unpack,
        jit::CodecOp::bf16_unpack_acc, jit::CodecOp::topk_mag,
        jit::CodecOp::topk_compress}) {
    jit::CodecKernelDesc d;
    d.op = op;
    d.isa = platform::Isa::avx512;
    d.vlen = 16;
    verified += expect_verified(d, jit::generate_codec_kernel(d), d.key());
  }
  EXPECT_EQ(verified, 10);
}

TEST(JitVerifySweep, QConvKernels) {
  int verified = 0;
  for (const topo::LayerSpec& l : topo::resnet50_table1()) {
    const core::ConvParams p = topo::table1_params(l, 4);
    if (p.C % 2 != 0) continue;  // int16 path pairs channels
    for (int rbq : {1, 7, 13}) {
      if (rbq > p.Q()) continue;
      for (int flush : {1, 64}) {
        quant::QKernelDesc d;
        d.vlen = 16;
        d.rbq = rbq;
        d.r = p.R;
        d.s = p.S;
        d.stride_w = p.stride_w;
        d.stride_h = p.stride_h;
        d.in_row_stride = (p.W + 2 * p.pad_w) * 16;
        d.c2_iters = 8;
        d.flush_interval = flush;
        try {
          verified +=
              expect_verified(d, jit::generate_qconv_kernel(d), d.key());
        } catch (const std::invalid_argument&) {
        }
      }
    }
  }
  // In-kernel Cb loop variant (1x1 path).
  {
    quant::QKernelDesc d;
    d.vlen = 16;
    d.rbq = 8;
    d.in_row_stride = 64 * 16;
    d.c2_iters = 8;
    d.c_blocks = 4;
    d.in_cb_stride = 64 * 64 * 16;
    d.wt_cb_stride = 16 * 16;
    verified += expect_verified(d, jit::generate_qconv_kernel(d), d.key());
  }
  EXPECT_GE(verified, 20);
}

TEST(JitVerifySweep, FuzzedConvDescriptors) {
  std::mt19937 rng(0xC0FFEE);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
  };
  int verified = 0;
  for (int i = 0; i < 150; ++i) {
    const platform::Isa isa = (rng() & 1) ? platform::Isa::avx512
                                          : platform::Isa::avx2;
    const int vlen = platform::vlen_fp32(isa);
    jit::ConvKernelDesc d;
    d.isa = isa;
    d.vlen = vlen;
    d.rbp = pick(1, 4);
    d.rbq = pick(1, 6);
    d.r = (rng() & 1) ? 1 : pick(2, 7);
    d.s = (rng() & 1) ? 1 : pick(2, 7);
    d.stride_h = d.stride_w = pick(1, 2);
    d.in_row_stride = (d.rbq * d.stride_w + d.s + pick(0, 8)) * vlen;
    d.out_row_stride = (d.rbq + pick(0, 4)) * vlen;
    if ((rng() & 3) == 0) d.out_col_stride = 2 * vlen;
    d.c_iters = vlen;
    if (d.r == 1 && d.s == 1 && (rng() & 1)) {
      d.c_blocks = pick(2, 4);
      d.in_cb_stride = (d.rbp * d.stride_h + 2) * d.in_row_stride;
      d.wt_cb_stride = vlen * vlen;
    }
    d.beta0 = rng() & 1;
    d.fuse_relu = rng() & 1;
    d.prefetch = rng() & 1;
    verified += verify_conv(d);
  }
  EXPECT_GE(verified, 50) << "fuzz rejected too many descriptors pre-codegen";
}

TEST(JitVerifySweep, FuzzedUpdDescriptors) {
  std::mt19937 rng(0xBEEF);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
  };
  int verified = 0;
  for (int i = 0; i < 60; ++i) {
    const platform::Isa isa = (rng() & 1) ? platform::Isa::avx512
                                          : platform::Isa::avx2;
    const int vlen = platform::vlen_fp32(isa);
    jit::UpdKernelDesc d;
    d.isa = isa;
    d.vlen = vlen;
    d.bp = pick(1, 4);
    d.bq = pick(1, 14);
    d.stride_h = d.stride_w = pick(1, 2);
    d.in_row_stride = (d.bq * d.stride_w + pick(1, 8)) * vlen;
    d.out_row_stride = (d.bq + pick(0, 4)) * vlen;
    d.cmin = (rng() & 1) ? pick(1, vlen - 1) : 0;
    d.beta0 = rng() & 1;
    d.prefetch = rng() & 1;
    verified += verify_upd(d);
  }
  EXPECT_GE(verified, 40);
}

TEST(JitVerifySweep, ScalarClampGeneratesNoJitKernels) {
  // The scalar ISA clamp runs scalar kernels only; the generators refuse
  // to emit for it, so there is nothing for the verifier to accept there.
  jit::ConvKernelDesc d;
  d.isa = platform::Isa::scalar;
  d.vlen = 1;
  d.in_row_stride = 16;
  d.out_row_stride = 16;
  d.c_iters = 1;
  EXPECT_THROW(jit::generate_conv_kernel(d), std::invalid_argument);
}
